"""The energy post-pass: annotate evaluated points with real energy.

Mirrors :func:`repro.testcost.cost.attach_test_costs` — the study engine
runs it on the base-objective Pareto front when the objective vector
contains ``energy`` or ``edp``.  For each feasible point the workload is
compiled onto the point's architecture (through the sweep's shared
:class:`~repro.explore.evaluate.EvaluationContext`, so register
allocations are reused) and simulated once with activity tracing; the
resulting breakdown total becomes ``point.energy``.

A per-process memo keyed on (workload, config, width, technology)
serves repeated attachments — the same key the
:class:`~repro.campaign.cache.ResultCache` persists across runs.
"""

from __future__ import annotations

import hashlib

from repro.compiler.interp import IRInterpreter
from repro.compiler.ir import IRFunction
from repro.energy.model import TechnologyParameters, technology_by_name
from repro.energy.report import EnergyBreakdown, energy_report
from repro.explore.evaluate import EvaluatedPoint, EvaluationContext
from repro.explore.space import build_architecture_cached
from repro.telemetry.metrics import MetricsCollector

#: (workload fp, profile fp, config, width, tech fp) -> breakdown total.
_ENERGY_CACHE: dict[tuple, float] = {}


def _default_context(
    workload: IRFunction, width: int
) -> "EvaluationContext":
    """A context with the workload's real profile.

    The profile steers register allocation (hot vregs win registers),
    so compiling with an empty profile would yield a *different
    program* — and a different energy — than the study engine's path.
    Standalone callers must get the same numbers a study attaches.
    """
    profile = IRInterpreter(workload, width=width).run().block_counts
    return EvaluationContext(workload, profile, width)


def _workload_fingerprint(workload: IRFunction) -> str:
    """Content hash of an IR function's observable behaviour.

    The memo must not key on ``workload.name`` alone — two IR builds
    can share a name with different inputs baked in (``build_gcd_ir``
    with different operands) and would otherwise serve each other's
    energies.  Blocks keep insertion order, and every op/terminator has
    a stable textual form.
    """
    digest = hashlib.sha256()
    digest.update(f"{workload.name}/{workload.entry}".encode())
    for block in workload.block_order():
        digest.update(f"\n#{block.name}".encode())
        for op in block.ops:
            digest.update(f"\n{op}".encode())
        digest.update(f"\n->{block.terminator}".encode())
    for addr in sorted(workload.data):
        digest.update(f"\n@{addr}={workload.data[addr]}".encode())
    return digest.hexdigest()


def energy_breakdown_of(
    point: EvaluatedPoint,
    workload: IRFunction,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
    metrics=None,
) -> EnergyBreakdown:
    """Full component-level breakdown for one feasible point."""
    if not point.feasible:
        raise ValueError(f"{point.label} is infeasible; no energy to report")
    if tech is None:
        tech = technology_by_name("default")
    if context is None:
        context = _default_context(workload, width)
    arch = build_architecture_cached(point.config, width)
    compiled = point.compile_result
    if compiled is None:
        compiled = context.evaluate(
            point.config, keep_compile_result=True
        ).compile_result
    if compiled is None:
        raise ValueError(f"{point.label}: workload does not compile")
    return energy_report(
        arch, compiled.program, tech=tech, max_cycles=max_cycles,
        metrics=metrics,
    )


def attach_energy(
    points: list[EvaluatedPoint],
    workload: IRFunction,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
    metrics=None,
) -> list[EvaluatedPoint]:
    """Annotate feasible points with switching-activity energy.

    Infeasible points are skipped (their ``energy`` stays None), and
    points that already carry an energy — restored from a result cache
    with a matching technology tag — are not re-simulated.

    ``metrics`` (a :class:`repro.telemetry.MetricsCollector`; a
    throwaway one when omitted) counts memo hits vs fresh simulations
    (``energy_memo_hits`` / ``energy_simulated``) and feeds the
    ``simulate``/``energy_model`` phase timers.
    """
    if tech is None:
        tech = technology_by_name("default")
    metrics = metrics or MetricsCollector()
    fingerprint = tech.fingerprint()
    workload_id = _workload_fingerprint(workload)
    shared = context or _default_context(workload, width)
    # The profile shapes register allocation and therefore the compiled
    # program, so it is part of the memo identity (a caller-supplied
    # context may carry any profile).
    profile_id = tuple(sorted(shared.profile.items()))
    for point in points:
        if not point.feasible or point.energy is not None:
            continue
        key = (workload_id, profile_id, point.config, width, fingerprint)
        cached = _ENERGY_CACHE.get(key)
        if cached is None:
            metrics.count("energy_simulated")
            breakdown = energy_breakdown_of(
                point,
                workload,
                width=width,
                tech=tech,
                context=shared,
                max_cycles=max_cycles,
                metrics=metrics,
            )
            cached = round(breakdown.total, 3)
            _ENERGY_CACHE[key] = cached
        else:
            metrics.count("energy_memo_hits")
        point.energy = cached
    return points
