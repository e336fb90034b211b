"""Output checks: golden values plus checks that need no golden.

Golden values (``golden.json``) were captured with ``capture_golden.py``
from the program at the commit that added this benchmark.  Every
comparison goes through a :class:`Checker`, which counts checks made
and keeps one message per mismatch; both feed the result line's
``attempted`` and ``failed``.  A missing or corrupted golden value is a
mismatch, never an exception: the benchmark must report wrong outputs,
not crash on them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    """The golden table, or ``{}`` when the file cannot be read."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _round(value):
    return None if value is None else round(float(value), 6)


def front_rows(points, axes) -> list:
    """Sorted ``[label, axis values...]`` rows of a list of points."""
    return sorted(
        [p.label] + [_round(getattr(p, axis)) for axis in axes]
        for p in points
    )


def points_digest(rows) -> str:
    """Order-free digest of every (label, area, cycles, feasible) row."""
    canon = sorted(
        json.dumps([r[0], _round(r[1]), r[2], bool(r[3])]) for r in rows
    )
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def point_rows(points) -> list:
    return [(p.label, p.area, p.cycles, p.feasible) for p in points]


def energy_rows(points) -> list:
    """Sorted ``[label, energy]`` of every point that carries an energy."""
    return sorted(
        [p.label, _round(p.energy)] for p in points if p.energy is not None
    )


def run_outcome(run) -> dict:
    """The comparable part of one in-process study run."""
    return {
        "front": sorted(p.label for p in run.pareto),
        "points": points_digest(point_rows(run.result.points)),
    }


class Checker:
    """Counts comparisons and collects the failed ones."""

    def __init__(self) -> None:
        self.checks = 0
        self.problems: list[str] = []

    def compare(self, what: str, got, expected) -> None:
        self.checks += 1
        if got != expected:
            self.problems.append(
                f"{what}: got {str(got)[:160]}, "
                f"expected {str(expected)[:160]}"
            )

    def fail(self, what: str) -> None:
        self.checks += 1
        self.problems.append(what)


def _golden_entry(golden: dict, *path):
    node = golden
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check_naive_front(chk: Checker, run, axes) -> None:
    """``pareto_filter_naive`` must reproduce the study's front."""
    from repro import pareto_filter_naive

    candidates = [
        p for p in run.result.points
        if p.feasible and all(getattr(p, a) is not None for a in axes)
    ]
    naive = pareto_filter_naive(
        candidates, key=lambda p: tuple(getattr(p, a) for a in axes)
    )
    chk.compare(
        f"{run.label} naive front",
        sorted(p.label for p in run.pareto),
        sorted(p.label for p in naive),
    )


# ----------------------------------------------------------------------
def check_explore(chk: Checker, result, golden: dict) -> None:
    axes = ("area", "cycles", "test_cost")
    for run in result.runs:
        entry = _golden_entry(golden, "explore-crypt", run.workload)
        if not isinstance(entry, dict):
            chk.fail(f"{run.label}: no golden entry")
            continue
        chk.compare(
            f"{run.label} front", front_rows(run.pareto, axes),
            entry.get("front"),
        )
        chk.compare(
            f"{run.label} points",
            points_digest(point_rows(run.result.points)),
            entry.get("points"),
        )
        check_naive_front(chk, run, axes)


def check_energy(
    chk: Checker, result, simulated, golden: dict, traced: bool
) -> None:
    """Front, energies, naive front and simulated-vs-static cycles.

    ``simulated`` lists ``(architecture label, simulated cycles)`` for
    every simulation the pass ran.  A fresh process has an empty energy
    memo, so every feasible base-front point must be simulated exactly
    once; in the traced run that is asserted, not assumed.
    """
    axes = ("area", "cycles", "energy")
    run = result.single
    entry = _golden_entry(golden, "energy-crypt")
    if not isinstance(entry, dict):
        chk.fail(f"{run.label}: no golden entry")
        return
    chk.compare(
        f"{run.label} front", front_rows(run.pareto, axes),
        entry.get("front"),
    )
    chk.compare(
        f"{run.label} energies", energy_rows(run.result.points),
        entry.get("energies"),
    )
    chk.compare(
        f"{run.label} points",
        points_digest(point_rows(run.result.points)), entry.get("points"),
    )
    check_naive_front(chk, run, axes)
    static = {p.label: p.cycles for p in run.result.points
              if p.energy is not None}
    sim = dict(simulated)
    chk.compare(
        f"{run.label} simulated cycles == static cycles", sim, static
    )
    if traced:
        chk.compare(
            f"{run.label} simulations per energy point (memo must be cold)",
            sorted(label for label, _ in simulated), sorted(static),
        )


def check_pinned_memory(chk: Checker, golden: dict) -> None:
    """One pinned energy-crypt point: final data memory vs the IR."""
    from repro import (
        EvaluationContext,
        IRInterpreter,
        TTASimulator,
        build_workload,
    )
    from repro.explore.space import build_architecture_cached, space_by_name

    label = _golden_entry(golden, "energy-crypt", "pinned")
    configs = {c.label(): c for c in space_by_name("small")}
    if not isinstance(label, str) or label not in configs:
        chk.fail(f"pinned energy point {label!r} is not in the small space")
        return
    config = configs[label]
    workload = build_workload("crypt")
    reference = IRInterpreter(workload, width=16).run()
    context = EvaluationContext(workload, reference.block_counts, 16)
    point = context.evaluate(config, keep_compile_result=True)
    if point.compile_result is None:
        chk.fail(f"pinned point {label} does not compile")
        return
    arch = build_architecture_cached(config, 16)
    sim = TTASimulator(arch, point.compile_result.program)
    outcome = sim.run(max_cycles=5_000_000)
    chk.compare(f"pinned {label} halted", outcome.halted, True)
    chk.compare(
        f"pinned {label} simulated cycles", outcome.cycles, point.cycles
    )
    wrong = sorted(
        addr for addr, value in reference.memory.items()
        if sim.dmem_read(addr) != value
    )
    chk.compare(f"pinned {label} memory mismatches", wrong, [])


def service_outcome(rows, pareto) -> dict:
    """:func:`run_outcome` of a study result as the service returns it."""
    return {
        "front": sorted(pareto),
        "points": points_digest(
            (r["architecture"], r["area"], r["cycles"], r["feasible"])
            for r in rows
        ),
    }


def check_service(chk: Checker, jobs, golden: dict, inprocess: dict) -> None:
    """Each job's result vs golden and vs an in-process ``run_study``."""
    for job in jobs:
        key = job["key"]
        if job["result"] is None:
            chk.fail(f"job {job['job']} ({key}) ended {job['state']}")
            continue
        run = job["result"]["runs"][0]
        got = service_outcome(run["points"], run["pareto"])
        chk.compare(
            f"job {key} vs golden", got,
            _golden_entry(golden, "service-mix", key),
        )
        chk.compare(
            f"job {key} vs in-process run_study", got, inprocess.get(key)
        )


def inprocess_outcomes(jobs) -> dict:
    """Run each distinct study in-process (outside the timed region)."""
    from repro import StudySpec, run_study

    seen: dict[str, dict] = {}
    for job in jobs:
        key = job["key"]
        if key in seen:
            continue
        result = run_study(StudySpec.from_dict(job["spec"]), cache=None)
        seen[key] = run_outcome(result.single)
    return seen


def atpg_row(result) -> dict:
    return {
        "patterns": result.num_patterns,
        "coverage": round(result.fault_coverage, 6),
        "faults": result.num_faults,
        "detected": result.detected,
        "untestable": result.redundant,
        "aborted": result.aborted,
    }


def check_atpg(chk: Checker, results: dict, golden: dict) -> None:
    expected = _golden_entry(golden, "atpg-w8")
    if not isinstance(expected, dict):
        expected = {}
    chk.compare("atpg-w8 netlists", sorted(results), sorted(expected))
    for name, result in sorted(results.items()):
        chk.compare(
            f"atpg {name}", atpg_row(result), expected.get(name)
        )
