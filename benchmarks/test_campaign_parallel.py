"""Parallel evaluation — the sweep hot path on the Crypt grid.

Each of the 168 Crypt templates compiles independently, so the study
engine's ``evaluate_configs`` fans them out over a process pool.  This
bench measures the fan-out against the serial loop on the full grid,
records both timings as an artifact, and — the part that must never
regress — asserts the two paths produce point-for-point identical results.

A wall-clock win is only asserted on multi-core machines; on a single
CPU the bench still verifies determinism and bounds the pool overhead.
"""

from __future__ import annotations

import os
from time import perf_counter

from benchmarks.conftest import save_artifact
from repro.apps.registry import build_workload
from repro.compiler import IRInterpreter
from repro.explore import crypt_space, pareto_filter
from repro.study.engine import evaluate_configs


def _inputs():
    workload = build_workload("crypt")
    profile = IRInterpreter(workload, width=16).run().block_counts
    return workload, profile, crypt_space()


def test_campaign_parallel_evaluation(benchmark):
    workload, profile, configs = _inputs()
    workers = min(4, os.cpu_count() or 1)

    t0 = perf_counter()
    serial = evaluate_configs(configs, workload, profile, workers=1)
    serial_s = perf_counter() - t0

    t0 = perf_counter()
    parallel = benchmark.pedantic(
        evaluate_configs,
        args=(configs, workload, profile),
        kwargs={"workers": workers},
        rounds=1,
        iterations=1,
    )
    parallel_s = perf_counter() - t0

    # determinism: the fan-out must be a drop-in for the serial loop
    assert [(p.label, p.area, p.cycles) for p in serial] == [
        (p.label, p.area, p.cycles) for p in parallel
    ]
    serial_pareto = pareto_filter(
        [p for p in serial if p.feasible], key=lambda p: p.cost2d()
    )
    parallel_pareto = pareto_filter(
        [p for p in parallel if p.feasible], key=lambda p: p.cost2d()
    )
    assert [p.label for p in serial_pareto] == [
        p.label for p in parallel_pareto
    ]

    on_ci = bool(os.environ.get("CI"))
    if workers > 1 and (os.cpu_count() or 1) > 1 and not on_ci:
        # multi-core, dedicated machine: the pool must buy wall-clock
        assert parallel_s < serial_s, (
            f"parallel ({parallel_s:.2f}s) not faster than serial "
            f"({serial_s:.2f}s) with {workers} workers"
        )
    else:
        # single core or a shared CI runner: timing is not trustworthy
        # enough for a strict win, only bound the pool overhead
        assert parallel_s < serial_s * 2.0

    save_artifact(
        "campaign_parallel",
        "\n".join(
            [
                "campaign engine: crypt_space() evaluation "
                f"({len(configs)} points)",
                f"  cpus            : {os.cpu_count()}",
                f"  serial          : {serial_s:.2f} s",
                f"  parallel (n={workers}) : {parallel_s:.2f} s",
                f"  speedup         : {serial_s / parallel_s:.2f}x",
                f"  pareto points   : {len(parallel_pareto)} (identical "
                "serial vs parallel)",
            ]
        ),
    )
