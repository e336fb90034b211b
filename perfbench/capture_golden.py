"""Capture ``golden.json``: the outputs the benchmark checks against.

Run from the repository root, with a warm ATPG cache for the width-16
crypt components (``run.py`` keeps one under ``.bench_state/atpg``)::

    PYTHONPATH=src REPRO_ATPG_CACHE=.bench_state/atpg \\
        python3 perfbench/capture_golden.py

Re-capture only when a change is meant to alter results, and say so in
that change.  Each value comes from an in-process run of the public API
with seed 0; ``service-mix`` golden values cover every spec the clients
can draw, each an in-process ``run_study``.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import oracle
import workloads


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    from repro import StudySpec, run_study

    golden: dict = {"commit": _commit()}

    explore = workloads.explore_run(workloads.explore_setup(0))
    golden["explore-crypt"] = {
        run.workload: {
            "front": oracle.front_rows(
                run.pareto, ("area", "cycles", "test_cost")
            ),
            "points": oracle.points_digest(
                oracle.point_rows(run.result.points)
            ),
        }
        for run in explore.outputs["result"].runs
    }

    spec = workloads.energy_setup(0)
    run = run_study(spec, cache=None).single
    front = oracle.front_rows(run.pareto, ("area", "cycles", "energy"))
    golden["energy-crypt"] = {
        "front": front,
        "energies": oracle.energy_rows(run.result.points),
        "points": oracle.points_digest(oracle.point_rows(run.result.points)),
        # The front point with the fewest cycles, the cheapest to simulate
        # again: its final memory is checked against the IR interpreter.
        "pinned": min(front, key=lambda row: row[2])[0],
    }

    service = {}
    for app, width, seed in itertools.product(
        workloads.SERVICE_APPS, workloads.SERVICE_WIDTHS,
        workloads.SERVICE_STRATEGY_SEEDS,
    ):
        spec = StudySpec(
            name="golden", workloads=(app,), space="crypt", width=width,
            strategy="random",
            strategy_params={
                "budget": workloads.SERVICE_BUDGET, "seed": seed,
            },
        )
        service[workloads.service_key(app, width, seed)] = (
            oracle.run_outcome(run_study(spec, cache=None).single)
        )
    golden["service-mix"] = service

    atpg = workloads.atpg_run(workloads.atpg_setup(0))
    golden["atpg-w8"] = {
        name: oracle.atpg_row(result)
        for name, result in sorted(atpg.outputs["atpg"].items())
    }

    path = Path(__file__).with_name("golden.json")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
