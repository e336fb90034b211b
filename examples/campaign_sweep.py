#!/usr/bin/env python3
"""A two-workload sweep through the declarative Study API.

A campaign is a list of studies sharing one on-disk result cache.  This
one sweeps the Crypt kernel over the small grid and the FIR kernel over
the MUL-equipped DSP grid, selects a winner with the weighted norm, and
lets the cache make the second invocation near-free — run this script
twice and watch the "evaluated" counts drop to zero.

The same sweep runs from the shell as:

    python -m repro study --workloads crypt --space small --select
    python -m repro study --workloads fir --space dsp --select

The ``campaign`` preset crosses every workload with every space
instead — ``StudySpec.from_campaign`` builds one study per space:

    python -m repro campaign --workloads crypt,fir --spaces small,dsp \
        --select --workers 4

Run:  python examples/campaign_sweep.py
"""

from repro import ResultCache, StudySpec, run_study

cache = ResultCache()          # ~/.cache/repro-tta/campaign

specs = [
    StudySpec(
        name="crypt-on-small",
        workloads=("crypt",),
        space="small",
        objectives=("area", "cycles"),
        strategy="exhaustive",
        select=True,
    ),
    StudySpec(
        name="fir-on-dsp",
        workloads=("fir",),
        space="dsp",           # fir needs the MUL-equipped grid
        objectives=("area", "cycles"),
        strategy="exhaustive",
        select=True,
    ),
]

for spec in specs:
    print(f"study spec (JSON round-trip safe):\n{spec.to_json()}\n")
    result = run_study(spec, cache=cache, workers=2, progress=print)
    print(result.summary())
    run = result.single
    if run.selection is not None:
        print(f"  winner: {run.selection.point.label} "
              f"(norm={run.selection.norm:.4f})\n")
    else:
        print("  no feasible points\n")

print("run it again: every point now comes from the cache.")
