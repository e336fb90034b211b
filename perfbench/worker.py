"""One benchmark repetition in a fresh interpreter: set-up, a pass, checks.

Run by ``run.py``, once per repetition, so no process-wide memo of the
program (energy memo, architecture builder cache, ATPG back-annotation
``lru_cache``) can turn a later repetition into memo hits::

    python3 perfbench/worker.py --workload explore-crypt --seed 0 \\
        --mode pass|traced|setup [--spans FILE]

``setup`` stops after set-up; ``pass`` adds one untraced pass;
``traced`` wraps every layer (see ``spans.py``) from set-up onwards.
The last line of standard output is one JSON record for ``run.py``.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: Layer spans each workload must fire at least once in a traced pass.
REQUIRED_SPANS = {
    "explore-crypt": (
        "compiler.schedule", "compiler.regalloc", "compiler.interp",
        "tta.validate", "tta.encode", "explore.evaluate", "explore.area",
        "explore.pareto", "study", "testcost.attach",
    ),
    "energy-crypt": (
        "compiler.interp", "tta.simulate", "energy.attach",
        "energy.report", "explore.evaluate", "study",
    ),
    "service-mix": (
        "service.rpc.submit", "service.rpc.result", "service.rpc.status",
        "campaign.cache_get", "campaign.cache_put", "study",
        "compiler.schedule",
    ),
    "atpg-w8": ("atpg.run", "atpg.podem", "atpg.faultsim", "atpg.collapse"),
}

#: ``name_s`` = summed self time, ``name_calls`` = number of spans.
SELF_TIME_METRICS = {
    "compiler.schedule_s": "compiler.schedule",
    "compiler.regalloc_s": "compiler.regalloc",
    "compiler.interp_s": "compiler.interp",
    "tta.validate_s": "tta.validate",
    "tta.encode_s": "tta.encode",
    "tta.simulate_s": "tta.simulate",
    "explore.evaluate_self_s": "explore.evaluate",
    "explore.area_s": "explore.area",
    "explore.pareto_s": "explore.pareto",
    "study.self_s": "study",
    "energy.report_self_s": "energy.report",
    "testcost.attach_s": "testcost.attach",
    "atpg.run_self_s": "atpg.run",
    "atpg.podem_s": "atpg.podem",
    "atpg.faultsim_s": "atpg.faultsim",
    "atpg.collapse_s": "atpg.collapse",
    "campaign.cache_get_s": "campaign.cache_get",
    "campaign.cache_put_s": "campaign.cache_put",
    "service.rpc_s.submit": "service.rpc.submit",
    "service.rpc_s.result": "service.rpc.result",
    "service.rpc_s.status": "service.rpc.status",
}
CALL_METRICS = {
    "compiler.schedule_calls": "compiler.schedule",
    "compiler.regalloc_calls": "compiler.regalloc",
    "tta.simulate_calls": "tta.simulate",
    "explore.evaluate_calls": "explore.evaluate",
    "testcost.attach_calls": "testcost.attach",
    "atpg.podem_calls": "atpg.podem",
    "campaign.cache_get_calls": "campaign.cache_get",
    "campaign.cache_put_calls": "campaign.cache_put",
}
#: Per-component ATPG time (inclusive), one metric per netlist.
ATPG_NETLISTS = (
    "alu8", "cmp8", "imm8", "lsu8", "mul8", "pc8", "shifter8", "socket6x3",
)


def layer_metrics(recorder, pass_start: float, pass_end: float) -> dict:
    """Per-layer figures from one traced pass (and its set-up)."""
    spans = recorder.spans
    out = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = sum(s.self_time for s in spans if s.name == name)
    for metric, name in CALL_METRICS.items():
        out[metric] = sum(1 for s in spans if s.name == name)

    sims = [s.result for s in spans
            if s.name == "tta.simulate" and s.result is not None]
    cycles = sum(r.cycles for r in sims)
    out["tta.sim_cycles"] = cycles
    out["tta.us_per_cycle"] = (
        1e6 * out["tta.simulate_s"] / cycles if cycles else 0.0
    )

    attaches = [s for s in spans if s.name == "energy.attach"]
    out["energy.extra_evaluations"] = sum(
        1 for s in spans if s.name == "explore.evaluate" and any(
            a.thread == s.thread and a.start <= s.start and s.end <= a.end
            for a in attaches
        )
    )

    runs = [s for s in spans if s.name == "atpg.run"]
    for name in ATPG_NETLISTS:
        out[f"atpg.run_s.{name}"] = sum(
            s.duration for s in runs if s.id == name
        )
    results = [s.result for s in runs if s.result is not None]
    out["atpg.detected"] = sum(r.detected for r in results)
    out["atpg.untestable"] = sum(r.redundant for r in results)
    out["atpg.aborted"] = sum(r.aborted for r in results)

    gets = [s for s in spans if s.name == "campaign.cache_get"]
    hits = sum(1 for s in gets if s.result is not None)
    out["campaign.cache_hit_ratio"] = hits / len(gets) if gets else 0.0

    out["unattributed_s"] = (pass_end - pass_start) - recorder.covered(
        pass_start, pass_end
    )
    return out


def _setup(workload: str, seed: int, scratch: Path):
    import workloads

    if workload == "explore-crypt":
        return workloads.explore_setup(seed)
    if workload == "energy-crypt":
        return workloads.energy_setup(seed)
    if workload == "service-mix":
        return workloads.ServiceState(seed, scratch)
    return workloads.atpg_setup(seed)


def _run(workload: str, state, recorder):
    import workloads

    if workload == "explore-crypt":
        return workloads.explore_run(state)
    if workload == "energy-crypt":
        return workloads.energy_run(state, recorder)
    if workload == "service-mix":
        return workloads.service_run(state)
    return workloads.atpg_run(state)


def _check(workload: str, outcome, traced: bool):
    import oracle

    chk = oracle.Checker()
    golden = oracle.load_golden()
    outputs = outcome.outputs
    try:
        if workload == "explore-crypt":
            oracle.check_explore(chk, outputs["result"], golden)
        elif workload == "energy-crypt":
            oracle.check_energy(
                chk, outputs["result"], outputs["simulated"], golden, traced
            )
            oracle.check_pinned_memory(chk, golden)
        elif workload == "service-mix":
            jobs = outputs["jobs"]
            oracle.check_service(
                chk, jobs, golden, oracle.inprocess_outcomes(jobs)
            )
        else:
            oracle.check_atpg(chk, outputs["atpg"], golden)
    except Exception:                   # noqa: BLE001 — report, not crash
        chk.fail("oracle raised:\n" + traceback.format_exc(limit=4))
    return chk


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "pass", "traced"), required=True
    )
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    traced = args.mode == "traced"

    import repro  # noqa: F401 — import time is part of set-up

    from spans import SpanRecorder

    recorder = SpanRecorder()
    if traced:
        recorder.install()
    elif args.workload == "energy-crypt":
        # The cycles each simulation ran: the throughput's unit and the
        # simulated-vs-static check.  Seven calls a pass; no other span.
        recorder.install({"tta.simulate"})
    state = _setup(args.workload, args.seed, Path(args.scratch))
    setup_s = perf_counter() - _STARTED
    record = {"setup_s": setup_s}
    if args.mode == "setup":
        if args.workload == "service-mix":
            state.close()
        print(json.dumps(record))
        return 0

    try:
        outcome = _run(args.workload, state, recorder)
    finally:
        if args.workload == "service-mix":
            state.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recorder.uninstall()

    chk = _check(args.workload, outcome, traced)
    if traced:
        record["layers"] = layer_metrics(
            recorder, outcome.start, outcome.start + outcome.wall
        )
        fired = {s.name for s in recorder.spans}
        chk.compare(
            "layer spans that never fired",
            [n for n in REQUIRED_SPANS[args.workload] if n not in fired], [],
        )
        if args.spans:
            recorder.write(args.spans)
    record.update(
        wall_s=outcome.wall,
        ops=outcome.ops,
        rss_mb=rss_mb,
        attempted=outcome.attempted + chk.checks,
        failed=outcome.failed + len(chk.problems),
        problems=chk.problems[:20],
        figures=outcome.figures,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
