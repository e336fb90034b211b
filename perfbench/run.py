#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload explore-crypt --seed 0 \\
        --seconds 10 --trace 0

Workloads: ``explore-crypt``, ``energy-crypt``, ``service-mix`` and
``atpg-w8`` (see ``README.md`` beside this file for why each exists and
what every metric means).  Each repetition runs in a fresh interpreter
(``worker.py``); repetitions continue until ``--seconds`` have passed,
at least one pass.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics.  Every output is checked (``oracle.py``).

All state lives under ``.bench_state/`` in the working directory: the
benchmark's own ATPG cache (warmed once, before anything is timed),
per-repetition scratch directories and span files.  ``HOME`` is pointed
there too, so the user's ``~/.cache/repro-tta`` is never read or
written.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 — imports nothing from the program

ROOT = Path.cwd()
STATE = ROOT / ".bench_state"
#: Set-up samples per run; workloads whose passes are long get the
#: missing ones from set-up-only repetitions.
MIN_SETUPS = 3
#: A repetition that has not reported by then has hung.
CHILD_TIMEOUT = 170.0
#: No repetition starts once the run is this old.
RUN_BUDGET = 120.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_ATPG_CACHE"] = str(STATE / "atpg")
    env["REPRO_CAMPAIGN_CACHE"] = str(STATE / "campaign")
    env["HOME"] = str(STATE / "home")
    # A fixed string-hash seed: with per-process random hashing, set and
    # dict layouts differ between repetitions and so does their speed.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAULT_INJECT", None)
    return env


def warm_atpg_cache(env: dict) -> None:
    """Characterise the width-16 crypt components once per checkout.

    ``explore-crypt`` reads this cache; filling it is a one-off cost
    (minutes on a cold cache) that is printed but never measured.
    """
    marker = STATE / "atpg" / ".warm"
    if marker.exists():
        return
    STATE.mkdir(exist_ok=True)
    with open(STATE / "warm.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if marker.exists():
            return
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "warm.py")],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=850,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"ATPG warm-up failed:\n{proc.stderr}")
        marker.write_text("")
        print(
            f"one-off ATPG cache warm-up: {time.monotonic() - start:.1f}s "
            "(not measured)", flush=True,
        )


def run_child(env, workload: str, seed: int, mode: str, index: int) -> dict:
    scratch = STATE / "runs" / f"{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--scratch", str(scratch),
    ]
    if mode == "traced":
        spans = STATE / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-{seed}-{index}.jsonl")]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} repetition {index} ({mode}) exited "
            f"{proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def host_block() -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = ""
    if not commit:
        # Not a git checkout: identify the program by its sources.
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def _tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no such
    percentile exists and the median stands in (percentile 50).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return (median(ordered) if ordered else 0.0), 50.0
    k = n - 10                      # ordered[k-1] has 10 samples above
    return ordered[k - 1], 100.0 * k / n


def repetitions(env, args, modes):
    """Cycle through ``modes`` until ``--seconds`` pass (each mode once)."""
    records: dict[str, list[dict]] = {mode: [] for mode in modes}
    start = time.monotonic()
    index = 0
    while True:
        for mode in modes:
            records[mode].append(
                run_child(env, args.workload, args.seed, mode, index)
            )
            index += 1
        elapsed = time.monotonic() - start
        longest = max(r["wall_s"] for recs in records.values() for r in recs)
        if elapsed >= args.seconds or elapsed + longest > RUN_BUDGET:
            return records, index


def end_to_end(env, args) -> tuple[dict, list[dict]]:
    records, index = repetitions(env, args, ("pass",))
    passes = records["pass"]
    setups = [r["setup_s"] for r in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(
            run_child(env, args.workload, args.seed, "setup", index)["setup_s"]
        )
        index += 1
    return {
        "setup_s": median(setups),
        "wall_s": median(r["wall_s"] for r in passes),
        "ops_per_s": median(r["ops"] / r["wall_s"] for r in passes),
        "peak_rss_mb": median(r["rss_mb"] for r in passes),
    }, passes


def per_layer(env, args) -> tuple[dict, list[dict]]:
    records, _ = repetitions(env, args, ("pass", "traced"))
    plain, traced = records["pass"], records["traced"]
    metrics = {
        name: median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    metrics["telemetry.overhead_s"] = (
        median(r["wall_s"] for r in traced)
        - median(r["wall_s"] for r in plain)
    )
    # Workload figures come from the untraced repetitions; a workload
    # that has no such figure (no jobs, no simulation) reports 0.
    for name in (
        "points_per_s", "sim_cycles_per_s", "faults_per_s", "jobs_per_s",
        "service.queue_wait_s", "service.job_run_s", "service.dedupe_ratio",
    ):
        metrics[name] = median(r["figures"].get(name, 0.0) for r in plain)
    latencies = [x for r in plain for x in r["figures"].get("latencies", [])]
    tail, pct = _tail(latencies)
    metrics["job_p50_s"] = median(latencies) if latencies else 0.0
    metrics["job_tail_s"] = tail if latencies else 0.0
    metrics["job_tail_pct"] = pct if latencies else 0.0
    metrics["job_samples"] = len(latencies)
    everything = plain + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    metrics["error_rate"] = failed / attempted if attempted else 0.0
    return metrics, everything


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program to measure: {ROOT / 'src' / 'repro'} is "
            "missing (run from the repository root)", file=sys.stderr,
        )
        return 2

    units = declared_metrics(args.trace)
    env = child_env()
    (STATE / "home").mkdir(parents=True, exist_ok=True)
    warm_atpg_cache(env)
    host = host_block()
    print("host: " + json.dumps(host), flush=True)

    if args.trace:
        metrics, records = per_layer(env, args)
    else:
        metrics, records = end_to_end(env, args)
    if set(metrics) != set(units):
        raise RuntimeError(
            "measured and declared metrics differ: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} repetitions, {failed}/{attempted} failed")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}")
    for problem in problems[:20]:
        print(f"  ERROR {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
