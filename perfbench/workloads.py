"""The four benchmark workloads: inputs from a seed, set-up and one pass.

Each workload has a ``setup(seed)`` that builds its inputs through the
public API (the program only ever sees the generated specs, netlists or
requests) and a ``run(state)`` that does one timed pass and returns a
:class:`PassResult`.  Nothing here times set-up; the worker does.

The seed changes the order in which the program sees the same work
(configurations, workloads, netlists) and, for ``service-mix``, which
studies the clients submit.  Every workload is sized so that no
operation fails at the commit that captured ``golden.json``.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import random
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

WORKLOADS = ("explore-crypt", "energy-crypt", "service-mix", "atpg-w8")

#: explore-crypt: the paper's Sec. 2 design+test sweep.
EXPLORE_APPS = ("crypt", "crc16", "gcd", "checksum")
#: service-mix: the spec alphabet clients draw from.  Only widths the
#: whole flow supports: ``StudySpec`` accepts e.g. 24, but the job then
#: fails at run time ("ALU width must be a power of two").
SERVICE_APPS = ("gcd", "crc16", "checksum", "crypt")
SERVICE_WIDTHS = (8, 16, 32)
SERVICE_STRATEGY_SEEDS = (0, 1, 2, 3)
SERVICE_BUDGET = 24
#: Closed-loop client threads, never more than the host has CPUs.
SERVICE_CLIENTS = min(2, os.cpu_count() or 1)
SERVICE_REPEATS = 3
#: atpg-w8: the spaces whose width-8 non-RF netlists are characterised.
ATPG_SPACES = ("crypt", "dsp")


@dataclass
class PassResult:
    """What one pass did, for the metrics and the oracle."""

    start: float               # perf_counter() when the timed region began
    wall: float
    ops: float                 # the workload's unit of throughput
    attempted: int             # operations attempted (points/jobs/netlists)
    failed: int                # operations that failed inside the program
    outputs: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)


def service_key(app: str, width: int, strategy_seed: int) -> str:
    return f"{app}/w{width}/s{strategy_seed}"


# ----------------------------------------------------------------------
# explore-crypt
# ----------------------------------------------------------------------
def explore_setup(seed: int):
    from repro import StudySpec, build_workload, space_by_name
    from repro.study.engine import workload_profile

    rng = random.Random(seed)
    configs = list(space_by_name("crypt"))
    rng.shuffle(configs)
    apps = list(EXPLORE_APPS)
    rng.shuffle(apps)
    spec = StudySpec(
        name=f"explore-crypt-{seed}",
        workloads=tuple(apps),
        space=tuple(configs),
        width=16,
        objectives=("area", "cycles", "test_cost"),
        strategy="exhaustive",
        workers=1,
    )
    spec.validate()
    for app in apps:
        build_workload(app)
        workload_profile(app, 16)
    return spec


def explore_run(spec) -> PassResult:
    from repro import run_study

    start = perf_counter()
    result = run_study(spec, cache=None, workers=1)
    wall = perf_counter() - start
    evaluated = result.evaluated
    return PassResult(
        start=start,
        wall=wall,
        ops=evaluated,
        attempted=sum(r.stats.total for r in result.runs),
        failed=len(result.failures),
        outputs={"result": result},
        figures={"points_per_s": evaluated / wall},
    )


# ----------------------------------------------------------------------
# energy-crypt
# ----------------------------------------------------------------------
def energy_setup(seed: int):
    from repro import StudySpec, build_workload, space_by_name
    from repro.study.engine import workload_profile

    configs = list(space_by_name("small"))
    random.Random(seed).shuffle(configs)
    # Width 16, the paper's width: narrower simulation is wrong until
    # spill placement becomes width-aware, and this benchmark does not
    # measure a known-wrong number.
    spec = StudySpec(
        name=f"energy-crypt-{seed}",
        workloads=("crypt",),
        space=tuple(configs),
        width=16,
        objectives=("area", "cycles", "energy"),
        strategy="exhaustive",
        workers=1,
    )
    spec.validate()
    build_workload("crypt")
    workload_profile("crypt", 16)
    return spec


def energy_run(spec, recorder) -> PassResult:
    """One energy study; ``recorder`` captures each simulation's cycles."""
    from repro import run_study

    first = len(recorder.spans)
    start = perf_counter()
    result = run_study(spec, cache=None, workers=1)
    wall = perf_counter() - start
    sims = [
        s for s in recorder.spans[first:] if s.name == "tta.simulate"
    ]
    cycles = sum(s.result.cycles for s in sims if s.result is not None)
    return PassResult(
        start=start,
        wall=wall,
        ops=cycles,
        attempted=sum(r.stats.total for r in result.runs),
        failed=len(result.failures),
        outputs={
            "result": result,
            "simulated": [
                (s.id, s.result.cycles if s.result else None) for s in sims
            ],
        },
        figures={
            "sim_cycles_per_s": cycles / wall,
            "points_per_s": result.evaluated / wall,
        },
    )


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def service_specs(seed: int) -> list[list[dict]]:
    """Each client's submission sequence, drawn from the seed.

    Every (workload, width, strategy seed) combination is submitted
    ``SERVICE_REPEATS`` times in a seeded order, so each seed asks for
    the same set of design points and differs only in how studies
    overlap.  Every submission gets its own study name, so the queue
    runs it as a new job (a same-name resubmit would be deduplicated
    away) and the overlap shows up as result-cache hits.
    """
    from repro import StudySpec

    combos = list(itertools.product(
        SERVICE_APPS, SERVICE_WIDTHS, SERVICE_STRATEGY_SEEDS
    )) * SERVICE_REPEATS
    random.Random(seed).shuffle(combos)
    clients: list[list[dict]] = [[] for _ in range(SERVICE_CLIENTS)]
    for index, (app, width, strategy_seed) in enumerate(combos):
        spec = StudySpec(
            name=f"mix-{seed}-{index}",
            workloads=(app,),
            space="crypt",
            width=width,
            strategy="random",
            strategy_params={"budget": SERVICE_BUDGET, "seed": strategy_seed},
        )
        spec.validate()
        clients[index % SERVICE_CLIENTS].append(
            {"spec": spec.to_dict(),
             "key": service_key(app, width, strategy_seed)}
        )
    return clients


class ServiceState:
    """An in-process study server on a unix socket, plus its inputs."""

    def __init__(self, seed: int, scratch: Path) -> None:
        from repro import ResultCache, build_workload
        from repro.service import StudyServer
        from repro.service.client import wait_for_server
        from repro.study.engine import workload_profile

        self.clients = service_specs(seed)
        for app in SERVICE_APPS:
            build_workload(app)
            for width in SERVICE_WIDTHS:
                workload_profile(app, width)
        self.scratch = scratch
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        self.cache = ResultCache(scratch / "cache")
        self.server = StudyServer(
            scratch / "state", cache=self.cache,
            total_workers=2, job_workers=1,
        )
        # A relative socket path keeps it under the AF_UNIX length limit
        # wherever the checkout lives.
        self.address = f"unix:{os.path.relpath(scratch / 'svc.sock')}"
        self._thread = threading.Thread(
            target=self._serve, name="study-server", daemon=True
        )
        self._error: Exception | None = None
        self._thread.start()
        wait_for_server(self.address, timeout=30.0)

    def _serve(self) -> None:
        async def main():
            await self.server.start(self.address)
            await self.server.serve_until_stopped()

        try:
            asyncio.run(main())
        except Exception as exc:              # noqa: BLE001 — see close()
            self._error = exc

    def close(self) -> None:
        self.server.stop()
        self._thread.join(timeout=60.0)
        if self._thread.is_alive():
            raise RuntimeError("study server did not stop within 60s")
        if self._error is not None:
            raise RuntimeError(f"study server died: {self._error!r}")
        shutil.rmtree(self.scratch, ignore_errors=True)


def _client_loop(address: str, submissions: list[dict], out: list) -> None:
    """Closed loop: submit, wait for the terminal state, fetch, repeat."""
    from repro.service.client import ServiceClient

    with ServiceClient(address, timeout=120.0) as client:
        for item in submissions:
            sent = perf_counter()
            reply = client.submit(item["spec"], tenant="bench")
            job = reply["job"]
            state = None
            for frame in client.watch(job, timeout=120.0):
                if frame["event"] == "job_state":
                    state = frame.get("state")
            result = client.result(job) if state == "done" else None
            latency = perf_counter() - sent
            status = client.status(job)
            out.append({
                "key": item["key"], "spec": item["spec"], "job": job,
                "state": state, "result": result, "latency": latency,
                "status": status,
            })


def service_run(state: ServiceState) -> PassResult:
    from repro.service.client import ServiceClient

    outs: list[list] = [[] for _ in state.clients]
    threads = [
        threading.Thread(
            target=_client_loop, args=(state.address, subs, out),
            name=f"client-{i}",
        )
        for i, (subs, out) in enumerate(zip(state.clients, outs))
    ]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
    wall = perf_counter() - start
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("service clients did not finish within 170s")
    jobs = [job for out in outs for job in out]
    with ServiceClient(state.address) as client:
        stats = client.stats()
    latencies = sorted(job["latency"] for job in jobs)
    waits = [
        job["status"]["started_at"] - job["status"]["submitted_at"]
        for job in jobs if job["status"].get("started_at") is not None
    ]
    runs = [
        job["status"]["finished_at"] - job["status"]["started_at"]
        for job in jobs
        if job["status"].get("started_at") is not None
        and job["status"].get("finished_at") is not None
    ]
    fresh = sum(
        run["stats"]["evaluated"]
        for job in jobs if job["result"] for run in job["result"]["runs"]
    )
    dedupe = stats.get("dedupe", {})
    coalesced = dedupe.get("coalesced", 0)
    claims = dedupe.get("claims", 0)
    submitted = sum(len(subs) for subs in state.clients)
    done = sum(1 for job in jobs if job["state"] == "done")
    return PassResult(
        start=start,
        wall=wall,
        ops=done,
        attempted=submitted,
        failed=submitted - done,
        outputs={"jobs": jobs},
        figures={
            "jobs_per_s": done / wall,
            "points_per_s": fresh / wall,
            "latencies": latencies,
            "service.queue_wait_s": median(waits) if waits else 0.0,
            "service.job_run_s": median(runs) if runs else 0.0,
            "service.dedupe_ratio": (
                coalesced / (claims + coalesced) if claims + coalesced else 0.0
            ),
        },
    )


# ----------------------------------------------------------------------
# atpg-w8
# ----------------------------------------------------------------------
def atpg_setup(seed: int):
    """Every width-8 non-RF netlist of the crypt and dsp spaces + socket."""
    from repro.components import component_datasheet
    from repro.components.socket import build_socket
    from repro.components.spec import ComponentKind
    from repro.explore.space import build_architecture_cached, space_by_name

    specs = {}
    for space in ATPG_SPACES:
        for config in space_by_name(space):
            arch = build_architecture_cached(config, 8)
            for unit in arch.units.values():
                if unit.spec.kind is not ComponentKind.RF:
                    specs[unit.spec.name] = unit.spec
    netlists = [build_socket()]
    for name in sorted(specs):
        netlist = component_datasheet(specs[name]).netlist()
        if netlist is not None:
            netlists.append(netlist)
    random.Random(seed).shuffle(netlists)
    return netlists


def atpg_run(netlists) -> PassResult:
    from repro import run_atpg
    from repro.testcost.backannotate import (
        ATPG_BACKTRACK_LIMIT,
        ATPG_RANDOM_WORDS,
        ATPG_SEED,
    )

    results = {}
    start = perf_counter()
    for netlist in netlists:
        results[netlist.name] = run_atpg(
            netlist,
            seed=ATPG_SEED,
            random_words=ATPG_RANDOM_WORDS,
            backtrack_limit=ATPG_BACKTRACK_LIMIT,
            use_cache=False,
        )
    wall = perf_counter() - start
    faults = sum(r.num_faults for r in results.values())
    return PassResult(
        start=start,
        wall=wall,
        ops=faults,
        attempted=len(netlists),
        failed=0,
        outputs={"atpg": results},
        figures={"faults_per_s": faults / wall},
    )
