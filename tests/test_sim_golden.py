"""Byte-identity oracle for the cycle-accurate simulator.

``tests/data/sim_golden.json`` pins what the simulator produces for
{gcd, crc16, checksum, crypt} on every ``small``-space configuration at
widths 16 and 32, with activity tracing off and on.  Each case records
the ``SimResult`` fields and a digest of the final architectural state
(data memory, register files, guards).  Traced cases also record every
``ActivityTrace`` field as an *ordered* item list — the energy fold sums
floats in dict order, so key order is part of the contract — and the
``repr`` of the default-technology energy total.

Regenerate only for an intended change of simulation semantics:

    PYTHONPATH=src python tests/test_sim_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, fields
from functools import lru_cache
from pathlib import Path

import pytest

from repro.apps.registry import build_workload
from repro.compiler.interp import IRInterpreter
from repro.compiler.scheduler import compile_ir
from repro.energy.model import technology_by_name
from repro.energy.report import breakdown_from_trace
from repro.explore import build_architecture
from repro.explore.space import small_space
from repro.tta.activity import ActivityTrace
from repro.tta.simulator import TTASimulator

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"
WORKLOADS = ("gcd", "crc16", "checksum", "crypt")
WIDTHS = (16, 32)


@lru_cache(maxsize=None)
def _profile(workload: str, width: int) -> dict[str, int]:
    return IRInterpreter(build_workload(workload), width=width).run().block_counts


def _state_digest(sim: TTASimulator) -> str:
    arch = sim.arch
    state = {
        "dmem": sorted(sim.dmem.items()),
        "rf": {
            u.name: [sim.rf_value(u.name, r) for r in range(u.spec.num_regs)]
            for u in arch.rfs
        },
        "guards": list(sim.guards),
    }
    blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def _activity_items(trace: ActivityTrace) -> dict:
    out = {}
    for f in fields(trace):
        value = getattr(trace, f.name)
        if isinstance(value, dict):
            value = [
                [list(k) if isinstance(k, tuple) else k, v]
                for k, v in value.items()
            ]
        out[f.name] = value
    return out


def run_case(workload: str, width: int, config_index: int, traced: bool) -> dict:
    """Compile and simulate one case; the JSON record the fixture holds."""
    arch = build_architecture(small_space()[config_index], width)
    compiled = compile_ir(
        build_workload(workload), arch, profile=_profile(workload, width)
    )
    sim = TTASimulator(arch, compiled.program, activity=traced)
    result = sim.run(max_cycles=5_000_000)
    record = {"result": asdict(result), "state": _state_digest(sim)}
    if traced:
        record["activity"] = _activity_items(sim.activity)
        breakdown = breakdown_from_trace(
            sim.activity, arch, technology_by_name("default"),
            program_name=compiled.program.name,
        )
        record["energy"] = repr(breakdown.total)
    return record


def case_key(workload: str, width: int, config_index: int, traced: bool) -> str:
    mode = "traced" if traced else "plain"
    return f"{workload}/w{width}/{small_space()[config_index].label()}/{mode}"


def _cases(workload: str, width: int):
    for index in range(len(small_space())):
        for traced in (False, True):
            yield case_key(workload, width, index, traced), (index, traced)


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulator_matches_golden(workload, width):
    golden = _golden()
    for key, (index, traced) in _cases(workload, width):
        assert key in golden, f"{key} missing from {GOLDEN.name}"
        got = json.loads(json.dumps(run_case(workload, width, index, traced)))
        assert got == golden[key], key


def test_golden_covers_every_case():
    expected = {
        key for w in WORKLOADS for width in WIDTHS for key, _ in _cases(w, width)
    }
    assert set(_golden()) == expected


def regenerate() -> None:
    """Rewrite the fixture, one case per line."""
    lines = []
    for workload in WORKLOADS:
        for width in WIDTHS:
            for key, (index, traced) in _cases(workload, width):
                record = run_case(workload, width, index, traced)
                lines.append(
                    f"{json.dumps(key)}: "
                    f"{json.dumps(record, separators=(',', ':'))}"
                )
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_sim_golden.py --regenerate")
    regenerate()
