"""Byte-identity oracle for the ATPG engine.

``tests/data/atpg_golden.json`` pins the full ``ATPGResult.to_json()``
(pattern lists included) of uncached :func:`~repro.atpg.run_atpg` runs:

* the socket and every width-8 functional-unit netlist at the
  back-annotation settings (``ATPG_SEED``, ``ATPG_RANDOM_WORDS``,
  ``ATPG_BACKTRACK_LIMIT``) — the numbers the test-cost axis is built on;
* a few small netlists under a low backtrack limit, so that PODEM's
  ABORTED and UNTESTABLE outcomes both appear in the fixture.

Regenerate only for an intended change of ATPG semantics:

    PYTHONPATH=src python tests/test_atpg_golden.py --regenerate
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.atpg import run_atpg
from repro.components.library import (
    alu_spec,
    cmp_spec,
    component_datasheet,
    imm_spec,
    lsu_spec,
    mul_spec,
    pc_spec,
    shifter_spec,
)
from repro.components.socket import build_socket
from repro.netlist import WordBuilder
from repro.testcost.backannotate import (
    ATPG_BACKTRACK_LIMIT,
    ATPG_RANDOM_WORDS,
    ATPG_SEED,
)

GOLDEN = Path(__file__).parent / "data" / "atpg_golden.json"

#: Component netlists characterised at the back-annotation settings.
COMPONENTS = ("socket", "alu8", "cmp8", "imm8", "lsu8", "mul8", "pc8", "shifter8")

#: Small netlists under a tight budget: (case name, backtrack limit).
STRESS = (("alu4", 2), ("cmp4", 1), ("add4c", 8))

_SPECS = {
    "alu8": alu_spec, "cmp8": cmp_spec, "imm8": imm_spec, "lsu8": lsu_spec,
    "mul8": mul_spec, "pc8": pc_spec, "shifter8": shifter_spec,
}


def _adder_const_carry(width: int):
    """Ripple adder whose carry-in is tied low: some faults are redundant."""
    wb = WordBuilder(f"add{width}c")
    a = wb.input_word("a", width)
    b = wb.input_word("b", width)
    s, c = wb.ripple_adder(a, b, cin=wb.const_bit(0))
    wb.output_word("s", s)
    wb.output_bit("cout", c)
    return wb.netlist


def build_netlist(name: str):
    if name == "socket":
        return build_socket()
    if name == "alu4":
        return component_datasheet(alu_spec(4)).netlist()
    if name == "cmp4":
        return component_datasheet(cmp_spec(4)).netlist()
    if name == "add4c":
        return _adder_const_carry(4)
    return component_datasheet(_SPECS[name](8)).netlist()


def _cases():
    for name in COMPONENTS:
        yield name, ATPG_BACKTRACK_LIMIT
    yield from STRESS


def run_case(name: str, backtrack_limit: int) -> dict:
    """One uncached ATPG run; the JSON record the fixture holds."""
    result = run_atpg(
        build_netlist(name),
        seed=ATPG_SEED,
        random_words=ATPG_RANDOM_WORDS,
        backtrack_limit=backtrack_limit,
        use_cache=False,
    )
    return result.to_json()


def case_key(name: str, backtrack_limit: int) -> str:
    return f"{name}/bt{backtrack_limit}"


@lru_cache(maxsize=1)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name,backtrack_limit", list(_cases()))
def test_atpg_matches_golden(name, backtrack_limit):
    key = case_key(name, backtrack_limit)
    golden = _golden()
    assert key in golden, f"{key} missing from {GOLDEN.name}"
    assert run_case(name, backtrack_limit) == golden[key], key


def test_golden_covers_every_case_and_outcome():
    golden = _golden()
    assert set(golden) == {case_key(*case) for case in _cases()}
    assert any(r["aborted"] for r in golden.values())
    assert any(r["redundant"] for r in golden.values())


def regenerate() -> None:
    """Rewrite the fixture, one case per line."""
    lines = [
        f"{json.dumps(case_key(*case))}: "
        f"{json.dumps(run_case(*case), separators=(',', ':'))}"
        for case in _cases()
    ]
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_atpg_golden.py --regenerate")
    regenerate()
