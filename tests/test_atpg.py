"""ATPG substrate tests: faults, fault simulation, PODEM, the engine."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    Fault,
    FaultSimulator,
    Podem,
    PodemOutcome,
    collapse_faults,
    enumerate_faults,
    run_atpg,
)
from repro.atpg.podem import ONE, X, ZERO
from repro.netlist import CellType, Netlist, WordBuilder
from repro.netlist.cells import FAN_IN


def _and_circuit():
    nl = Netlist("and2")
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(CellType.AND, [a, b], name="y")
    nl.add_output(y)
    return nl


def _adder(width=4):
    wb = WordBuilder(f"add{width}")
    a = wb.input_word("a", width)
    b = wb.input_word("b", width)
    s, c = wb.ripple_adder(a, b)
    wb.output_word("s", s)
    wb.output_bit("cout", c)
    return wb.netlist


# ----------------------------------------------------------------------
# fault enumeration and collapsing
# ----------------------------------------------------------------------
def test_enumerate_counts_and2():
    nl = _and_circuit()
    faults = enumerate_faults(nl)
    # three nets (a, b, y), no fanout branches: 6 stem faults
    assert len(faults) == 6


def test_collapse_and_gate_equivalences():
    nl = _and_circuit()
    reps, class_map = collapse_faults(nl)
    # a s-a-0 == b s-a-0 == y s-a-0 -> classes: {sa0 x3}, a1, b1, y1 = 4
    assert len(reps) == 4
    a, b = nl.inputs
    y = nl.outputs[0]
    assert class_map[Fault(a, 0)] == class_map[Fault(b, 0)] == class_map[Fault(y, 0)]


def test_collapse_not_chain():
    nl = Netlist("chain")
    a = nl.add_input("a")
    x = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.NOT, [x])
    nl.add_output(y)
    reps, class_map = collapse_faults(nl)
    # whole chain collapses to two classes
    assert len(reps) == 2
    assert class_map[Fault(a, 0)] == class_map[Fault(x, 1)] == class_map[Fault(y, 0)]


def test_branch_faults_on_fanout():
    nl = Netlist("fan")
    a = nl.add_input("a")
    x = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.AND, [x, a])
    z = nl.add_gate(CellType.OR, [x, a])
    nl.add_output(y)
    nl.add_output(z)
    faults = enumerate_faults(nl)
    branch = [f for f in faults if f.is_branch]
    # a fans out to 3 gates (6 pin faults), x to 2 gates (4 pin faults)
    assert len(branch) == 10


def test_fault_describe(rng):
    nl = _and_circuit()
    fault = Fault(nl.inputs[0], 1)
    assert "s-a-1" in fault.describe(nl)


# ----------------------------------------------------------------------
# fault simulation vs brute force
# ----------------------------------------------------------------------
def _brute_force_detects(nl, fault, pattern):
    """Inject by rebuilding gate evaluation manually."""
    pi_map = {pi: (pattern >> i) & 1 for i, pi in enumerate(nl.inputs)}
    good = nl.evaluate(pi_map)

    faulty = dict(pi_map)
    values = [0] * nl.num_nets
    for pi in nl.inputs:
        values[pi] = faulty.get(pi, 0)
    if not fault.is_branch:
        if nl.nets[fault.net].driver is None:
            values[fault.net] = fault.stuck_at
    from repro.netlist.cells import evaluate_cell

    for gid in nl.topological_order():
        gate = nl.gates[gid]
        ins = [values[n] for n in gate.inputs]
        if fault.is_branch and gid == fault.gate:
            ins[fault.pin] = fault.stuck_at
        values[gate.output] = evaluate_cell(gate.cell_type, ins, 1)
        if not fault.is_branch and gate.output == fault.net:
            values[gate.output] = fault.stuck_at
    return any(values[po] != good[po] for po in nl.outputs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_faultsim_matches_bruteforce(seed):
    rng = random.Random(seed)
    nl = _adder(3)
    faults = enumerate_faults(nl)
    sim = FaultSimulator(nl)
    fault = rng.choice(faults)
    patterns = [rng.getrandbits(len(nl.inputs)) for _ in range(8)]
    masks = sim.simulate_word(patterns, [fault])[fault]
    for k, pattern in enumerate(patterns):
        assert ((masks >> k) & 1) == int(_brute_force_detects(nl, fault, pattern))


def _random_netlist(rng):
    """A small random DAG over every cell type, with fanout and a floating net.

    The floating net (no driver, not a PI) is read by at least one gate;
    a few gates may stay unobserved.
    """
    nl = Netlist("rand")
    nets = [nl.add_input() for _ in range(rng.randint(2, 5))]
    floating = nl.new_net("floating")
    nets.append(floating)
    cells = list(CellType)
    for _ in range(rng.randint(4, 14)):
        cell = rng.choice(cells)
        lo, hi = FAN_IN[cell]
        ins = [rng.choice(nets) for _ in range(rng.randint(lo, hi))]
        nets.append(nl.add_gate(cell, ins))
    if not nl.nets[floating].fanout:
        nets.append(nl.add_gate(CellType.AND, [floating, nets[0]]))
    driven = [n for n in nets if nl.nets[n].driver is not None]
    for net in rng.sample(driven, min(len(driven), rng.randint(1, 3))):
        nl.add_output(net)
    nl.add_output(driven[-1])
    return nl


def _random_faults(nl):
    """Every enumerated fault plus stem faults on the floating net."""
    floating = [n.nid for n in nl.nets if n.name == "floating"]
    return enumerate_faults(nl) + [Fault(n, v) for n in floating for v in (0, 1)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_faultsim_matches_bruteforce_random_netlists(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    faults = _random_faults(nl)
    patterns = [rng.getrandbits(len(nl.inputs)) for _ in range(rng.randint(1, 8))]
    masks = FaultSimulator(nl).simulate_word(patterns, faults)
    for fault in faults:
        for k, pattern in enumerate(patterns):
            assert ((masks[fault] >> k) & 1) == int(
                _brute_force_detects(nl, fault, pattern)
            ), (fault.describe(nl), k)


def test_faultsim_po_stem_fault():
    nl = _and_circuit()
    y = nl.outputs[0]
    sim = FaultSimulator(nl)
    # y s-a-0 detected by pattern a=b=1 (pattern 0b11)
    res = sim.simulate_word([0b11, 0b01], [Fault(y, 0)])
    assert res[Fault(y, 0)] == 0b01


# ----------------------------------------------------------------------
# PODEM
# ----------------------------------------------------------------------
def eval3(cell_type: CellType, ins: list[int]) -> int:
    """Reference: evaluate one cell in {0, 1, X} logic."""
    if cell_type is CellType.CONST0:
        return ZERO
    if cell_type is CellType.CONST1:
        return ONE
    if cell_type is CellType.BUF:
        return ins[0]
    if cell_type is CellType.NOT:
        v = ins[0]
        return X if v == X else 1 - v
    if cell_type in (CellType.AND, CellType.NAND):
        invert = cell_type is CellType.NAND
        if any(v == ZERO for v in ins):
            out = ZERO
        elif any(v == X for v in ins):
            return X
        else:
            out = ONE
        return (1 - out) if invert else out
    if cell_type in (CellType.OR, CellType.NOR):
        invert = cell_type is CellType.NOR
        if any(v == ONE for v in ins):
            out = ONE
        elif any(v == X for v in ins):
            return X
        else:
            out = ZERO
        return (1 - out) if invert else out
    if cell_type in (CellType.XOR, CellType.XNOR):
        if any(v == X for v in ins):
            return X
        out = 0
        for v in ins:
            out ^= v
        return out ^ (1 if cell_type is CellType.XNOR else 0)
    raise ValueError(f"unknown cell type {cell_type}")


def _reference_implication(nl, assignment, fault):
    """Reference: three-valued good/faulty simulation, gate by gate."""
    good = [X] * nl.num_nets
    faulty = [X] * nl.num_nets
    for pi in nl.inputs:
        good[pi] = faulty[pi] = assignment.get(pi, X)
    if not fault.is_branch and nl.nets[fault.net].driver is None:
        faulty[fault.net] = fault.stuck_at
    for gid in nl.topological_order():
        gate = nl.gates[gid]
        good[gate.output] = eval3(gate.cell_type, [good[n] for n in gate.inputs])
        f_ins = [faulty[n] for n in gate.inputs]
        if fault.is_branch and gid == fault.gate:
            f_ins[fault.pin] = fault.stuck_at
        faulty[gate.output] = eval3(gate.cell_type, f_ins)
        if not fault.is_branch and gate.output == fault.net:
            faulty[gate.output] = fault.stuck_at
    return good, faulty


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_podem_implication_matches_reference(seed):
    rng = random.Random(seed)
    nl = _random_netlist(rng)
    podem = Podem(nl)
    for fault in _random_faults(nl):
        assignment = {
            pi: rng.choice((ZERO, ONE)) for pi in nl.inputs if rng.random() < 0.6
        }
        assert podem.implication(assignment, fault) == _reference_implication(
            nl, assignment, fault
        ), fault.describe(nl)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_podem_patterns_detect_on_random_netlists(seed):
    nl = _random_netlist(random.Random(seed))
    podem = Podem(nl, backtrack_limit=64)
    for fault in _random_faults(nl):
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert _brute_force_detects(nl, fault, result.pattern), fault.describe(nl)


def test_podem_finds_tests_for_all_adder_faults():
    nl = _adder(3)
    faults, _ = collapse_faults(nl)
    podem = Podem(nl, backtrack_limit=256)
    sim = FaultSimulator(nl)
    for fault in faults:
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert sim.simulate_word([result.pattern], [fault])[fault], (
                f"PODEM pattern does not detect {fault.describe(nl)}"
            )
        else:
            # the const-0 carry-in makes a handful genuinely redundant
            assert result.outcome is PodemOutcome.UNTESTABLE


def test_podem_proves_redundancy():
    # y = a AND NOT a is constant 0: s-a-0 on y is untestable
    nl = Netlist("red")
    a = nl.add_input("a")
    na = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.AND, [a, na], name="y")
    nl.add_output(y)
    podem = Podem(nl, backtrack_limit=64)
    result = podem.generate(Fault(y, 0))
    assert result.outcome is PodemOutcome.UNTESTABLE
    # ... while s-a-1 on y is testable by any pattern
    result = podem.generate(Fault(y, 1))
    assert result.outcome is PodemOutcome.DETECTED


def test_podem_xor_tree():
    wb = WordBuilder("x")
    word = wb.input_word("a", 6)
    wb.output_bit("y", wb.xor_reduce(list(word)))
    nl = wb.netlist
    faults, _ = collapse_faults(nl)
    podem = Podem(nl, backtrack_limit=128)
    sim = FaultSimulator(nl)
    detected = 0
    for fault in faults:
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert sim.simulate_word([result.pattern], [fault])[fault]
            detected += 1
    assert detected == len(faults)   # XOR trees are fully testable


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_engine_full_coverage_on_adder():
    nl = _adder(4)
    result = run_atpg(nl, use_cache=False)
    assert result.aborted == 0
    assert result.fault_coverage == 100.0
    assert result.num_patterns > 0
    # verify the pattern set truly covers every detected fault
    sim = FaultSimulator(nl)
    faults, _ = collapse_faults(nl)
    remaining = list(faults)
    for pattern in result.patterns:
        det = sim.simulate_word([pattern], remaining)
        remaining = [f for f in remaining if not det[f]]
    assert len(remaining) == result.num_faults - result.detected


def test_engine_structural_redundancy_pruning():
    # a gate that drives nothing reachable: pin faults pruned instantly
    nl = Netlist("dead")
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(CellType.AND, [a, b], name="y")
    nl.add_gate(CellType.OR, [a, b], name="dead")  # no PO
    nl.add_output(y)
    result = run_atpg(nl, use_cache=False, random_words=1)
    assert result.aborted == 0
    assert result.redundant >= 2      # the dead OR's faults


def test_engine_compaction_reduces_or_keeps(rng):
    nl = _adder(4)
    loose = run_atpg(nl, use_cache=False, compact=False)
    tight = run_atpg(nl, use_cache=False, compact=True)
    assert tight.num_patterns <= loose.num_patterns
    assert tight.detected == loose.detected


def test_engine_deterministic():
    nl = _adder(4)
    r1 = run_atpg(nl, use_cache=False, seed=7)
    r2 = run_atpg(nl, use_cache=False, seed=7)
    assert r1.patterns == r2.patterns
    assert r1.detected == r2.detected


def test_engine_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(4)
    r1 = run_atpg(nl, use_cache=True)
    r2 = run_atpg(nl, use_cache=True)
    assert r1.patterns == r2.patterns
    assert list(tmp_path.glob("*.json"))


def _edit(raw: bytes, **changes) -> bytes:
    return json.dumps({**json.loads(raw), **changes}).encode()


def _drop_redundant(raw: bytes) -> bytes:
    entry = json.loads(raw)
    del entry["redundant"]
    return json.dumps(entry).encode()


#: Ways a cache entry can be unreadable or ill-typed: valid bytes -> corrupt.
_CORRUPTIONS = {
    "truncated": lambda raw: raw[: len(raw) // 2],
    "empty": lambda raw: b"",
    "not-utf8": lambda raw: b"\xff\xfe\x00\x80" + raw,
    "not-an-object": lambda raw: b"[" + raw + b"]",
    "patterns-str": lambda raw: _edit(raw, patterns="xyz"),
    "pattern-str": lambda raw: _edit(raw, patterns=[1, "2"]),
    "count-str": lambda raw: _edit(raw, num_faults="98"),
    "count-bool": lambda raw: _edit(raw, detected=True),
    "count-negative": lambda raw: _edit(raw, aborted=-1),
    "missing-field": _drop_redundant,
    "extra-field": lambda raw: _edit(raw, extra=0),
}


@pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
def test_engine_corrupt_cache_entry_is_a_miss(kind, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(4)
    expected = run_atpg(nl, use_cache=True).to_json()
    (entry,) = tmp_path.glob("*.json")
    entry.write_bytes(_CORRUPTIONS[kind](entry.read_bytes()))
    assert run_atpg(nl, use_cache=True).to_json() == expected
    # recomputed and overwritten with a valid entry, no temp file left
    assert json.loads(entry.read_text()) == expected
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]


def test_engine_cache_store_is_atomic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(3)

    def fail(*_args, **_kwargs):
        raise OSError("disk full")

    monkeypatch.setattr("repro.atpg.engine.json.dump", fail)
    with pytest.raises(OSError):
        run_atpg(nl, use_cache=True)
    assert list(tmp_path.iterdir()) == []   # no partial entry, no temp file


def test_coverage_properties():
    nl = _adder(4)
    r = run_atpg(nl, use_cache=False)
    assert 0.0 <= r.raw_coverage <= 100.0
    assert r.raw_coverage <= r.fault_coverage <= 100.0
