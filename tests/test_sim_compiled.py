"""Generated blocks against the frozen decoded-tuple loop.

``TTASimulator.run()`` runs hot straight-line blocks as generated Python
and everything else in its cold tier.  ``tests/sim_reference.py`` keeps
the loop that used to run every cycle.  These tests pin the two
together: random programs at every width, plain and traced, the inlined
reference-model expressions, runs stopped and resumed inside hot blocks,
and a stepped run that decodes once.
"""

from __future__ import annotations

import random
from dataclasses import fields
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import build_workload
from repro.compiler import IRInterpreter, compile_ir
from repro.components.reference import (
    ALU_OPS,
    CMP_OPS,
    LSU_OPS,
    alu_reference,
    cmp_reference,
    lsu_extend_reference,
    mul_reference,
)
from repro.energy.model import technology_by_name
from repro.energy.report import breakdown_from_trace
from repro.explore import build_architecture
from repro.explore.space import small_space
from repro.tta import _blocks
from repro.tta.isa import Instruction, Literal, Move, PortRef, Program
from repro.tta.simulator import SimulationError, TTASimulator

from tests.conftest import make_arch
from tests.sim_reference import ReferenceSimulator
from tests.test_compiler_fuzz import _SHAPES, _random_program

# Simulator against simulator, so widths 8 and 12 count too: the
# spill-placement defect there gives both sides the same wrong memory.
WIDTHS = (8, 12, 16, 32)


def _outcome(sim, max_cycles=200_000):
    """``SimResult``, or the raised exception's type and message."""
    try:
        return sim.run(max_cycles=max_cycles)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _state(sim) -> list:
    """Everything a run leaves behind, activity dicts as ordered items."""
    state = [
        sim.cycle, sim.pc, sim._pending_jump, sorted(sim.dmem.items()),
        list(sim.guards),
        [sim.rf_value(u.name, r) for u in sim.arch.rfs
         for r in range(u.spec.num_regs)],
        [(state.result, state.result_valid, state.pipeline,
          sorted(state.operands.items()))
         for state in sim._fu.values()],
    ]
    if sim.activity is not None:
        state.append([
            list(value.items()) if isinstance(value, dict) else value
            for value in (getattr(sim.activity, f.name)
                          for f in fields(sim.activity))
        ])
    return state


def _energy(sim) -> str:
    breakdown = breakdown_from_trace(
        sim.activity, sim.arch, technology_by_name("default")
    )
    return repr(breakdown.total)


def _assert_same_run(arch, program, traced):
    ours = TTASimulator(arch, program, activity=traced)
    reference = ReferenceSimulator(arch, program, activity=traced)
    assert _outcome(ours) == _outcome(reference)
    assert _state(ours) == _state(reference)
    # The energy model needs power-of-two ALU netlists.
    if traced and arch.width & (arch.width - 1) == 0:
        assert _energy(ours) == _energy(reference)
    return ours


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=100_000),
    shape=st.sampled_from(_SHAPES),
)
def test_generated_blocks_match_reference(seed, shape):
    """Random programs x shapes x widths, plain and traced.

    A block goes hot as soon as it is ready, so even the fuzz programs'
    two to five loop iterations run generated code.
    """
    fn = _random_program(seed)
    for width in WIDTHS:
        profile = IRInterpreter(fn, width=width).run().block_counts
        arch = make_arch(width=width, **shape)
        program = compile_ir(fn, arch, profile=profile).program
        for traced in (False, True):
            _assert_same_run(arch, program, traced)


def test_fuzz_programs_do_run_hot():
    """The fuzz net above reaches generated code, not only the cold tier."""
    hot = 0
    for seed in range(10):
        fn = _random_program(seed)
        arch = make_arch(width=16, **_SHAPES[seed % len(_SHAPES)])
        profile = IRInterpreter(fn, width=16).run().block_counts
        program = compile_ir(fn, arch, profile=profile).program
        sim = _assert_same_run(arch, program, traced=True)
        hot += sum(block is not None for block in sim._hot)
    assert hot >= 10


# ----------------------------------------------------------------------
# the reference expressions folded into generated code
# ----------------------------------------------------------------------
def _models(width: int):
    for op in ALU_OPS:
        yield partial(alu_reference, op, width=width)
    for op in CMP_OPS:
        yield partial(cmp_reference, op, width=width)
    yield partial(mul_reference, width=width)


@pytest.mark.parametrize("width", WIDTHS)
def test_folded_fu_expressions_match_reference_models(width):
    rng = random.Random(width)
    top = (1 << width) - 1
    values = [0, 1, 2, top, top - 1, 1 << (width - 1), (1 << (width - 1)) - 1]
    values += [rng.getrandbits(width) for _ in range(24)]
    for model in _models(width):
        source = _blocks.fu_expression(model, "a", "b")
        code = compile(source, "<expr>", "eval")
        for a in values:
            for b in values:
                got = eval(code, {"a": a, "b": b})
                assert got == model(a, b), (source, a, b)
                assert type(got) is int


@pytest.mark.parametrize("width", WIDTHS)
def test_folded_lsu_expressions_match_reference_model(width):
    rng = random.Random(width)
    # Data images may hold any int, including negative and oversized ones.
    data = [0, 1, -1, (1 << width) - 1, 1 << width, -(1 << (width + 3))]
    data += [rng.randrange(-(1 << 40), 1 << 40) for _ in range(40)]
    for mode in LSU_OPS:
        code = compile(_blocks.lsu_expression(mode, "d", width), "<e>", "eval")
        for d in data:
            assert eval(code, {"d": d}) == lsu_extend_reference(mode, d, width)


# ----------------------------------------------------------------------
# budgets, resumption and decode-once
# ----------------------------------------------------------------------
def _compiled(workload: str, config_index: int):
    fn = build_workload(workload)
    arch = build_architecture(small_space()[config_index], 16)
    profile = IRInterpreter(fn, width=16).run().block_counts
    return arch, compile_ir(fn, arch, profile=profile).program


def _inside_hot_block(sim) -> bool:
    """Whether ``sim.pc`` lies strictly inside a generated block."""
    return any(
        block is not None and start < sim.pc < start + sim._lengths[start]
        for start, block in enumerate(sim._hot)
    )


def test_resume_from_stops_inside_hot_blocks():
    """``max_cycles`` stops inside hot blocks resume exactly."""
    arch, program = _compiled("crc16", 3)
    whole = TTASimulator(arch, program, activity=True)
    result = whole.run()
    assert result.halted
    reference = _state(whole), result
    inside = 0
    for stop in range(401, result.cycles, 97):
        sim = TTASimulator(arch, program, activity=True)
        first = sim.run(max_cycles=stop)
        assert first.reason == "max-cycles" and first.cycles == stop
        inside += _inside_hot_block(sim)
        second = sim.run()
        assert second.cycles == result.cycles and second.halted
        assert _state(sim) == reference[0], stop
        total = [getattr(first, k) + getattr(second, k)
                 for k in ("moves_executed", "moves_squashed", "triggers")]
        assert total == [result.moves_executed, result.moves_squashed,
                         result.triggers], stop
    assert inside >= 10


def test_stepped_run_decodes_once_and_keeps_its_blocks():
    arch, program = _compiled("crc16", 3)
    whole = TTASimulator(arch, program, activity=True)
    whole.run()
    sim = TTASimulator(arch, program, activity=True)
    with mock.patch.object(
        TTASimulator, "_decode", autospec=True, side_effect=TTASimulator._decode
    ) as decode:
        stop = 0
        while not sim.run(max_cycles=stop).halted:
            hot = sim._hot
            stop += 37
        assert decode.call_count == 1
    assert sim._hot is hot and any(block is not None for block in hot)
    assert _state(sim) == _state(whole)


def test_replaced_state_objects_are_rebound():
    """Blocks bind the simulator's state; swapping one regenerates them."""
    arch, program = _compiled("crc16", 3)
    whole = TTASimulator(arch, program)
    whole.run()
    sim = TTASimulator(arch, program)
    sim.run(max_cycles=2000)
    assert any(block is not None for block in sim._hot)
    sim.dmem = dict(sim.dmem)
    sim.guards = list(sim.guards)
    sim.run()
    assert _state(sim) == _state(whole)


def _runaway_store_loop(alu: str | None = None) -> Program:
    """A loop storing at r1 += 8 until the address leaves data memory.

    ``alu`` ("before" or "after") adds, in the storing instruction, an
    ALU trigger before or after the store in move order; the trigger
    before it is still in flight when the store raises.
    """
    rf_r, rf_w = PortRef("rf0", "r0"), PortRef("rf0", "w0")
    alu_y = PortRef("alu0", "y")
    store = [
        Move(alu_y, rf_w, dst_reg=1),
        Move(alu_y, PortRef("lsu0", "addr"), opcode="st"),
    ]
    trigger = Move(Literal(5), PortRef("alu0", "b"), opcode="add")
    if alu == "before":
        store.insert(0, trigger)
    elif alu == "after":
        store.append(trigger)
    buses = len(store)
    return Program(instructions=[
        Instruction(slots=[Move(Literal(0), rf_w, dst_reg=1)] + [None] * (buses - 1)),
        Instruction(slots=[
            Move(rf_r, PortRef("alu0", "a"), src_reg=1),
            Move(Literal(8), PortRef("alu0", "b"), opcode="add"),
        ] + [None] * (buses - 2)),
        Instruction(slots=store),
        Instruction(slots=[
            Move(Literal(1), PortRef("pc", "target"), opcode="jump"),
        ] + [None] * (buses - 1)),
        Instruction(slots=[None] * buses),
        Instruction(slots=[None] * buses, halt=True),
    ])


@pytest.mark.parametrize("alu", [None, "before", "after"])
@pytest.mark.parametrize("traced", [False, True])
def test_runtime_fault_in_hot_block_matches_reference(traced, alu):
    """An LSU range fault raised from generated code leaves exact state.

    With an ALU trigger in the raising instruction, the pipeline holds
    its result only when the trigger comes first in move order.
    """
    program = _runaway_store_loop(alu)
    arch = make_arch(len(program.instructions[0].slots))
    ours = TTASimulator(arch, program, dmem_words=200, activity=traced)
    reference = ReferenceSimulator(arch, program, dmem_words=200, activity=traced)
    outcome = _outcome(ours)
    assert outcome == (SimulationError, "data address 0xc8 out of range")
    assert outcome == _outcome(reference)
    assert ours._hot[1] is not None
    assert bool(ours._fu["alu0"].pipeline) == (alu == "before")
    assert _state(ours) == _state(reference)
    if traced:
        assert (ours._act_bus, ours._act_port_last, ours._act_rf_last_read) == (
            reference._act_bus, reference._act_port_last,
            reference._act_rf_last_read,
        )
