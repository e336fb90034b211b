"""Cycle-accurate simulator semantics (the hybrid pipelining of Fig. 3)."""

from dataclasses import fields, replace

import pytest

from repro.apps import build_gcd_ir
from repro.compiler.interp import IRInterpreter
from repro.compiler.scheduler import compile_ir
from repro.explore import build_architecture
from repro.explore.space import small_space
from repro.tta import TTASimulator, assemble
from repro.tta.arch import ArchitectureError
from repro.tta.encoding import EncodingError, MoveEncoder
from repro.tta.isa import Guard, Instruction, Literal, Move, PortRef, Program
from repro.tta.simulator import SimulationError

from tests.conftest import make_arch
from tests.sim_reference import ReferenceSimulator


def run(src, arch=None, max_cycles=10_000, **kwargs):
    arch = arch or make_arch(2)
    program = assemble(src, arch)
    sim = TTASimulator(arch, program, **kwargs)
    result = sim.run(max_cycles=max_cycles)
    return sim, result


def test_add_through_rf():
    sim, result = run(
        """
        #5 -> alu0.a
        #7 -> alu0.b:add
        alu0.y -> rf0.w0[0]
        halt
        """
    )
    assert result.halted and result.reason == "halt"
    assert sim.rf_value("rf0", 0) == 12


def test_same_cycle_operand_and_trigger():
    """Eq. 2 with equality: operand in the trigger's cycle feeds it."""
    sim, _ = run(
        """
        #5 -> alu0.a ; #7 -> alu0.b:add
        alu0.y -> rf0.w0[0]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 12


def test_result_not_readable_same_cycle():
    """Eq. 3: reading R in the trigger's own cycle is a runtime error."""
    with pytest.raises(SimulationError, match="eq. 3"):
        run(
            """
            #5 -> alu0.a
            #7 -> alu0.b:add ; alu0.y -> rf0.w0[0]
            halt
            """
        )


def test_operand_register_persistence():
    """O registers hold their value across operations (operand reuse)."""
    sim, _ = run(
        """
        #10 -> alu0.a
        #1 -> alu0.b:add
        alu0.y -> rf0.w0[0]
        #2 -> alu0.b:add
        alu0.y -> rf0.w0[1]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 11
    assert sim.rf_value("rf0", 1) == 12


def test_rf_write_visible_next_cycle():
    sim, _ = run(
        """
        #42 -> rf0.w0[3]
        rf0.r0[3] -> rf0.w0[4]
        halt
        """
    )
    assert sim.rf_value("rf0", 4) == 42


def test_guard_squash_and_pass():
    sim, result = run(
        """
        #1 -> guard.g0
        (g0) #11 -> rf0.w0[0] ; (!g0) #22 -> rf0.w0[1]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 11
    assert sim.rf_value("rf0", 1) == 0
    assert result.moves_squashed == 1


def test_jump_has_one_delay_slot():
    sim, _ = run(
        """
        @target -> pc.target:jump
        #1 -> rf0.w0[0]
        #2 -> rf0.w0[1]
    target:
        #3 -> rf0.w0[2]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 1     # delay slot executes
    assert sim.rf_value("rf0", 1) == 0     # skipped
    assert sim.rf_value("rf0", 2) == 3


def test_guarded_jump_not_taken():
    sim, _ = run(
        """
        #0 -> guard.g0
        (g0) @skip -> pc.target:jump
        #1 -> rf0.w0[0]
        halt
    skip:
        #2 -> rf0.w0[0]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 1


def test_store_load_roundtrip():
    sim, _ = run(
        """
        #77 -> lsu0.wdata ; #100 -> lsu0.addr:st
        #100 -> lsu0.addr:ld
        nop
        lsu0.rdata -> rf0.w0[0]
        halt
        """
    )
    assert sim.dmem_read(100) == 77
    assert sim.rf_value("rf0", 0) == 77


def test_load_extension_modes():
    sim, _ = run(
        """
        .data 50 0x8182
        #50 -> lsu0.addr:ld_ls
        nop
        lsu0.rdata -> rf0.w0[0]
        #50 -> lsu0.addr:ld_lu
        nop
        lsu0.rdata -> rf0.w0[1]
        #50 -> lsu0.addr:ld_h
        nop
        lsu0.rdata -> rf0.w0[2]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 0xFF82   # sign-extended low byte
    assert sim.rf_value("rf0", 1) == 0x0082
    assert sim.rf_value("rf0", 2) == 0x0081


def test_cmp_writes_guard():
    sim, _ = run(
        """
        #5 -> cmp0.a
        #5 -> cmp0.b:eq
        cmp0.y -> guard.g1
        (g1) #9 -> rf0.w0[0]
        halt
        """
    )
    assert sim.rf_value("rf0", 0) == 9


def test_rf_read_port_overflow_detected():
    arch = make_arch(2)
    with pytest.raises(RuntimeError, match="read-port overflow"):
        run(
            """
            #1 -> rf0.w0[0]
            rf0.r0[0] -> alu0.a ; rf0.r0[0] -> alu0.b:add
            halt
            """,
            arch=arch,
        )


def test_end_of_program_halts():
    sim, result = run("#1 -> rf0.w0[0]\n")
    assert result.halted
    assert result.reason == "end-of-program"


def test_max_cycles_guard():
    sim, result = run(
        """
    spin:
        @spin -> pc.target:jump
        nop
        """,
        max_cycles=50,
    )
    assert not result.halted
    assert result.reason == "max-cycles"
    assert result.cycles == 50


def test_data_image_loaded():
    sim, _ = run(
        """
        .data 10 1 2 3
        halt
        """
    )
    assert sim.dmem_read(10) == 1
    assert sim.dmem_read(12) == 3


def test_read_before_result_rejected():
    with pytest.raises(SimulationError, match="before any result"):
        run(
            """
            alu0.y -> rf0.w0[0]
            halt
            """
        )


def test_ipc_accounting():
    _, result = run(
        """
        #1 -> rf0.w0[0] ; #2 -> alu0.a
        halt
        """
    )
    assert result.moves_executed == 2
    assert 0 < result.ipc <= 2


# ----------------------------------------------------------------------
# error paths: a bad move raises when executed, and only then
# ----------------------------------------------------------------------
_LIT = Literal(1)
_RF_W = PortRef("rf0", "w0")

_BAD_MOVES = [
    ("unknown-port", Move(_LIT, PortRef("alu0", "bogus")),
     SimulationError, "unknown port alu0.bogus"),
    ("unknown-dst-unit", Move(_LIT, PortRef("nope", "x")),
     ArchitectureError, "no unit named 'nope'"),
    ("unknown-src-unit", Move(PortRef("nope", "y"), _RF_W, dst_reg=0),
     ArchitectureError, "no unit named 'nope'"),
    ("bad-guard-dst", Move(_LIT, PortRef("guard", "x1")),
     SimulationError, "bad guard register name 'x1'"),
    ("bad-guard-src", Move(PortRef("guard", "q"), _RF_W, dst_reg=0),
     SimulationError, "bad guard register name 'q'"),
    ("fu-lacks-opcode", Move(_LIT, PortRef("alu0", "b"), opcode="mul"),
     SimulationError, "alu0 cannot execute 'mul'"),
    ("missing-opcode", Move(_LIT, PortRef("alu0", "b")),
     SimulationError, "trigger on alu0 without opcode"),
    ("pc-non-jump", Move(_LIT, PortRef("pc", "target"), opcode="call"),
     SimulationError, "PC trigger with opcode 'call'"),
    ("lsu-invalid-opcode", Move(_LIT, PortRef("lsu0", "addr"), opcode="ld_x"),
     SimulationError, "LSU opcode 'ld_x' invalid"),
    ("rf-read-no-index", Move(PortRef("rf0", "r0"), PortRef("alu0", "a")),
     SimulationError, "RF read rf0.r0 without register index"),
    ("rf-write-no-index", Move(_LIT, _RF_W),
     SimulationError, "RF write rf0.w0 without register index"),
    ("non-readable", Move(PortRef("pc", "target"), _RF_W, dst_reg=0),
     SimulationError, "pc.target is not a readable unit"),
    ("non-writable", Move(_LIT, PortRef("imm0", "value")),
     SimulationError, "imm0.value is not a writable unit"),
]


def _placed(move, placement):
    """A two-bus program executing ``move`` or steering around it."""
    nop = Instruction(slots=[None, None])
    halt = Instruction(slots=[None, None], halt=True)
    bad = Instruction(slots=[move, None])
    if placement == "reached":
        instructions = [bad, halt]
    elif placement == "after-halt":
        instructions = [halt, bad]
    elif placement == "warm":
        instructions = _warm_loop(move)
    else:  # not-taken: g0 is 0, so the guarded jump to ``bad`` squashes
        branch = Instruction(slots=[
            Move(Literal(3), PortRef("pc", "target"), opcode="jump",
                 guard=Guard(0)),
            None,
        ])
        instructions = [branch, nop, halt, bad]
    return Program(instructions=instructions)


def _warm_loop(move):
    """A 20-iteration, three-bus loop holding ``move`` guarded by g1.

    The compare sets g1 only on the last iteration, long after the loop
    body has become a generated block.  The bad move sits in the delay
    slot of the exit jump, so it raises from generated code with that
    jump pending.
    """
    rf_r, rf_w, pc = PortRef("rf0", "r0"), PortRef("rf0", "w0"), PortRef("pc", "target")
    alu_y, cmp_y = PortRef("alu0", "y"), PortRef("cmp0", "y")
    return [
        Instruction(slots=[Move(Literal(20), rf_w, dst_reg=1), None, None]),
        Instruction(slots=[  # loop: r1 - 1
            Move(rf_r, PortRef("alu0", "a"), src_reg=1),
            Move(Literal(1), PortRef("alu0", "b"), opcode="sub"),
            None,
        ]),
        Instruction(slots=[
            Move(alu_y, rf_w, dst_reg=1), Move(alu_y, PortRef("cmp0", "a")), None,
        ]),
        Instruction(slots=[
            Move(Literal(0), PortRef("cmp0", "b"), opcode="eq"), None, None,
        ]),
        Instruction(slots=[Move(cmp_y, PortRef("guard", "g1")), None, None]),
        Instruction(slots=[
            None,
            Move(Literal(1), pc, opcode="jump", guard=Guard(1, invert=True)),
            Move(Literal(7), pc, opcode="jump", guard=Guard(1)),
        ]),
        Instruction(slots=[replace(move, guard=Guard(1)), None, None]),
        Instruction(slots=[None, None, None], halt=True),
    ]


@pytest.mark.parametrize(
    "placement", ["reached", "after-halt", "not-taken", "warm"]
)
@pytest.mark.parametrize(
    "move,error,message",
    [case[1:] for case in _BAD_MOVES],
    ids=[case[0] for case in _BAD_MOVES],
)
def test_bad_move_raises_only_when_executed(move, error, message, placement):
    if placement == "warm":
        _raise_from_generated_block(_placed(move, placement), error, message)
        return
    sim = TTASimulator(make_arch(2), _placed(move, placement))
    if placement == "reached":
        with pytest.raises(Exception) as info:
            sim.run()
        assert type(info.value) is error
        assert str(info.value) == message
    else:
        result = sim.run()
        assert result.halted and result.reason == "halt"


def _raise_from_generated_block(program, error, message):
    """Raise from a hot block exactly where the reference loop raises.

    Traced too when the encoder accepts the bad move (activity tracing
    needs the encoded instruction words).
    """
    arch = make_arch(3)
    try:
        MoveEncoder(arch).encode_program(program)
        modes = (False, True)
    except EncodingError:
        modes = (False,)
    for traced in modes:
        sim = TTASimulator(arch, program, activity=traced)
        reference = ReferenceSimulator(arch, program, activity=traced)
        for simulator in (sim, reference):
            with pytest.raises(Exception) as info:
                simulator.run()
            assert type(info.value) is error
            assert str(info.value) == message
        assert sim._hot[1] is not None  # the loop body ran generated
        assert (sim.cycle, sim.pc, sim._pending_jump) == (
            reference.cycle, reference.pc, reference._pending_jump
        )
        assert sim._pending_jump == (sim.cycle, 7)
        for state in (sim, reference):
            assert state.pc == 6 and state.rf_value("rf0", 1) == 0
        assert sim.dmem == reference.dmem and sim.guards == reference.guards
        assert _units(sim) == _units(reference)
        if traced:
            assert _activity(sim) == _activity(reference)
            assert (sim._act_bus, sim._act_port_last, sim._act_rf_last_read) == (
                reference._act_bus, reference._act_port_last,
                reference._act_rf_last_read,
            )


def _units(sim):
    """Operand and result registers and pipeline of every FU and LSU."""
    return [(sorted(state.operands.items()), state.result, state.result_valid,
             state.pipeline)
            for state in sim._fu.values()]


def _activity(sim):
    """Every ``ActivityTrace`` field, dicts as ordered item lists."""
    return [
        list(value.items()) if isinstance(value, dict) else value
        for value in (getattr(sim.activity, f.name) for f in fields(sim.activity))
    ]


def _final_state(sim, results):
    return (
        sim.cycle, sim.pc, sim.dmem, sim.guards,
        [sim.rf_value(u.name, r) for u in sim.arch.rfs
         for r in range(u.spec.num_regs)],
        [list(getattr(sim.activity, f.name).items())
         if isinstance(getattr(sim.activity, f.name), dict)
         else getattr(sim.activity, f.name)
         for f in fields(sim.activity)],
        results[-1].cycles, results[-1].halted, results[-1].reason,
        [sum(getattr(r, k) for r in results)
         for k in ("moves_executed", "moves_squashed", "triggers")],
    )


def test_resumed_run_matches_uninterrupted():
    """``run()`` re-entry: stopping at any cycle and resuming is exact."""
    workload = build_gcd_ir(252, 105)
    arch = build_architecture(small_space()[3], 16)
    profile = IRInterpreter(workload, width=16).run().block_counts
    program = compile_ir(workload, arch, profile=profile).program

    whole = TTASimulator(arch, program, activity=True)
    reference = _final_state(whole, [whole.run()])
    assert reference[7] is True
    for stop in range(1, whole.cycle):
        sim = TTASimulator(arch, program, activity=True)
        first = sim.run(max_cycles=stop)
        assert first.reason == "max-cycles" and first.cycles == stop
        assert _final_state(sim, [first, sim.run()]) == reference, stop


@pytest.mark.parametrize(
    "slots,message",
    [
        # Reads come before every commit ...
        ([Move(_LIT, PortRef("alu0", "bogus")),
          Move(PortRef("rf0", "r0"), PortRef("alu0", "a"))],
         "RF read rf0.r0 without register index"),
        # ... and plain commits before every trigger.
        ([Move(_LIT, PortRef("alu0", "b")),
          Move(_LIT, PortRef("imm0", "value"))],
         "imm0.value is not a writable unit"),
    ],
    ids=["read-before-commit", "plain-before-trigger"],
)
def test_first_fault_in_an_instruction_wins(slots, message):
    program = Program(instructions=[Instruction(slots=slots, halt=True)])
    with pytest.raises(SimulationError) as info:
        TTASimulator(make_arch(2), program).run()
    assert str(info.value) == message


def test_tracing_runs_a_negative_fetch_word_like_a_plain_run():
    """Activity tracing never changes execution.

    A squashed move with a negative register index encodes to a negative
    instruction word; the traced run still executes it as the plain run
    does instead of failing on the word's toggle count.
    """
    program = Program(instructions=[Instruction(
        slots=[Move(PortRef("rf0", "r0"), PortRef("alu0", "a"), src_reg=-1,
                    guard=Guard(0)), None],
        halt=True,
    )])
    arch = make_arch(2)
    assert MoveEncoder(arch).encode_program(program)[0] < 0
    plain = TTASimulator(arch, program).run()
    assert TTASimulator(arch, program, activity=True).run() == plain
    assert plain.halted and plain.moves_squashed == 1
