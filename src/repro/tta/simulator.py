"""Cycle-accurate TTA simulator.

Implements the hybrid-pipelining semantics of Fig. 3:

* all moves of an instruction *sample* sources at begin-of-cycle and
  *commit* at end-of-cycle;
* a trigger launches its FU with the post-commit operand registers
  (eq. 2: ``C(T) - C(O) >= 0`` with equality allowed) and the operands
  are latched into the FU pipeline, enforcing relation (5);
* results land in the result register ``latency`` cycles after the
  trigger and are readable from that cycle on (eq. 3);
* register-file writes and guard writes become visible the next cycle;
* jumps (moves into the PC trigger) have one delay slot.

The functional units execute their *behavioural* reference models — the
gate level exists for area/test back-annotation, and the differential
tests in ``tests/`` pin the two views together.

``run()`` first decodes every instruction into flat per-move tuples
(resolved registers, FU states, bound reference functions and the
activity keys each move touches), then executes them in one loop that
serves plain and activity-traced runs alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.components.reference import (
    ALU_OPS,
    CMP_OPS,
    MUL_OPS,
    SHIFTER_OPS,
    alu_reference,
    cmp_reference,
    lsu_extend_reference,
    mul_reference,
)
from repro.components.register_file import MultiPortMemory
from repro.components.spec import ComponentKind
from repro.tta.activity import ActivityTrace
from repro.tta.arch import Architecture, ArchitectureError, UnitInstance
from repro.tta.isa import GUARD_UNIT, Literal, Move, Program
from repro.util.bitops import mask

#: Jump delay slots (moves into the PC take effect after this many extra
#: instructions have issued).
BRANCH_DELAY_SLOTS = 1

#: LSU opcode -> read-extension mode.
_LSU_MODE = {
    "ld": "word",
    "ld_ls": "low_signed",
    "ld_lu": "low_unsigned",
    "ld_h": "high",
}

# Source kinds of a decoded move.
_SRC_RF, _SRC_FU, _SRC_LIT, _SRC_GUARD, _SRC_FAULT = range(5)

# Destination kinds.  Plain commits come first; every kind from
# ``_DST_FU`` on is a trigger, committed after all plain moves.
_DST_RF, _DST_OPERAND, _DST_GUARD, _DST_FAULT = range(4)
_DST_FU, _DST_LSU, _DST_PC, _DST_TRIGGER_FAULT = range(4, 8)


class SimulationError(Exception):
    """Runtime fault: bad port, port overflow, unmapped address..."""


@dataclass
class SimResult:
    """Summary of one simulation run."""

    cycles: int
    halted: bool
    reason: str
    moves_executed: int
    moves_squashed: int
    triggers: int

    @property
    def ipc(self) -> float:
        """Executed moves per cycle (transport utilisation)."""
        return self.moves_executed / self.cycles if self.cycles else 0.0


@dataclass(slots=True)
class _FUState:
    operands: dict[str, int] = field(default_factory=dict)
    pipeline: list[tuple[int, int]] = field(default_factory=list)  # (ready, value)
    result: int = 0
    result_valid: bool = False


class TTASimulator:
    """Interpreter for a :class:`~repro.tta.isa.Program` on an architecture."""

    def __init__(
        self,
        arch: Architecture,
        program: Program,
        dmem_words: int = 65536,
        activity: bool = False,
    ):
        self.arch = arch
        self.program = program
        self._width_mask = mask(arch.width)
        self.dmem = dict(program.data)
        self.dmem_words = dmem_words
        for addr in self.dmem:
            if not 0 <= addr < dmem_words:
                raise SimulationError(f"data image address {addr} out of range")
        self.guards = [0] * arch.num_guard_regs
        self._fu: dict[str, _FUState] = {}
        self._rf: dict[str, MultiPortMemory] = {}
        # (state, result-port activity key) per FU/LSU, in unit order:
        # the order results land in, and so first touch in port_toggles.
        self._landing: list[tuple[_FUState, tuple[str, str] | None]] = []
        for unit in arch.units.values():
            if unit.spec.kind in (ComponentKind.FU, ComponentKind.LSU):
                state = self._fu[unit.name] = _FUState()
                outputs = unit.spec.output_ports
                key = (unit.name, outputs[0].name) if outputs else None
                self._landing.append((state, key))
            elif unit.spec.kind is ComponentKind.RF:
                self._rf[unit.name] = MultiPortMemory(
                    unit.spec.num_regs,
                    unit.spec.width,
                    read_ports=unit.spec.n_out,
                    write_ports=unit.spec.n_in,
                )
        self.pc = 0
        self.cycle = 0
        self._pending_jump: tuple[int, int] | None = None

        # Switching-activity tracing is opt-in: when off, ``self.activity``
        # is None and the run loop skips every ``if traced`` block — it
        # executes identically (pinned by tests) either way.
        self.activity: ActivityTrace | None = None
        if activity:
            from repro.tta.encoding import MoveEncoder

            self.activity = ActivityTrace(width=arch.width)
            self._act_words = MoveEncoder(arch).encode_program(program)
            self._act_last_word = 0
            self._act_bus = [0] * arch.num_buses
            self._act_port_last: dict[tuple[str, str], int] = {}
            self._act_rf_last_read: dict[str, int] = {}

    # ------------------------------------------------------------------
    # inspection helpers (tests, examples)
    # ------------------------------------------------------------------
    def rf_value(self, unit: str, reg: int) -> int:
        return self._rf[unit].peek(reg)

    def set_rf_value(self, unit: str, reg: int, value: int) -> None:
        self._rf[unit].poke(reg, value)

    def dmem_read(self, addr: int) -> int:
        return self.dmem.get(addr, 0)

    def dmem_write(self, addr: int, value: int) -> None:
        self.dmem[addr] = value & self._width_mask

    def guard(self, index: int) -> int:
        return self.guards[index]

    def result_of(self, unit: str) -> int:
        return self._fu[unit].result

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def _decode(self) -> list[tuple]:
        """Decode every instruction into ``(moves, halt, word, rfs)``.

        ``moves`` holds one tuple per occupied bus slot: ``(bus, guard
        index, squash-on value, source kind, source, source arg, source
        socket key, destination socket key, commit)``.  ``rfs`` lists the
        register files the instruction can touch — the only ones whose
        port counters must be reset in its cycle.

        A move the checks reject (unknown unit or port, bad guard name,
        missing register index or opcode, ...) decodes into an entry
        that raises the same exception when — and only if — it executes.
        """
        units = self.arch.units
        words = self._act_words if self.activity is not None else None
        code = []
        for pc, instruction in enumerate(self.program.instructions):
            moves = []
            rfs: list[MultiPortMemory] = []
            for bus, move in enumerate(instruction.slots):
                if move is None:
                    continue
                try:
                    source = self._decode_source(move)
                except (SimulationError, ArchitectureError) as exc:
                    source = (_SRC_FAULT, exc, None)
                try:
                    commit = self._decode_dest(move)
                except (SimulationError, ArchitectureError) as exc:
                    commit = (_DST_FAULT, exc)
                if source[0] == _SRC_RF and source[1] not in rfs:
                    rfs.append(source[1])
                if commit[0] == _DST_RF and commit[1] not in rfs:
                    rfs.append(commit[1])
                src, dst = move.src, move.dst
                src_socket = (
                    None if isinstance(src, Literal) or src.unit not in units
                    else (src.unit, src.port)
                )
                dst_socket = (dst.unit, dst.port) if dst.unit in units else None
                guard = move.guard
                moves.append((
                    bus,
                    None if guard is None else guard.index,
                    None if guard is None else not guard.invert,
                    *source,
                    src_socket,
                    dst_socket,
                    commit,
                ))
            code.append((
                tuple(moves),
                instruction.halt,
                words[pc] if words is not None else 0,
                tuple(rfs),
            ))
        return code

    def _decode_source(self, move: Move) -> tuple:
        """``(kind, target, arg)`` for the move's source; faults raise."""
        src = move.src
        if isinstance(src, Literal):
            return _SRC_LIT, src.value & self._width_mask, None
        if src.unit == GUARD_UNIT:
            return _SRC_GUARD, _guard_index_or_raise(src.port), None
        unit = self.arch.unit(src.unit)
        if unit.spec.kind is ComponentKind.RF:
            if move.src_reg is None:
                raise SimulationError(f"RF read {src} without register index")
            return _SRC_RF, self._rf[src.unit], move.src_reg
        state = self._fu.get(src.unit)
        if state is None:
            raise SimulationError(f"{src} is not a readable unit")
        return _SRC_FU, state, str(src)

    def _decode_dest(self, move: Move) -> tuple:
        """The commit tuple for the move's destination; faults raise."""
        dst = move.dst
        if dst.unit == GUARD_UNIT:
            return _DST_GUARD, _guard_index_or_raise(dst.port)
        if dst.unit in self.arch.units:
            unit = self.arch.units[dst.unit]
            try:
                is_trigger = unit.spec.port(dst.port).is_trigger
            except KeyError:
                raise SimulationError(f"unknown port {dst}") from None
            if is_trigger:
                return self._decode_trigger(move, unit)
        unit = self.arch.unit(dst.unit)
        if unit.spec.kind is ComponentKind.RF:
            if move.dst_reg is None:
                raise SimulationError(f"RF write {dst} without register index")
            return _DST_RF, self._rf[dst.unit], move.dst_reg, dst.unit
        state = self._fu.get(dst.unit)
        if state is None:
            raise SimulationError(f"{dst} is not a writable unit")
        return _DST_OPERAND, state.operands, dst.port, (dst.unit, dst.port)

    def _decode_trigger(self, move: Move, unit: UnitInstance) -> tuple:
        """``(kind, unit, key, state, port, a, b, c)`` for a trigger move.

        FU: ``a, b, c`` = bound reference function, latency, operand
        port.  LSU: mode (``"st"`` for a store), latency, and the fault
        an invalid opcode raises once the address has been checked.
        Trigger faults: the exception to raise.
        """
        dst = move.dst
        spec = unit.spec
        key = (dst.unit, dst.port)
        state = self._fu.get(dst.unit)
        if spec.kind is ComponentKind.PC:
            if move.opcode != "jump":
                fault = SimulationError(f"PC trigger with opcode {move.opcode!r}")
                return _trigger_fault(key, None, dst.port, fault)
            return _DST_PC, dst.unit, key, None, dst.port, None, None, None
        if state is None:
            return _trigger_fault(key, None, dst.port, KeyError(dst.unit))
        if spec.kind is ComponentKind.LSU:
            opcode = move.opcode or "ld"
            mode = "st" if opcode == "st" else _LSU_MODE.get(opcode)
            fault = None if mode else SimulationError(f"LSU opcode {opcode!r} invalid")
            return _DST_LSU, dst.unit, key, state, dst.port, mode, spec.latency, fault
        try:
            function = _reference_function(move.opcode, unit)
        except SimulationError as exc:
            return _trigger_fault(key, state, dst.port, exc)
        operand_port = next(
            (p.name for p in spec.input_ports if not p.is_trigger), None
        )
        return (_DST_FU, dst.unit, key, state, dst.port,
                function, spec.latency, operand_port or None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run until halt, program end, or the cycle budget expires.

        Re-entrant: the cycle, PC and pending jump are written back, so a
        second call continues where the first stopped.
        """
        code = self._decode()
        n_instructions = len(code)
        wmask = self._width_mask
        width = self.arch.width
        guards = self.guards
        dmem = self.dmem
        dmem_words = self.dmem_words
        landing = self._landing
        inflight = sum(len(state.pipeline) for state, _key in landing)

        act = self.activity
        traced = act is not None
        if traced:
            bus_toggles = act.bus_toggles
            bus_transports = act.bus_transports
            port_toggles = act.port_toggles
            socket_transports = act.socket_transports
            fu_activations = act.fu_activations
            rf_reads = act.rf_reads
            rf_writes = act.rf_writes
            rf_read_toggles = act.rf_read_toggles
            rf_write_toggles = act.rf_write_toggles
            guard_toggles = act.guard_toggles
            fetch_words = act.fetch_words
            fetch_toggles = act.fetch_toggles
            bus_last = self._act_bus
            port_last = self._act_port_last
            rf_last_read = self._act_rf_last_read
            last_word = self._act_last_word

        cycle = self.cycle
        pc = self.pc
        jump = self._pending_jump
        executed = 0
        squashed = 0
        triggers = 0
        halted = False
        reason = "end-of-program"
        try:
            while cycle < max_cycles:
                if not 0 <= pc < n_instructions:
                    halted = True
                    break
                moves, halt, word, rfs = code[pc]
                if traced:
                    fetch_words += 1
                    fetch_toggles += (last_word ^ word).bit_count()
                    last_word = word

                # Begin-of-cycle: land finished results, open RF ports.
                if inflight:
                    for state, key in landing:
                        pipeline = state.pipeline
                        while pipeline and pipeline[0][0] <= cycle:
                            value = pipeline.pop(0)[1]
                            inflight -= 1
                            if traced and key is not None:
                                port_toggles[key] = port_toggles.get(key, 0) + (
                                    state.result ^ value
                                ).bit_count()
                            state.result = value
                            state.result_valid = True
                        if not inflight:
                            break
                for rf in rfs:
                    rf.new_cycle()

                # Sample phase (one bus slot per move; squashed moves
                # drive no bus).
                sampled = []
                for (bus, guard, squash_on, kind, source, arg,
                     src_socket, dst_socket, commit) in moves:
                    if guard is not None and (not guards[guard]) is squash_on:
                        squashed += 1
                        continue
                    if kind == _SRC_RF:
                        value = source.read(arg)
                    elif kind == _SRC_FU:
                        if not source.result_valid:
                            raise SimulationError(
                                f"cycle {cycle}: read of {arg} before any "
                                f"result (eq. 3)"
                            )
                        value = source.result
                    elif kind == _SRC_LIT:
                        value = source
                    elif kind == _SRC_GUARD:
                        value = guards[source]
                    else:
                        raise _renew(source)
                    sampled.append((commit, value))
                    if traced:
                        bus_toggles[bus] = bus_toggles.get(bus, 0) + (
                            bus_last[bus] ^ value
                        ).bit_count()
                        bus_transports[bus] = bus_transports.get(bus, 0) + 1
                        bus_last[bus] = value
                        if src_socket is not None:
                            socket_transports[src_socket] = (
                                socket_transports.get(src_socket, 0) + 1
                            )
                            if kind == _SRC_RF:
                                name = src_socket[0]
                                rf_reads[name] = rf_reads.get(name, 0) + 1
                                rf_read_toggles[name] = rf_read_toggles.get(
                                    name, 0
                                ) + (rf_last_read.get(name, 0) ^ value).bit_count()
                                rf_last_read[name] = value
                        if dst_socket is not None:
                            socket_transports[dst_socket] = (
                                socket_transports.get(dst_socket, 0) + 1
                            )

                # Commit phase: operands first, then triggers see fresh
                # operands.
                fired = None
                for commit, value in sampled:
                    kind = commit[0]
                    if kind == _DST_RF:
                        _kind, rf, reg, name = commit
                        if traced:
                            old = rf.peek(reg)
                            rf_writes[name] = rf_writes.get(name, 0) + 1
                            rf_write_toggles[name] = rf_write_toggles.get(
                                name, 0
                            ) + (old ^ (value & wmask)).bit_count()
                        rf.write(reg, value)
                    elif kind == _DST_OPERAND:
                        _kind, operands, port, key = commit
                        value &= wmask
                        if traced:
                            port_toggles[key] = port_toggles.get(key, 0) + (
                                port_last.get(key, 0) ^ value
                            ).bit_count()
                            port_last[key] = value
                        operands[port] = value
                    elif kind == _DST_GUARD:
                        index = commit[1]
                        if traced:
                            guard_toggles += (guards[index] ^ value) & 1
                        guards[index] = value & 1
                    elif kind == _DST_FAULT:
                        raise _renew(commit[1])
                    elif fired is None:
                        fired = [(commit, value)]
                    else:
                        fired.append((commit, value))

                if fired is not None:
                    triggers += len(fired)
                    for commit, value in fired:
                        kind, unit, key, state, port, a, b, c = commit
                        operand = value & wmask
                        if traced:
                            port_toggles[key] = port_toggles.get(key, 0) + (
                                port_last.get(key, 0) ^ operand
                            ).bit_count()
                            port_last[key] = operand
                            fu_activations[unit] = fu_activations.get(unit, 0) + 1
                        if kind == _DST_FU:
                            operands = state.operands
                            operands[port] = operand
                            state.pipeline.append(
                                (cycle + b, a(operands.get(c, 0), operand))
                            )
                            inflight += 1
                        elif kind == _DST_LSU:
                            state.operands[port] = operand
                            if operand >= dmem_words:
                                raise SimulationError(
                                    f"data address {operand:#x} out of range"
                                )
                            if a == "st":
                                dmem[operand] = (
                                    state.operands.get("wdata", 0) & wmask
                                )
                            elif a is None:
                                raise _renew(c)
                            else:
                                state.pipeline.append((
                                    cycle + b,
                                    lsu_extend_reference(
                                        a, dmem.get(operand, 0), width
                                    ),
                                ))
                                inflight += 1
                        elif kind == _DST_PC:
                            jump = (
                                cycle + BRANCH_DELAY_SLOTS,
                                value % (n_instructions + 1),
                            )
                        else:
                            if state is not None:
                                state.operands[port] = operand
                            raise _renew(a)
                executed += len(sampled)

                if halt:
                    reason = "halt"
                    halted = True
                    cycle += 1
                    break
                if jump is not None and cycle >= jump[0]:
                    pc = jump[1]
                    jump = None
                else:
                    pc += 1
                cycle += 1
            else:
                reason = "max-cycles"
        finally:
            self.cycle = cycle
            self.pc = pc
            self._pending_jump = jump
            if traced:
                act.guard_toggles = guard_toggles
                act.fetch_words = fetch_words
                act.fetch_toggles = fetch_toggles
                self._act_last_word = last_word

        if traced:
            act.cycles = cycle
        return SimResult(
            cycles=cycle,
            halted=halted,
            reason=reason,
            moves_executed=executed,
            moves_squashed=squashed,
            triggers=triggers,
        )


def _trigger_fault(key, state, port, exc: Exception) -> tuple:
    """A trigger entry that raises ``exc`` when committed.

    ``state`` is the FU whose operand register the trigger still writes
    before raising, or None.
    """
    return _DST_TRIGGER_FAULT, key[0], key, state, port, exc, None, None


def _renew(exc: Exception) -> Exception:
    """A fresh copy of a decoded fault, so each raise has its own traceback."""
    return type(exc)(*exc.args)


def _reference_function(opcode: str | None, unit: UnitInstance):
    """The behavioural model ``f(a, b)`` an FU trigger with ``opcode`` runs."""
    spec = unit.spec
    if opcode is None:
        raise SimulationError(f"trigger on {unit.name} without opcode")
    if opcode not in spec.ops:
        raise SimulationError(f"{unit.name} cannot execute {opcode!r}")
    if opcode in ALU_OPS or opcode in SHIFTER_OPS:
        return partial(alu_reference, opcode, width=spec.width)
    if opcode in CMP_OPS:
        return partial(cmp_reference, opcode, width=spec.width)
    if opcode in MUL_OPS:
        return partial(mul_reference, width=spec.width)
    raise SimulationError(f"no behavioural model for opcode {opcode!r}")


def _guard_index_or_raise(port: str) -> int:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    raise SimulationError(f"bad guard register name {port!r}")
