"""The simulator's decoded-tuple interpreter, frozen as a test reference.

``ReferenceSimulator`` keeps a verbatim copy of ``TTASimulator._decode``
and of the single ``run()`` loop that executed every cycle before the
simulator generated code for hot blocks.  It shares the state layout and
the per-move decode helpers of :class:`repro.tta.simulator.TTASimulator`,
so the differential tests compare the two execution engines on the same
decoded moves: results, final state, activity dicts in key order and
energy totals must all be equal.
"""

from __future__ import annotations

from repro.components.reference import lsu_extend_reference
from repro.components.register_file import MultiPortMemory
from repro.tta.arch import ArchitectureError
from repro.tta.isa import Literal
from repro.tta.simulator import (
    _DST_FAULT,
    _DST_FU,
    _DST_GUARD,
    _DST_LSU,
    _DST_OPERAND,
    _DST_PC,
    _DST_RF,
    _SRC_FAULT,
    _SRC_FU,
    _SRC_GUARD,
    _SRC_LIT,
    _SRC_RF,
    BRANCH_DELAY_SLOTS,
    SimResult,
    SimulationError,
    TTASimulator,
    _renew,
)


class ReferenceSimulator(TTASimulator):
    """``TTASimulator`` running the frozen decoded-tuple loop."""

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
