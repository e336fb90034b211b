"""Hot straight-line blocks of a simulated program, as generated Python.

:class:`~repro.tta.simulator.TTASimulator` runs a block through its
decoded-tuple loop (the cold tier) until the block is hot, then as one
function written here and ``exec``'d once for that simulator.  The
function behaves exactly like the cold tier: the same results, state,
activity counts in the same key order, and the same faults at the same
cycle.  ``tests/test_sim_compiled.py`` checks that against the frozen
loop in ``tests/sim_reference.py``.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.components.reference import (
    alu_reference,
    cmp_reference,
    mul_reference,
)
from repro.components.register_file import MultiPortMemory
from repro.components.spec import ComponentKind
from repro.tta.simulator import (
    _DST_FAULT,
    _DST_FU,
    _DST_GUARD,
    _DST_LSU,
    _DST_OPERAND,
    _DST_PC,
    _DST_RF,
    _DST_TRIGGER_FAULT,
    _EXECUTED,
    _EXIT_HALT,
    _FAULT_AT,
    _FETCH_TOGGLES,
    _FETCH_WORDS,
    _GUARD_TOGGLES,
    _LAST_WORD,
    _SQUASHED,
    _SRC_FAULT,
    _SRC_FU,
    _SRC_GUARD,
    _SRC_LIT,
    _SRC_RF,
    _TRIGGERS,
    SimulationError,
    _FUState,
    _renew,
)
from repro.util.bitops import mask

if TYPE_CHECKING:
    from repro.tta.simulator import TTASimulator

#: Longest generated block, in instructions.  Shorter blocks retain
#: more code objects and pay the per-block entry and exit more often;
#: longer ones raise the peak memory of each ``compile()``.
BLOCK_CAP = 16


def block_layout(code: list[tuple], traced: bool, num_buses: int):
    """Static leaders, and the block length from every instruction.

    Leaders: the entry, literal jump targets, the instruction after each
    jump's delay slot, the instruction after a halt and the program end.
    A run between leaders is cut from its end into blocks of at most
    ``BLOCK_CAP`` instructions, so a jump and its delay slot share a
    block, and a jump can only sit in a block's last two instructions.
    A block entered mid-run (a dynamic jump target) ends at the next
    leader.  ``lengths[pc]`` is 0 for an instruction no block may hold:
    a traced move on a bus the architecture lacks, which the cold tier
    runs (and fails on) exactly as before.
    """
    n = len(code)
    leaders = bytearray(n + 1)
    leaders[0] = leaders[n] = 1
    outside = []
    for pc, (moves, halt, _word, _rfs) in enumerate(code):
        if halt:
            leaders[pc + 1] = 1
        for move in moves:
            if move[8][0] == _DST_PC:
                leaders[min(pc + 2, n)] = 1
                if move[3] == _SRC_LIT:
                    leaders[move[4] % (n + 1)] = 1
            if traced and move[0] >= num_buses:
                outside.append(pc)
                leaders[pc] = leaders[pc + 1] = 1
    starts = [pc for pc in range(n + 1) if leaders[pc]]
    for first, end in zip(starts, starts[1:]):
        for cut in range(end - BLOCK_CAP, first, -BLOCK_CAP):
            leaders[cut] = 1
    lengths = [0] * n
    after = n
    for pc in range(n - 1, -1, -1):
        lengths[pc] = after - pc
        if leaders[pc]:
            after = pc
    for pc in outside:
        lengths[pc] = 0
    return leaders, lengths


def fu_expression(function: partial, a: str, b: str) -> str:
    """Source computing the bound reference model ``function(a, b)``.

    ``function`` is a model ``_reference_function`` binds: an ALU, CMP
    or MUL reference at the datapath width.  ``a`` and ``b`` are
    expressions for values below ``2**width``: the simulator masks every
    operand to the datapath width.
    """
    w = function.keywords["width"]
    m = mask(w)
    sign = 1 << (w - 1)
    if function.func is mul_reference:
        return f"({a} * {b}) & {m}"
    op = function.args[0]
    if function.func is alu_reference:
        amount = f"({b} & {w - 1})" if w & (w - 1) == 0 else f"({b} % {w})"
        return {
            "add": f"({a} + {b}) & {m}",
            "sub": f"({a} - {b}) & {m}",
            "and": f"{a} & {b}",
            "or": f"{a} | {b}",
            "xor": f"{a} ^ {b}",
            "shl": f"({a} << {amount}) & {m}",
            "shr": f"{a} >> {amount}",
            "sra": f"((({a} ^ {sign}) - {sign}) >> {amount}) & {m}",
        }[op]
    assert function.func is cmp_reference, function
    test = {
        "eq": f"{a} == {b}",
        "ne": f"{a} != {b}",
        "ltu": f"{a} < {b}",
        "geu": f"{a} >= {b}",
        "lts": f"({a} ^ {sign}) < ({b} ^ {sign})",
        "ges": f"({a} ^ {sign}) >= ({b} ^ {sign})",
    }[op]
    return f"1 if {test} else 0"


def lsu_expression(mode: str, data: str, width: int) -> str:
    """Source computing ``lsu_extend_reference(mode, data, width)``.

    ``mode`` is one of ``_LSU_MODE``'s read modes; ``width`` >= 2.
    """
    m = mask(width)
    half = width // 2
    sign = 1 << (half - 1)
    return {
        "word": f"{data} & {m}",
        "low_unsigned": f"{data} & {mask(half)}",
        "high": f"({data} & {m}) >> {half}",
        "low_signed": f"((({data} & {mask(half)}) ^ {sign}) - {sign}) & {m}",
    }[mode]


def land(pipeline: list, state: _FUState, cycle: int, port_toggles, key) -> int:
    """Land ``state``'s results due by ``cycle``; the new result.

    A generated block's landing of operations issued before it, with
    the cold tier's exact dict updates.
    """
    while pipeline and pipeline[0][0] <= cycle:
        value = pipeline.pop(0)[1]
        if port_toggles is not None:
            port_toggles[key] = port_toggles.get(key, 0) + (
                state.result ^ value
            ).bit_count()
        state.result = value
        state.result_valid = True
    return state.result


#: Closure name -> ``ActivityTrace`` counter dict a block adds to.
_ACTIVITY_DICTS = {
    "BT": "bus_toggles",
    "BX": "bus_transports",
    "PT": "port_toggles",
    "SX": "socket_transports",
    "FA": "fu_activations",
    "RR": "rf_reads",
    "RW": "rf_writes",
    "RRT": "rf_read_toggles",
    "RWT": "rf_write_toggles",
}


class BlockWriter:
    """Python source for one straight-line block of one simulator.

    The generated ``block(C)`` runs the ``length`` instructions from
    ``start`` from cycle ``C``, phase for phase like the cold tier:
    results land, moves sample, plain moves commit, then triggers fire.
    It returns the next PC, ``_EXIT_HALT``, or ``_EXIT_HALT - 1 -
    target`` when its last instruction issued a jump (the delay slot is
    the next block's first instruction).

    Literals, masks, register-file data lists, FU states and the
    reference expressions are folded into the source.  FU results live
    in locals; the block's own results land at fixed offsets, and
    operations in flight at entry land through a pipeline check.
    Operand registers and the bus, port and RF-read last values are
    tracked as expressions and stored once, at the end of the block or
    before anything that needs them stored.

    Activity counts are local ints, and the cycle, fetch and executed
    move counts are per-exit constants; a ``finally`` adds both to the
    ``ActivityTrace`` dicts and writes back the last values, and on a
    raise also the faulting cycle, PC, pending jump and the results
    still in flight.  Adding to an existing key keeps the dicts'
    first-touch order, so ``ready()`` waits until every key the block
    counts exists.  An instruction that can raise stores every value
    first.  A guarded move, and an instruction holding a decode fault,
    count straight into the dicts in move order, so a rarely executed
    move never holds its block back.  Generated code assumes one jump
    delay slot.
    """

    def __init__(self, sim: TTASimulator, start: int, length: int):
        self.sim = sim
        self.start = start
        self.length = length
        self.traced = sim.activity is not None
        self.wmask = sim._width_mask
        self.env: dict[str, object] = {}
        self._names: dict[int, str] = {}
        self._temps = 0
        self.prologue: list[str] = []
        self.body: list[str] = []
        self.counts: dict[tuple[str, object], str] = {}
        self.homes: dict[tuple[str, object], str] = {}
        self.current: dict[tuple[str, object], int | str] = {}
        self.dirty: list[tuple[str, object]] = []
        self.results: dict[int, str] = {}
        self.landed: list[str] = []
        self.lands_at: dict[int, list[tuple[str, str, str | None]]] = {}
        self.appends: list[tuple[str, str, int, str | None]] = []
        self.issues: list[tuple[str, str, int, int]] = []
        self.last_raise = -1
        self.jumps: list[int] = []
        self.needs_keys: list[tuple[dict, object]] = []
        self.needs_valid: list[_FUState] = []
        self.may_raise = False
        self.squashes = False
        self.squashed_triggers = False
        self.halts = False
        self.moves = 0
        self.triggers = 0
        self._write()
        self.source = self._render()
        # Only the source, the bound objects and the readiness lists are
        # kept: a writer waiting in ``_warming`` must not pin its
        # simulator in a reference cycle.
        del self.sim, self.prologue, self.body

    # -- readiness and compilation ---------------------------------------
    def ready(self) -> bool:
        """Whether every counted key exists and every used result is valid."""
        self.needs_keys = [(d, k) for d, k in self.needs_keys if k not in d]
        self.needs_valid = [s for s in self.needs_valid if not s.result_valid]
        return not self.needs_keys and not self.needs_valid

    def _render(self) -> str:
        epilogue = self._epilogue()
        lines = [f"def make({', '.join(self.env)}):", "    def block(C):"]
        lines += ["        " + line for line in self.prologue]
        lines.append("        try:")
        lines += ["            " + line for line in self.body]
        lines.append("        finally:")
        lines += ["            " + line for line in epilogue]
        lines += ["        return nxt", "    return block", ""]
        return "\n".join(lines)

    def compile(self):
        namespace: dict[str, object] = {}
        exec(compile(self.source, f"<tta block {self.start}>", "exec"), namespace)
        return namespace["make"](**self.env)

    # -- names -------------------------------------------------------------
    def bind(self, obj, prefix: str) -> str:
        """The closure name of ``obj``, one per object."""
        name = self._names.get(id(obj))
        if name is None:
            name = self._names[id(obj)] = f"{prefix}{len(self.env)}"
            self.env[name] = obj
        return name

    def temp(self, prefix: str) -> str:
        self._temps += 1
        return f"{prefix}{self._temps}"

    def fu(self, state: _FUState) -> str:
        """Suffix of an FU/LSU's closure names ``st``, ``p`` and ``o``."""
        name = self._names.get(id(state))
        if name is None:
            name = self.bind(state, "st")
            self.env["p" + name[2:]] = state.pipeline
            self.env["o" + name[2:]] = state.operands
        return name[2:]

    def result(self, state: _FUState) -> str:
        """The local holding an FU's result register."""
        local = self.results.get(id(state))
        if local is None:
            suffix = self.fu(state)
            local = self.results[id(state)] = "r" + suffix
            self.prologue.append(f"{local} = st{suffix}.result")
            self.needs_valid.append(state)
        return local

    # -- activity counts ---------------------------------------------------
    def count(self, direct: bool, table: str, key, amount: int | str) -> str:
        """The line adding ``amount`` to ``table[key]``.

        ``direct`` updates the dict in place; otherwise a local int
        counts, which the ``finally`` adds to the (then existing) key.
        """
        if direct:
            return f"{table}[{key!r}] = {table}.get({key!r}, 0) + {amount}"
        slot = (table, key)
        local = self.counts.get(slot)
        if local is None:
            activity = getattr(self.sim.activity, _ACTIVITY_DICTS[table])
            self.needs_keys.append((activity, key))
            local = self.counts[slot] = self.temp("n")
            self.prologue.append(f"{local} = 0")
        return f"{local} += {amount}"

    def toggle(self, direct: bool, table: str, key, old, new) -> str:
        if isinstance(old, int) and isinstance(new, int):
            return self.count(direct, table, key, (old ^ new).bit_count())
        return self.count(direct, table, key, f"BC({old} ^ {new})")

    # -- tracked values ------------------------------------------------------
    # A slot is a last value (``BL``, ``RL``, ``PL``: a local loaded at
    # entry, written back by the ``finally``) or an operand register
    # (``O``: the state's dict).  ``current`` holds an expression for its
    # value; ``dirty`` slots have not been stored yet.
    def value(self, slot):
        current = self.current.get(slot)
        if current is not None:
            return current
        table, key = slot
        if table == "O":
            suffix, port = key
            return f"o{suffix}.get({port!r}, 0)"
        return self._home(slot)

    def _home(self, slot) -> str:
        table, key = slot
        if table == "O":
            suffix, port = key
            return f"o{suffix}[{port!r}]"
        local = self.homes.get(slot)
        if local is None:
            local = self.homes[slot] = self.temp("l")
            read = f"[{key!r}]" if table == "BL" else f".get({key!r}, 0)"
            self.prologue.append(f"{local} = {table}{read}")
            self.current[slot] = local
        return local

    def assign(self, slot, value, lines: list[str], stored: bool) -> None:
        """Give ``slot`` a new value: stored now, or tracked until needed."""
        home = self._home(slot)
        if stored:
            lines.append(f"{home} = {value}")
            self.current[slot] = None if slot[0] == "O" else home
            if slot in self.dirty:
                self.dirty.remove(slot)
        else:
            self.current[slot] = value
            if slot not in self.dirty:
                self.dirty.append(slot)

    def store(self, only: str | None = None) -> None:
        """Store dirty slots (only those holding ``only``, if given)."""
        for slot in list(self.dirty):
            if only is None or self.current[slot] == only:
                self.body.append(f"{self._home(slot)} = {self.current[slot]}")
                self.current[slot] = None if slot[0] == "O" else self._home(slot)
                self.dirty.remove(slot)

    # -- code --------------------------------------------------------------
    def _write(self) -> None:
        sim = self.sim
        self.env.update(S=sim._tally, G=sim.guards, D=sim.dmem, SE=SimulationError,
                        RENEW=_renew, LAND=land, BC=int.bit_count)
        if self.traced:
            for table, attr in _ACTIVITY_DICTS.items():
                self.env[table] = getattr(sim.activity, attr)
            self.env.update(BL=sim._act_bus, PL=sim._act_port_last,
                            RL=sim._act_rf_last_read)
            self.prologue.append("gt = 0")
        # Units the program triggers anywhere may have results in
        # flight at entry: (state, result key, latency) in landing order.
        triggered = {
            id(move[8][3]) for moves, _halt, _word, _rfs in sim._code
            for move in moves if move[8][0] in (_DST_FU, _DST_LSU)
        }
        self.in_flight = []
        landing = iter(sim._landing)
        for unit in sim.arch.units.values():
            if unit.spec.kind in (ComponentKind.FU, ComponentKind.LSU):
                state, key = next(landing)
                if id(state) in triggered:
                    self.in_flight.append((state, key, unit.spec.latency))
        code = sim._code[self.start:self.start + self.length]
        # Results the block reads or lands get a local before any code.
        for offset, (moves, _halt, _word, _rfs) in enumerate(code):
            for move in moves:
                commit = move[8]
                if move[3] == _SRC_FU:
                    self.result(move[4])
                lands = commit[0] == _DST_FU or (
                    commit[0] == _DST_LSU and commit[5] not in ("st", None)
                )
                if lands and offset + commit[6] < self.length:
                    self.result(commit[3])
        for offset, instruction in enumerate(code):
            self._land(offset)
            self._instruction(offset, instruction)
        self.store()
        self._exit()
        # Issues a raise may leave in flight: None until computed.
        self.issues = [issue for issue in self.issues if issue[2] <= self.last_raise]
        self.prologue += [f"{result} = None" for _s, result, _o, _l in self.issues]

    def _land(self, offset: int) -> None:
        """Begin of cycle ``offset``: land finished results."""
        out = self.body
        for state, key, latency in self.in_flight:
            if offset >= latency:
                continue
            # Issued before the block: checked, and landed with exact
            # dict updates (a unit's first landing creates its key).
            suffix = self.fu(state)
            local = self.results.get(id(state))
            if local:
                self.store(only=local)
            cycle = f"C + {offset}" if offset else "C"
            port_toggles = "PT" if self.traced and key is not None else "None"
            land = f"LAND(p{suffix}, st{suffix}, {cycle}, {port_toggles}, {key!r})"
            out.append(f"if p{suffix}: {local + ' = ' if local else ''}{land}")
        for suffix, value, cond in self.lands_at.get(offset, ()):
            local = "r" + suffix
            self.store(only=local)
            lines = []
            key = next(k for s, k in self.sim._landing if s is self.env["st" + suffix])
            if self.traced and key is not None:
                lines.append(self.toggle(bool(cond), "PT", key, local, value))
            lines.append(f"{local} = {value}")
            self._emit(cond, lines)

    def _emit(self, cond: str | None, lines: list) -> None:
        """Append ``lines``, under ``if cond:`` for a guarded move."""
        if cond is None:
            self.body.extend(lines)
        elif lines:
            self.body.append(f"if {cond}:")
            self.body.extend("    " + line for line in lines)

    def _instruction(self, offset: int, instruction: tuple) -> None:
        moves, halt, _word, _rfs = instruction
        sim = self.sim
        traced = self.traced
        faulty = any(
            move[3] == _SRC_FAULT or move[8][0] in (_DST_FAULT, _DST_TRIGGER_FAULT)
            for move in moves
        )
        # A register file this instruction could overrun (ports, index)
        # keeps the port-checked method calls, which raise as before.
        used: dict[tuple[int, str], int] = {}
        self.checked: dict[int, MultiPortMemory] = {}
        for move in moves:
            commit = move[8]
            for rf, reg, ports in (
                (move[4], move[5], "read_ports") if move[3] == _SRC_RF else (None,) * 3,
                (commit[1], commit[2], "write_ports") if commit[0] == _DST_RF else (None,) * 3,
            ):
                if rf is None:
                    continue
                n_used = used[(id(rf), ports)] = used.get((id(rf), ports), 0) + 1
                if not 0 <= reg < rf.num_words or n_used > getattr(rf, ports):
                    self.checked[id(rf)] = rf
        lsu_check = any(
            move[8][0] == _DST_LSU and (
                move[3] != _SRC_LIT or move[4] >= sim.dmem_words or move[8][5] is None
            )
            for move in moves
        )
        out = self.body
        raises = faulty or self.checked or lsu_check
        if raises:
            # Everything stored: the finally sees the state at the raise.
            self.store()
            if not self.may_raise:
                self.may_raise = True
                self.prologue.append("i = 0")
            self.last_raise = offset
            out.append(f"i = {offset}")
        for rf in self.checked.values():
            out.append(f"{self.bind(rf, 'R')}.new_cycle()")

        # Sample phase.
        sampled = []
        for m, (bus, guard, squash_on, kind, source, arg,
                src_socket, dst_socket, commit) in enumerate(moves):
            self.moves += 1
            trigger = commit[0] >= _DST_FU
            self.triggers += trigger
            cond = None
            if guard is not None:
                self.store()
                cond = f"e{offset}_{m}"
                out.append(f"{cond} = {'' if squash_on else 'not '}G[{guard}]")
                out.append(f"if not {cond}:")
                out.append("    sq += 1")
                if not self.squashes:
                    self.squashes = True
                    self.prologue.append("sq = 0")
                if trigger:
                    out.append("    sqt += 1")
                    if not self.squashed_triggers:
                        self.squashed_triggers = True
                        self.prologue.append("sqt = 0")
            # A guarded move may run rarely, so it counts straight into
            # the dicts and its keys never hold the block back.
            direct = bool(faulty or cond)
            stored = bool(direct or raises)
            lines = []
            fits = True
            if kind == _SRC_LIT:
                value = source
            elif kind == _SRC_RF:
                value = f"v{offset}_{m}"
                fits = source._mask <= self.wmask
                if id(source) in self.checked:
                    lines.append(f"{value} = {self.bind(source, 'R')}.read({arg})")
                else:
                    # The memory's own data list: an instruction within
                    # its ports and indices needs no port bookkeeping.
                    lines.append(f"{value} = {self.bind(source._data, 'd')}[{arg}]")
            elif kind == _SRC_FU:
                # FU and LSU results are datapath-wide (the architecture
                # gives every unit the datapath width).
                value = self.results[id(source)]
            elif kind == _SRC_GUARD:
                value = f"v{offset}_{m}"
                lines.append(f"{value} = G[{source}]")
            else:
                lines.append(f"raise RENEW({self.bind(source, 'E')})")
                value = None
            if traced and value is not None:
                slot = ("BL", bus)
                lines.append(self.toggle(direct, "BT", bus, self.value(slot), value))
                lines.append(self.count(direct, "BX", bus, 1))
                self.assign(slot, value, lines, stored)
                if src_socket is not None:
                    lines.append(self.count(direct, "SX", src_socket, 1))
                    if kind == _SRC_RF:
                        name = src_socket[0]
                        slot = ("RL", name)
                        lines.append(self.count(direct, "RR", name, 1))
                        lines.append(self.toggle(direct, "RRT", name, self.value(slot), value))
                        self.assign(slot, value, lines, stored)
                if dst_socket is not None:
                    lines.append(self.count(direct, "SX", dst_socket, 1))
            if cond is None:
                out.extend(lines)
            elif lines:
                out.append("else:")
                out.extend("    " + line for line in lines)
            if value is not None:
                sampled.append((cond, (direct, stored), commit, value, fits))

        # Commit phase: plain moves in order, then triggers.
        for cond, how, commit, value, fits in sampled:
            if commit[0] < _DST_FU:
                if cond:
                    self.store()
                self._emit(cond, self._commit(*how, commit, value, fits))
        for cond, how, commit, value, fits in sampled:
            if commit[0] >= _DST_FU:
                if cond:
                    self.store()
                self._emit(cond, self._trigger(offset, cond, *how, commit, value, fits))
        self.halts = halt

    def _masked(self, value, fits: bool, lines: list[str]):
        """``value & wmask`` as a constant, a local, or ``value`` itself."""
        if isinstance(value, int):
            return value & self.wmask
        if fits:
            return value
        local = self.temp("t")
        lines.append(f"{local} = {value} & {self.wmask}")
        return local

    def _commit(self, direct, stored, commit, value, fits) -> list:
        """A plain (non-trigger) commit."""
        traced = self.traced
        kind = commit[0]
        lines = []
        if kind == _DST_RF:
            _kind, rf, reg, name = commit
            masked = self._masked(value, fits, lines)
            if id(rf) in self.checked:
                rf_name = self.bind(rf, "R")
                if traced:
                    lines.append(f"w = {rf_name}.peek({reg})")
                    lines.append(self.count(direct, "RW", name, 1))
                    lines.append(self.toggle(direct, "RWT", name, "w", masked))
                lines.append(f"{rf_name}.write({reg}, {value})")
            else:
                data = self.bind(rf._data, "d")
                if traced:
                    lines.append(self.count(direct, "RW", name, 1))
                    lines.append(self.toggle(direct, "RWT", name, f"{data}[{reg}]", masked))
                if rf._mask >= self.wmask:
                    kept = masked
                elif isinstance(value, int):
                    kept = value & rf._mask
                else:
                    kept = f"{value} & {rf._mask}"
                lines.append(f"{data}[{reg}] = {kept}")
        elif kind == _DST_OPERAND:
            _kind, _operands, port, key = commit
            masked = self._masked(value, fits, lines)
            if traced:
                slot = ("PL", key)
                lines.append(self.toggle(direct, "PT", key, self.value(slot), masked))
                self.assign(slot, masked, lines, stored)
            suffix = self.fu(self.sim._fu[key[0]])
            self.assign(("O", (suffix, port)), masked, lines, stored)
        elif kind == _DST_GUARD:
            index = commit[1]
            if traced:
                lines.append(f"gt += (G[{index}] ^ {value}) & 1")
            kept = value & 1 if isinstance(value, int) else f"{value} & 1"
            lines.append(f"G[{index}] = {kept}")
        else:  # _DST_FAULT
            lines.append(f"raise RENEW({self.bind(commit[1], 'E')})")
        return lines

    def _trigger(self, offset, cond, direct, stored, commit, value, fits) -> list:
        """A trigger commit: FU, LSU, PC or a decode fault."""
        sim = self.sim
        kind, unit, key, state, port, a, b, c = commit
        lines = []
        operand = self._masked(value, fits, lines)
        if self.traced:
            slot = ("PL", key)
            lines.append(self.toggle(direct, "PT", key, self.value(slot), operand))
            self.assign(slot, operand, lines, stored)
            lines.append(self.count(direct, "FA", unit, 1))
        if kind in (_DST_FU, _DST_LSU):
            suffix = self.fu(state)
            self.assign(("O", (suffix, port)), operand, lines, stored)
        if kind == _DST_FU:
            other = self.value(("O", (suffix, c))) if c is not None else 0
            expression = fu_expression(a, str(other), str(operand))
            lines.append(self._issue(offset, cond, state, b, expression))
        elif kind == _DST_LSU:
            if not isinstance(operand, int) or operand >= sim.dmem_words:
                lines.append(f"if {operand} >= {sim.dmem_words}:")
                lines.append(f"    raise SE(f'data address {{{operand}:#x}} out of range')")
            if a == "st":
                data = self.value(("O", (suffix, "wdata")))
                # Operand registers only ever hold masked values.
                lines.append(f"D[{operand}] = {data}")
            elif a is None:
                lines.append(f"raise RENEW({self.bind(c, 'E')})")
            else:
                data = f"D.get({operand}, 0)"
                expression = lsu_expression(a, data, sim.arch.width)
                lines.append(self._issue(offset, cond, state, b, expression))
        elif kind == _DST_PC:
            n1 = len(sim._code) + 1
            target = value % n1 if isinstance(value, int) else f"{value} % {n1}"
            lines.append(f"j{offset} = {target}")
            if offset not in self.jumps:
                self.jumps.append(offset)
                self.prologue.append(f"j{offset} = None")
        elif kind == _DST_TRIGGER_FAULT:
            if state is not None:
                self.assign(("O", (self.fu(state), port)), operand, lines, True)
            lines.append(f"raise RENEW({self.bind(a, 'E')})")
        return lines

    def _issue(self, offset, cond, state, latency, expression) -> str:
        """Compute a result that lands ``latency`` cycles on."""
        suffix = self.fu(state)
        result = self.temp("q")
        lands = offset + latency
        self.issues.append((suffix, result, offset, lands))
        if lands < self.length:
            self.lands_at.setdefault(lands, []).append((suffix, result, cond))
            if suffix not in self.landed:
                self.landed.append(suffix)
        else:
            self.appends.append((suffix, result, lands, cond))
        return f"{result} = {expression}"

    def _exit(self) -> None:
        """The end of the ``try``: the next PC."""
        n = self.length
        out = self.body
        if self.may_raise:
            out.append(f"i = {n}")
        if self.halts:
            out.append(f"nxt = {_EXIT_HALT}")
            return
        out.append(f"nxt = {self.start + n}")
        for offset in sorted(self.jumps):
            target = f"j{offset}" if offset < n - 1 else f"{_EXIT_HALT - 1} - j{offset}"
            out.append(f"if j{offset} is not None: nxt = {target}")

    def _epilogue(self) -> list[str]:
        """The ``finally``: flush counts and state, then the exit tallies."""
        n = self.length
        lines = [f"{table}[{key!r}] += {local}"
                 for (table, key), local in self.counts.items()]
        lines += [f"{table}[{key!r}] = {local}"
                  for (table, key), local in self.homes.items()]
        lines += [f"st{suffix}.result = r{suffix}" for suffix in self.landed]
        if self.traced:
            lines.append(f"S[{_GUARD_TOGGLES}] += gt")
        done = [
            f"S[{_EXECUTED}] += {self.moves}{' - sq' if self.squashes else ''}",
            f"S[{_TRIGGERS}] += {self.triggers}{' - sqt' if self.squashed_triggers else ''}",
        ]
        if self.squashes:
            done.append(f"S[{_SQUASHED}] += sq")
        for suffix, result, lands, cond in self.appends:
            append = f"p{suffix}.append((C + {lands}, {result}))"
            done.append(f"if {cond}: {append}" if cond else append)
        code = self.sim._code[self.start:self.start + n]
        words = [word for _moves, _halt, word, _rfs in code]
        steps = [0]
        for before, after in zip(words, words[1:]):
            steps.append(steps[-1] + (before ^ after).bit_count())
        first = f"BC(S[{_LAST_WORD}] ^ {words[0]})"
        if self.traced:
            done += [
                f"S[{_FETCH_WORDS}] += {n}",
                f"S[{_FETCH_TOGGLES}] += {first} + {steps[-1]}",
                f"S[{_LAST_WORD}] = {words[-1]}",
            ]
        if not self.may_raise:
            return lines + done
        fault = ["jp = None"]
        for offset in sorted(self.jumps):
            fault.append(f"if j{offset} is not None: jp = (C + {offset + 1}, j{offset})")
        fault.append(f"S[{_FAULT_AT}] = (C + i, {self.start} + i, jp)")
        # Results computed before the raise and not landed by its cycle
        # stay in flight, in issue order, as the cold tier leaves them.
        for suffix, result, _offset, lands in self.issues:
            append = f"p{suffix}.append((C + {lands}, {result}))"
            test = f" and i < {lands}" if lands < n else ""
            fault.append(f"if {result} is not None{test}: {append}")
        if self.traced:
            fault += [
                f"S[{_FETCH_WORDS}] += i + 1",
                f"S[{_FETCH_TOGGLES}] += {first} + {tuple(steps)!r}[i]",
                f"S[{_LAST_WORD}] = {tuple(words)!r}[i]",
            ]
        return (lines + [f"if i == {n}:"] + ["    " + line for line in done]
                + ["else:"] + ["    " + line for line in fault])
