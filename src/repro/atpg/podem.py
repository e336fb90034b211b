"""PODEM test generation for single stuck-at faults.

Classic PODEM (Goel 1981): decisions are made only on primary inputs,
guided by *objectives* (activate the fault, then advance the D-frontier)
that are *backtraced* through X-valued nets to a PI.  Implication is a
full three-valued simulation of the good and the faulty machine.

The netlist is compiled once into flat per-gate op tuples in topological
order over *dual-rail* values: every net has a ``one`` rail and a
``zero`` rail, each a 2-bit int whose bit 0 is the good machine and bit 1
the faulty machine (X = neither rail set).  One pass evaluates both
machines: AND is ``one & one, zero | zero``, OR the dual, an inversion
swaps the rails, XOR is built from the four rail products.  A fault is
injected by rewriting the op list once per :meth:`Podem.generate` call:
a branch fault reads a pseudo-net whose faulty bit is forced, a stem
fault is forced after its driver (or at init for a PI or undriven net).

Outcomes: ``DETECTED`` (with a test pattern), ``UNTESTABLE`` (search space
exhausted — a redundancy proof) or ``ABORTED`` (backtrack limit hit).
Aborted faults are counted as undetected, which is what keeps component
fault coverage realistically below 100% (cf. Table 1's 99.48-99.78%).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.atpg.faults import Fault
from repro.netlist.cells import CellType
from repro.netlist.netlist import Gate, Netlist

#: Three-valued logic constants.
ZERO, ONE, X = 0, 1, 2

#: Non-controlling input value per gate family (None = no controlling value).
_NONCONTROLLING: dict[CellType, int | None] = {
    CellType.AND: ONE,
    CellType.NAND: ONE,
    CellType.OR: ZERO,
    CellType.NOR: ZERO,
    CellType.XOR: None,    # no controlling value: backtrace value is free
    CellType.XNOR: None,
    CellType.BUF: None,
    CellType.NOT: None,
}

#: Does the gate invert (for backtrace value propagation)?
_INVERTS: set[CellType] = {CellType.NOT, CellType.NAND, CellType.NOR, CellType.XNOR}

# By De Morgan every gate is an AND (or XOR) of its inputs, each input
# and the output possibly inverted; inverting a dual-rail value swaps its
# rails.  OR = NOT AND(NOT a, NOT b), NOR = AND(NOT a, NOT b).
#: Gates whose output is inverted.
_SWAPS_OUTPUT: set[CellType] = {CellType.NOT, CellType.NAND, CellType.OR, CellType.XNOR}

#: Gates whose inputs are inverted.
_SWAPS_INPUTS: set[CellType] = {CellType.OR, CellType.NOR}

# Op kinds.  AND-like ops, by fan-in, compute ``out_c = AND(in_c)`` and
# ``out_d = OR(in_d)`` over rail indices that already encode which rail
# plays which role, so AND/OR/NAND/NOR/BUF/NOT share them; their kind is
# their fan-in.
_XOR, _K1, _K2, _K3, _K4, _FORCE, _BRANCH = range(7)

#: ``_backtrace`` marker for a net driven by a constant cell.
_CONST = ()


def _rail(net: int, value: int) -> int:
    """Index of the rail of ``net`` that carries ``value``."""
    return 2 * net + 1 - value


def _rails(net: int) -> tuple[int, int]:
    """(one-rail index, zero-rail index) of a net."""
    return _rail(net, ONE), _rail(net, ZERO)


def _forced(net: int, stuck_at: int) -> tuple[int, int]:
    """(rail whose faulty bit is set, rail whose faulty bit is cleared)."""
    return _rail(net, stuck_at), _rail(net, 1 - stuck_at)


def _gate_op(gate: Gate, inputs: list[int]) -> tuple:
    """Dual-rail op of one non-constant gate reading nets ``inputs``."""
    one, zero = _rails(gate.output)
    if gate.cell_type in _SWAPS_OUTPUT:
        one, zero = zero, one
    if gate.cell_type in (CellType.XOR, CellType.XNOR):
        a, b = inputs
        return (_XOR, one, zero, *_rails(a), *_rails(b))
    flat: list[int] = []
    for net in inputs:
        c, d = _rails(net)
        flat += (d, c) if gate.cell_type in _SWAPS_INPUTS else (c, d)
    return (len(inputs), one, zero, *flat)


def _imply(v: list[int], ops: list[tuple]) -> None:
    """Run a dual-rail op list over the rails ``v``, in place."""
    for op in ops:
        kind = op[0]
        if kind == _K2:
            _, oc, od, ac, ad, bc, bd = op
            v[oc] = v[ac] & v[bc]
            v[od] = v[ad] | v[bd]
        elif kind == _XOR:
            _, o1, o0, a1, a0, b1, b0 = op
            x1, x0, y1, y0 = v[a1], v[a0], v[b1], v[b0]
            v[o1] = (x1 & y0) | (x0 & y1)
            v[o0] = (x1 & y1) | (x0 & y0)
        elif kind == _K1:
            _, oc, od, ac, ad = op
            v[oc] = v[ac]
            v[od] = v[ad]
        elif kind == _K3:
            _, oc, od, ac, ad, bc, bd, cc, cd = op
            v[oc] = v[ac] & v[bc] & v[cc]
            v[od] = v[ad] | v[bd] | v[cd]
        elif kind == _K4:
            _, oc, od, ac, ad, bc, bd, cc, cd, dc, dd = op
            v[oc] = v[ac] & v[bc] & v[cc] & v[dc]
            v[od] = v[ad] | v[bd] | v[cd] | v[dd]
        elif kind == _FORCE:
            _, s, c = op
            v[s] |= 2
            v[c] &= 1
        else:  # _BRANCH: pseudo-net = source with its faulty bit forced
            _, ps, ss, pc, sc = op
            v[ps] = v[ss] | 2
            v[pc] = v[sc] & 1


def _is_d(one: int, zero: int) -> bool:
    """Both machines known and different (D or D')?"""
    return (one == 1 or one == 2) and one + zero == 3


def _good_is_x(v: list[int], net: int) -> bool:
    """Is the good machine's value of ``net`` unknown?"""
    return not (v[2 * net] | v[2 * net + 1]) & 1


class PodemOutcome(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    outcome: PodemOutcome
    pattern: int | None      # packed by PI order, unassigned PIs = 0
    backtracks: int


@dataclass
class _FaultKernel:
    """The netlist's op list with one fault injected."""

    ops: list[tuple]
    init_force: tuple[int, int] | None   # applied after the PIs are set
    #: Candidate D-frontier gates (the fault's cone), nearest-to-PO first
    #: and ties in topological order: (one-rail of the output, input nets
    #: as the faulty machine reads them, input nets, objective value).
    frontier: list[tuple[int, tuple[int, ...], tuple[int, ...], int]]
    pos: tuple[int, ...]                 # POs the fault can reach


class Podem:
    """PODEM engine bound to one netlist."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 64):
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self._order = netlist.topological_order()
        self._pi_index = {pi: i for i, pi in enumerate(netlist.inputs)}
        self._po_set = set(netlist.outputs)
        # Observability: min levels to a PO (orders the D-frontier).
        self._depth = self._po_distance()
        # Controllability: levels from the PIs (guides backtrace choices).
        self._level = self._pi_distance()
        self._compile()

    def _po_distance(self) -> dict[int, int]:
        depth = {po: 0 for po in self._po_set}
        for gid in reversed(self._order):
            gate = self.netlist.gates[gid]
            d_out = depth.get(gate.output)
            if d_out is None:
                continue
            for src in gate.inputs:
                prev = depth.get(src)
                if prev is None or d_out + 1 < prev:
                    depth[src] = d_out + 1
        return depth

    def _pi_distance(self) -> list[int]:
        level = [0] * self.netlist.num_nets
        for gid in self._order:
            gate = self.netlist.gates[gid]
            level[gate.output] = 1 + max(
                (level[src] for src in gate.inputs), default=0
            )
        return level

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Op list, initial rails and per-gate/per-net facts, once per netlist."""
        nl = self.netlist
        # All nets X, plus the branch-fault pseudo-net at index num_nets.
        self._init = [0] * (2 * nl.num_nets + 2)
        self._ops: list[tuple] = []
        self._op_index: dict[int, int] = {}
        self._driver: list[tuple | None] = [None] * nl.num_nets
        self._frontier_entry: dict[int, tuple] = {}
        for gid in self._order:
            gate = nl.gates[gid]
            cell = gate.cell_type
            if cell in (CellType.CONST0, CellType.CONST1):
                # No inputs: constants are set once, in the initial rails.
                one, zero = _rails(gate.output)
                self._init[one if cell is CellType.CONST1 else zero] = 3
                self._driver[gate.output] = _CONST
                continue
            self._op_index[gid] = len(self._ops)
            self._ops.append(_gate_op(gate, gate.inputs))
            inputs = tuple(gate.inputs)
            noncontrolling = _NONCONTROLLING[cell]
            self._driver[gate.output] = (cell in _INVERTS, noncontrolling, inputs)
            self._frontier_entry[gid] = (
                2 * gate.output,
                inputs,
                inputs,
                ZERO if noncontrolling is None else noncontrolling,
            )
        # D-frontier order: nearest to a PO first, then topological.
        self._frontier_rank = {
            gid: (self._depth.get(nl.gates[gid].output, 1 << 30), pos)
            for pos, gid in enumerate(self._order)
        }
        self._succ = [
            tuple(nl.gates[g].output for g in net.fanout) for net in nl.nets
        ]

    def _kernel(self, fault: Fault) -> _FaultKernel:
        """Inject ``fault`` into a copy of the op list."""
        nl = self.netlist
        ops = list(self._ops)
        init_force = None
        entries = self._frontier_entry
        if fault.is_branch:
            # The faulted pin reads a pseudo-net: the source with its
            # faulty bit forced.
            gate = nl.gates[fault.gate]
            pseudo = nl.num_nets
            read = list(gate.inputs)
            read[fault.pin] = pseudo
            set_p, clear_p = _forced(pseudo, fault.stuck_at)
            set_s, clear_s = _forced(fault.net, fault.stuck_at)
            at = self._op_index[fault.gate]
            ops[at:at + 1] = [
                (_BRANCH, set_p, set_s, clear_p, clear_s), _gate_op(gate, read)
            ]
            entries = dict(entries)
            out, _read, inputs, value = entries[fault.gate]
            entries[fault.gate] = (out, tuple(read), inputs, value)
            cone = {fault.gate} | nl.fanout_cone(gate.output)
            sites = set()
        else:
            driver = nl.nets[fault.net].driver
            forced = _forced(fault.net, fault.stuck_at)
            if driver in self._op_index:
                ops.insert(self._op_index[driver] + 1, (_FORCE, *forced))
            else:   # PI, undriven or constant: forced once, at init
                init_force = forced
            cone = nl.fanout_cone(fault.net)
            sites = {fault.net}
        # Only nets in the fault's cone can differ between the machines.
        sites |= {nl.gates[g].output for g in cone}
        frontier = [
            entries[g] for g in sorted(cone, key=self._frontier_rank.__getitem__)
        ]
        pos = tuple(po for po in nl.outputs if po in sites)
        return _FaultKernel(ops, init_force, frontier, pos)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _simulate(self, assignment: dict[int, int], kernel: _FaultKernel) -> list[int]:
        """Dual-rail good/faulty implication under a partial assignment."""
        v = self._init[:]
        for pi, value in assignment.items():
            v[_rail(pi, value)] = 3
        if kernel.init_force:
            s, c = kernel.init_force
            v[s] |= 2
            v[c] &= 1
        _imply(v, kernel.ops)
        return v

    def implication(
        self, assignment: dict[int, int], fault: Fault
    ) -> tuple[list[int], list[int]]:
        """Three-valued (good, faulty) net values under a partial assignment."""
        v = self._simulate(assignment, self._kernel(fault))
        good, faulty = [], []
        for net in range(self.netlist.num_nets):
            one, zero = v[2 * net], v[2 * net + 1]
            good.append(ONE if one & 1 else ZERO if zero & 1 else X)
            faulty.append(ONE if one & 2 else ZERO if zero & 2 else X)
        return good, faulty

    @staticmethod
    def _detected(v: list[int], kernel: _FaultKernel) -> bool:
        return any(_is_d(v[2 * po], v[2 * po + 1]) for po in kernel.pos)

    # ------------------------------------------------------------------
    # objective / backtrace
    # ------------------------------------------------------------------
    def _objective(
        self, v: list[int], fault: Fault, kernel: _FaultKernel
    ) -> tuple[int, int] | None:
        """Next (net, value) goal, or None when the search must back up."""
        if _good_is_x(v, fault.net):
            return fault.net, 1 - fault.stuck_at
        if v[_rail(fault.net, fault.stuck_at)] & 1:
            return None  # activation conflict: current assignment kills it

        # Fault active: advance the D-frontier.
        frontier = self._d_frontier(v, kernel)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, v):
            return None
        _out, _read, inputs, value = frontier[0]
        for src in inputs:
            if _good_is_x(v, src):
                return src, value
        return None

    @staticmethod
    def _d_frontier(v: list[int], kernel: _FaultKernel) -> list[tuple]:
        """Gates with a D/D' input and an X output, nearest-to-PO first."""
        frontier = []
        for entry in kernel.frontier:
            out = entry[0]
            if v[out] | v[out + 1] == 3:
                continue
            for net in entry[1]:
                if _is_d(v[2 * net], v[2 * net + 1]):
                    frontier.append(entry)
                    break
        return frontier

    def _x_path_exists(self, frontier: list[tuple], v: list[int]) -> bool:
        """Forward path of X nets from any frontier gate to a PO?"""
        stack = [entry[0] >> 1 for entry in frontier]
        seen: set[int] = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if v[2 * net] | v[2 * net + 1] == 3:
                continue
            if net in self._po_set:
                return True
            stack.extend(self._succ[net])
        return False

    def _backtrace(
        self, net: int, value: int, v: list[int]
    ) -> tuple[int, int] | None:
        """Walk an objective back through X nets to an unassigned PI."""
        for _hop in range(self.netlist.num_nets + 1):
            driver = self._driver[net]
            if driver is None:
                if net in self._pi_index and _good_is_x(v, net):
                    return net, value
                return None
            if driver is _CONST:
                return None
            inverts, noncontrolling, inputs = driver
            if inverts:
                value = 1 - value
            x_inputs = [src for src in inputs if _good_is_x(v, src)]
            if not x_inputs:
                return None
            if noncontrolling is not None and value == 1 - noncontrolling:
                # Want the controlled output value: one input suffices ->
                # pick the easiest-to-control (shallowest) X input.
                net = min(x_inputs, key=lambda n: self._level[n])
                value = 1 - noncontrolling
            else:
                # All inputs must reach the non-controlling value: work on
                # the hardest (deepest) one first so conflicts surface early.
                net = max(x_inputs, key=lambda n: self._level[n])
                if noncontrolling is not None:
                    value = noncontrolling
        return None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        kernel = self._kernel(fault)
        assignment: dict[int, int] = {}
        stack: list[list] = []   # [pi, value, flipped]
        backtracks = 0

        while True:
            v = self._simulate(assignment, kernel)
            if self._detected(v, kernel):
                return PodemResult(
                    PodemOutcome.DETECTED, self._pack(assignment), backtracks
                )

            step: tuple[int, int] | None = None
            objective = self._objective(v, fault, kernel)
            if objective is not None:
                step = self._backtrace(objective[0], objective[1], v)

            if step is not None:
                pi, value = step
                assignment[pi] = value
                stack.append([pi, value, False])
                continue

            # Dead end: flip the most recent unflipped decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return PodemResult(PodemOutcome.ABORTED, None, backtracks)
            while stack and stack[-1][2]:
                pi, _value, _flipped = stack.pop()
                del assignment[pi]
            if not stack:
                return PodemResult(PodemOutcome.UNTESTABLE, None, backtracks)
            stack[-1][2] = True
            stack[-1][1] ^= 1
            assignment[stack[-1][0]] = stack[-1][1]

    def _pack(self, assignment: dict[int, int]) -> int:
        pattern = 0
        for pi, value in assignment.items():
            if value == ONE:
                pattern |= 1 << self._pi_index[pi]
        return pattern
