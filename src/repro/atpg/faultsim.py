"""64-way bit-parallel stuck-at fault simulation (PPSFP).

The good circuit is simulated once per word of up to 64 packed patterns;
each still-active fault is then re-simulated only through its fanout cone
with a sparse value overlay.  Detected faults are dropped by the caller.

The netlist is compiled once into flat per-gate op tuples in topological
order, ``(kind, out, invert slot, *inputs)``, over a value list with three
slots past the nets: constant 0, the word's all-ones mask (an inverting
gate XORs its result with one of the two) and the stuck value that a
branch fault's gate reads at its faulted pin.  The overlay lives in a
scratch copy of the good values: a gate is evaluated only when one of its
inputs diverged, only a diverged output is written (and restored after
the fault), and an output that converges back to its good value stops
the propagation there.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.atpg.faults import Fault
from repro.netlist.cells import CellType
from repro.netlist.netlist import Gate, Netlist

#: Patterns packed per simulation word.
WORD = 64

# Op kinds.  BUF has one input and also serves NOT and the constants,
# which read the constant-0 slot.
_BUF, _AND2, _AND3, _AND4, _OR2, _OR3, _OR4, _XOR = range(8)

#: Op kind per cell type, indexed by fan-in - 2 (fan-in 1 is always BUF).
_KINDS: dict[CellType, tuple[int, ...]] = {
    CellType.AND: (_AND2, _AND3, _AND4),
    CellType.NAND: (_AND2, _AND3, _AND4),
    CellType.OR: (_OR2, _OR3, _OR4),
    CellType.NOR: (_OR2, _OR3, _OR4),
    CellType.XOR: (_XOR,),
    CellType.XNOR: (_XOR,),
}

_INVERTING = {CellType.NOT, CellType.NAND, CellType.NOR, CellType.XNOR, CellType.CONST1}


def pack_patterns(netlist: Netlist, patterns: list[int]) -> dict[int, int]:
    """Pack per-pattern PI words into per-PI pattern vectors.

    ``patterns[k]`` holds pattern *k* as an integer whose bit *i* is the
    value of ``netlist.inputs[i]``.  The result maps PI net id -> vector
    whose bit *k* is that PI's value under pattern *k*.
    """
    vectors: dict[int, int] = {pi: 0 for pi in netlist.inputs}
    for k, pattern in enumerate(patterns):
        for i, pi in enumerate(netlist.inputs):
            if (pattern >> i) & 1:
                vectors[pi] |= 1 << k
    return vectors


def _eval(op: tuple, v: list[int]) -> int:
    """Value of one op's output net over the values ``v``."""
    kind = op[0]
    if kind == _AND2:
        return (v[op[3]] & v[op[4]]) ^ v[op[2]]
    if kind == _XOR:
        return v[op[3]] ^ v[op[4]] ^ v[op[2]]
    if kind == _OR2:
        return (v[op[3]] | v[op[4]]) ^ v[op[2]]
    if kind == _BUF:
        return v[op[3]] ^ v[op[2]]
    if kind == _AND3:
        return (v[op[3]] & v[op[4]] & v[op[5]]) ^ v[op[2]]
    if kind == _OR3:
        return (v[op[3]] | v[op[4]] | v[op[5]]) ^ v[op[2]]
    if kind == _AND4:
        return (v[op[3]] & v[op[4]] & v[op[5]] & v[op[6]]) ^ v[op[2]]
    return (v[op[3]] | v[op[4]] | v[op[5]] | v[op[6]]) ^ v[op[2]]


class FaultSimulator:
    """Reusable fault-simulation context for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = netlist.topological_order()
        self._position = {gid: i for i, gid in enumerate(self._order)}
        self._cone_cache: dict[tuple[int, int | None], tuple[int, ...]] = {}
        self._po_set = set(netlist.outputs)
        n = netlist.num_nets
        # Value-list slots past the nets.
        self._zero, self._ones, self._stuck = n, n + 1, n + 2
        self._ops = [self._gate_op(netlist.gates[g]) for g in self._order]
        #: Per net, the topological positions of the gates reading it.
        self._readers = [
            tuple(sorted(self._position[g] for g in set(net.fanout)))
            for net in netlist.nets
        ]

    def _gate_op(self, gate: Gate, inputs: list[int] | None = None) -> tuple:
        """The op of one gate, optionally reading ``inputs`` instead."""
        inputs = gate.inputs if inputs is None else inputs
        invert = self._ones if gate.cell_type in _INVERTING else self._zero
        if len(inputs) < 2:   # BUF, NOT and the constants (which read 0)
            return (_BUF, gate.output, invert, *(inputs or [self._zero]))
        kind = _KINDS[gate.cell_type][len(inputs) - 2]
        return (kind, gate.output, invert, *inputs)

    # ------------------------------------------------------------------
    def _cone(self, fault: Fault) -> tuple[int, ...]:
        """Topologically sorted gate ids a fault can influence."""
        key = (fault.net, fault.gate)
        cached = self._cone_cache.get(key)
        if cached is not None:
            return cached
        if fault.is_branch:
            gates = {fault.gate}
            gates |= self.netlist.fanout_cone(self.netlist.gates[fault.gate].output)
        else:
            gates = self.netlist.fanout_cone(fault.net)
        cone = tuple(sorted(gates, key=self._position.__getitem__))
        self._cone_cache[key] = cone
        return cone

    def _good(self, patterns: list[int], all_ones: int) -> list[int]:
        """Good-machine values (plus the three slots) for one word."""
        v = [0] * (self.netlist.num_nets + 3)
        v[self._ones] = all_ones
        for pi, vector in pack_patterns(self.netlist, patterns).items():
            v[pi] = vector
        for op in self._ops:
            v[op[1]] = _eval(op, v)
        return v

    # ------------------------------------------------------------------
    def simulate_word(
        self,
        patterns: list[int],
        faults: list[Fault],
    ) -> dict[Fault, int]:
        """Fault-simulate up to :data:`WORD` patterns against ``faults``.

        Returns a map fault -> detection mask (bit *k* set when pattern
        *k* propagates the fault to at least one primary output).
        """
        if len(patterns) > WORD:
            raise ValueError(f"at most {WORD} patterns per word")
        all_ones = (1 << len(patterns)) - 1
        good = self._good(patterns, all_ones)
        v = good[:]   # the overlay: good values except where diverged
        ops, readers, po_set = self._ops, self._readers, self._po_set
        detections: dict[Fault, int] = {}

        for fault in faults:
            stuck_vec = all_ones if fault.stuck_at else 0
            if good[fault.net] == stuck_vec:
                # Never activated: the faulty machine equals the good one.
                detections[fault] = 0
                continue
            detect = 0
            if fault.is_branch:
                # Only the faulted pin reads the stuck value.
                start = self._position[fault.gate]
                inputs = list(self.netlist.gates[fault.gate].inputs)
                inputs[fault.pin] = self._stuck
                v[self._stuck] = stuck_vec
                pending = [start]
                branch_op = self._gate_op(self.netlist.gates[fault.gate], inputs)
                diverged = []
            else:
                start = -1
                branch_op = None
                v[fault.net] = stuck_vec
                diverged = [fault.net]
                pending = list(readers[fault.net])
                if fault.net in po_set:
                    detect = stuck_vec ^ good[fault.net]
            last = -1
            while pending:
                pos = heappop(pending)
                if pos == last:
                    continue
                last = pos
                op = branch_op if pos == start else ops[pos]
                value = _eval(op, v)
                out = op[1]
                if value == good[out]:
                    continue   # converged: the overlay stops here
                v[out] = value
                diverged.append(out)
                if out in po_set:
                    detect |= value ^ good[out]
                for reader in readers[out]:
                    heappush(pending, reader)
            for net in diverged:
                v[net] = good[net]
            detections[fault] = detect & all_ones
        return detections

    # ------------------------------------------------------------------
    def detects(self, pattern: int, fault: Fault) -> bool:
        """Single-pattern convenience check."""
        return bool(self.simulate_word([pattern], [fault])[fault])
