"""Automatic test pattern generation for stuck-at faults.

This package replaces the commercial ATPG the paper back-annotates from:
``n_p`` (pattern count) and fault coverage for every gate-level component
come from here.

Pipeline (see :func:`~repro.atpg.engine.run_atpg`):

1. single stuck-at fault enumeration with equivalence collapsing,
2. a seeded random-pattern phase with 64-way bit-parallel fault
   simulation and fault dropping,
3. PODEM for the random-resistant faults (with redundancy proofs and a
   backtrack abort limit — aborted faults are what keeps coverage just
   under 100%, exactly like Table 1's 99.5-99.8%),
4. greedy reverse-order compaction of the pattern set.

Both hot loops run over a netlist compiled once into flat per-gate op
tuples in topological order, not over cell types.  PODEM implies on
*dual-rail* values: each net has a ``one`` and a ``zero`` rail whose bit
0 is the good and bit 1 the faulty machine, so one pass simulates both,
and the fault is injected by rewriting the op list once per target.  The
fault simulator evaluates single-rail bit-parallel ops, event-driven
from the fault site through the gates whose inputs diverged.
"""

from repro.atpg.faults import Fault, collapse_faults, enumerate_faults
from repro.atpg.faultsim import FaultSimulator, pack_patterns
from repro.atpg.podem import Podem, PodemOutcome, PodemResult
from repro.atpg.engine import ATPGResult, clear_atpg_cache, run_atpg
from repro.atpg.diagnosis import DiagnosisCandidate, FaultDictionary
from repro.atpg.delay import (
    DelayAnalyzer,
    DelayCoverage,
    delay_test_cycles,
    enumerate_transition_faults,
)

__all__ = [
    "ATPGResult",
    "DelayAnalyzer",
    "DelayCoverage",
    "DiagnosisCandidate",
    "delay_test_cycles",
    "enumerate_transition_faults",
    "Fault",
    "FaultDictionary",
    "FaultSimulator",
    "Podem",
    "PodemOutcome",
    "PodemResult",
    "clear_atpg_cache",
    "collapse_faults",
    "enumerate_faults",
    "pack_patterns",
    "run_atpg",
]
