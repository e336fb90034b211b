"""Outside-in layer spans for the traced benchmark run.

The benchmark never edits the program: a traced pass wraps the public
functions and methods of each layer from the outside and records one
span per call.  A span holds its layer name, start and end
(``perf_counter``), the time covered by its direct children on the same
thread, the thread it ran on, and an id that ties it to one design
point, job or component.  Spans stay in memory and are written as JSON
lines when the pass ends.

``from x import f`` binds ``f`` early, so patching only the defining
module would leave every importer calling the original.  A function is
therefore replaced under *every* name a ``repro`` module binds it to;
methods are replaced on their class, which all callers share.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter

#: (span name, module, attribute path, id extractor name).  An attribute
#: path with a dot is ``Class.method``; a plain name is a module-level
#: function, rebound everywhere it was imported.
TARGETS = (
    ("compiler.schedule", "repro.compiler.scheduler", "schedule_allocated", None),
    ("compiler.regalloc", "repro.compiler.regalloc", "allocate", None),
    ("compiler.interp", "repro.compiler.interp", "IRInterpreter.run", None),
    ("tta.validate", "repro.tta.timing", "validate_program", None),
    ("tta.encode", "repro.tta.encoding", "MoveEncoder.__init__", None),
    ("tta.encode", "repro.tta.encoding", "MoveEncoder.program_memory_bits", None),
    ("tta.simulate", "repro.tta.simulator", "TTASimulator.run", "sim"),
    ("explore.evaluate", "repro.explore.evaluate", "EvaluationContext.evaluate", "config"),
    ("explore.area", "repro.tta.arch", "Architecture.area", None),
    ("explore.pareto", "repro.explore.pareto", "pareto_filter", None),
    ("study", "repro.study.engine", "Study.run", "study"),
    ("energy.attach", "repro.energy.attach", "attach_energy", None),
    ("energy.report", "repro.energy.report", "energy_report", None),
    ("testcost.attach", "repro.testcost.cost", "attach_test_costs", None),
    ("atpg.run", "repro.atpg.engine", "run_atpg", "netlist"),
    ("atpg.podem", "repro.atpg.podem", "Podem.generate", None),
    ("atpg.faultsim", "repro.atpg.faultsim", "FaultSimulator.simulate_word", None),
    ("atpg.collapse", "repro.atpg.faults", "collapse_faults", None),
    ("campaign.cache_get", "repro.campaign.cache", "ResultCache.get", None),
    ("campaign.cache_put", "repro.campaign.cache", "ResultCache.put", None),
    ("service.rpc", "repro.service.client", "ServiceClient.request", "op"),
)

#: Spans whose return value the metrics read (cycle counts, ATPG
#: outcomes, cache hits); every other span drops its result.
KEEP_RESULT = frozenset({"tta.simulate", "atpg.run", "campaign.cache_get"})


def _span_id(kind, args, kwargs):
    """The id a span carries for its children: point, job, netlist, core.

    Jobs are named by their spec name, which the benchmark makes unique
    per submission, so client and server spans of one job share it.
    """
    try:
        if kind == "config":
            return args[1].label()
        if kind == "study":
            return args[0].spec.name
        if kind == "netlist":
            return args[0].name
        if kind == "sim":
            return args[0].arch.name
        if kind == "op":
            spec = kwargs.get("spec")
            return kwargs.get("job") or (spec or {}).get("name")
    except (AttributeError, IndexError, TypeError):
        return None
    return None


class Span:
    __slots__ = ("name", "start", "end", "child", "thread", "id", "result")

    def __init__(self, name, start, thread, span_id):
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.thread = thread
        self.id = span_id
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end,
            "self": self.self_time, "thread": self.thread, "id": self.id,
        }


class SpanRecorder:
    """Installs the wrappers, keeps the spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, id_kind):
        recorder = self
        keep = name in KEEP_RESULT

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            span_id = _span_id(id_kind, args, kwargs) if id_kind else None
            if span_id is None and stack:
                span_id = stack[-1].id
            # One RPC span name per protocol op: service.rpc.submit, ...
            span_name = f"{name}.{args[1]}" if id_kind == "op" else name
            span = Span(
                span_name, perf_counter(), threading.get_ident(), span_id
            )
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if keep:
                    span.result = result
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                recorder.spans.append(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- patching -------------------------------------------------------
    def install(self, names=None) -> None:
        """Wrap every target, or only the layers in ``names``."""
        import importlib

        for name, module_name, path, id_kind in TARGETS:
            if names is not None and name not in names:
                continue
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, id_kind))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, id_kind)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------
    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def covered(self, start: float, end: float) -> float:
        """Seconds of [start, end] during which any span was open."""
        intervals = sorted(
            (max(s.start, start), min(s.end, end))
            for s in self.spans if s.end > start and s.start < end
        )
        total = 0.0
        cur_start = cur_end = None
        for lo, hi in intervals:
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            total += cur_end - cur_start
        return total
