"""Outside-in layer tracing: wrap each layer's public calls, time them.

The benchmark adds no tracing inside ``src/``.  Instead, for the traced
run, :func:`install` rebinds each layer's public entry points (see
:data:`LAYERS`) to thin wrappers that report to a :class:`SpanRecorder`,
and :func:`uninstall` puts the originals back.  A function that callers
bound with ``from module import name`` is rebound in every ``repro``
module holding it, so the wrapper is found where the caller looks it up.

Self time is accounted by transitions: whenever a wrapped call starts or
ends, the time since the previous transition is charged to the layer on
top of the call stack.  A layer's self time is therefore its calls' time
minus the time of nested calls into *other* layers; nested calls into the
same layer are not counted twice.

``fine`` and counting wrappers run thousands of times per operation, so
their own cost would swell the self time of the layer they wrap and of
the layer calling them.  :func:`calibrate` measures that cost per call on
wrapped no-op calls, and :meth:`SpanRecorder.totals` takes it back out of
those layers and reports it on its own as ``trace.fine_calls_s``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

#: (layer, module, qualified attribute, kind).  ``span`` calls are timed
#: and recorded one span each; ``fine`` calls are timed and counted (as
#: ``<layer>.<name>_calls``) but, being called thousands of times per
#: operation, not recorded one by one; any other kind names the counter
#: the call only adds to — one per call, or the bytes it writes.
LAYERS = (
    ("model", "repro.model.schema", "infer_type", "fine"),
    ("model", "repro.model.records", "Table.infer_schema", "span"),
    ("model", "_strptime", "_strptime_datetime", "model.strptime_calls"),
    ("analysis", "repro.analysis.typecheck", "run_preflight", "span"),
    ("analysis", "ast", "parse", "analysis.ast_parse_calls"),
    ("analysis", "ast", "iter_child_nodes", "analysis.ast_nodes_visited"),
    ("matching", "repro.matching.schema_matching", "SchemaMatcher.match", "span"),
    ("core", "repro.core.planner", "AutonomicPlanner.plan", "span"),
    ("quality", "repro.quality.metrics", "QualityAnalyser.analyse", "span"),
    ("resolution", "repro.resolution.er", "EntityResolver.resolve", "span"),
    ("fusion", "repro.fusion.fuse", "EntityFuser.fuse", "span"),
    ("feedback", "repro.feedback.propagation", "FeedbackPropagator.propagate", "span"),
    ("sources", "repro.sources.base", "StructuredSource.probe", "span"),
    ("sources", "repro.sources.base", "StructuredSource.fetch", "span"),
    ("sources", "repro.sources.base", "StructuredSource.fetch_delta", "span"),
    ("sources", "repro.sources.base", "DocumentSource.probe", "span"),
    ("sources", "repro.sources.base", "DocumentSource.fetch", "span"),
    ("ingest", "repro.ingest.checkpoint", "RunLog.commit", "span"),
    ("ingest", "repro.ingest.snapshots", "SnapshotStore.put", "span"),
    ("ingest", "repro.ingest.incremental", "merge_delta", "span"),
    ("ingest", "repro.io", "atomic_write_bytes", "ingest.bytes_written"),
    ("extraction", "repro.extraction.induction", "auto_induce", "span"),
    ("extraction", "repro.extraction.induction", "induce_wrapper", "span"),
    ("extraction", "repro.extraction.repair", "WrapperRepairer.repair", "span"),
)

#: The layers, in report order.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, *__ in LAYERS))


def _rows_in(result) -> int:
    """Rows (or documents) a source call handed back."""
    rows = getattr(result, "rows", None)
    if rows is not None:  # a DeltaBatch
        return len(rows)
    try:
        return len(result)
    except TypeError:
        return 0


class SpanRecorder:
    """In-memory spans, per-layer self time, and call counts.

    Spans are ``(span_id, parent_id, op_id, layer, name, start, end)``
    tuples with times relative to the recorder's creation; they stay in
    memory until :meth:`export` writes them out at the end of the run.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self.fine: Counter = Counter()  # (op_id, parent_id, name) -> calls
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Calls through ``fine`` and counting wrappers, keyed by
        #: (wrapper kind, layer called into) and (kind, calling layer).
        self.fine_into: Counter = Counter()
        self.fine_from: Counter = Counter()
        #: Seconds one wrapper of each kind charges per call to the layer
        #: it wraps and to the calling layer; see :func:`calibrate`.
        self.fine_cost = {"fine": (0.0, 0.0), "count": (0.0, 0.0)}
        self.op_id: int | None = None
        self._stack: list[tuple[str, int | None]] = []
        self._last = 0.0
        self._next_id = 0

    def _charge(self, now: float) -> None:
        if self._stack:
            self.self_s[self._stack[-1][0]] += now - self._last
        self._last = now

    def enter(self, layer: str, recorded: bool) -> tuple[int | None, float]:
        """Open a call into ``layer``; returns its (span id, start)."""
        now = time.perf_counter()
        self._charge(now)
        span_id = None
        if recorded:
            self._next_id += 1
            span_id = self._next_id
        self._stack.append((layer, span_id))
        return span_id, now

    def exit(self, layer: str, name: str, token: tuple[int | None, float]) -> None:
        """Close the call opened by :meth:`enter`."""
        now = time.perf_counter()
        self._charge(now)
        self._stack.pop()
        span_id, start = token
        parent = self.parent_id()
        if span_id is None:
            self.fine[(self.op_id, parent, name)] += 1
        else:
            self.spans.append(
                (span_id, parent, self.op_id, layer, name,
                 start - self.origin, now - self.origin)
            )

    def parent_id(self) -> int | None:
        """The innermost open recorded span, if any."""
        for __, span_id in reversed(self._stack):
            if span_id is not None:
                return span_id
        return None

    def outermost(self, layer: str) -> bool:
        """Whether no call into ``layer`` is already open."""
        return all(open_layer != layer for open_layer, __ in self._stack)

    def caller(self) -> str | None:
        """The layer of the innermost open call, if any."""
        return self._stack[-1][0] if self._stack else None

    def totals(self) -> dict[str, float]:
        """Cumulative self time per layer less the fine wrappers' own cost,
        that cost, and every count so far."""
        self_s = dict(self.self_s)
        wrappers = 0.0
        for (kind, layer), calls in self.fine_into.items():
            inner, outer = self.fine_cost[kind]
            self_s[layer] = self_s.get(layer, 0.0) - inner * calls
            wrappers += (inner + outer) * calls
        for (kind, layer), calls in self.fine_from.items():
            self_s[layer] = self_s.get(layer, 0.0) - self.fine_cost[kind][1] * calls
        totals = {f"{layer}.self_s": self_s.get(layer, 0.0)
                  for layer in LAYER_NAMES}
        totals["trace.fine_calls_s"] = wrappers
        totals.update(self.counts)
        return totals

    def export(self) -> dict:
        """The recorded spans and folded fine-grained calls, JSON-ready."""
        return {
            "span_fields": ["span_id", "parent_id", "op_id", "layer", "name",
                            "start_s", "end_s"],
            "spans": [list(span) for span in self.spans],
            "fine_calls": [
                {"op_id": op, "parent_id": parent, "name": name, "calls": calls}
                for (op, parent, name), calls in sorted(
                    self.fine.items(), key=lambda item: repr(item[0])
                )
            ],
        }


def _span_wrapper(fn, recorder: SpanRecorder, layer: str, name: str, recorded: bool):
    is_source = layer == "sources"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        outermost = recorder.outermost(layer)
        if not recorded:
            recorder.fine_into["fine", layer] += 1
            recorder.fine_from["fine", recorder.caller()] += 1
        token = recorder.enter(layer, recorded)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(layer, name, token)
        if outermost:
            recorder.counts[f"{layer}.calls"] += 1
            if is_source:
                recorder.counts["sources.rows_fetched"] += _rows_in(result)
        if not recorded:
            recorder.counts[f"{layer}.{name}_calls"] += 1
        return result

    return wrapper


def calibrate(calls: int = 5000, rounds: int = 7) -> dict[str, tuple[float, float]]:
    """Seconds a ``fine`` and a counting wrapper add per call, each split
    into the share the recorder charges to the wrapped layer and the share
    left to the calling layer: medians over ``rounds`` rounds of ``calls``
    wrapped no-op calls, each less the same number of plain calls."""

    def noop():
        return None

    shares: dict[str, list[tuple[float, float]]] = {"fine": [], "count": []}
    for __ in range(rounds):
        start = time.perf_counter()
        for __ in range(calls):
            noop()
        plain = time.perf_counter() - start
        for kind in shares:
            recorder = SpanRecorder()
            if kind == "fine":
                wrapped = _span_wrapper(noop, recorder, "callee", "noop", False)
            else:
                wrapped = _count_wrapper(noop, recorder, "callee", "noop_calls")
            token = recorder.enter("caller", False)
            start = time.perf_counter()
            for __ in range(calls):
                wrapped()
            total = time.perf_counter() - start
            recorder.exit("caller", "calibration", token)
            # A counting wrapper charges no layer of its own; a fine one
            # charges the callee for its inner share and the no-op itself.
            callee = recorder.self_s["callee"] - plain if kind == "fine" else 0.0
            shares[kind].append((callee / calls, (total - plain - callee) / calls))
    return {kind: (statistics.median(inner for inner, __ in pairs),
                   statistics.median(outer for __, outer in pairs))
            for kind, pairs in shares.items()}


def _count_wrapper(fn, recorder: SpanRecorder, layer: str, counter: str):
    counts = recorder.counts
    if counter.endswith("bytes_written"):

        @functools.wraps(fn)
        def wrapper(path, data, *args, **kwargs):
            counts[counter] += len(data)
            return fn(path, data, *args, **kwargs)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            recorder.fine_into["count", layer] += 1
            recorder.fine_from["count", recorder.caller()] += 1
            return fn(*args, **kwargs)

    return wrapper


def install(recorder: SpanRecorder) -> list[tuple[object, str, object]]:
    """Wrap every entry point in :data:`LAYERS`; returns the undo list."""
    undo: list[tuple[object, str, object]] = []
    for layer, module_name, qualname, kind in LAYERS:
        owner = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute]
        if kind in ("span", "fine"):
            wrapper = _span_wrapper(original, recorder, layer, attribute,
                                    kind == "span")
        else:
            wrapper = _count_wrapper(original, recorder, layer, kind)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)
        if path:
            continue  # a method: every caller looks it up on the class
        for loaded_name, module in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or module is owner:
                continue
            for bound_name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, bound_name, original))
                    setattr(module, bound_name, wrapper)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    """Restore every original binding :func:`install` replaced."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)
