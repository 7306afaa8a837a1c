"""Spans and exact counters recorded from outside the program.

A :class:`Tracer` keeps every span (name, start, end, parent) in flat
arrays while a traced pass runs and writes them out only when the pass
ends.  Spans come from wrappers the ``install_*`` functions put around
each layer's public seams -- module globals, class attributes, instance
attributes, the array engine's ``_handlers`` table and the object
engine's kernel -- so nothing under ``src/`` is edited.  Every
installer returns an undo callable; traced code runs between the two.

A span's self time is its duration minus the time its direct child
spans cover.  Counters are exact integers (events, pushes, messages,
store operations) that must repeat bit for bit across traced passes of
one seed.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Callable
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span table plus named counters and accumulated floats."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")  # time covered by direct children
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.sums: Counter[str] = Counter()  # non-count accumulators (seconds)

    def name_index(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = self._ids[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, nid: int) -> int:
        stack = self.stack
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.child.append(0.0)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        now = perf_counter()
        self.stack.pop()
        self.end[index] = now
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += now - self.start[index]

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_index(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_index(name)
        tracer_open, tracer_close = self.open, self.close

        def traced(*args, **kwargs):
            index = tracer_open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer_close(index)

        return traced

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = duration - np.frombuffer(self.child)
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        total = np.bincount(ids, weights=duration, minlength=size)
        self_s = np.bincount(ids, weights=own, minlength=size)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def report(self) -> dict:
        """Summary, counters and sums as one JSON-ready dict."""
        return {
            "spans": self.summary(),
            "counts": dict(self.counts),
            "sums": dict(self.sums),
        }

    def write_spans(self, path: Path) -> None:
        """Every span, as arrays: name ids, parents, starts and ends."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def merge_reports(reports: list[dict]) -> dict:
    """Fold several :meth:`Tracer.report` dicts (one per process) into one."""
    spans: dict[str, dict[str, float]] = {}
    counts: Counter[str] = Counter()
    sums: Counter[str] = Counter()
    for report in reports:
        for name, row in report["spans"].items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
        counts.update(report["counts"])
        sums.update(report["sums"])
    return {"spans": spans, "counts": dict(counts), "sums": dict(sums)}


def _patch(target, attribute: str, replacement, undo: list) -> None:
    original = vars(target)[attribute]  # raw, so a classmethod stays one
    undo.append(lambda: setattr(target, attribute, original))
    setattr(target, attribute, replacement)


def _undo_all(undo: list) -> Callable[[], None]:
    def restore() -> None:
        for step in reversed(undo):
            step()
        undo.clear()

    return restore


# ----------------------------------------------------------------------
# simulation layers
# ----------------------------------------------------------------------
#: object-engine callback function name -> event kind (shared with the
#: array engine's handler kinds, so both engines report one vocabulary)
OBJECT_KINDS = {
    "RequestPath.on_request": "request",
    "RequestPath._on_session_end": "session_end",
    "RequestPath._on_tracked_session_end": "tracked_end",
    "RequestPath._attempt_recovery": "recovery",
    "SupplierRegistry._on_idle_timeout": "idle_timeout",
    "SupplierRegistry._on_departure": "departure",
    "SupplierRegistry._on_rejoin": "rejoin",
    "LifecycleDynamics._on_departure": "lc_departure",
    "LifecycleDynamics._on_return": "lc_return",
    "Samplers._sample_capacity": "sample_capacity",
    "Samplers._sample_rates": "sample_rates",
    "Samplers._sample_favored": "sample_favored",
}

#: array-engine ``_handlers`` index -> event kind (the engine's own order)
ARRAY_KINDS = (
    "request",
    "session_end",
    "idle_timeout",
    "tracked_end",
    "recovery",
    "lc_departure",
    "lc_return",
    "departure",
    "rejoin",
    "sample_capacity",
    "sample_rates",
    "sample_favored",
)


class CountingKernel:
    """Event-kernel proxy: counts and times every push, pop and cancel.

    Popped entries come back with their callback swapped for a
    dispatcher that records the callback as an ``engine.<kind>`` span,
    so per-kind event counts and self times fall out of the span table.
    """

    __slots__ = ("inner", "tracer", "_kernel", "_kinds", "_dispatch")

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self._kernel = tracer.name_index("kernel")
        self._kinds: dict[object, int] = {}
        tracer_open, tracer_close = tracer.open, tracer.close
        kinds = self._kinds

        def dispatch(packed) -> None:
            callback, argument = packed
            function = getattr(callback, "__func__", callback)
            nid = kinds.get(function)
            if nid is None:
                kind = OBJECT_KINDS.get(function.__qualname__, "other")
                nid = kinds[function] = tracer.name_index(f"engine.{kind}")
            index = tracer_open(nid)
            try:
                callback(argument)
            finally:
                tracer_close(index)

        self._dispatch = dispatch

    @property
    def live(self) -> int:
        return self.inner.live

    def push(self, entry) -> None:
        tracer = self.tracer
        index = tracer.open(self._kernel)
        self.inner.push(entry)
        tracer.close(index)
        counts = tracer.counts
        counts["kernel.pushes"] += 1
        live = self.inner.live
        if live > counts["kernel.live_peak"]:
            counts["kernel.live_peak"] = live

    def cancel(self, handle) -> None:
        tracer = self.tracer
        index = tracer.open(self._kernel)
        self.inner.cancel(handle)
        tracer.close(index)
        tracer.counts["kernel.cancels"] += 1

    def pop_due(self, until):
        tracer = self.tracer
        index = tracer.open(self._kernel)
        entry = self.inner.pop_due(until)
        tracer.close(index)
        if entry is None:
            return None
        tracer.counts["kernel.pops"] += 1
        time, sequence, handle, callback, argument = entry
        return (time, sequence, handle, self._dispatch, (callback, argument))


def install_construction(tracer: Tracer) -> Callable[[], None]:
    """Seams that must be in place before an engine is built.

    The object engine's kernel comes from ``engine.make_kernel``; both
    engines take arrival times from module-level functions; both plan
    sessions through a module-level ``plan_session``; the array engine
    pushes onto its heap through a module-level ``heappush``.
    """
    from repro.simulation import arrayengine, engine, requestpath

    undo: list = []
    make_kernel = engine.make_kernel
    _patch(engine, "make_kernel",
           lambda name: CountingKernel(make_kernel(name), tracer), undo)

    counts = tracer.counts

    def counted_arrivals(fn):
        traced = tracer.wrap("arrivals.generate", fn)

        def arrivals(*args, **kwargs):
            times = traced(*args, **kwargs)
            counts["arrivals.count"] += len(times)
            return times

        return arrivals

    for module in (requestpath, arrayengine):
        _patch(module, "generate_arrival_times",
               counted_arrivals(module.generate_arrival_times), undo)
        _patch(module, "plan_session",
               tracer.wrap("assignment.ots", module.plan_session), undo)
    _patch(arrayengine, "vectorized_arrival_times",
           counted_arrivals(arrayengine.vectorized_arrival_times), undo)

    heappush = arrayengine.heappush

    def counted_heappush(heap, item) -> None:
        heappush(heap, item)
        counts["arrayengine.heap_pushes"] += 1
        if len(heap) > counts["arrayengine.heap_peak"]:
            counts["arrayengine.heap_peak"] = len(heap)

    _patch(arrayengine, "heappush", counted_heappush, undo)
    return _undo_all(undo)


def install_network(tracer: Tracer, lookup, transport) -> None:
    """Lookup and transport spans, on the engine's own instances."""
    lookup.candidates = tracer.wrap("network.lookup", lookup.candidates)
    if transport is not None:
        transport.send = tracer.wrap("network.transport", transport.send)
        transport.round_trip = tracer.wrap(
            "network.transport", transport.round_trip
        )


def install_array_engine(tracer: Tracer, engine) -> None:
    """Wrap a built array engine's handler table, arrivals and probe loop.

    ``engine`` must be an instance of a ``__dict__``-carrying subclass of
    ``ArrayEngine``: instance attributes then shadow the class's methods,
    which is how the arrival lane (``_on_request`` read at dispatch
    start) and ``_probe_candidates`` are intercepted.
    """
    handlers = engine._handlers
    for kind_index, kind in enumerate(ARRAY_KINDS):
        handlers[kind_index] = tracer.wrap(
            f"arrayengine.{kind}", handlers[kind_index]
        )
    engine._on_request = tracer.wrap("arrayengine.arrival", engine._on_request)
    engine._probe_candidates = tracer.wrap(
        "arrayengine.probe_candidates", engine._probe_candidates
    )
    install_network(tracer, engine.lookup, engine.transport)


# ----------------------------------------------------------------------
# orchestration layers
# ----------------------------------------------------------------------
def _wall_digits(record) -> int:
    """Characters the record's wall time takes in JSON (varies per run)."""
    return len(json.dumps(record.wall_seconds))


def install_orchestration(tracer: Tracer) -> Callable[[], None]:
    """Class- and module-level seams of ``repro.orchestration``.

    Byte counters leave out the digits of each record's wall time, the
    one field whose printed length changes from run to run, so they
    repeat exactly.
    """
    from repro.orchestration import shard, store, study

    undo: list = []
    counts, sums = tracer.counts, tracer.sums

    expand = tracer.wrap("runspec.expand", study.Study.specs)

    def specs(self):
        result = expand(self)
        counts["runspec.specs"] += len(result)
        return result

    _patch(study.Study, "specs", specs, undo)
    _patch(study.RunRecord, "from_result", classmethod(
        tracer.wrap("study.record_build", study.RunRecord.from_result.__func__)
    ), undo)

    export = tracer.wrap("study.export", study.ResultSet.to_json)

    def to_json(self, path=None, indent=2):
        text = export(self, path, indent)
        counts["study.export_bytes"] += len(text.encode("utf-8")) - sum(
            _wall_digits(record) for record in self.records
        )
        return text

    _patch(study.ResultSet, "to_json", to_json, undo)

    put = tracer.wrap("store.put", store.ResultStore.put)

    def store_put(self, record):
        path = put(self, record)
        counts["store.puts"] += 1
        counts["store.bytes_written"] += path.stat().st_size - _wall_digits(record)
        return path

    get = tracer.wrap("store.get", store.ResultStore.get)

    def store_get(self, spec_hash):
        record = get(self, spec_hash)
        counts["store.gets"] += 1
        counts["store.hits"] += record is not None
        return record

    _patch(store.ResultStore, "put", store_put, undo)
    _patch(store.ResultStore, "get", store_get, undo)

    for module in (study, shard):
        batch = tracer.wrap("batch.run", module.run_batch)

        def run_batch(configs, jobs=1, labels=None, _batch=batch, **kwargs):
            configs = list(configs)
            start = perf_counter()
            results = _batch(configs, jobs=jobs, labels=labels, **kwargs)
            if configs:
                wall = perf_counter() - start
                workers = min(jobs, len(configs))
                sums["batch.busy_s"] += sum(r.wall_seconds for r in results)
                sums["batch.capacity_s"] += workers * wall
            return results

        _patch(module, "run_batch", run_batch, undo)

    try_claim = tracer.wrap("shard.claim", shard.ClaimRegistry.try_claim)

    def claim(self, spec_hash):
        counts["shard.claims"] += 1
        return try_claim(self, spec_hash)

    _patch(shard.ClaimRegistry, "try_claim", claim, undo)
    _patch(shard.ClaimRegistry, "complete",
           tracer.wrap("shard.claim", shard.ClaimRegistry.complete), undo)
    return _undo_all(undo)
