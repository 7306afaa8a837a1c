"""Per-layer metrics from a traced pass.

:data:`PER_LAYER` is the single list of per-layer metric names and units;
``BENCHMARK.json`` lists the same names (``selftest.py`` checks that).
Every traced run reports every metric: a layer the workload bypasses
reads 0, which is the "should not move" prediction made visible.
"""

from __future__ import annotations

from tracing import ARRAY_KINDS

ARRAY_EVENT_KINDS = ("arrival",) + ARRAY_KINDS
ENGINE_EVENT_KINDS = ARRAY_KINDS + ("other",)
SAMPLER_KINDS = ("sample_capacity", "sample_rates", "sample_favored")
LIFECYCLE_KINDS = ("lc_departure", "lc_return", "recovery")
REQUEST_PATH_KINDS = ("request", "session_end", "tracked_end")

PER_LAYER: list[tuple[str, str]] = [
    ("arrivals.generate_s", "s"),
    ("arrivals.count", "count"),
    ("engine.init_s", "s"),
    *[(f"arrayengine.events.{k}", "count") for k in ARRAY_EVENT_KINDS],
    *[(f"arrayengine.self_s.{k}", "s") for k in ARRAY_EVENT_KINDS],
    ("arrayengine.probe_candidates.calls", "count"),
    ("arrayengine.probe_candidates_s", "s"),
    ("arrayengine.heap_pushes", "count"),
    ("arrayengine.heap_peak", "count"),
    ("kernel.pushes", "count"),
    ("kernel.pops", "count"),
    ("kernel.cancels", "count"),
    ("kernel.live_peak", "count"),
    ("kernel.self_s", "s"),
    *[(f"engine.events.{k}", "count") for k in ENGINE_EVENT_KINDS],
    *[(f"engine.self_s.{k}", "s") for k in ENGINE_EVENT_KINDS],
    ("requestpath.requests", "count"),
    ("requestpath.self_s", "s"),
    ("assignment.ots_calls", "count"),
    ("assignment.ots_s", "s"),
    ("protocols.admit_ratio", "ratio"),
    ("network.lookups", "count"),
    ("network.lookup_s", "s"),
    ("network.messages", "count"),
    ("network.transport_s", "s"),
    ("probes.sampler_events", "count"),
    ("probes.sampler_s", "s"),
    ("probes.favored_snapshot_s", "s"),
    ("lifecycle.departures", "count"),
    ("lifecycle.interruptions", "count"),
    ("lifecycle.recovered", "count"),
    ("lifecycle.self_s", "s"),
    ("runspec.specs", "count"),
    ("runspec.expand_s", "s"),
    ("study.record_build_s", "s"),
    ("study.export_s", "s"),
    ("study.export_bytes", "bytes"),
    ("batch.wall_s", "s"),
    ("batch.busy_s", "s"),
    ("batch.efficiency", "ratio"),
    ("store.puts", "count"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.gets", "count"),
    ("store.get_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("shard.claims", "count"),
    ("shard.claim_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.merge_records", "count"),
    ("shard.status_s", "s"),
    ("cli.import_s", "s"),
    ("trace.overhead_s", "s"),
]
#: units whose values are exact work counts (must repeat across passes)
EXACT_UNITS = ("count", "bytes")
#: ratios of exact counts, which must repeat as well
EXACT_RATIOS = ("protocols.admit_ratio", "store.hit_ratio")


def _values(report: dict, outcomes: list[dict]) -> dict[str, float]:
    spans, counts, sums = report["spans"], report["counts"], report["sums"]

    def calls(*names: str) -> int:
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    def metric_sum(key: str) -> int:
        return sum(sum(o["metrics"].get(key, {}).values()) for o in outcomes)

    admitted, requests = metric_sum("admitted"), metric_sum("requests")
    gets = counts.get("store.gets", 0)
    batch_capacity = sums.get("batch.capacity_s", 0.0)
    values: dict[str, float] = {
        "arrivals.generate_s": self_s("arrivals.generate"),
        "arrivals.count": counts.get("arrivals.count", 0),
        "engine.init_s": self_s("engine.construct"),
        "arrayengine.probe_candidates.calls": calls("arrayengine.probe_candidates"),
        "arrayengine.probe_candidates_s": self_s("arrayengine.probe_candidates"),
        "kernel.self_s": self_s("kernel"),
        "requestpath.requests": calls("engine.request"),
        "requestpath.self_s": self_s(*(f"engine.{k}" for k in REQUEST_PATH_KINDS)),
        "assignment.ots_calls": calls("assignment.ots"),
        "assignment.ots_s": self_s("assignment.ots"),
        "protocols.admit_ratio": admitted / requests if requests else 0.0,
        "network.lookups": calls("network.lookup"),
        "network.lookup_s": self_s("network.lookup"),
        "network.messages": sum(
            int(o["message_stats"]["messages"]) for o in outcomes if o["message_stats"]
        ),
        "network.transport_s": self_s("network.transport"),
        "probes.sampler_events": calls(
            *(f"{e}.{k}" for e in ("engine", "arrayengine") for k in SAMPLER_KINDS)
        ),
        "probes.sampler_s": self_s(
            *(f"{e}.{k}" for e in ("engine", "arrayengine") for k in SAMPLER_KINDS)
        ),
        "probes.favored_snapshot_s": self_s(
            "engine.sample_favored", "arrayengine.sample_favored"
        ),
        "lifecycle.departures": calls(
            "engine.lc_departure", "arrayengine.lc_departure"
        ),
        "lifecycle.interruptions": metric_sum("interruptions"),
        "lifecycle.recovered": metric_sum("recovered_sessions"),
        "lifecycle.self_s": self_s(
            *(f"{e}.{k}" for e in ("engine", "arrayengine") for k in LIFECYCLE_KINDS)
        ),
        "runspec.expand_s": self_s("runspec.expand"),
        "study.record_build_s": self_s("study.record_build"),
        "study.export_s": self_s("study.export"),
        "batch.wall_s": total_s("batch.run"),
        "batch.busy_s": sums.get("batch.busy_s", 0.0),
        "batch.efficiency": (
            sums.get("batch.busy_s", 0.0) / batch_capacity if batch_capacity else 0.0
        ),
        "store.put_s": self_s("store.put"),
        "store.get_s": self_s("store.get"),
        "store.hit_ratio": counts.get("store.hits", 0) / gets if gets else 0.0,
        "shard.claim_s": self_s("shard.claim"),
        "shard.merge_s": self_s("shard.merge"),
        "shard.status_s": self_s("shard.status"),
    }
    for kind in ARRAY_EVENT_KINDS:
        values[f"arrayengine.events.{kind}"] = calls(f"arrayengine.{kind}")
        values[f"arrayengine.self_s.{kind}"] = self_s(f"arrayengine.{kind}")
    for kind in ENGINE_EVENT_KINDS:
        values[f"engine.events.{kind}"] = calls(f"engine.{kind}")
        values[f"engine.self_s.{kind}"] = self_s(f"engine.{kind}")
    for name in (
        "arrayengine.heap_pushes", "arrayengine.heap_peak", "kernel.pushes",
        "kernel.pops", "kernel.cancels", "kernel.live_peak", "runspec.specs",
        "study.export_bytes", "store.puts", "store.bytes_written", "store.gets",
        "shard.claims", "shard.merge_records",
    ):
        values[name] = counts.get(name, 0)
    return values


def exact_counts(report: dict, outcomes: list[dict]) -> dict[str, float]:
    """The metrics of a traced pass that must repeat bit for bit."""
    values = _values(report, outcomes)
    return {
        name: values[name] for name, unit in PER_LAYER
        if unit in EXACT_UNITS or name in EXACT_RATIOS
    }


def layer_metrics(report: dict, outcomes: list[dict], import_s: float,
                  overhead_s: float) -> dict[str, dict]:
    """Every per-layer metric, as ``{"value": ..., "unit": ...}``."""
    values = _values(report, outcomes)
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
