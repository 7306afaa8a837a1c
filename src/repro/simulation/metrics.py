"""The one read model of a run's metrics, behind every figure and table.

Collection and reading are split.  The accumulators live in
:mod:`repro.simulation.probes` as one composable probe per paper
artifact, dispatched by a write-only
:class:`~repro.simulation.probes.MetricsPipeline`; studies subscribe only
to the probes they need (``SimulationConfig.probes``).  What a run
produced is the pipeline's ``to_dict()`` payload, and :class:`Metrics`
is the one view over it: a live
:class:`~repro.simulation.runner.SimulationResult` and a cached
:class:`~repro.orchestration.study.RunRecord` both hold a :class:`Metrics`,
so reports read fresh and cached runs through the same class.

=====================  ======================================================
Paper artifact          Accessor
=====================  ======================================================
Figure 4                ``capacity_series`` — hourly ``(hour, sessions)``
Figure 5                ``admission_rate_series[class]`` — hourly cumulative
                        admitted / first-requested, in percent
Figure 6                ``buffering_delay_series[class]`` — hourly cumulative
                        mean buffering delay in slots (× δt)
Table 1                 ``mean_rejections_before_admission()[class]``
Figure 7                ``favored_series[supplier class]`` — 3-hourly mean of
                        the lowest favored requesting class
Figure 9                ``overall_admission_rate_series``
(waiting time)          ``mean_waiting_seconds()[class]``
=====================  ======================================================

All cumulative series sample *state so far*, matching the paper's
"accumulative" plots.
"""

from __future__ import annotations

from repro.simulation.probes import (
    CLASS_KEYED_KEYS,
    CONTINUITY_COUNTER_ZEROS,
    COUNTER_KEYS,
    SeriesPoint,
)

__all__ = ["Metrics", "SeriesPoint"]


class Metrics:
    """Read-only view over one run's metrics payload.

    Series read as lists of :class:`SeriesPoint`, per-class counters as
    attributes (``metrics.admitted``, ``metrics.interruptions``, ...) and
    per-class means as methods.  Artifacts of an unsubscribed probe read
    as empty series, NaN means and — for the lifecycle continuity
    counters — zeros typed like the subscribed probe's values.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict) -> None:
        self._data = data

    @classmethod
    def from_json(cls, data: dict) -> "Metrics":
        """View over a JSON-decoded payload, re-inting its class keys."""
        restored = dict(data)
        for name in CLASS_KEYED_KEYS:
            if name in restored:
                restored[name] = {int(c): v for c, v in restored[name].items()}
        return cls(restored)

    def to_dict(self) -> dict:
        """The underlying JSON-ready payload."""
        return self._data

    # ---- series ------------------------------------------------------
    def _series(self, name: str) -> list[SeriesPoint]:
        points = self._data.get(name, ())
        return [SeriesPoint(float(h), float(v)) for h, v in points]

    def _class_series(self, name: str) -> dict[int, list[SeriesPoint]]:
        return {
            int(c): [SeriesPoint(float(h), float(v)) for h, v in points]
            for c, points in self._data[name].items()
        }

    @property
    def capacity_series(self) -> list[SeriesPoint]:
        """Figure-4 capacity samples."""
        return self._series("capacity_series")

    @property
    def capacity_fractional_series(self) -> list[SeriesPoint]:
        """Fractional (bandwidth-unit) capacity samples."""
        return self._series("capacity_fractional_series")

    @property
    def supplier_count_series(self) -> list[SeriesPoint]:
        """Supplier head-count samples."""
        return self._series("supplier_count_series")

    @property
    def overall_admission_rate_series(self) -> list[SeriesPoint]:
        """Figure-9 overall cumulative admission rate samples."""
        return self._series("overall_admission_rate_series")

    @property
    def continuity_series(self) -> list[SeriesPoint]:
        """Hourly mean playback continuity index (empty without the probe)."""
        return self._series("continuity_series")

    @property
    def admission_rate_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-5 per-class cumulative admission rate samples."""
        return self._class_series("admission_rate_series")

    @property
    def buffering_delay_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-6 per-class cumulative buffering delay samples."""
        return self._class_series("buffering_delay_series")

    @property
    def favored_series(self) -> dict[int, list[SeriesPoint]]:
        """Figure-7 lowest-favored-class snapshots."""
        return self._class_series("favored_series")

    # ---- per-class counters ------------------------------------------
    def _classes(self) -> list[int]:
        """The class labels of this run (the counters always carry them)."""
        return [int(c) for c in self._data["admitted"]]

    def _class_map(self, name: str, default: float) -> dict[int, float]:
        if name not in self._data:
            return {c: default for c in self._classes()}
        return {int(c): v for c, v in self._data[name].items()}

    def __getattr__(self, name: str) -> dict[int, float]:
        if name in COUNTER_KEYS:
            return self._class_map(name, 0)
        if name in CONTINUITY_COUNTER_ZEROS:
            return self._class_map(name, CONTINUITY_COUNTER_ZEROS[name])
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ---- per-class means ---------------------------------------------
    def mean_rejections_before_admission(self) -> dict[int, float]:
        """Table 1: per-class mean rejections suffered before admission."""
        return self._class_map("mean_rejections_before_admission", float("nan"))

    def mean_buffering_delay_slots(self) -> dict[int, float]:
        """Final per-class mean buffering delay (Figure 6 endpoint)."""
        return self._class_map("mean_buffering_delay_slots", float("nan"))

    def mean_waiting_seconds(self) -> dict[int, float]:
        """Per-class mean waiting time from first request to admission."""
        return self._class_map("mean_waiting_seconds", float("nan"))

    def admission_rate_percent(self) -> dict[int, float]:
        """Final per-class cumulative admission rate (Figure 5 endpoint)."""
        return self._class_map("admission_rate_percent", float("nan"))

    def mean_recovery_latency_seconds(self) -> dict[int, float]:
        """Per-class mean interruption-to-re-admission latency."""
        return self._class_map("mean_recovery_latency_seconds", float("nan"))

    def playback_continuity_index(self) -> dict[int, float]:
        """Per-class mean playback continuity index (1.0 = stall-free)."""
        return self._class_map("playback_continuity_index", float("nan"))

    def final_capacity(self) -> float:
        """Last Figure-4 sample (sessions); 0.0 without the capacity probe."""
        series = self._data["capacity_series"]
        return float(series[-1][1]) if series else 0.0
