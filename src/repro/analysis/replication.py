"""Multi-seed replication of experiments.

A single simulation run is one draw from the protocol's stochastic
behaviour; publishable comparisons replicate over independent seeds and
report means with confidence intervals.  This module aggregates the runs
of one configuration under ``k`` seeds (built with
``Study.from_config(config).seeds(k)``):

* scalar metrics (final capacity, per-class rejections/delays/waits) into
  ``mean ± half-width`` records, and
* time series (e.g. the Figure-4 capacity curve) into pointwise mean /
  min / max envelopes on a common hourly grid.

Used by the variance benchmark and available to downstream users who want
error bars on any of the paper's figures.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.analysis.stats import mean_confidence_interval, value_at_hour
from repro.orchestration.study import Aggregate
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import SeriesPoint
from repro.simulation.runner import SimulationResult

__all__ = ["SeriesEnvelope", "ReplicatedResult"]


@dataclass(frozen=True)
class SeriesEnvelope:
    """Pointwise aggregate of one time series across replications."""

    hours: tuple[float, ...]
    mean: tuple[float, ...]
    low: tuple[float, ...]
    high: tuple[float, ...]

    def mean_series(self) -> list[SeriesPoint]:
        """The mean curve as a plottable series."""
        return [SeriesPoint(h, v) for h, v in zip(self.hours, self.mean)]


@dataclass
class ReplicatedResult:
    """Everything a k-seed replication produced.

    ``results`` may hold live
    :class:`~repro.simulation.runner.SimulationResult` objects or
    cache-served :class:`~repro.orchestration.study.RunRecord` objects;
    both carry the same :class:`~repro.simulation.metrics.Metrics` view,
    which is all the accessors read.

    The scalar summaries match what
    :meth:`repro.orchestration.study.ResultSet.aggregate` computes over
    any study axis; :meth:`capacity_envelope` has no study equivalent.
    """

    config: SimulationConfig
    seeds: tuple[int, ...]
    results: tuple[SimulationResult, ...]

    # ------------------------------------------------------------------
    def scalar(
        self, extract: Callable[[SimulationResult], float]
    ) -> Aggregate:
        """Aggregate any per-run scalar across the replications."""
        values = [extract(result) for result in self.results]
        mean, half = mean_confidence_interval(values)
        return Aggregate(mean=mean, half_width=half, samples=tuple(values))

    def final_capacity(self) -> Aggregate:
        """Final Figure-4 capacity across seeds."""
        return self.scalar(lambda r: r.metrics.final_capacity())

    def rejections_of_class(self, peer_class: int) -> Aggregate:
        """Table-1 entry for one class across seeds."""
        return self.scalar(
            lambda r: r.metrics.mean_rejections_before_admission()[peer_class]
        )

    def delay_of_class(self, peer_class: int) -> Aggregate:
        """Figure-6 endpoint for one class across seeds."""
        return self.scalar(
            lambda r: r.metrics.mean_buffering_delay_slots()[peer_class]
        )

    def capacity_envelope(self, step_hours: float = 6.0) -> SeriesEnvelope:
        """Pointwise capacity envelope on a common hourly grid."""
        horizon_hours = self.config.horizon_seconds / 3600.0
        hours = []
        hour = 0.0
        while hour <= horizon_hours:
            hours.append(hour)
            hour += step_hours
        columns = [
            [
                value_at_hour(result.metrics.capacity_series, h, default=0.0)
                for result in self.results
            ]
            for h in hours
        ]
        return SeriesEnvelope(
            hours=tuple(hours),
            mean=tuple(sum(col) / len(col) for col in columns),
            low=tuple(min(col) for col in columns),
            high=tuple(max(col) for col in columns),
        )

