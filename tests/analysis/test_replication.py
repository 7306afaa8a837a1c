"""Unit tests for multi-seed replication summaries."""

import pytest

from repro.analysis.replication import ReplicatedResult
from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig


def replicate(config, replications, seed_stride=1):
    """A :class:`ReplicatedResult` over a seed-axis study of ``config``."""
    result_set = (
        Study.from_config(config).seeds(replications, stride=seed_stride).run()
    )
    return ReplicatedResult(
        config=config,
        seeds=tuple(record.seed for record in result_set),
        results=tuple(record.result for record in result_set),
    )


@pytest.fixture(scope="module")
def replicated():
    config = SimulationConfig(
        seed_suppliers={1: 4},
        requesting_peers={1: 10, 2: 10, 3: 40, 4: 40},
        arrival_pattern=1,
        master_seed=100,
    )
    return replicate(config, replications=3)


class TestReplicate:
    def test_runs_requested_seeds(self, replicated):
        assert replicated.seeds == (100, 101, 102)
        assert len(replicated.results) == 3
        assert [r.config.master_seed for r in replicated.results] == [100, 101, 102]

    def test_seed_stride(self):
        config = SimulationConfig(
            seed_suppliers={1: 2},
            requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
            master_seed=5,
        )
        result = replicate(config, replications=2, seed_stride=10)
        assert result.seeds == (5, 15)

    def test_at_least_one_replication_required(self):
        with pytest.raises(ValueError):
            replicate(SimulationConfig(), replications=0)

    def test_scalar_summary_of_final_capacity(self, replicated):
        summary = replicated.final_capacity()
        # All requesters admitted in every seed -> identical capacity.
        expected = (4 * 8 + 10 * 8 + 10 * 4 + 40 * 2 + 40) // 16
        assert summary.mean == expected
        assert summary.half_width == 0.0
        assert len(summary.samples) == 3

    def test_scalar_summary_formats(self, replicated):
        text = str(replicated.final_capacity())
        assert "±" in text

    def test_per_class_scalars_have_spread_info(self, replicated):
        summary = replicated.rejections_of_class(4)
        assert summary.mean > 0
        assert summary.half_width >= 0.0
        delay = replicated.delay_of_class(1)
        assert 2.0 <= delay.mean <= 8.0


class TestEnvelope:
    def test_envelope_grid_and_ordering(self, replicated):
        envelope = replicated.capacity_envelope(step_hours=12.0)
        assert envelope.hours[0] == 0.0
        assert envelope.hours[-1] == 144.0
        for low, mean, high in zip(envelope.low, envelope.mean, envelope.high):
            assert low <= mean <= high

    def test_envelope_mean_is_nondecreasing(self, replicated):
        # Capacity never shrinks (no churn), so the mean curve is monotone.
        envelope = replicated.capacity_envelope(step_hours=12.0)
        assert list(envelope.mean) == sorted(envelope.mean)

    def test_mean_series_plottable(self, replicated):
        points = replicated.capacity_envelope(step_hours=24.0).mean_series()
        assert points[0].hour == 0.0
        assert points[-1].value > points[0].value
