"""Tests for the batch executor and the ``jobs`` plumbing above it."""

import json

import pytest

from repro.orchestration import run_batch
from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig
from repro.simulation.runner import run_simulation


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 4},
        requesting_peers={1: 5, 2: 5, 3: 20, 4: 20},
        arrival_pattern=1,
        master_seed=11,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def fingerprint(results):
    """Order-sensitive, NaN-safe digest of a result list."""
    return json.dumps(
        [
            (r.config.master_seed, r.config.protocol, r.metrics.to_dict())
            for r in results
        ],
        sort_keys=True,
    )


class TestRunBatch:
    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_batch([small_config()], jobs=0)

    def test_serial_matches_plain_loop(self):
        configs = [small_config(master_seed=s) for s in (1, 2, 3)]
        batch = run_batch(configs, jobs=1)
        loop = [run_simulation(c) for c in configs]
        assert fingerprint(batch) == fingerprint(loop)

    def test_parallel_matches_serial_in_order_and_content(self):
        configs = [small_config(master_seed=s) for s in (1, 2, 3)]
        serial = run_batch(configs, jobs=1)
        parallel = run_batch(configs, jobs=2)
        assert fingerprint(serial) == fingerprint(parallel)

    def test_results_keep_config_order(self):
        configs = [small_config(master_seed=s) for s in (9, 4, 7)]
        results = run_batch(configs, jobs=2)
        assert [r.config.master_seed for r in results] == [9, 4, 7]

    def test_chunked_dispatch_keeps_order_and_content(self):
        # More configs than workers exercises chunksize > 1 (derived from
        # len(configs) // workers); order and results must be unaffected.
        seeds = list(range(1, 8))
        configs = [small_config(master_seed=s) for s in seeds]
        serial = run_batch(configs, jobs=1)
        chunked = run_batch(configs, jobs=2)
        assert [r.config.master_seed for r in chunked] == seeds
        assert fingerprint(serial) == fingerprint(chunked)


class TestJobsPlumbing:
    """Study grids fan out over ``jobs`` without changing any record.

    (The protocol axis is covered by ``test_study.py``.)
    """

    def test_sweep_axis_parallel_parity(self):
        study = Study.from_config(small_config()).sweep("probe_candidates", [4, 8])
        serial = study.run(jobs=1)
        parallel = study.run(jobs=2)
        assert [r.axis("probe_candidates") for r in parallel] == [4, 8]
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]

    def test_replicate_parallel_parity_and_seed_pairing(self):
        study = Study.from_config(small_config()).seeds(3)
        serial = study.run(jobs=1)
        parallel = study.run(jobs=2)
        assert [r.seed for r in serial] == [r.seed for r in parallel] == [11, 12, 13]
        assert [r.fingerprint() for r in serial] == [
            r.fingerprint() for r in parallel
        ]
