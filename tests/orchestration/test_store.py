"""Tests for the on-disk result store (cache hit/miss semantics)."""

import dataclasses
import json

import pytest

import repro.orchestration.batch as batch
from repro.orchestration.shard import merge_stores
from repro.orchestration.store import ResultStore
from repro.orchestration.study import Study
from repro.simulation.config import SimulationConfig


def small_config(**overrides):
    defaults = dict(
        seed_suppliers={1: 2},
        requesting_peers={1: 2, 2: 2, 3: 8, 4: 8},
        arrival_pattern=1,
        master_seed=21,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestStoreBasics:
    def test_round_trip(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        loaded = store.get(record.spec_hash)
        assert loaded is not None
        assert loaded.fingerprint() == record.fingerprint()
        assert loaded.wall_seconds == record.wall_seconds
        assert loaded.result is None

    def test_missing_hash_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store

    def test_corrupt_file_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        store.path_for(record.spec_hash).write_text("{not json", encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_malformed_record_payload_is_a_miss(self, store):
        # Valid JSON, valid schema tag, wrong inner types: still a miss.
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["record"]["scalars"] = [1, 2]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_schema_mismatch_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["store_schema"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None

    def test_version_mismatch_is_a_miss(self, store):
        record = Study.from_config(small_config()).run(store=store)[0]
        path = store.path_for(record.spec_hash)
        payload = json.loads(path.read_text())
        payload["record"]["version"] = "0.0.0"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get(record.spec_hash) is None
        permissive = ResultStore(store.root, require_version=None)
        assert permissive.get(record.spec_hash) is not None

    def test_len_contains_clear(self, store):
        result_set = Study.from_config(small_config()).seeds(2).run(store=store)
        assert len(store) == 2
        assert all(record.spec_hash in store for record in result_set)
        assert store.spec_hashes() == sorted(
            record.spec_hash for record in result_set
        )
        assert store.clear() == 2
        assert len(store) == 0


class TestCacheSemantics:
    def test_second_run_is_simulation_free(self, store, monkeypatch):
        study = Study.from_config(small_config()).protocols("dac", "ndac")
        first = study.run(store=store)

        def explode(config):
            raise AssertionError("cache miss: simulation executed")

        monkeypatch.setattr(batch, "run_simulation", explode)
        second = study.run(store=store)
        assert [r.fingerprint() for r in second] == [
            r.fingerprint() for r in first
        ]

    def test_partial_hit_runs_only_the_gap(self, store):
        Study.from_config(small_config()).protocols("dac").run(store=store)
        assert len(store) == 1
        calls = []
        original = batch.run_simulation

        def counting(config):
            calls.append(config.protocol)
            return original(config)

        batch.run_simulation = counting
        try:
            Study.from_config(small_config()).protocols("dac", "ndac").run(
                store=store
            )
        finally:
            batch.run_simulation = original
        assert calls == ["ndac"]
        assert len(store) == 2

    def test_no_cache_bypasses_reads_but_still_writes(self, store):
        study = Study.from_config(small_config())
        study.run(store=store)
        calls = []
        original = batch.run_simulation

        def counting(config):
            calls.append(config.master_seed)
            return original(config)

        batch.run_simulation = counting
        try:
            result_set = study.run(store=store, cache=False)
        finally:
            batch.run_simulation = original
        assert calls == [21]
        assert result_set[0].result is not None

    def test_cached_record_rebinds_to_new_study_axes(self, store):
        Study.from_config(small_config()).run(store=store)
        result_set = (
            Study.from_config(small_config()).protocols("dac").run(store=store)
        )
        record = result_set[0]
        assert record.result is None  # served from cache
        assert record.axes == (("protocol", "dac"),)

    def test_identical_configs_share_cache_entries(self, store):
        config = small_config()
        Study.from_config(config).run(store=store)
        relabeled = dataclasses.replace(config)  # equal content, new object
        cached = Study.from_config(relabeled).run(store=store)[0]
        assert cached.result is None


class TestRetiredFieldMigration:
    """Records written by 1.5 carry the retired ``kernel`` config key."""

    def write_old_record(self, store):
        """A 1.5-format record file, as ``repro study`` wrote it then."""
        record = Study.from_config(small_config()).run()[0]
        data = record.to_dict()
        data["config"] = dict(data["config"], kernel="calendar")
        data["version"] = "1.5.0"
        payload = {"store_schema": 1, "record": data}
        store.path_for(record.spec_hash).write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        return record

    def test_old_record_loads_and_rebuilds_its_config(self, tmp_path):
        store = ResultStore(tmp_path / "old", require_version=None)
        fresh = self.write_old_record(store)
        loaded = store.get(fresh.spec_hash)
        assert loaded is not None
        assert loaded.config_data["kernel"] == "calendar"  # bytes preserved
        assert loaded.config == small_config()

    def test_old_record_passes_through_merge(self, tmp_path):
        old = ResultStore(tmp_path / "old", require_version=None)
        fresh = self.write_old_record(old)
        merged = ResultStore(tmp_path / "merged", require_version=None)
        report = merge_stores(merged, [old])
        assert report.copied == 1
        record = merged.get(fresh.spec_hash)
        assert record.fingerprint() == old.get(fresh.spec_hash).fingerprint()
        assert record.config == small_config()
