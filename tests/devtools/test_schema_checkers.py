"""The benchmark/study JSON validators behind the ``scripts/`` shims."""

import json

from repro.devtools import benchcheck, studycheck

ENGINE_EXPORT = {
    "schema": "repro.bench_engine_scaling.v1",
    "version": "1.0",
    "quick": True,
    "scenario": "metropolis_100k",
    "python": "3.11.0",
    "machine": "x86_64",
    "runs": [{
        "scale": 0.1, "peers": 10000, "scenario": "metropolis_100k",
        "engine": "object", "events": 1000, "setup_seconds": 0.2,
        "run_seconds": 1.0, "wall_seconds": 1.2, "events_per_sec": 1000.0,
    }],
    "speedups": [{
        "scale": 0.1, "peers": 10000, "events_per_sec_object": 1000.0,
        "events_per_sec_array": 3000.0, "speedup_array_vs_object": 3.0,
        "speedup_total_wall": 2.5,
    }],
    "megacity": {
        "scenario": "megacity_1m", "scale": 0.01, "peers": 10000,
        "engine": "array", "completed": True, "events": 5000,
        "setup_seconds": 0.5, "run_seconds": 2.0, "wall_seconds": 2.5,
        "events_per_sec": 2500.0,
    },
}

STUDY_EXPORT = {
    "schema": "repro.study.v1",
    "version": "1.0",
    "count": 1,
    "records": [{
        "spec_hash": "0" * 64,
        "config": {"protocol": "dac", "master_seed": 1,
                   "arrival_pattern": 2},
        "scalars": {"final_capacity": 10.0, "max_capacity": 20.0,
                    "capacity_fraction_of_max": 0.5},
        "metrics": {"capacity_series": [[0.0, 1.0]],
                    "overall_admission_rate_series": [[0.0, 0.5]]},
        "events_processed": 100,
        "wall_seconds": 0.5,
        "version": "1.0",
        "axes": [],
    }],
}


def write_json(tmp_path, payload):
    path = tmp_path / "export.json"
    path.write_text(json.dumps(payload))
    return path


class TestBenchCheck:
    def test_valid_engine_export_passes(self, tmp_path):
        findings, summary = benchcheck.check_file(
            write_json(tmp_path, ENGINE_EXPORT)
        )
        assert findings == []
        assert "1 runs" in summary
        assert "megacity at scale 0.01" in summary

    def test_unknown_schema_is_a_finding(self, tmp_path):
        payload = dict(ENGINE_EXPORT, schema="repro.other.v9")
        findings, _ = benchcheck.check_file(write_json(tmp_path, payload))
        assert findings and findings[0].rule == "bench-schema"

    def test_missing_run_field_is_a_finding(self, tmp_path):
        payload = json.loads(json.dumps(ENGINE_EXPORT))
        del payload["runs"][0]["events_per_sec"]
        findings, _ = benchcheck.check_file(write_json(tmp_path, payload))
        assert any("events_per_sec" in f.message for f in findings)

    def test_incomplete_megacity_is_a_finding(self, tmp_path):
        payload = json.loads(json.dumps(ENGINE_EXPORT))
        payload["megacity"]["completed"] = False
        findings, _ = benchcheck.check_file(write_json(tmp_path, payload))
        assert any("did not complete" in f.message for f in findings)

    def test_unknown_engine_is_a_finding(self, tmp_path):
        payload = json.loads(json.dumps(ENGINE_EXPORT))
        payload["runs"][0]["engine"] = "heap"
        findings, _ = benchcheck.check_file(write_json(tmp_path, payload))
        assert any("'heap'" in f.message for f in findings)

    def test_invalid_json_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        findings, _ = benchcheck.check_file(path)
        assert findings and "cannot read" in findings[0].message

    def test_main_usage_error_is_two(self, capsys):
        assert benchcheck.main(["check_bench_json.py"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_main_reports_through_the_shared_conventions(
        self, tmp_path, capsys
    ):
        path = write_json(tmp_path, ENGINE_EXPORT)
        assert benchcheck.main(["check_bench_json.py", str(path)]) == 0
        assert "check_bench_json: ok" in capsys.readouterr().out


class TestStudyCheck:
    def test_valid_study_export_passes(self, tmp_path):
        findings, summary = studycheck.check_file(
            write_json(tmp_path, STUDY_EXPORT)
        )
        assert findings == []
        assert "1 record(s)" in summary

    def test_bad_spec_hash_is_a_finding(self, tmp_path):
        payload = json.loads(json.dumps(STUDY_EXPORT))
        payload["records"][0]["spec_hash"] = "nothex"
        findings, _ = studycheck.check_file(write_json(tmp_path, payload))
        assert any("spec_hash" in f.message for f in findings)

    def test_count_mismatch_is_a_finding(self, tmp_path):
        payload = dict(STUDY_EXPORT, count=7)
        findings, _ = studycheck.check_file(write_json(tmp_path, payload))
        assert any("count" in f.message for f in findings)

    def test_missing_metric_series_is_a_finding(self, tmp_path):
        payload = json.loads(json.dumps(STUDY_EXPORT))
        del payload["records"][0]["metrics"]["capacity_series"]
        findings, _ = studycheck.check_file(write_json(tmp_path, payload))
        assert any("capacity_series" in f.message for f in findings)

    def test_main_exit_codes(self, tmp_path, capsys):
        path = write_json(tmp_path, STUDY_EXPORT)
        assert studycheck.main(["check_study_json.py", str(path)]) == 0
        capsys.readouterr()
        assert studycheck.main(["check_study_json.py"]) == 2


class TestStudyEquality:
    """``check_study_json.py A --equal B`` — the shard-merge parity gate."""

    def write_pair(self, tmp_path, mutate=None):
        first = tmp_path / "serial.json"
        first.write_text(json.dumps(STUDY_EXPORT))
        payload = json.loads(json.dumps(STUDY_EXPORT))
        if mutate is not None:
            mutate(payload)
        second = tmp_path / "merged.json"
        second.write_text(json.dumps(payload))
        return first, second

    def test_identical_exports_are_equal(self, tmp_path):
        first, second = self.write_pair(tmp_path)
        findings, summary = studycheck.compare_files(first, second)
        assert findings == []
        assert "bit-identical" in summary

    def test_wall_time_differences_are_ignored(self, tmp_path):
        def slow_down(payload):
            payload["records"][0]["wall_seconds"] = 99.0

        first, second = self.write_pair(tmp_path, slow_down)
        findings, _ = studycheck.compare_files(first, second)
        assert findings == []

    def test_payload_differences_are_a_finding(self, tmp_path):
        def tamper(payload):
            payload["records"][0]["scalars"]["final_capacity"] = -1.0

        first, second = self.write_pair(tmp_path, tamper)
        findings, _ = studycheck.compare_files(first, second)
        assert any("not bit-identical" in f.message for f in findings)

    def test_record_count_mismatch_is_a_finding(self, tmp_path):
        def double(payload):
            payload["records"].append(json.loads(
                json.dumps(payload["records"][0])
            ))
            payload["records"][1]["spec_hash"] = "1" * 64
            payload["count"] = 2

        first, second = self.write_pair(tmp_path, double)
        findings, _ = studycheck.compare_files(first, second)
        assert any("records" in f.message for f in findings)

    def test_main_equal_mode(self, tmp_path, capsys):
        first, second = self.write_pair(tmp_path)
        code = studycheck.main(
            ["check_study_json.py", str(first), "--equal", str(second)]
        )
        assert code == 0
        assert "bit-identical" in capsys.readouterr().out
