"""The benchmark's four workloads: parameters, passes, oracles and digests.

Every workload is closed-loop: one client in one process submits one
job at a time and waits for it.  Only ``study_cli`` runs a pool, of at
most two workers and never more than the usable CPUs.

* ``array_metropolis`` -- ``metropolis_100k`` at scale 0.25 on the
  array engine, configured as the scenario sets it.
* ``object_churn`` -- ``flash_departure`` at scale 0.2 pinned to the
  object engine, default probes, message tracking on.
* ``study_cli`` -- ``repro study`` over a ``quickstart`` grid from the
  command line, cold into a fresh cache and then fully cached.
* ``shard_merge`` -- a grid of tiny specs run as two ``repro study
  shard`` slices, merged, censused, collected and exported, then
  exported again from the merged store by the cached command line.

A *pass* is one execution of a workload's job.  Timed runs repeat
passes; traced runs make one untraced and two traced passes.  Every
time is read through a clock from :mod:`speed`: plain wall time, or
reference seconds when a :class:`speed.SpeedProbe` measures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import monotonic
from typing import NamedTuple

from speed import WallClock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SHIM = BENCH_DIR / "cli_shim.py"

#: the scenarios' own master seed; digests at this seed are pinned
DEFAULT_SEED = 20020701
#: ``--jobs`` of each workload.  ``shard_merge`` runs its specs in the
#: command's own process, so the per-spec orchestration it measures shares
#: its CPU with nothing else; the simulations run no pool.
JOBS = {
    "array_metropolis": 1, "object_churn": 1,
    "study_cli": max(1, min(2, len(os.sched_getaffinity(0)))), "shard_merge": 1,
}

SIM_WORKLOADS = {
    "array_metropolis": {
        "scenario": "metropolis_100k", "scale": 0.25,
        "engine": "array", "oracle_engine": "object",
    },
    "object_churn": {
        "scenario": "flash_departure", "scale": 0.2,
        "engine": "object", "oracle_engine": "array",
    },
}
STUDY_WORKLOADS = {
    "study_cli": {
        "scenario": "quickstart", "scale": 0.05,
        "protocols": ["dac", "ndac"], "sweep": None, "seeds": 4, "slices": 1,
        "oracle_engine": "array",
    },
    "shard_merge": {
        "scenario": "quickstart", "scale": 0.002,
        "protocols": ["dac", "ndac"], "sweep": ["probe_candidates", 4, 8],
        "seeds": 24, "slices": 2, "oracle_engine": None,
    },
}
WORKLOADS = {**SIM_WORKLOADS, **STUDY_WORKLOADS}
#: fully cached command-line reruns per pass
CACHED_REPEATS = {
    "array_metropolis": 1, "object_churn": 1, "study_cli": 3, "shard_merge": 1,
}


class CheckFailed(Exception):
    """An output did not match its reference."""


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _canonical(obj) -> str:
    # the JSON round trip turns int class keys into strings, so live
    # metrics and records read back from disk hash alike
    return json.dumps(json.loads(json.dumps(obj)), sort_keys=True,
                      separators=(",", ":"))


def outcome(metrics: dict, events: int, message_stats) -> dict:
    """What a run computed: metrics, event count and message statistics.

    Leaves out configuration, spec hash, version and wall time, so the
    digest holds across engines and across changes that only move
    provenance.
    """
    return {"metrics": metrics, "events_processed": events,
            "message_stats": message_stats}


def record_outcome(record: dict) -> dict:
    """:func:`outcome` of one exported record."""
    return outcome(record["metrics"], record["events_processed"],
                   record["message_stats"])


def digest(outcomes: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a list of outcomes."""
    return hashlib.sha256(_canonical(outcomes).encode("utf-8")).hexdigest()


def load_export(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["records"]


# ----------------------------------------------------------------------
# the command line, run as a user runs it
# ----------------------------------------------------------------------
class Launch(NamedTuple):
    """One command: its wall time, the delay from launch until the first
    spec started executing (``None`` when none did), both in the clock's
    seconds, and the clock's speed factor over the command."""

    wall: float
    first_spec: float | None
    factor: float


class Cli:
    """Launches ``repro`` commands through :mod:`cli_shim`."""

    def __init__(self, scratch: Path, clock=None) -> None:
        self.scratch = scratch
        self.clock = clock or WallClock()
        self._launches = 0

    def run(self, args: list, trace_file: Path | None = None,
            pool: bool = False) -> Launch:
        """Run one command to completion; with ``pool`` it may use every CPU."""
        self._launches += 1
        spec_log = self.scratch / f"specs-{self._launches}.log"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PERFBENCH_SPEC_LOG=str(spec_log))
        env.pop("PERFBENCH_TRACE", None)
        if trace_file is not None:
            env["PERFBENCH_TRACE"] = str(trace_file)
        command = [sys.executable, str(SHIM), *map(str, args)]
        with self.clock.spread() if pool else nullcontext():
            launch = monotonic()
            done = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            end = monotonic()
        if done.returncode != 0:
            raise CheckFailed(
                f"`repro {' '.join(map(str, args[:3]))} ...` exited "
                f"{done.returncode}: {done.stderr.strip()[-400:]}"
            )
        first = None
        if spec_log.exists():
            first = self.clock.seconds(
                launch, min(float(line) for line in spec_log.read_text().split())
            )
        return Launch(self.clock.seconds(launch, end), first,
                      self.clock.factor(launch, end))


def grid_args(params: dict, seed: int) -> list:
    """``repro study`` flags that describe a study workload's grid."""
    args = ["--scenario", params["scenario"], "--scale", params["scale"],
            "--seed", seed, "--protocols", *params["protocols"],
            "--seeds", params["seeds"]]
    if params["sweep"]:
        args += ["--sweep", *params["sweep"]]
    return args


def build_study(params: dict, seed: int):
    """The library twin of :func:`grid_args` (same specs, same hashes)."""
    from repro.orchestration.study import Study
    from repro.scenarios import get_scenario

    config = get_scenario(params["scenario"]).build_config(
        scale=params["scale"], master_seed=seed
    )
    study = Study.from_config(config, scenario=params["scenario"])
    study.protocols(*params["protocols"])
    if params["sweep"]:
        name, *values = params["sweep"]
        study.sweep(name, values)
    return study.seeds(params["seeds"])


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def build_sim_config(params: dict, seed: int, engine: str):
    from repro.scenarios import get_scenario

    return get_scenario(params["scenario"]).build_config(
        scale=params["scale"], master_seed=seed, engine=engine
    )


def _engine_class(params: dict, traced: bool = False):
    from repro.simulation.arrayengine import ArrayEngine
    from repro.simulation.system import StreamingSystem

    if params["engine"] != "array":
        return StreamingSystem
    if not traced:
        return ArrayEngine

    class TracedArrayEngine(ArrayEngine):
        """``ArrayEngine`` with an instance ``__dict__``, so instance
        attributes can shadow its methods (see ``install_array_engine``)."""

    return TracedArrayEngine


def simulate(params: dict, seed: int, tracer=None, clock=None) -> dict:
    """One simulation: set-up (config and engine construction) and dispatch."""
    from repro.simulation.runner import SimulationResult

    engine_class = _engine_class(params, traced=tracer is not None)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    clock = clock or WallClock()
    gc.collect()
    start = monotonic()
    with span("config.build"):
        config = build_sim_config(params, seed, params["engine"])
    with span("engine.construct"):
        engine = engine_class(config)
    built = monotonic()
    if tracer is not None:
        from tracing import install_array_engine, install_network

        if params["engine"] == "array":
            install_array_engine(tracer, engine)
        else:
            install_network(tracer, engine.lookup, engine.transport)
    dispatched = monotonic()
    with span("dispatch"):
        metrics = engine.run()
    end = monotonic()
    events = (engine.events_processed if params["engine"] == "array"
              else engine.sim.events_processed)
    message_stats = (engine.transport.stats.snapshot()
                     if engine.transport is not None else None)
    result = SimulationResult(config=config, metrics=metrics, events_processed=events,
                              wall_seconds=built - start + end - dispatched,
                              message_stats=message_stats)
    return {
        "setup_s": clock.seconds(start, built),
        "dispatch_s": clock.seconds(dispatched, end),
        "events": events,
        "result": result,
        "outcome": outcome(metrics.to_dict(), events, message_stats),
    }


def sim_setup(params: dict, seed: int, clock) -> float:
    """Set-up alone: config build plus engine construction."""
    engine_class = _engine_class(params)
    gc.collect()
    start = monotonic()
    engine_class(build_sim_config(params, seed, params["engine"]))
    return clock.seconds(start, monotonic())


def sim_cached(params: dict, seed: int, run: dict, cli: Cli, scratch: Path,
               repeats: int, trace_dir: Path | None = None) -> list[float]:
    """Serve the run from a store through the command line ``repeats`` times.

    The run's record is stored under the spec hash ``repro study`` derives
    from the same flags, so every invocation is a full cache hit; each
    export must carry the run's outcome and no spec may execute.
    """
    from repro.orchestration.store import ResultStore
    from repro.orchestration.study import RunRecord, Study

    cache = scratch / "sim-cache"
    store = ResultStore(cache)
    store.clear()
    config = run["result"].config
    spec = Study.from_config(config, scenario=params["scenario"]).seeds(1).specs()[0]
    store.put(RunRecord.from_result(spec, run["result"]))
    walls = []
    expected = digest([run["outcome"]])
    for repeat in range(repeats):
        out = scratch / f"sim-cached-{repeat}"
        trace_file = trace_dir / f"cached-{repeat}.json" if trace_dir else None
        launch = cli.run(
            ["study", "--scenario", params["scenario"], "--scale", params["scale"],
             "--seed", seed, "--engine", params["engine"], "--cache-dir", cache,
             "--export", "json", "--out", out],
            trace_file=trace_file,
        )
        if launch.first_spec is not None:
            raise CheckFailed("cached rerun executed a spec: cache missed")
        records = load_export(out.with_suffix(".json"))
        if digest([record_outcome(r) for r in records]) != expected:
            raise CheckFailed("cached export differs from the run it was stored from")
        walls.append(launch.wall)
    return walls


def sim_oracle(params: dict, seed: int) -> str:
    """Digest of the same config on the other engine."""
    from repro.simulation.runner import run_simulation

    result = run_simulation(build_sim_config(params, seed, params["oracle_engine"]))
    return digest([outcome(result.metrics.to_dict(), result.events_processed,
                           result.message_stats)])


# ----------------------------------------------------------------------
# study workloads
# ----------------------------------------------------------------------
def compare_exports(path: Path, other: Path) -> None:
    """Raise unless two exports agree record for record up to wall time."""
    from repro.devtools.studycheck import compare_files

    findings, _ = compare_files(path, other)
    if findings:
        raise CheckFailed(findings[0].message)


def study_cli_pass(params: dict, seed: int, cli: Cli, scratch: Path, tag: str,
                   repeats: int, trace_dir: Path | None = None) -> dict:
    """Cold ``repro study`` into a fresh cache, then ``repeats`` cached reruns."""
    cache = scratch / f"cache-{tag}"
    base = ["study", *grid_args(params, seed), "--jobs", JOBS["study_cli"],
            "--cache-dir", cache, "--export", "json", "--out"]
    cold_out = scratch / f"cold-{tag}"
    cold = cli.run(
        [*base, cold_out],
        trace_file=trace_dir / "cold.json" if trace_dir else None, pool=True,
    )
    if cold.first_spec is None:
        raise CheckFailed("cold study executed no spec")
    cached = []
    for repeat in range(repeats):
        out = scratch / f"cached-{tag}-{repeat}"
        launch = cli.run(
            [*base, out],
            trace_file=trace_dir / f"cached-{repeat}.json" if trace_dir else None,
        )
        if launch.first_spec is not None:
            raise CheckFailed("cached rerun executed a spec: cache missed")
        compare_exports(out.with_suffix(".json"), cold_out.with_suffix(".json"))
        cached.append(launch.wall)
    return {"wall_s": cold.wall, "setup_s": [cold.first_spec], "cached_s": cached,
            "factor": cold.factor, "export": cold_out.with_suffix(".json")}


def shard_merge_pass(params: dict, seed: int, cli: Cli, scratch: Path, tag: str,
                     repeats: int, tracer=None, trace_dir: Path | None = None) -> dict:
    """Two shard slices, merge, census, collect and export, cached export."""
    from repro.orchestration.shard import merge_stores, store_status
    from repro.orchestration.store import ResultStore

    slices = params["slices"]
    stores = [scratch / f"slice-{tag}-{index}" for index in range(slices)]
    setups = []
    factors = []
    wall = 0.0
    for index, store_dir in enumerate(stores):
        shard = cli.run(
            ["study", "shard", "--store", store_dir, "--slice", f"{index}/{slices}",
             "--jobs", JOBS["shard_merge"], *grid_args(params, seed)],
            trace_file=trace_dir / f"shard-{index}.json" if trace_dir else None,
        )
        if shard.first_spec is None:
            raise CheckFailed(f"shard slice {index} executed no spec")
        setups.append(shard.first_spec)
        factors.append(shard.factor)
        wall += shard.wall

    def timed(name, fn):
        return tracer.wrap(name, fn) if tracer is not None else fn

    merged_dir = scratch / f"merged-{tag}"
    export = scratch / f"collected-{tag}.json"
    start = monotonic()
    study = build_study(params, seed)
    merged = ResultStore(merged_dir, require_version=None)
    report = timed("shard.merge", merge_stores)(
        merged, [ResultStore(path, require_version=None) for path in stores]
    )
    status = timed("shard.status", store_status)(ResultStore(merged_dir), study)
    result_set = study.collect(ResultStore(merged_dir))
    result_set.to_json(export)
    wall += cli.clock.seconds(start, monotonic())
    if tracer is not None:
        tracer.counts["shard.merge_records"] += (
            report.copied + report.replaced + report.identical
        )
    if status.pending != 0 or status.done != status.total_specs:
        raise CheckFailed(f"merged store incomplete: {status.summary()}")

    cached = []
    for repeat in range(repeats):
        out = scratch / f"cached-{tag}-{repeat}"
        launch = cli.run(
            ["study", *grid_args(params, seed), "--jobs", JOBS["shard_merge"],
             "--cache-dir", merged_dir, "--export", "json", "--out", out],
            trace_file=trace_dir / f"cached-{repeat}.json" if trace_dir else None,
        )
        if launch.first_spec is not None:
            raise CheckFailed("cached export executed a spec: cache missed")
        compare_exports(out.with_suffix(".json"), export)
        cached.append(launch.wall)
    return {"wall_s": wall, "setup_s": setups, "cached_s": cached,
            "factor": sum(factors) / len(factors), "export": export}


def study_pass(workload: str, seed: int, cli: Cli, scratch: Path, tag: str,
               repeats: int, tracer=None, trace_dir: Path | None = None) -> dict:
    params = STUDY_WORKLOADS[workload]
    if workload == "study_cli":
        return study_cli_pass(params, seed, cli, scratch, tag, repeats, trace_dir)
    return shard_merge_pass(params, seed, cli, scratch, tag, repeats, tracer, trace_dir)


def study_oracle(params: dict, seed: int, export: Path) -> tuple[str, Path | None]:
    """Run the grid serially in-process; return its digest and export.

    With an ``oracle_engine`` the serial run uses that engine and writes
    no export (configs then differ in their ``engine`` field, so only
    outcomes compare); without one it writes the export every measured
    export must equal up to wall time.
    """
    study = build_study(params, seed)
    if params["oracle_engine"] is not None:
        study.override(engine=params["oracle_engine"])
    result_set = study.run(jobs=1)
    outcomes = digest([record_outcome(r.to_dict()) for r in result_set])
    if params["oracle_engine"] is not None:
        return outcomes, None
    result_set.to_json(export)
    return outcomes, export
