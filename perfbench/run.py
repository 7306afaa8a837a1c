"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload array_metropolis --seed 1 --seconds 16 --trace 0

``--trace 0`` times passes of the workload for ``--seconds`` with tracing
off and prints every end-to-end metric; ``--trace 1`` makes one
untraced and two traced passes and prints every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file
stamped with provenance lands in ``.perfbench/results/``; the traced
run's spans land next to it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import (  # noqa: E402 - needs the path entry above
    DEFAULT_SEED, JOBS, ROOT, SIM_WORKLOADS, STUDY_WORKLOADS, WORKLOADS,
)

OUT_DIR = ROOT / ".perfbench"
#: a run must end within this many seconds
RUN_BUDGET = 175.0
#: end-to-end metric -> unit (``BENCHMARK.json`` lists the same)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "study_cached_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child(role: str, workload: str, seed: int, seconds: float, scratch: Path,
           reference: str | None, reference_export: str | None,
           deadline: float) -> dict:
    """Run :mod:`worker` in a fresh interpreter; returns its JSON payload."""
    out = scratch / f"{role}.json"
    command = [sys.executable, str(BENCH_DIR / "worker.py"), role, workload,
               str(seed), str(seconds), str(scratch), str(out), reference or "-"]
    if reference_export:
        command.append(reference_export)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # its own process group: on timeout the worker, the commands it
    # launched and their pool workers are killed together
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, command)
    return json.loads(out.read_text(encoding="utf-8"))


def _source_digest() -> str:
    """SHA-256 over every file under ``src`` (path and bytes, sorted)."""
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "host": platform.node(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": JOBS[args.workload],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": WORKLOADS[args.workload],
    }


def _reference(workload: str, seed: int, scratch: Path, deadline: float,
               failures: list[str]) -> tuple[str | None, str | None]:
    """Reference digest (pinned at the default seed, else the oracle's) and,
    for studies, the serial export every export must equal."""
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))
    expected = None
    if seed == DEFAULT_SEED:
        entry = pinned[workload]
        if entry["parameters"] != WORKLOADS[workload]:
            failures.append(
                f"{workload}: pinned digest was taken with other parameters"
            )
        expected = entry["digest"]
    if expected is not None and (
        workload in SIM_WORKLOADS or STUDY_WORKLOADS[workload]["oracle_engine"]
    ):
        return expected, None
    oracle = _child("oracle", workload, seed, 0, scratch, None, None, deadline)
    if expected is not None and oracle["digest"] != expected:
        failures.append(f"{workload}: serial oracle digest differs from the pinned one")
    return expected or oracle["digest"], oracle.get("export")


def _metrics(measured: dict, attempted: int, failed: int) -> dict:
    samples = measured["samples"]
    values = {name: statistics.median(got) for name, got in samples.items() if got}
    if measured["peak_rss_mb"] is not None:
        values["peak_rss_mb"] = measured["peak_rss_mb"]
    values["ok_ratio"] = (attempted - failed) / attempted
    return {name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END if name in values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")

    deadline = time.monotonic() + RUN_BUDGET
    scratch = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    failures: list[str] = []
    try:
        reference, reference_export = _reference(
            args.workload, args.seed, scratch, deadline, failures
        )
        role = "trace" if args.trace else "measure"
        payload = _child(role, args.workload, args.seed, args.seconds, scratch,
                         reference, reference_export, deadline)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        return _fail(f"{args.workload} could not be measured: {exc!r}")
    finally:
        spans = scratch / f"{'trace' if args.trace else 'measure'}-spans.npz"
        results = OUT_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans.exists():
            shutil.move(spans, results / f"{stem}-spans.npz")
        shutil.rmtree(scratch, ignore_errors=True)

    # each failed reference check above counts as one failed output
    failed = payload["failed"] + len(failures)
    attempted = payload["attempted"] + len(failures)
    failures += payload["failures"]
    metrics = (payload["layers"] if args.trace
               else _metrics(payload, attempted, failed))
    if not metrics:
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return _fail(f"{args.workload}: no pass completed, nothing to report")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {"provenance": provenance(args), "result": result, "failures": failures,
              "detail": {k: v for k, v in payload.items() if k != "layers"}}
    (OUT_DIR / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8"
    )
    for failure in failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
