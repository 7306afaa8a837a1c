"""Child process of :mod:`run`: one role, one workload, JSON out.

Usage: ``python perfbench/worker.py ROLE WORKLOAD SEED SECONDS SCRATCH OUT
[REFERENCE_DIGEST [REFERENCE_EXPORT]]`` with ``src`` on ``PYTHONPATH``.

Roles:

* ``oracle`` -- the reference result: the other engine for a simulation
  workload, a serial in-process run (and its export) for a study.
* ``measure`` -- timed passes for ``SECONDS``, tracing off, with every
  time read in reference seconds by a :class:`speed.SpeedProbe`.  This
  process runs nothing but the workload, so its peak memory at the end
  of the first pass is the workload's.
* ``trace`` -- one untraced pass, then two traced passes whose exact
  counts must agree and whose outputs must equal the untraced one.

Every pass's output is checked against the reference digest (and, for
studies, the reference export); a mismatch or an exception counts as
failed and is named in ``failures``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import workloads as wl
from speed import SpeedProbe

#: extra set-up-only constructions per simulation run, for a steadier median
EXTRA_SETUPS = 4
#: fresh interpreters timed for ``cli.import_s``
IMPORT_REPEATS = 5


class Ledger:
    """Attempted and failed outputs, with each failure named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, count: int, body):
        """Run ``body``; ``count`` outputs attempted, all failed if it raises."""
        self.attempted += count
        try:
            return body()
        except Exception as exc:  # noqa: BLE001 - every failure is counted and named
            self.failed += count
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.failures.append(f"{label}: {detail}")
            return None


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _events_per_s(records: list[dict], factor: float) -> float:
    """Simulated events per second of run time, over a study's records,
    whose wall times are scaled by the clock's factor over the runs."""
    return (sum(r["events_processed"] for r in records)
            / (sum(r["wall_seconds"] for r in records) * factor))


def _expect(actual: str, reference: str | None, what: str) -> None:
    if reference is not None and actual != reference:
        raise wl.CheckFailed(
            f"{what} digest {actual[:16]} != reference {reference[:16]}"
        )


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def oracle(workload: str, seed: int, scratch: Path) -> dict:
    if workload in wl.SIM_WORKLOADS:
        return {"digest": wl.sim_oracle(wl.SIM_WORKLOADS[workload], seed)}
    found, export = wl.study_oracle(wl.STUDY_WORKLOADS[workload], seed,
                                    scratch / "serial.json")
    return {"digest": found, "export": str(export) if export else None}


# ----------------------------------------------------------------------
# one pass of a workload (shared by measure and trace)
# ----------------------------------------------------------------------
def run_pass(workload: str, seed: int, cli: wl.Cli, scratch: Path, tag: str,
             reference: str | None, reference_export: Path | None,
             tracer=None, trace_dir: Path | None = None) -> dict:
    """One pass, checked; returns its timings, outcomes and digest."""
    repeats = wl.CACHED_REPEATS[workload]
    start = perf_counter()
    if workload in wl.SIM_WORKLOADS:
        params = wl.SIM_WORKLOADS[workload]
        run = wl.simulate(params, seed, tracer, cli.clock)
        run_digest = wl.digest([run["outcome"]])
        _expect(run_digest, reference, "run")
        cached = wl.sim_cached(params, seed, run, cli, scratch, repeats, trace_dir)
        return {
            "wall_s": [run["setup_s"] + run["dispatch_s"]],
            "setup_s": [run["setup_s"]],
            "events_per_s": [run["events"] / run["dispatch_s"]],
            "study_cached_s": cached,
            "outcomes": [run["outcome"]],
            "digest": run_digest,
            "pass_s": perf_counter() - start,
        }
    result = wl.study_pass(workload, seed, cli, scratch, tag, repeats, tracer,
                           trace_dir)
    records = wl.load_export(result["export"])
    outcomes = [wl.record_outcome(r) for r in records]
    run_digest = wl.digest(outcomes)
    _expect(run_digest, reference, "export")
    if reference_export is not None:
        wl.compare_exports(result["export"], reference_export)
    return {
        "wall_s": [result["wall_s"]],
        "setup_s": result["setup_s"],
        "events_per_s": [_events_per_s(records, result["factor"])],
        "study_cached_s": result["cached_s"],
        "outcomes": outcomes,
        "digest": run_digest,
        "specs": len(records),
        "pass_s": perf_counter() - start,
    }


def _outputs(workload: str) -> int:
    """Outputs one pass checks: a run, or every spec of a study export."""
    if workload in wl.SIM_WORKLOADS:
        return 1
    params = wl.STUDY_WORKLOADS[workload]
    sweep = len(params["sweep"]) - 1 if params["sweep"] else 1
    return len(params["protocols"]) * sweep * params["seeds"]


# ----------------------------------------------------------------------
# measure
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, scratch: Path,
            reference: str | None, reference_export: Path | None) -> dict:
    ledger = Ledger()
    samples: dict[str, list[float]] = {
        "wall_s": [], "setup_s": [], "events_per_s": [], "study_cached_s": [],
    }
    start = monotonic()
    passes = 0
    peak_rss_mb = None
    pass_s = []
    with SpeedProbe() as clock:
        cli = wl.Cli(scratch, clock)
        while passes < 3 or monotonic() - start < seconds:
            result = ledger.check(
                f"pass {passes}", _outputs(workload),
                lambda: run_pass(workload, seed, cli, scratch, str(passes),
                                 reference, reference_export),
            )
            passes += 1
            if result is not None:
                for name in samples:
                    samples[name].extend(result[name])
                pass_s.append(result["pass_s"])
                # later passes would add this process's leftovers
                peak_rss_mb = peak_rss_mb or _peak_rss_mb()
            if passes >= 3 and ledger.failed == ledger.attempted:
                break  # nothing works; do not spin until the deadline
        if workload in wl.SIM_WORKLOADS:
            params = wl.SIM_WORKLOADS[workload]
            for index in range(EXTRA_SETUPS):
                setup = ledger.check(f"set-up {index}", 0,
                                     lambda: wl.sim_setup(params, seed, clock))
                if setup is not None:
                    samples["setup_s"].append(setup)
        speed_factor = clock.factor(start, monotonic())
    return {
        "samples": samples,
        "passes": passes,
        "pass_s": pass_s,
        "speed_factor": speed_factor,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
    }


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _import_seconds() -> float:
    """Median time for a fresh interpreter to ``import repro``."""
    env = dict(os.environ, PYTHONPATH=str(wl.ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import repro"], cwd=wl.ROOT, env=env,
                       check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def traced_pass(workload: str, seed: int, cli: wl.Cli, scratch: Path, tag: str,
                reference: str | None, reference_export: Path | None):
    """One pass with every seam wrapped; returns (pass result, tracer, report)."""
    from tracing import (
        Tracer, install_construction, install_orchestration, merge_reports,
    )

    tracer = Tracer()
    trace_dir = scratch / f"trace-{tag}"
    trace_dir.mkdir()
    undo = [install_construction(tracer), install_orchestration(tracer)]
    try:
        with tracer.span("pass"):
            result = run_pass(workload, seed, cli, scratch, tag, reference,
                              reference_export, tracer, trace_dir)
    finally:
        for restore in undo:
            restore()
    reports = [tracer.report()] + [
        json.loads(path.read_text()) for path in sorted(trace_dir.glob("*.json"))
    ]
    return result, tracer, merge_reports(reports)


def trace(workload: str, seed: int, scratch: Path, out: Path,
          reference: str | None, reference_export: Path | None) -> dict:
    from layers import exact_counts, layer_metrics

    cli = wl.Cli(scratch)
    ledger = Ledger()
    outputs = _outputs(workload)
    plain = ledger.check("untraced pass", outputs,
                         lambda: run_pass(workload, seed, cli, scratch, "plain",
                                          reference, reference_export))
    traced = []
    for tag in ("traced-a", "traced-b"):
        got = ledger.check(
            tag, outputs,
            lambda: traced_pass(workload, seed, cli, scratch, tag, reference,
                                reference_export),
        )
        if got is not None:
            traced.append(got)
    if plain is None or len(traced) < 2:
        return {"layers": None, "attempted": ledger.attempted,
                "failed": ledger.failed, "failures": ledger.failures}
    (first, tracer, report), (second, _, report_b) = traced

    def same_outputs() -> None:
        if not (plain["digest"] == first["digest"] == second["digest"]):
            raise wl.CheckFailed("tracing changed the result digest")

    def same_counts() -> None:
        counts_a, counts_b = (exact_counts(r, p["outcomes"])
                              for r, p in ((report, first), (report_b, second)))
        differing = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        if differing:
            raise wl.CheckFailed(f"counts differ between traced passes: {differing}")

    ledger.check("tracing leaves the digest unchanged", 1, same_outputs)
    ledger.check("traced counts repeat exactly", 1, same_counts)
    tracer.write_spans(out.with_name(out.stem + "-spans.npz"))
    metrics = layer_metrics(
        report, first["outcomes"],
        import_s=_import_seconds(),
        overhead_s=first["pass_s"] - plain["pass_s"],
    )
    return {"layers": metrics, "attempted": ledger.attempted,
            "failed": ledger.failed, "failures": ledger.failures,
            "untraced_pass_s": plain["pass_s"], "traced_pass_s": first["pass_s"]}


def main(argv: list[str]) -> int:
    role, workload, seed, seconds, scratch, out, *rest = argv
    seed, seconds, scratch, out = int(seed), float(seconds), Path(scratch), Path(out)
    reference = rest[0] if rest and rest[0] != "-" else None
    reference_export = Path(rest[1]) if len(rest) > 1 else None
    if role == "oracle":
        payload = oracle(workload, seed, scratch)
    elif role == "measure":
        payload = measure(workload, seed, seconds, scratch, reference, reference_export)
    else:
        payload = trace(workload, seed, scratch, out, reference, reference_export)
    out.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
