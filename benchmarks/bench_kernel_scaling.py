#!/usr/bin/env python3
"""Probe scaling benchmark: events/sec across populations.

Measures the object engine's hot path on the ``metropolis_100k`` workload
at a range of population scales:

* ``full_heap`` — every metric probe, message accounting: the
  full-instrumentation path (what every run paid before probe
  subscriptions existed);
* ``fast_heap`` — the scenario's tuned fast path (subscribed probes
  only, no message accounting).

Both run on the binary-heap event kernel, the only one; the ``kernel`` and
``fast_kernel`` fields of the export always read ``"heap"`` and stay in
the schema so older exports validate unchanged.

Results are printed and written to ``benchmarks/output/BENCH_kernel_scaling.json``
(schema ``repro.bench_kernel_scaling.v1``, validated by
``scripts/check_bench_json.py``).  When the pinned pre-refactor
measurement file ``benchmarks/baselines/pre_refactor_kernel_scaling.json``
is present, each scale also reports ``speedup_vs_pre_refactor`` — the
fast path against the historical single-heap monolithic-collector hot
path measured on the same machine class.

Usage::

    python benchmarks/bench_kernel_scaling.py            # full sweep (minutes)
    python benchmarks/bench_kernel_scaling.py --quick    # CI smoke (seconds)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # script-style invocation
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._version import __version__  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402
from repro.simulation.runner import run_simulation  # noqa: E402

SCHEMA = "repro.bench_kernel_scaling.v1"
SCENARIO = "metropolis_100k"
FULL_SCALES = (0.05, 0.1, 0.25, 1.0)
QUICK_SCALES = (0.02,)
BASELINE_PATH = REPO_ROOT / "benchmarks" / "baselines" / "pre_refactor_kernel_scaling.json"
DEFAULT_OUT = REPO_ROOT / "benchmarks" / "output" / "BENCH_kernel_scaling.json"


def load_baseline() -> dict[float, float]:
    """Pinned pre-refactor events/sec by scenario scale (empty if absent)."""
    if not BASELINE_PATH.exists():
        return {}
    data = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    return {
        float(run["scenario_scale"]): float(run["events_per_sec"])
        for run in data.get("runs", ())
    }


def measure(config, repeats: int) -> dict:
    """Best-of-``repeats`` throughput of one configuration."""
    best = None
    for _ in range(repeats):
        result = run_simulation(config)
        events_per_sec = result.events_processed / result.wall_seconds
        if best is None or events_per_sec > best["events_per_sec"]:
            best = {
                "events": result.events_processed,
                "wall_seconds": round(result.wall_seconds, 3),
                "events_per_sec": round(events_per_sec, 1),
            }
    return best


def run_bench(scales, repeats: int, quick: bool) -> dict:
    """Execute the sweep and assemble the JSON payload."""
    scenario = get_scenario(SCENARIO)
    baseline = load_baseline()
    runs = []
    speedups = []
    for scale in scales:
        fast_config = scenario.build_config(scale=scale)
        full_config = fast_config.replace(probes=None, track_messages=True)
        peers = fast_config.total_peers

        full = measure(full_config, repeats)
        runs.append({
            "scale": scale, "peers": peers, "mode": "full_heap",
            "engine": full_config.engine, "kernel": "heap", "probes": None,
            **full,
        })
        print(f"scale {scale:>5} ({peers} peers)  full_heap      "
              f"{full['events_per_sec']:>10,.0f} ev/s", flush=True)

        fast = measure(fast_config, repeats)
        runs.append({
            "scale": scale, "peers": peers, "mode": "fast_heap",
            "engine": fast_config.engine, "kernel": "heap",
            "probes": list(fast_config.probes or ()),
            **fast,
        })
        print(f"scale {scale:>5} ({peers} peers)  fast_heap      "
              f"{fast['events_per_sec']:>10,.0f} ev/s", flush=True)

        best = fast["events_per_sec"]
        pre = baseline.get(scale)
        speedups.append({
            "scale": scale,
            "peers": peers,
            "fast_kernel": "heap",
            "events_per_sec": best,
            "speedup_vs_full_heap": round(best / full["events_per_sec"], 2),
            "speedup_vs_pre_refactor": round(best / pre, 2) if pre else None,
        })
    return {
        "schema": SCHEMA,
        "version": __version__,
        "quick": quick,
        "scenario": SCENARIO,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "runs": runs,
        "speedups": speedups,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: one tiny scale instead of the sweep")
    parser.add_argument("--repeats", type=int, default=1,
                        help="measurements per configuration; best reported")
    parser.add_argument("--out", default=None,
                        help=f"output JSON path (default: {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    scales = QUICK_SCALES if args.quick else FULL_SCALES
    payload = run_bench(scales, repeats=max(1, args.repeats), quick=args.quick)

    out_path = Path(args.out) if args.out else DEFAULT_OUT
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out_path}")
    for entry in payload["speedups"]:
        vs_pre = entry["speedup_vs_pre_refactor"]
        print(f"scale {entry['scale']:>5}: fast path "
              f"{entry['events_per_sec']:,.0f} ev/s — "
              f"{entry['speedup_vs_full_heap']:.2f}x vs full/heap"
              + (f", {vs_pre:.2f}x vs pre-refactor" if vs_pre else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
