"""Self-test of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

For each workload it checks that

1. ``BENCHMARK.json`` names exactly the workloads and metrics the code
   reports;
2. at the default seed, the pinned digest equals the oracle's -- for
   ``array_metropolis`` and ``object_churn`` the digest on *both*
   engines, for the studies a serial in-process run;
3. a traced run at the default seed and one at another seed end with
   ``correct: true``: every output matched its reference, tracing left
   the digest unchanged, and every count repeated exactly across the two
   traced passes.

On a digest mismatch it prints the digest it found, which is what to
write into ``pinned.json`` when a change is meant to alter results.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402 - needs the path entry above
from layers import PER_LAYER  # noqa: E402
from run import END_TO_END  # noqa: E402

sys.path.insert(0, str(wl.ROOT / "src"))
OTHER_SEED = 7


def check_manifest() -> list[str]:
    manifest = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in manifest["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in manifest["per_layer"]} != dict(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    return problems


def check_pins(names: list[str], scratch: Path) -> list[str]:
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text(encoding="utf-8"))
    problems = []
    for name in names:
        params, entry = wl.WORKLOADS[name], pinned[name]
        if entry["parameters"] != params:
            problems.append(
                f"{name}: pinned parameters {entry['parameters']} != {params}"
            )
        if name in wl.SIM_WORKLOADS:
            found = {engine: wl.sim_oracle(dict(params, oracle_engine=engine),
                                           wl.DEFAULT_SEED)
                     for engine in (params["engine"], params["oracle_engine"])}
        else:
            serial, _ = wl.study_oracle(dict(params, oracle_engine=None),
                                        wl.DEFAULT_SEED, scratch / f"{name}.json")
            found = {"serial": serial}
        for how, got in found.items():
            status = "ok" if got == entry["digest"] else "MISMATCH"
            print(f"{name} [{how}] {got} {status}")
            if got != entry["digest"]:
                problems.append(f"{name}: {how} digest differs from the pinned one")
    return problems


def check_traced_runs(names: list[str]) -> list[str]:
    problems = []
    for name in names:
        for seed in (wl.DEFAULT_SEED, OTHER_SEED):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                cwd=wl.ROOT, capture_output=True, text=True, timeout=200,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            ok = result is not None and result["correct"]
            print(f"{name} traced seed {seed}: {'ok' if ok else 'FAILED'}")
            if not ok:
                problems.append(
                    f"{name} traced run at seed {seed} failed:\n"
                    + "\n".join(lines[:-1] if lines else []) + done.stderr[-2000:]
                )
    return problems


def main() -> int:
    names = list(wl.WORKLOADS)
    scratch = wl.ROOT / ".perfbench" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    problems = check_manifest() + check_pins(names, scratch) + check_traced_runs(names)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
