"""Fault-injection helpers: real worker subprocesses you can SIGKILL.

The crash-safety contract of :mod:`repro.orchestration.shard` is about
*processes dying*, so these helpers spawn genuine ``sys.executable``
subprocesses running the real claim-and-execute path against a shared
store, with hooks to freeze them at precise points (so a SIGKILL lands
deterministically mid-run) and to log every executed spec (so tests can
assert exactly-once execution).

The worker body is a generated script, parameterized by a JSON blob, so
subprocesses need nothing importable beyond ``repro`` itself.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: the subprocess body; parameters arrive as one JSON argv entry
_WORKER_SCRIPT = """
import json, sys, time
from pathlib import Path

params = json.loads(sys.argv[1])
from repro.orchestration.shard import ClaimRegistry, shard_run
from repro.orchestration.store import ResultStore
from repro.orchestration.study import RunRecord, Study
from repro.orchestration.batch import run_batch

study = Study.from_scenario(
    params["scenario"], scale=params["scale"]
).seeds(params["seeds"])
store = ResultStore(params["store"])

def touch(name):
    Path(params["store"], name).write_text("", encoding="utf-8")

if params.get("start_barrier"):
    # Spin until the parent releases every worker at once, so their
    # critical sections overlap instead of running back to back.
    deadline = time.time() + 30
    while not Path(params["start_barrier"]).exists():
        if time.time() > deadline:
            raise SystemExit("start barrier never appeared")
        time.sleep(0.005)

if params["mode"] == "hold":
    # Claim every spec, signal readiness, then freeze: the parent
    # SIGKILLs us while the leases are live, exactly as an OOM kill
    # would land on a worker mid-simulation.
    claims = ClaimRegistry.for_store(
        store, owner=params["owner"], lease_seconds=params["lease"]
    )
    for spec in study.specs():
        claims.try_claim(spec.spec_hash)
    touch(f"ready-{params['owner']}")
    time.sleep(600)
elif params["mode"] == "run":
    # The real cooperative path: claim-batch 1 so concurrent workers
    # interleave spec by spec instead of one grabbing the whole grid.
    report = shard_run(
        study, store,
        owner=params["owner"],
        lease_seconds=params["lease"],
        claim_batch=1,
        executed_log=params["executed_log"],
    )
    touch(f"done-{params['owner']}")
elif params["mode"] == "put":
    # Write one record over and over, as two workers that both ran a
    # spec after its lease expired would.
    record = RunRecord.from_dict(
        json.loads(Path(params["record"]).read_text(encoding="utf-8"))
    )
    for _ in range(params["puts"]):
        store.put(record)
    touch(f"done-{params['owner']}")
else:
    raise SystemExit(f"unknown mode {params['mode']!r}")
"""


def tiny_study_params(
    store: Path,
    owner: str,
    mode: str = "run",
    seeds: int = 4,
    lease: float = 60.0,
    start_barrier: Path | None = None,
) -> dict:
    """Parameter blob for a small (~0.2 s/spec) quickstart-grid worker."""
    return {
        "scenario": "quickstart",
        "scale": 0.02,
        "seeds": seeds,
        "store": str(store),
        "owner": owner,
        "mode": mode,
        "lease": lease,
        "executed_log": str(store / f"exec-log-{owner}.txt"),
        "start_barrier": str(start_barrier) if start_barrier else None,
    }


def spawn_worker(params: dict) -> subprocess.Popen:
    """Launch one real worker subprocess against the shared store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(SRC)
    )
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER_SCRIPT, json.dumps(params)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def sigkill(worker: subprocess.Popen) -> None:
    """SIGKILL a worker — no cleanup handlers run, like a real crash."""
    worker.send_signal(signal.SIGKILL)
    worker.wait(timeout=30)


def wait_for(path: Path, timeout: float = 30.0) -> None:
    """Block until a marker file appears (worker-side progress signals)."""
    deadline = time.time() + timeout
    while not path.exists():
        if time.time() > deadline:
            raise TimeoutError(f"marker {path} never appeared")
        time.sleep(0.01)


def drain(worker: subprocess.Popen, timeout: float = 120.0) -> str:
    """Wait for a worker to exit cleanly; returns stderr for diagnostics."""
    _, stderr = worker.communicate(timeout=timeout)
    text = stderr.decode(errors="replace")
    assert worker.returncode == 0, (
        f"worker exited {worker.returncode}:\n{text}"
    )
    return text


def executed_hashes(log: Path) -> list[str]:
    """Spec hashes from an executed-spec log, in append order."""
    if not log.exists():
        return []
    return [
        line.split()[1]
        for line in log.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
