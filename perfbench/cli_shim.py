"""Run the ``repro`` command line as a user would, with two optional hooks.

Usage: ``python perfbench/cli_shim.py <repro CLI arguments...>`` with
``src`` on ``PYTHONPATH``.  It behaves exactly like ``python -m repro``.

* ``PERFBENCH_SPEC_LOG=FILE``: each process that executes a spec (the
  CLI process itself, or each pool worker it forks) appends the
  system-wide monotonic time at which its first spec started.  The
  benchmark reads the earliest line as "first spec executes".
* ``PERFBENCH_TRACE=FILE``: orchestration spans and counters of this
  process are recorded and written to ``FILE`` as JSON on exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _mark_first_spec(log_path: str) -> None:
    from repro.orchestration import batch

    run_simulation = batch.run_simulation
    marked = [False]

    def run_and_mark(config, *args, **kwargs):
        # pool workers are forked after this patch, so each inherits
        # ``marked == [False]`` and logs its own first spec once
        if not marked[0]:
            marked[0] = True
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(f"{time.monotonic()!r}\n")
        return run_simulation(config, *args, **kwargs)

    batch.run_simulation = run_and_mark


def main(argv: list[str]) -> int:
    spec_log = os.environ.get("PERFBENCH_SPEC_LOG")
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer, install_orchestration

        tracer = Tracer()
        install_orchestration(tracer)
    if spec_log:
        _mark_first_spec(spec_log)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if tracer is not None:
            Path(trace_path).write_text(json.dumps(tracer.report()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
