"""Real-pipeline benchmark of the LogSynergy reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-repeat --seed 1 --seconds 25 --trace 0

Workloads: ``replay-repeat``, ``replay-fleet`` and ``serve-fleet`` (see
README.md in this directory).  The last line of standard output is one
JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer ones.  A
failed whole-run check prints the reason to standard error and exits 1
with no result; a missing program exits 2.

The benchmark pins BLAS to one thread and fixes the hash seed by
re-executing itself with those variables set, so every run of every
commit sees the same interpreter settings.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def pin_environment(script: str) -> None:
    """Re-exec ``script`` once with the pinned variables in place."""
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    env = {**os.environ, **PINNED_ENV}
    os.execve(sys.executable, [sys.executable, str(Path(script).resolve()),
                               *sys.argv[1:]], env)


def stop_helpers() -> None:
    """Stop and reap every process this run started.

    The process executor's workers are joined by ``runtime.stop``, but
    its shared-memory weight broadcast starts multiprocessing's resource
    tracker, which otherwise outlives this process until it notices the
    exit.  Closing the tracker's pipe ends it, and it is waited for here.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, CheckFailed, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, ROOT, args.seed, args.seconds,
                              bool(args.trace))
    except CheckFailed as failure:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment(__file__)
    try:
        code = main(sys.argv[1:])
    finally:
        stop_helpers()
    sys.exit(code)
