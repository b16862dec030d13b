"""Run one workload N times, one seed each, and report every metric's spread.

Usage, from the repository root::

    python3 perfbench/steady.py --workload replay-fleet --runs 10

Runs ``perfbench/run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), one after another, for the ``run_seconds``
that ``BENCHMARK.json`` gives, and prints for each
end-to-end metric its median, quartiles (``statistics.quantiles`` with
``n=4``) and spread, the quartile distance as a share of the median, next
to the bound ``BENCHMARK.json`` gives it.  It also prints the share of
failed operations, which must be the same in every run.  ``--out``
appends each run's result as one JSON line, to compare two sets later.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {completed.returncode}\n"
                         f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> str:
    from reference import quartile_spread

    rows = [f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'spread':>7} {'bound':>6}"]
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        first, median, third = quartile_spread(values)
        spread = (third - first) / median if median else float("nan")
        bound = bounds.get(name)
        rows.append(f"{name:<14} {median:>12.5g} {first:>12.5g} "
                    f"{third:>12.5g} {spread:>7.3f} "
                    f"{'' if bound is None else f'{bound:.2f}':>6}")
    shares = sorted({result["failed"] / result["attempted"]
                     for result in results})
    rows.append(f"failed share per run: {shares}")
    return "\n".join(rows)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to compute quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.monotonic()
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed} ({time.monotonic() - started:.1f} s): " + ", ".join(
            f"{name}={metric['value']:.5g}"
            for name, metric in result["metrics"].items()), flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload,
                                         "seed": seed, **result}) + "\n")
    print(summarize(results, bounds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
