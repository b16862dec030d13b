"""Reference figures: the fleet streams under every executor.

Usage, from the repository root::

    python3 perfbench/executors.py

Replays the seed-1 ``replay-fleet`` stream closed-loop and sends the
seed-1 ``serve-fleet`` stream open-loop through the sync engine (one
shard) and the thread and process executors (two shards), and prints
each one's median lines/s and alert latency percentiles over three
rounds.
These figures are not gated; they are what README.md records for the
keep-or-delete decision on the executors.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
ROUNDS = 3


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from reference import percentile, window_table

    pipeline_dir = workloads._serving_pipeline(ROOT)
    for name in ("replay-fleet", "serve-fleet"):
        spec = workloads.SERVING[name]
        records = spec.records(SEED)
        table = window_table(records)
        for executor, shards in (("sync", 1), ("thread", 2), ("process", 2)):
            if executor == "sync" and spec.rate is not None:
                continue  # the sync engine has no open-loop mode
            rates, latencies = [], []
            for _ in range(ROUNDS):
                workloads._fresh_round()
                round_ = workloads._serve_round(
                    pipeline_dir, records, executor=executor, shards=shards,
                    max_latency=spec.max_latency, rate=spec.rate)
                alerted, _ = workloads._verdicts(round_, records, table)
                rates.append(len(records) / round_.run_s)
                latencies += workloads._alert_latencies_ms(
                    round_, alerted, table).values()
            print(f"{name:<13} {executor:<8} shards={shards} "
                  f"lines/s={statistics.median(rates):8.0f} "
                  f"alert p50={percentile(latencies, 50):8.1f} ms "
                  f"p95={percentile(latencies, 95):8.1f} ms "
                  f"(alerts={len(latencies)})", flush=True)
    return 0


if __name__ == "__main__":
    from run import pin_environment, stop_helpers

    pin_environment(__file__)
    try:
        code = main()
    finally:
        stop_helpers()
    sys.exit(code)
