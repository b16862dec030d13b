"""Seeded inputs for every workload, built with the program's own generator.

The benchmark derives every input from ``--seed``; the program only ever
receives the generated records.  The pipeline the serving workloads load
is fitted once on a fixed recipe (``SERVING_RECIPE``), so a run's seed
varies the served traffic, not the model.
"""

from __future__ import annotations

import heapq

from repro.config import LogSynergyConfig
from repro.logs import LogGenerator
from repro.logs.sequences import sliding_windows
from repro.logs.systems import PROFILES

__all__ = ["FAST_CONFIG", "WINDOW", "STEP", "FLEET", "SERVING_RECIPE",
           "FIT_RECIPE", "repeat_stream", "fleet_stream",
           "serving_fit_inputs", "fit_inputs"]

# The reduced LogSynergy model the repository's paper benchmarks use
# (benchmarks/common.py): every architectural ratio of §IV-A4 kept,
# widths shrunk for CPU training.
FAST_CONFIG = LogSynergyConfig(
    d_model=32, num_heads=4, num_layers=2, d_ff=64, feature_dim=16,
    embedding_dim=64, epochs=16, batch_size=64, learning_rate=5e-4,
    n_source=1000, n_target=100,
)
# The production window of §VI-A, which the runtime defaults to.
WINDOW, STEP = 10, 5
FLEET = tuple(PROFILES)  # all six built-in system profiles

# The served pipeline: Thunderbird target, BGL + Spirit sources.
SERVING_RECIPE = {
    "sources": ("bgl", "spirit"), "target": "thunderbird",
    "source_lines": 2500, "target_lines": 1005, "seed": 0,
}
# The offline fit replay-fleet's traced run measures: BGL is the target
# with the most anomalies (Table III), so the held-out predictions that
# seeded fits must repeat exactly include many anomalous windows.
FIT_RECIPE = {
    "sources": ("spirit", "thunderbird"), "target": "bgl",
    "source_lines": 2500, "target_lines": 8000, "target_train": 200,
}


def repeat_stream(seed: int, lines: int) -> list:
    """One repetitive system: the bench_deployment stream shape."""
    return LogGenerator("thunderbird", seed=seed,
                        repeat_probability=0.9).generate(lines)


def fleet_stream(seed: int, lines_per_system: int,
                 repeat_probability: float = 0.2) -> list:
    """All six systems, low repetition, interleaved by timestamp.

    Ties keep the profile order, so the interleaving is a pure function
    of the seed.
    """
    streams = [
        LogGenerator(name, seed=seed * len(FLEET) + offset,
                     repeat_probability=repeat_probability
                     ).generate(lines_per_system)
        for offset, name in enumerate(FLEET)
    ]
    return list(heapq.merge(*streams, key=lambda record: record.timestamp))


def _windows(system: str, seed: int, lines: int) -> list:
    return sliding_windows(LogGenerator(system, seed=seed).generate(lines),
                           window=WINDOW, step=STEP)


def serving_fit_inputs() -> tuple[dict, str, list]:
    """(sources, target system, target slice) of the served pipeline."""
    recipe = SERVING_RECIPE
    seed = recipe["seed"]
    sources = {name: _windows(name, seed + offset, recipe["source_lines"])
               for offset, name in enumerate(recipe["sources"])}
    target = _windows(recipe["target"], seed + len(sources),
                      recipe["target_lines"])
    return sources, recipe["target"], target


def fit_inputs(seed: int) -> tuple[dict, str, list, list]:
    """(sources, target system, target train slice, held-out target)."""
    recipe = FIT_RECIPE
    base = seed * 3
    sources = {name: _windows(name, base + offset, recipe["source_lines"])
               for offset, name in enumerate(recipe["sources"])}
    target = _windows(recipe["target"], base + 2, recipe["target_lines"])
    cut = recipe["target_train"]
    return sources, recipe["target"], target[:cut], target[cut:]
