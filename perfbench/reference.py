"""Reference computations the benchmark checks the program against.

Everything here is computed from the generated records alone, apart
from the program under test: which windows the runtime must produce,
which of them are anomalous, which line closes each window, and the
order statistics the latency metrics are reported with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Window", "expected_windows", "window_table", "windows_covering",
           "percentile", "f1_score", "quartile_spread"]


@dataclass(frozen=True)
class Window:
    """One sliding window of one system's lines, as the runtime forms it."""

    label: bool   # any of its lines is labelled anomalous by the generator
    last: int     # stream index of the line that completes the window


def expected_windows(lines: int, window: int, step: int) -> int:
    """Windows a system of ``lines`` lines yields: floor((n - w) / s) + 1."""
    if window <= 0 or step <= 0:
        raise ValueError("window and step must be positive")
    if lines < window:
        return 0
    return (lines - window) // step + 1


def window_table(records, window: int = 10, step: int = 5) -> dict[str, Window]:
    """Map every window id ``"<system>:<ordinal>"`` to its label and last line.

    Each system is windowed over its own lines in stream order, so
    window ``k`` of a system covers that system's lines ``k*step`` to
    ``k*step + window - 1``, wherever they sit in the interleaved stream.
    """
    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        positions.setdefault(record.system, []).append(index)
    table: dict[str, Window] = {}
    for system, indices in positions.items():
        for ordinal in range(expected_windows(len(indices), window, step)):
            span = indices[ordinal * step: ordinal * step + window]
            table[f"{system}:{ordinal}"] = Window(
                label=any(records[i].is_anomalous for i in span),
                last=span[-1],
            )
    return table


def windows_covering(records, indices, window: int = 10,
                     step: int = 5) -> set[str]:
    """Ids of the windows that contain any of the stream lines ``indices``."""
    wanted = set(indices)
    position: dict[str, int] = {}
    covering: set[str] = set()
    for index, record in enumerate(records):
        offset = position.get(record.system, 0)
        position[record.system] = offset + 1
        if index in wanted:
            # Window k spans the system's lines k*step .. k*step+window-1.
            first = max(0, -(-(offset - window + 1) // step))
            covering.update(f"{record.system}:{k}"
                            for k in range(first, offset // step + 1))
    table = window_table(records, window, step)
    return {window_id for window_id in covering if window_id in table}


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def f1_score(predicted, positives) -> float:
    """F1 of a predicted id set against the set of truly positive ids."""
    predicted, positives = set(predicted), set(positives)
    true_positive = len(predicted & positives)
    denominator = len(predicted) + len(positives)
    return 2.0 * true_positive / denominator if denominator else 1.0


def quartile_spread(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles``
    reports them with ``n=4``, the convention the bounds are set with."""
    import statistics

    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third
