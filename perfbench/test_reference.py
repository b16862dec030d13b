"""Unit tests for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from reference import (Window, expected_windows, f1_score, percentile,
                       quartile_spread, window_table, windows_covering)


@dataclass(frozen=True)
class _Record:
    system: str
    is_anomalous: bool = False


def test_expected_windows_formula():
    assert expected_windows(9, 10, 5) == 0
    assert expected_windows(10, 10, 5) == 1
    assert expected_windows(14, 10, 5) == 1
    assert expected_windows(15, 10, 5) == 2
    assert expected_windows(20_000, 10, 5) == 3999
    with pytest.raises(ValueError):
        expected_windows(10, 0, 5)


def test_window_table_single_system_labels_and_last_lines():
    records = [_Record("a", is_anomalous=(i == 12)) for i in range(20)]
    table = window_table(records, window=10, step=5)
    assert table == {
        "a:0": Window(label=False, last=9),
        "a:1": Window(label=True, last=14),
        "a:2": Window(label=True, last=19),
    }


def test_window_table_windows_each_system_over_its_own_lines():
    # a and b alternate: a's lines sit at even stream positions.
    records = [_Record("a" if i % 2 == 0 else "b", is_anomalous=(i == 3))
               for i in range(30)]
    table = window_table(records, window=10, step=5)
    assert sorted(table) == ["a:0", "a:1", "b:0", "b:1"]
    assert table["a:0"] == Window(label=False, last=18)
    assert table["a:1"] == Window(label=False, last=28)
    # b's line 1 is stream line 3: only b's first window covers it.
    assert table["b:0"] == Window(label=True, last=19)
    assert table["b:1"] == Window(label=False, last=29)
    per_system = {"a": 15, "b": 15}
    assert len(table) == sum(expected_windows(n, 10, 5)
                             for n in per_system.values())


def test_windows_covering_matches_brute_force():
    records = [_Record("a" if i % 3 else "b") for i in range(47)]
    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        positions.setdefault(record.system, []).append(index)
    for line in range(len(records)):
        expected = set()
        for system, indices in positions.items():
            for ordinal in range(expected_windows(len(indices), 10, 5)):
                if line in indices[ordinal * 5: ordinal * 5 + 10]:
                    expected.add(f"{system}:{ordinal}")
        assert windows_covering(records, [line]) == expected, line


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 25) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile(list(range(101)), 95) == 95.0
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_f1_score():
    assert f1_score({"a", "b"}, {"a", "b"}) == 1.0
    assert f1_score({"a", "c"}, {"a", "b"}) == 0.5
    assert f1_score(set(), {"a"}) == 0.0
    assert f1_score(set(), set()) == 1.0


def test_quartile_spread_uses_statistics_convention():
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
