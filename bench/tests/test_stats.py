import statistics

import pytest

from bench.stats import (
    highest_supported,
    latency_summary,
    percentile,
    quartiles,
    summarize,
    worse_by,
)


def test_quartiles_are_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)


def test_single_value_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert summarize([2.5]) == {
        "best": 2.5, "median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1,
    }
    assert summarize([3.0, 1.0, 2.0], "lower")["best"] == 1.0
    assert summarize([3.0, 1.0, 2.0], "higher")["best"] == 3.0
    with pytest.raises(ValueError):
        quartiles([])


def test_percentile_interpolates():
    ordered = [float(i) for i in range(101)]
    assert percentile(ordered, 50.0) == 50.0
    assert percentile(ordered, 99.0) == 99.0
    assert percentile([1.0, 2.0], 50.0) == 1.5
    assert percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [
        (5, None),  # not even the median has 10 samples beyond it
        (20, 50.0),
        (100, 90.0),  # exactly 10 beyond p90
        (999, 95.0),  # 9.99 beyond p99: not enough
        (1000, 99.0),
        (4000, 99.5),
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_supported(n) == expected


def test_latency_summary_names_its_tail_and_count():
    summary = latency_summary([float(i) for i in range(1000)])
    assert summary["n"] == 1000
    assert summary["tail_percentile"] == 99.0
    assert summary["p50"] == pytest.approx(499.5)
    assert summary["tail"] == pytest.approx(989.01)
    assert "tail" not in latency_summary([1.0, 2.0, 3.0])


def test_worse_by_respects_direction():
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert worse_by(100.0, 80.0, "higher") == pytest.approx(0.20)
