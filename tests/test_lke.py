"""Unit tests for the LKE parser."""

import math

import pytest

from repro.common.errors import ParserConfigurationError
from repro.parsers import Lke
from repro.parsers.lke import (
    _weight_table,
    _weighted_edit_distance,
    estimate_threshold_two_means,
)


class TestConfiguration:
    def test_rejects_split_threshold_below_two(self):
        with pytest.raises(ParserConfigurationError):
            Lke(split_threshold=1)

    def test_rejects_negative_distance_threshold(self):
        with pytest.raises(ParserConfigurationError):
            Lke(distance_threshold=-0.5)

    def test_rejects_tiny_threshold_sample(self):
        with pytest.raises(ParserConfigurationError):
            Lke(threshold_sample=1)


class TestWeightTable:
    def test_decreasing(self):
        values = _weight_table(10, 10)
        assert values == sorted(values, reverse=True)

    def test_bounded(self):
        assert all(0 < weight < 1 for weight in _weight_table(8, 12))

    def test_midpoint_is_half(self):
        assert _weight_table(10, 10)[5] == pytest.approx(0.5)


class TestWeightedEditDistance:
    def test_identical_is_zero(self):
        assert _weighted_edit_distance(("a", "b"), ("a", "b")) == 0.0

    def test_symmetric(self):
        a, b = ("x", "y", "z"), ("x", "q")
        assert _weighted_edit_distance(a, b) == pytest.approx(
            _weighted_edit_distance(b, a)
        )

    def test_head_edits_cost_more_than_tail_edits(self):
        base = tuple("abcdefgh")
        head = ("X",) + base[1:]
        tail = base[:-1] + ("X",)
        assert _weighted_edit_distance(base, head) > _weighted_edit_distance(
            base, tail
        )

    def test_bound_early_abandon_returns_inf(self):
        a = tuple("aaaaaaaa")
        b = tuple("bbbbbbbb")
        assert math.isinf(_weighted_edit_distance(a, b, bound=0.1))

    def test_bound_does_not_change_small_distances(self):
        a = ("open", "file", "x")
        b = ("open", "file", "y")
        exact = _weighted_edit_distance(a, b)
        assert _weighted_edit_distance(a, b, bound=10.0) == exact

    def test_empty_sequences(self):
        assert _weighted_edit_distance((), ()) == 0.0
        assert _weighted_edit_distance((), ("a",)) > 0


class TestThresholdEstimate:
    def test_bimodal_split(self):
        distances = [0.1, 0.2, 0.15, 5.0, 5.2, 4.9]
        threshold = estimate_threshold_two_means(distances)
        assert 0.2 < threshold < 4.9

    def test_empty(self):
        assert estimate_threshold_two_means([]) == 0.0

    def test_constant_distances(self):
        threshold = estimate_threshold_two_means([1.0, 1.0, 1.0])
        assert threshold >= 1.0


class TestClustering:
    def test_clusters_same_event(self):
        # Parameters carry digits (host ids, durations) as real log
        # parameters do; LKE's splitting heuristic leaves digit-bearing
        # columns alone.
        contents = [
            "connection accepted from host h101",
            "connection accepted from host h202",
            "connection accepted from host h303",
            "database checkpoint completed in 42 ms",
            "database checkpoint completed in 99 ms",
            # A singleton event gives the nearest-neighbour threshold
            # estimate its "is its own event" mode.
            "kernel panic at address 0xdeadbeef now",
        ]
        result = Lke(seed=1).parse_contents(contents)
        assert result.assignments[0] == result.assignments[1] == (
            result.assignments[2]
        )
        assert result.assignments[3] == result.assignments[4]
        assert result.assignments[0] != result.assignments[3]

    def test_deduplication_preserves_line_count(self):
        contents = ["same event here"] * 7 + ["another event now"] * 3
        result = Lke(seed=1).parse_contents(contents)
        assert len(result.assignments) == 10
        assert len(set(result.assignments)) == 2

    def test_fixed_threshold_skips_estimation(self):
        contents = ["a b 1", "a b 2", "x y 9000"]
        result = Lke(distance_threshold=0.8, seed=1).parse_contents(contents)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[0] != result.assignments[2]

    def test_zero_threshold_keeps_uniques_apart(self):
        contents = ["a b 1", "a b 2", "a b 1"]
        result = Lke(distance_threshold=0.0, seed=1).parse_contents(contents)
        assert result.assignments[0] == result.assignments[2]
        assert result.assignments[0] != result.assignments[1]

    def test_empty_input(self):
        assert len(Lke(seed=1).parse([])) == 0

    def test_single_message(self):
        result = Lke(seed=1).parse_contents(["lonely line"])
        assert result.assignments == ["E1"]

    def test_splitting_separates_symbolic_constants(self):
        # One merged cluster mixing "up"/"down" at a constant position
        # must be split; the numeric id column must not be split on.
        contents = [f"node n{i} is up" for i in range(6)] + [
            f"node n{i} is down" for i in range(6)
        ]
        result = Lke(distance_threshold=1.0, seed=1).parse_contents(contents)
        assert result.assignments[0] != result.assignments[6]

    def test_digit_values_not_split(self):
        contents = [f"generating core.{c}" for c in (256, 512)] * 5
        result = Lke(distance_threshold=1.0, seed=1).parse_contents(contents)
        assert len(set(result.assignments)) == 1

    def test_template_uses_common_skeleton(self):
        contents = ["load module mod1 ok", "load module mod2 ok"]
        result = Lke(distance_threshold=1.5, seed=1).parse_contents(contents)
        assert len(result.events) == 1
        assert result.events[0].template == "load module * ok"

    def test_runs_reproducible_with_seed(self):
        contents = [f"evt {i % 4} payload {i}" for i in range(40)]
        a = Lke(seed=9).parse_contents(contents)
        b = Lke(seed=9).parse_contents(contents)
        assert a.assignments == b.assignments
