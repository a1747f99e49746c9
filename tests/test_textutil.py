"""Unit tests for repro.common.textutil."""

import pytest

from repro.common.textutil import format_table, longest_common_subsequence


class TestLcs:
    def test_common_skeleton(self):
        a = ["open", "file", "a", "now"]
        b = ["open", "x", "file", "now"]
        assert longest_common_subsequence(a, b) == ["open", "file", "now"]

    def test_no_common(self):
        assert longest_common_subsequence(["a"], ["b"]) == []

    def test_identical(self):
        assert longest_common_subsequence(["a", "b"], ["a", "b"]) == ["a", "b"]

    def test_subsequence_not_substring(self):
        assert longest_common_subsequence(
            ["a", "x", "b"], ["a", "b"]
        ) == ["a", "b"]

    def test_empty_input(self):
        assert longest_common_subsequence([], ["a"]) == []

    def test_length_is_symmetric(self):
        a = ["p", "q", "r", "s"]
        b = ["q", "s", "p"]
        assert len(longest_common_subsequence(a, b)) == len(
            longest_common_subsequence(b, a)
        )


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "a" in lines[2]
        assert "22" in lines[3]

    def test_pads_columns(self):
        text = format_table(["h"], [["long-cell"]])
        header, rule, row = text.splitlines()
        assert len(rule) == len(row)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])
