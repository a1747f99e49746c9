"""Cross-module property-based tests (hypothesis)."""

import math

from hypothesis import given, settings, strategies as st

from repro.common.textutil import longest_common_subsequence
from repro.common.tokenize import (
    template_from_cluster,
    template_matches,
    render_template,
    tokenize,
)
from repro.parsers import Iplom, LogSig, Slct
from repro.parsers.lke import (
    _weighted_edit_distance,
    estimate_threshold_two_means,
)

token = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=5,
)
token_list = st.lists(token, min_size=0, max_size=8)
corpus = st.lists(
    st.sampled_from(
        [
            "open file alpha",
            "open file beta",
            "close file alpha now",
            "close file beta now",
            "error code 1",
            "error code 2",
        ]
    ),
    min_size=1,
    max_size=40,
)


class TestWeightedDistanceProperties:
    @given(token_list)
    def test_identity(self, tokens):
        assert _weighted_edit_distance(tuple(tokens), tuple(tokens)) == 0.0

    @given(token_list, token_list)
    def test_non_negative(self, a, b):
        assert _weighted_edit_distance(tuple(a), tuple(b)) >= 0.0

    @given(token_list, token_list)
    def test_bound_consistency(self, a, b):
        exact = _weighted_edit_distance(tuple(a), tuple(b))
        bounded = _weighted_edit_distance(tuple(a), tuple(b), bound=exact)
        assert bounded == exact or math.isinf(bounded)


class TestLcsProperties:
    @given(token_list, token_list)
    def test_lcs_no_longer_than_either(self, a, b):
        lcs = longest_common_subsequence(a, b)
        assert len(lcs) <= min(len(a), len(b))

    @given(token_list)
    def test_lcs_with_self_is_self(self, tokens):
        assert longest_common_subsequence(tokens, tokens) == tokens

    @given(token_list, token_list)
    def test_lcs_is_subsequence_of_both(self, a, b):
        lcs = longest_common_subsequence(a, b)

        def is_subsequence(needle, haystack):
            iterator = iter(haystack)
            return all(item in iterator for item in needle)

        assert is_subsequence(lcs, a)
        assert is_subsequence(lcs, b)


class TestTemplateProperties:
    @given(st.lists(token_list.filter(lambda t: len(t) == 4), min_size=1,
                    max_size=6))
    def test_cluster_template_matches_all_members(self, cluster):
        template = render_template(template_from_cluster(cluster))
        for member in cluster:
            content = render_template(member)
            if "*" not in content:  # wildcard tokens in input are untestable
                assert template_matches(template, content)


class TestThresholdEstimateProperties:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                    max_size=50))
    def test_threshold_within_range(self, distances):
        threshold = estimate_threshold_two_means(distances)
        assert min(distances) <= threshold <= max(distances) + 1e-6


class TestParserContracts:
    @given(corpus)
    @settings(max_examples=25, deadline=None)
    def test_slct_assigns_every_line(self, contents):
        result = Slct(support=2).parse_contents(contents)
        assert len(result.assignments) == len(contents)

    @given(corpus)
    @settings(max_examples=25, deadline=None)
    def test_iplom_assigns_every_line_no_outliers(self, contents):
        result = Iplom().parse_contents(contents)
        assert len(result.assignments) == len(contents)
        assert "OUTLIER" not in result.assignments

    @given(corpus)
    @settings(max_examples=15, deadline=None)
    def test_logsig_group_count_bounded(self, contents):
        result = LogSig(groups=3, seed=1).parse_contents(contents)
        assert len(result.events) <= 3

    @given(corpus)
    @settings(max_examples=15, deadline=None)
    def test_identical_lines_share_cluster_iplom(self, contents):
        result = Iplom().parse_contents(contents)
        by_content: dict[str, set[str]] = {}
        for structured in result.structured():
            by_content.setdefault(
                structured.record.content, set()
            ).add(structured.event_id)
        assert all(len(ids) == 1 for ids in by_content.values())
