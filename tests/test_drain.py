"""Drain parser: unit behavior and property-based tree invariants."""

from operator import eq

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ParserConfigurationError
from repro.common.tokenize import WILDCARD, tokenize
from repro.datasets import generate_dataset, get_dataset_spec
from repro.parsers import (
    DrainParser,
    DrainTree,
    default_preprocessor,
    make_parser,
)

token = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=5,
)
token_list = st.lists(token, min_size=0, max_size=8)
token_corpus = st.lists(token_list, min_size=0, max_size=30)


class TestConfiguration:
    def test_registry_constructs_drain(self):
        assert make_parser("drain").name == "Drain"

    def test_forwards_params(self):
        parser = make_parser("Drain", depth=5, sim_threshold=0.6)
        assert parser.depth == 5
        assert parser.sim_threshold == 0.6

    @pytest.mark.parametrize(
        "params",
        [
            {"depth": 2},
            {"sim_threshold": 0.0},
            {"sim_threshold": 1.0},
            {"sim_threshold": -0.5},
            {"max_children": 0},
        ],
    )
    def test_bad_config_rejected_at_construction(self, params):
        with pytest.raises(ParserConfigurationError):
            DrainParser(**params)
        with pytest.raises(ParserConfigurationError):
            DrainTree(**params)


class TestClustering:
    def test_parameter_positions_generalized(self):
        result = DrainParser().parse_contents(
            [
                "send block 1 to 10.0.0.1",
                "send block 2 to 10.0.0.2",
                "send block 3 to 10.0.0.9",
            ]
        )
        assert len(result.events) == 1
        assert result.events[0].template == "send block * to *"

    def test_distinct_events_kept_apart(self):
        result = DrainParser().parse_contents(
            ["open session alpha", "close session alpha", "open session beta"]
        )
        assert result.assignments[0] == result.assignments[2]
        assert result.assignments[0] != result.assignments[1]

    def test_lengths_never_merge(self):
        # The length level of the tree partitions before any similarity
        # comparison, as in the paper.
        result = DrainParser(sim_threshold=0.01).parse_contents(
            ["alpha beta gamma", "alpha beta gamma delta"]
        )
        assert result.assignments[0] != result.assignments[1]

    def test_never_emits_outliers(self):
        from repro.common.types import ParseResult

        result = DrainParser().parse_contents(
            ["x", "completely different line", "y z"]
        )
        assert ParseResult.OUTLIER_EVENT_ID not in result.assignments

    def test_max_children_overflow_shares_wildcard_branch(self):
        tree = DrainTree(max_children=1, sim_threshold=0.9)
        # Three distinct leading tokens: only the first gets its own
        # branch, the rest funnel through the wildcard branch — and the
        # similarity gate still keeps them in separate groups.
        labels = [
            tree.feed(tokens)
            for tokens in (
                ["alpha", "x", "y"],
                ["beta", "x", "y"],
                ["gamma", "x", "y"],
                ["beta", "x", "y"],
            )
        ]
        assert labels[1] == labels[3]
        assert len({labels[0], labels[1], labels[2]}) == 3

    def test_empty_message_clusters_with_itself(self):
        tree = DrainTree()
        assert tree.feed([]) == tree.feed([])


class TestTreeInvariants:
    @given(token_corpus)
    @settings(max_examples=50, deadline=None)
    def test_depth_bound_respected(self, corpus):
        tree = DrainTree(depth=4)
        for tokens in corpus:
            tree.feed(tokens)
        assert all(level <= tree.depth for level in tree.node_depths())

    @given(token_corpus, st.integers(min_value=3, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_no_template_loss(self, corpus, depth):
        # Every fed line lands in exactly one live group; group ids are
        # dense, stable, and each has a template of the line's length.
        tree = DrainTree(depth=depth)
        for tokens in corpus:
            label = tree.feed(tokens)
            templates = tree.templates()
            assert 0 <= label < len(templates)
            assert len(templates[label]) == len(tokens)
        leaf_ids = [
            group_id
            for leaf in tree.leaf_groups()
            for group_id in leaf
        ]
        assert sorted(leaf_ids) == list(range(tree.n_groups))

    @given(token_corpus)
    @settings(max_examples=50, deadline=None)
    def test_monotone_cluster_count(self, corpus):
        tree = DrainTree()
        previous = 0
        for tokens in corpus:
            tree.feed(tokens)
            assert previous <= tree.n_groups <= previous + 1
            previous = tree.n_groups

    @given(token_corpus)
    @settings(max_examples=50, deadline=None)
    def test_batch_parse_matches_incremental_feed(self, corpus):
        parser = DrainParser()
        tree = parser.tree()
        fed = [tree.feed(list(tokens)) for tokens in corpus]
        clustering = parser._cluster([list(tokens) for tokens in corpus])
        assert clustering.labels == fed
        assert clustering.templates == tree.templates()

    @given(token_corpus)
    @settings(max_examples=30, deadline=None)
    def test_templates_cover_members(self, corpus):
        # A group's template matches every member positionally: equal
        # token or wildcard, never a third thing.
        tree = DrainTree()
        labels = [tree.feed(tokens) for tokens in corpus]
        templates = tree.templates()
        for tokens, label in zip(corpus, labels):
            template = templates[label]
            assert len(template) == len(tokens)
            assert all(
                expected == actual or expected == WILDCARD
                for expected, actual in zip(template, tokens)
            )


# ---------------------------------------------------------------------
# The C-level passes against the per-token tree they replaced
# ---------------------------------------------------------------------


class _ReferenceTree:
    """``DrainTree`` as it stood before the batch-path rewrite: a digit
    scan on every routed token, a per-token similarity that consults
    ``is_wildcard`` per position and ranks float ratios, and a
    ``generalize`` on every absorbed line."""

    def __init__(self, depth, sim_threshold, max_children):
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self.root = ({}, [])  # node: (branch token -> node, group ids)
        self.groups = []  # group id -> template

    def templates(self):
        return [list(template) for template in self.groups]

    def _branch(self, node, token, bounded):
        children = node[0]
        if token not in children:
            if bounded and token != "*" and len(children) >= self.max_children:
                return self._branch(node, "*", bounded=False)
            children[token] = ({}, [])
        return children[token]

    def feed(self, tokens):
        node = self._branch(self.root, str(len(tokens)), bounded=False)
        for token in tokens[: self.depth - 2]:
            if token == "" or any(ch.isdigit() for ch in token):
                token = "*"
            node = self._branch(node, token, bounded=True)
        leaf = node[1]
        best, best_score = None, -1.0
        for group_id in leaf:
            template = self.groups[group_id]
            score = 1.0 if not tokens else sum(
                1 for expected, actual in zip(template, tokens)
                if expected == actual and expected != "*"
            ) / len(tokens)
            if score > best_score:
                best, best_score = group_id, score
        if best is None or best_score < self.sim_threshold:
            leaf.append(len(self.groups))
            self.groups.append(list(tokens))
            return len(self.groups) - 1
        self.groups[best] = [
            a if a == b and a != "*" and b != "*" else "*"
            for a, b in zip(self.groups[best], tokens)
        ]
        return best


class _StarAgreesMutant(DrainTree):
    """Counts a literal ``*`` in the line as agreeing with a wildcard."""

    def _best_match(self, leaf, tokens):
        best, best_matching = None, -1
        for group in leaf.groups:
            matching = sum(map(eq, group.template, tokens))
            if matching > best_matching:
                best, best_matching = group, matching
        if best is not None and (
            not tokens or best_matching / len(tokens) >= self.sim_threshold
        ):
            return best, best_matching
        return None, 0


class _SkipsGeneralizeMutant(DrainTree):
    """Treats "reached the threshold" as "already covered"."""

    def feed(self, tokens):
        leaf = self._descend(tokens)
        group, matching = self._best_match(leaf, tokens)
        if group is not None:  # matching / len >= threshold, by contract
            group.size += 1
            return group.group_id
        return super().feed(tokens)


def _same_as_reference(tree_type, corpus, **config):
    tree, reference = tree_type(**config), _ReferenceTree(**config)
    for tokens in corpus:
        if tree.feed(list(tokens)) != reference.feed(list(tokens)):
            return False
    return tree.templates() == reference.templates()


# ``²`` and ``٣`` are digits to ``str.isdigit``; ``\d`` accepts only the
# second, so the routing scan must stay ``isdigit``.  ``*`` is a legal
# *line* token (preprocessing writes it); the small alphabet makes
# repeated lines, shared prefixes and branch overflow all turn up.
_ROUTED = st.sampled_from(["a", "b", "c", "*", "7", "x1", "²", "٣", "é", ""])
_LINES = st.lists(st.lists(_ROUTED, max_size=5), max_size=40)


class TestPerTokenEquivalence:
    @given(
        corpus=_LINES,
        depth=st.sampled_from([3, 4, 6]),
        sim_threshold=st.sampled_from([0.4, 0.5, 0.7]),
        max_children=st.sampled_from([1, 2, 100]),
    )
    @example(  # a line's own "*" never agrees with a template wildcard
        corpus=[["*", "a", "b"], ["*", "a", "c"]],
        depth=4, sim_threshold=0.5, max_children=100,
    )
    @example(  # covered line, then one that needs the merge
        corpus=[["a", "b", "c"], ["a", "b", "c"], ["a", "b", "d"]],
        depth=4, sim_threshold=0.4, max_children=100,
    )
    @example(  # overflow: "b" and the digit token share the "*" branch
        corpus=[["a", "x"], ["b", "x"], ["²", "x"], ["b", "y"], []],
        depth=3, sim_threshold=0.4, max_children=1,
    )
    @settings(max_examples=400, deadline=None)
    def test_tree_is_the_per_token_tree(self, corpus, **config):
        assert _same_as_reference(DrainTree, corpus, **config)

    def test_mutants_fail_the_differential_check(self):
        config = {"depth": 4, "sim_threshold": 0.5, "max_children": 100}
        star = [["*", "a", "b"], ["*", "a", "c"]]
        merge = [["a", "b", "c"], ["a", "b", "d"]]
        for corpus in (star, merge):
            assert _same_as_reference(DrainTree, corpus, **config)
        assert not _same_as_reference(_StarAgreesMutant, star, **config)
        assert not _same_as_reference(_SkipsGeneralizeMutant, merge, **config)

    @pytest.mark.parametrize("sim_threshold", [0.4, 0.5, 0.7])
    @pytest.mark.parametrize("preprocess", [False, True])
    @pytest.mark.parametrize(
        "dataset", ["BGL", "HPC", "HDFS", "Zookeeper", "Proxifier"]
    )
    def test_dataset_output_identity(self, dataset, preprocess, sim_threshold):
        records = generate_dataset(get_dataset_spec(dataset), 2000, seed=1).records
        preprocessor = default_preprocessor(dataset) if preprocess else None
        contents = [record.content for record in records]
        if preprocessor is not None:  # Proxifier has no rules: raw again
            contents = [preprocessor(content) for content in contents]
        assert _same_as_reference(
            DrainTree,
            [tokenize(content) for content in contents],
            depth=4, sim_threshold=sim_threshold, max_children=100,
        )
