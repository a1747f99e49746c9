"""Unit tests for the LogSig parser."""

import os
import subprocess
import sys

import pytest

from repro.common.errors import ParserConfigurationError
from repro.parsers import LogSig
from repro.parsers.logsig import word_pairs


class TestConfiguration:
    def test_rejects_zero_groups(self):
        with pytest.raises(ParserConfigurationError):
            LogSig(groups=0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ParserConfigurationError):
            LogSig(groups=2, max_iterations=0)

    def test_rejects_bad_template_threshold(self):
        with pytest.raises(ParserConfigurationError):
            LogSig(groups=2, template_threshold=0.0)
        with pytest.raises(ParserConfigurationError):
            LogSig(groups=2, template_threshold=1.5)


class TestWordPairs:
    def test_pairs_of_three_tokens(self):
        assert word_pairs(("a", "b", "c")) == frozenset(
            {("a", "b"), ("a", "c"), ("b", "c")}
        )

    def test_single_token_has_no_pairs(self):
        assert word_pairs(("a",)) == frozenset()

    def test_empty(self):
        assert word_pairs(()) == frozenset()

    def test_order_preserved(self):
        assert ("b", "a") not in word_pairs(("a", "b"))


class TestClustering:
    def _corpus(self):
        return (
            [f"request served for client c{i}" for i in range(10)]
            + [f"cache miss on key k{i} level L2" for i in range(10)]
            + [f"worker w{i} heartbeat ok" for i in range(10)]
        )

    def test_finds_the_three_signatures(self):
        result = LogSig(groups=3, seed=1).parse_contents(self._corpus())
        assignments = result.assignments
        assert len(set(assignments[:10])) == 1
        assert len(set(assignments[10:20])) == 1
        assert len(set(assignments[20:])) == 1
        assert len(set(assignments)) == 3

    def test_groups_capped_by_unique_messages(self):
        result = LogSig(groups=50, seed=1).parse_contents(["a b", "c d"])
        assert len(result.events) <= 2

    def test_empty_input(self):
        assert len(LogSig(groups=3, seed=1).parse([])) == 0

    def test_seed_reproducible(self):
        corpus = self._corpus()
        a = LogSig(groups=3, seed=5).parse_contents(corpus)
        b = LogSig(groups=3, seed=5).parse_contents(corpus)
        assert a.assignments == b.assignments

    def test_identical_messages_move_together(self):
        contents = ["dup line x"] * 20 + ["other event y"] * 20
        result = LogSig(groups=2, seed=2).parse_contents(contents)
        assert len(set(result.assignments[:20])) == 1

    def test_template_masks_variable_column(self):
        contents = [f"request served for client c{i}" for i in range(10)]
        result = LogSig(groups=1, seed=3).parse_contents(contents)
        assert result.events[0].template == "request served for client *"

    def test_template_threshold_keeps_majority_token(self):
        contents = ["status ok"] * 9 + ["status bad"]
        result = LogSig(
            groups=1, seed=4, template_threshold=0.5
        ).parse_contents(contents)
        assert result.events[0].template == "status ok"

    def test_single_group(self):
        contents = ["x y z", "x y w"]
        result = LogSig(groups=1, seed=1).parse_contents(contents)
        assert len(set(result.assignments)) == 1

    def test_empty_groups_dropped(self):
        # With more groups than structure, unused groups must not
        # produce phantom events.
        result = LogSig(groups=10, seed=1).parse_contents(
            ["a b c"] * 5 + ["d e f"] * 5
        )
        assert len(result.events) == len(set(result.assignments))


_DIGEST_PROBE = """
import hashlib
from repro.datasets import generate_dataset, get_dataset_spec, sample_records
from repro.evaluation.accuracy import tuned_parser_factory

records = sample_records(
    generate_dataset(get_dataset_spec("BGL"), 6000, seed=1).records,
    2000,
    seed=1,
)
parser = tuned_parser_factory("LogSig", "BGL", preprocess=True, seed=1000)
assignments = parser.parse(records).assignments
print(hashlib.sha256("\\n".join(assignments).encode()).hexdigest())
"""


def test_result_is_a_function_of_input_and_seed_not_of_hash_seed():
    # ablation_preprocess's first LogSig run: summing pair scores in
    # set-iteration order let PYTHONHASHSEED flip a near-tie (F-measure
    # 0.81979778 at hash seeds 0 and 1, 0.81974004 at 2).
    digests = {
        subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for hash_seed in ("0", "2")
    }
    assert len(digests) == 1, digests
