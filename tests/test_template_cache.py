"""Unit tests for the streaming engine's LRU template cache."""

import hashlib
import json
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.errors import ParserConfigurationError
from repro.common.types import LogRecord
from repro.datasets import generate_dataset, get_dataset_spec
from repro.parsers import make_parser
from repro.parsers.base import Clustering, LogParser
from repro.resilience import load_checkpoint, save_checkpoint
from repro.streaming import StreamingParser, TemplateCache, subsumes


def test_subsumes_requires_equal_length_and_coverage():
    assert subsumes(["open", "*", "*"], ["open", "file", "*"])
    assert not subsumes(["open", "file", "*"], ["open", "*", "*"])
    assert not subsumes(["open", "*"], ["open", "file", "x"])
    assert subsumes(["*"], ["*"])


def test_exact_fast_path_and_counters():
    cache = TemplateCache(capacity=8)
    cache.insert(0, ("connect", "*", "ok"))
    line = ("connect", "10.0.0.1", "ok")
    assert cache.match(line) == 0
    assert cache.template_hits == 1 and cache.exact_hits == 0
    # The first hit memoizes the exact signature; the repeat is exact.
    assert cache.match(line) == 0
    assert cache.exact_hits == 1
    assert cache.match(("connect", "10.0.0.2", "ok")) == 0
    assert cache.template_hits == 2
    assert cache.match(("disconnect",)) is None
    assert cache.misses == 1
    assert cache.hits == 3
    assert cache.hit_rate == pytest.approx(3 / 4)


def test_wildcard_collision_most_specific_template_wins():
    cache = TemplateCache(capacity=8)
    cache.insert(0, ("open", "*", "*"))
    cache.insert(1, ("open", "file", "*"))
    cache.insert(2, ("*", "file", "done"))
    # All three cover this line; the one with most constants wins.
    assert cache.match(("open", "file", "done")) == 1
    # Only the general ones cover these.
    assert cache.match(("open", "sock", "x")) == 0
    assert cache.match(("close", "file", "done")) == 2


def test_wildcard_collision_tie_goes_to_oldest_slot():
    cache = TemplateCache(capacity=8)
    cache.insert(0, ("open", "file", "*"))
    cache.insert(1, ("open", "*", "done"))
    # Both cover this line with two constants each.
    assert cache.match(("open", "file", "done")) == 0


def test_lru_eviction_order_respects_use():
    cache = TemplateCache(capacity=2)
    cache.insert(0, ("a", "*"))
    cache.insert(1, ("b", "*"))
    # Touch slot 0 so slot 1 becomes the least recently used.
    assert cache.match(("a", "x")) == 0
    cache.insert(2, ("c", "*"))
    assert cache.evictions == 1
    assert 0 in cache and 2 in cache and 1 not in cache
    # The evicted template no longer matches fresh lines...
    assert cache.match(("b", "zzz")) is None


def test_stale_exact_memo_survives_eviction():
    cache = TemplateCache(capacity=1)
    cache.insert(0, ("a", "*"))
    assert cache.match(("a", "x")) == 0  # memoizes "a x" -> 0
    cache.insert(1, ("b", "*"))  # evicts slot 0's template
    assert 0 not in cache
    # The memoized assignment is still correct: slot 0 remains a valid
    # event in the engine's permanent table.
    assert cache.match(("a", "x")) == 0
    assert cache.match(("a", "y")) is None


def test_find_generalizer_and_specializations():
    cache = TemplateCache(capacity=8)
    cache.insert(0, ("put", "obj", "*"))
    cache.insert(1, ("put", "blob", "*"))
    cache.insert(2, ("get", "obj", "*"))
    assert sorted(cache.find_specializations(("put", "*", "*"))) == [0, 1]
    cache.insert(3, ("put", "*", "*"))
    assert cache.find_generalizer(("put", "tmp", "*")) == 3
    assert cache.find_generalizer(("del", "x", "*")) is None


def test_invalid_capacity_rejected():
    with pytest.raises(ParserConfigurationError):
        TemplateCache(capacity=0)
    with pytest.raises(ParserConfigurationError):
        TemplateCache(exact_capacity=-1)


class _FirstTokenParser(LogParser):
    """Deterministic, scale-free stub: cluster by (first token, length)."""

    name = "FirstToken"

    def _cluster(self, token_lists):
        groups: dict[tuple[str, int], int] = {}
        labels = []
        templates = []
        for tokens in token_lists:
            key = (tokens[0], len(tokens))
            if key not in groups:
                groups[key] = len(templates)
                templates.append([tokens[0]] + ["*"] * (len(tokens) - 1))
            labels.append(groups[key])
        return Clustering(labels=labels, templates=templates)


def test_evicted_template_relearned_as_identical_event():
    # Capacity 1 forces an eviction between the two "alpha" sightings;
    # the re-learned template must map back to the same event.
    engine = StreamingParser(
        _FirstTokenParser, flush_size=1, cache_capacity=1
    )
    engine.feed(LogRecord(content="alpha one two"))
    engine.feed(LogRecord(content="beta one two"))  # evicts "alpha *"
    engine.feed(LogRecord(content="alpha three four"))
    engine.finalize()
    result = engine.result()
    assert engine.counters.evictions >= 1
    assert sorted(e.template for e in result.events) == [
        "alpha * *",
        "beta * *",
    ]
    first, _, relearned = result.assignments
    assert first == relearned
    by_id = {e.event_id: e.template for e in result.events}
    assert by_id[first] == "alpha * *"


# ---------------------------------------------------------------------
# The compiled matcher against the per-token matcher it replaced
# ---------------------------------------------------------------------


class _ReferenceCache(TemplateCache):
    """``match`` as it stood before templates were compiled: a per-token
    walk over every resident template, consulting no index."""

    def match(self, tokens):
        signature = " ".join(tokens)
        slot = self._exact.get(signature)
        if slot is not None:
            self._exact.move_to_end(signature)
            if slot in self._templates:
                self._templates.move_to_end(slot)
            self.exact_hits += 1
            return slot
        best, best_constants = None, -1
        for candidate, template in self._templates.items():
            if len(template) != len(tokens) or not all(
                t == "*" or t == token for t, token in zip(template, tokens)
            ):
                continue
            constants = sum(1 for t in template if t != "*")
            if constants > best_constants or (
                constants == best_constants and candidate < best
            ):
                best, best_constants = candidate, constants
        if best is None:
            self.misses += 1
            return None
        self.template_hits += 1
        self._templates.move_to_end(best)
        self.remember_exact(signature, best)
        return best

    def find_generalizer(self, tokens):
        # Candidate order is the index's (wildcard-first bucket, then
        # the first token's; insertion order inside each) — ties keep
        # the first — but every constant count is a per-token recount.
        keys = [(len(tokens), "")]
        if tokens and tokens[0] != "*":
            keys.append((len(tokens), tokens[0]))
        best, best_constants = None, None
        for candidate in [s for key in keys for s in self._buckets.get(key, ())]:
            template = self._templates[candidate]
            if template == tuple(tokens) or not all(
                t == "*" or t == token for t, token in zip(template, tokens)
            ):
                continue
            constants = sum(1 for t in template if t != "*")
            if best_constants is None or constants < best_constants:
                best, best_constants = candidate, constants
        return best


# "*" is a legal *line* token too; length 0 is the empty line; the
# alphabet is small enough that all-wildcard, zero-wildcard and
# one-constant templates (itemgetter's scalar form) all turn up, and
# that several residents cover one line (specificity and slot ties).
_TOKENS = st.lists(st.sampled_from(["a", "b", "*"]), max_size=3)
_SLOTS = st.integers(min_value=0, max_value=5)
_MATCH = st.tuples(st.just("match"), _TOKENS)
_INSERT = st.tuples(st.just("insert"), _SLOTS, _TOKENS)
_OPS = st.one_of(
    _MATCH,  # listed twice: lookups and admissions outweigh the rest
    _MATCH,
    _INSERT,
    _INSERT,
    st.tuples(st.just("find_generalizer"), _TOKENS),
    st.tuples(st.just("remove"), _SLOTS),
    st.tuples(st.just("clear_templates")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=400, deadline=None)
@given(ops=st.lists(_OPS, min_size=10, max_size=60))
@example(  # equal specificity across the two buckets: oldest slot wins
    ops=[("insert", 1, ["*", "b"]), ("insert", 0, ["a", "*"]), ("match", ["a", "b"])]
)
@example(  # equal specificity inside one bucket
    ops=[("insert", 0, ["a"]), ("insert", 1, ["a"]), ("match", ["a"])]
)
@example(  # a literal "*" in the line matches wildcards only
    ops=[("insert", 0, ["*", "a"]), ("insert", 1, ["b", "a"]),
         ("match", ["*", "a"]), ("match", ["b", "*"])]
)
@example(  # the empty line, the empty template, an all-wildcard template
    ops=[("match", []), ("insert", 0, []), ("match", []),
         ("insert", 1, ["*", "*"]), ("match", ["a", "b"]), ("match", ["a"])]
)
@example(  # evicted, restored: the index follows the residents
    ops=[("insert", 0, ["a", "*"]), ("insert", 1, ["b"]),
         ("insert", 2, ["b", "b"]), ("insert", 3, ["a", "b"]),
         ("match", ["a", "a"]), ("restore",), ("match", ["a", "b"])]
)
def test_compiled_match_is_the_per_token_match(ops):
    cache = TemplateCache(capacity=3, exact_capacity=2)
    reference = _ReferenceCache(capacity=3, exact_capacity=2)
    for name, *args in ops:
        if name == "restore":
            # What a checkpoint does; the compiled form is not in it.
            snapshot = json.loads(json.dumps(reference.state()))
            cache.restore(snapshot)
            reference.restore(snapshot)
        else:
            got = getattr(cache, name)(*args)
            assert got == getattr(reference, name)(*args), (name, args)
        assert cache.state() == reference.state(), (name, args)
        # Derived state holds exactly the residents.
        resident = sorted(cache._templates)
        assert sorted(s for b in cache._buckets.values() for s in b) == resident
        assert sorted(s for b in cache._by_length.values() for s in b) == resident
    json.dumps(cache.state())  # still plain data: no compiled form in it


def test_midrun_checkpoint_cache_state_equals_per_token_run(tmp_path):
    records = generate_dataset(get_dataset_spec("HDFS"), 5000, seed=11).records
    digests = []
    for cache_type in (TemplateCache, _ReferenceCache):
        engine = StreamingParser(
            partial(make_parser, "Drain"), flush_size=64, cache_capacity=8
        )
        engine.cache = cache_type(capacity=8, exact_capacity=8192)
        for record in records[:3000]:
            engine.feed(record)
        path = str(tmp_path / f"{cache_type.__name__}.json")
        save_checkpoint(path, engine, records_consumed=3000, parser="Drain")
        state = load_checkpoint(path, parser="Drain").engine["cache"]
        assert state["evictions"] and state["template_hits"] and state["misses"]
        digests.append(
            hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()
        )
    assert digests[0] == digests[1]
