"""The template cache behind the streaming parse engine.

A :class:`TemplateCache` holds the *matchable working set* of discovered
templates, bounded by an LRU capacity, and answers "which known template
covers this line?" in roughly O(tokens):

* an **exact-match fast path** keyed on the line's tokenized signature
  (the single-space join of its tokens), so repeats of a literal message
  skip template matching entirely; and
* a **wildcard index** keyed on ``(token count, first token)`` — a
  template can only cover a line when the lengths agree and its first
  token is either the line's first token or the wildcard, so a lookup
  probes exactly two buckets.

Each resident template is **compiled once, at insert**, into
``(pick, constants, count)``: an ``operator.itemgetter`` over the
template's constant positions, what it returns for the template itself,
and how many constants there are.  A bucket maps slot -> that triple, so
testing a candidate is one C call and one comparison — ``pick(tokens)
== constants`` — and the specificity tie-break reads ``count``.  The
triple is *derived state*: :meth:`TemplateCache.state` carries only the
token tuples, :meth:`TemplateCache.restore` recompiles through
``insert``, and eviction/``remove``/``clear_templates`` drop it with
its bucket entry.  Per-line budget of a template hit: one ``join``,
three dict ``get`` s, one ``pick`` per candidate, two or three
``OrderedDict`` updates — all C calls, no Python frame below ``match``.

The cache stores opaque integer *slots* (the engine's permanent event
table indices), never event ids: eviction forgets how to *match* a
template but the engine still remembers the event, so a re-learned
template maps back to the identical :class:`~repro.common.types.EventTemplate`.

Concurrency contract — **single-writer ownership, not locking**.  The
cache (like the engine holding it) is deliberately lock-free: ``match``
mutates LRU order, so even "reads" are writes, and a per-call lock
would tax the per-line fast path that makes streaming cheap.  Instead,
exactly one thread may touch a given cache at a time.  In-process that
is trivially true (one engine, one loop); the multi-tenant service
keeps it true by giving every tenant shard its own engine+cache behind
the shard's lock (:mod:`repro.service.shard`), and the engine's
``@_single_writer`` tripwire raises
:class:`~repro.common.errors.ConcurrencyError` on cross-thread entry.
Hot-path counters (``exact_hits``/``template_hits``/``misses``/
``evictions``) are plain ints under the same ownership rule; telemetry
reads them via a read-time collector, which may observe a value at
most one line stale — acceptable for metrics, never used for control
flow.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from operator import itemgetter

from repro.common.errors import ParserConfigurationError
from repro.common.tokenize import is_wildcard

#: Bucket anchor used for templates whose first token is the wildcard.
_ANY = ""


def subsumes(general: Sequence[str], specific: Sequence[str]) -> bool:
    """True if every line matching *specific* also matches *general*.

    Both are template token sequences; *general* subsumes *specific*
    when the lengths agree and at every position *general* holds either
    the wildcard or exactly the token *specific* holds (a wildcard in
    *specific* therefore requires a wildcard in *general*).

    >>> subsumes(["open", "*", "*"], ["open", "file", "*"])
    True
    >>> subsumes(["open", "file", "*"], ["open", "*", "*"])
    False
    """
    if len(general) != len(specific):
        return False
    return all(
        is_wildcard(g) or g == s for g, s in zip(general, specific)
    )


def _compile(tokens: tuple[str, ...]):
    """``(pick, constants, count)``: a line of the template's length is
    covered iff ``pick(line) == constants``."""
    positions = [i for i, t in enumerate(tokens) if not is_wildcard(t)]
    if not positions:  # no constants: every line of that length matches
        return len, len(tokens), 0
    pick = itemgetter(*positions)  # one position yields a bare token
    return pick, pick(tokens), len(positions)


class TemplateCache:
    """LRU-bounded template store with an exact-match fast path.

    Args:
        capacity: maximum number of templates held for matching; the
            least recently *used* (matched or re-inserted) template is
            evicted first.
        exact_capacity: maximum number of memoized exact line
            signatures (its own LRU, independent of the template LRU).

    Counters ``exact_hits``, ``template_hits``, ``misses`` and
    ``evictions`` are plain attributes; :attr:`hit_rate` derives from
    them.  They stay the source of truth even when *telemetry* is set:
    the engine's metrics collector syncs them into the registry at
    read time, so the per-lookup fast path carries no instrumentation.
    """

    def __init__(
        self,
        capacity: int = 4096,
        exact_capacity: int = 8192,
    ) -> None:
        if capacity < 1:
            raise ParserConfigurationError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        if exact_capacity < 0:
            raise ParserConfigurationError(
                f"exact_capacity must be >= 0, got {exact_capacity}"
            )
        self.capacity = capacity
        self.exact_capacity = exact_capacity
        #: slot -> template tokens, in LRU order (least recent first).
        self._templates: OrderedDict[int, tuple[str, ...]] = OrderedDict()
        #: (length, anchor token) -> {slot: compiled template}, in
        #: insertion order; anchor is ``_ANY`` for wildcard-first
        #: templates.  Derived from ``_templates`` (see ``_compile``).
        self._buckets: dict[tuple[int, str], dict[int, tuple]] = {}
        #: length -> slots (for subsumption scans).
        self._by_length: dict[int, list[int]] = {}
        #: tokenized signature -> slot (exact fast path, own LRU).
        self._exact: OrderedDict[str, int] = OrderedDict()
        self.exact_hits = 0
        self.template_hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._templates)

    def __contains__(self, slot: int) -> bool:
        return slot in self._templates

    @property
    def hits(self) -> int:
        return self.exact_hits + self.template_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def template_tokens(self, slot: int) -> tuple[str, ...]:
        return self._templates[slot]

    # ------------------------------------------------------------------

    @staticmethod
    def _anchor(tokens: Sequence[str]) -> str:
        return _ANY if not tokens or is_wildcard(tokens[0]) else tokens[0]

    def _candidates(self, tokens: Sequence[str]) -> list[tuple[int, int]]:
        """``(slot, constant count)`` of templates that could cover *tokens*."""
        length = len(tokens)
        keys = [(length, _ANY)]
        if tokens and not is_wildcard(tokens[0]):
            keys.append((length, tokens[0]))
        return [
            (slot, count)
            for key in keys
            for slot, (_, _, count) in self._buckets.get(key, {}).items()
        ]

    def match(self, tokens: Sequence[str]) -> int | None:
        """Return the slot of the template covering *tokens*, or None.

        When several cached templates cover the line the most specific
        one (fewest wildcards) wins; ties go to the oldest slot, i.e.
        the template discovered first.  Hits refresh the winner's LRU
        position and memoize the line's exact signature.
        """
        signature = " ".join(tokens)
        exact = self._exact
        slot = exact.get(signature)
        if slot is not None:
            exact.move_to_end(signature)
            # The slot's template may have been evicted or merged away;
            # the memoized assignment itself stays correct (the engine
            # resolves merged slots), so only refresh the LRU when the
            # template is still resident.
            if slot in self._templates:
                self._templates.move_to_end(slot)
            self.exact_hits += 1
            return slot
        best: int | None = None
        best_count = -1
        length = len(tokens)
        for key in ((length, _ANY), (length, tokens[0] if tokens else _ANY)):
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            for candidate, (pick, constants, count) in bucket.items():
                if pick(tokens) == constants and (
                    count > best_count
                    or (count == best_count and candidate < best)
                ):
                    best = candidate
                    best_count = count
        if best is None:
            self.misses += 1
            return None
        self.template_hits += 1
        self._templates.move_to_end(best)
        self.remember_exact(signature, best)
        return best

    def remember_exact(self, signature: str, slot: int) -> None:
        """Memoize an exact line signature -> slot association."""
        if self.exact_capacity == 0:
            return
        self._exact[signature] = slot
        self._exact.move_to_end(signature)
        while len(self._exact) > self.exact_capacity:
            self._exact.popitem(last=False)

    # ------------------------------------------------------------------

    def insert(self, slot: int, tokens: Sequence[str]) -> None:
        """Admit (or refresh) a template; may evict the LRU entry."""
        if slot in self._templates:
            self._templates.move_to_end(slot)
            return
        tokens = tuple(tokens)
        self._templates[slot] = tokens
        self._buckets.setdefault(
            (len(tokens), self._anchor(tokens)), {}
        )[slot] = _compile(tokens)
        self._by_length.setdefault(len(tokens), []).append(slot)
        while len(self._templates) > self.capacity:
            self._unindex(*self._templates.popitem(last=False))
            self.evictions += 1

    def remove(self, slot: int) -> None:
        """Drop a template without counting an eviction (merges)."""
        tokens = self._templates.pop(slot, None)
        if tokens is not None:
            self._unindex(slot, tokens)

    def clear_templates(self) -> None:
        """Forget every template and exact memo; counters survive.

        Used by the prefix flush policy, which replaces the whole
        working set with the authoritative template set of the latest
        full re-parse.
        """
        self._templates.clear()
        self._buckets.clear()
        self._by_length.clear()
        self._exact.clear()

    # ------------------------------------------------------------------

    def state(self) -> dict:
        """JSON-ready snapshot of the cache for checkpointing.

        Captures the template working set and exact memo *in LRU
        order* plus the hit counters, so a restored cache behaves
        identically — same residents, same next eviction victim.
        """
        return {
            "capacity": self.capacity,
            "exact_capacity": self.exact_capacity,
            "templates": [
                [slot, list(tokens)]
                for slot, tokens in self._templates.items()
            ],
            "exact": [[sig, slot] for sig, slot in self._exact.items()],
            "exact_hits": self.exact_hits,
            "template_hits": self.template_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def restore(self, state: dict) -> None:
        """Rebuild this cache from a :meth:`state` snapshot."""
        self.clear_templates()
        for slot, tokens in state["templates"]:
            self.insert(int(slot), tuple(tokens))
        for signature, slot in state["exact"]:
            self.remember_exact(signature, int(slot))
        self.exact_hits = state["exact_hits"]
        self.template_hits = state["template_hits"]
        self.misses = state["misses"]
        self.evictions = state["evictions"]

    # ------------------------------------------------------------------

    def _unindex(self, slot: int, tokens: tuple[str, ...]) -> None:
        """Drop *slot* from the two index entries its *tokens* key."""
        key = (len(tokens), self._anchor(tokens))
        bucket = self._buckets[key]
        del bucket[slot]
        if not bucket:
            del self._buckets[key]
        slots = self._by_length[len(tokens)]
        slots.remove(slot)
        if not slots:
            del self._by_length[len(tokens)]
        # Exact memos pointing at the slot are left in place: the slot
        # remains a valid event in the engine's permanent table, so a
        # stale memo still yields a correct assignment.

    # ------------------------------------------------------------------

    def find_generalizer(self, tokens: Sequence[str]) -> int | None:
        """A cached template that subsumes *tokens* (most general wins)."""
        best: int | None = None
        best_constants: int | None = None
        for candidate, constants in self._candidates(tokens):
            template = self._templates[candidate]
            if template == tuple(tokens) or not subsumes(template, tokens):
                continue
            if best_constants is None or constants < best_constants:
                best = candidate
                best_constants = constants
        return best

    def find_specializations(self, tokens: Sequence[str]) -> list[int]:
        """Cached slots whose templates are strictly subsumed by *tokens*."""
        tokens = tuple(tokens)
        found = []
        for candidate in self._by_length.get(len(tokens), ()):
            template = self._templates[candidate]
            if template != tokens and subsumes(tokens, template):
                found.append(candidate)
        return found
