"""LogSig — generating system events from raw textual logs (Tang et
al., CIKM 2011).

LogSig searches for ``k`` message signatures by local search over word
pairs:

1. **Word pair generation** — each message is converted to the set of
   ordered word pairs ``(w_i, w_j), i < j``, encoding both the words and
   their relative positions.
2. **Log clustering** — messages start in random groups; each round
   every message moves to the group where its word pairs have the
   highest *potential* (pairs that are already frequent in a group pull
   matching messages in).  The search stops when a round moves no
   message (or after ``max_iterations``).
3. **Log template generation** — within each group, positions whose
   modal token covers at least ``template_threshold`` of the members
   keep that token; other positions are masked.

The number of groups ``k`` is the parameter the paper's Finding 4 is
about: it must be chosen per dataset, and values tuned on a 2k sample
transfer poorly to larger slices on event-rich logs such as BGL.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.common.errors import ParserConfigurationError
from repro.common.tokenize import WILDCARD
from repro.parsers.base import Clustering, LogParser
from repro.common.rng import spawn


def word_pairs(tokens: tuple[str, ...]) -> frozenset[tuple[str, str]]:
    """The ordered word-pair encoding of one message.

    >>> sorted(word_pairs(("a", "b", "c")))
    [('a', 'b'), ('a', 'c'), ('b', 'c')]
    """
    return frozenset(
        (tokens[i], tokens[j])
        for i in range(len(tokens))
        for j in range(i + 1, len(tokens))
    )


class LogSig(LogParser):
    """LogSig with potential-based local search into *groups* clusters.

    Args:
        groups: the target number of message signatures ``k``.
        max_iterations: hard cap on local-search rounds.
        template_threshold: fraction of a group's members that must
            share a token at a position for it to stay in the template.
        seed: RNG seed for the random initial partition (the paper runs
            LogSig 10× and averages over this randomness).
        preprocessor: optional domain-knowledge preprocessing.
    """

    name = "LogSig"

    def __init__(
        self,
        groups: int,
        max_iterations: int = 100,
        template_threshold: float = 0.5,
        seed: int | None = None,
        preprocessor=None,
    ) -> None:
        super().__init__(preprocessor=preprocessor)
        if groups < 1:
            raise ParserConfigurationError(
                f"groups must be >= 1, got {groups}"
            )
        if max_iterations < 1:
            raise ParserConfigurationError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        if not 0.0 < template_threshold <= 1.0:
            raise ParserConfigurationError(
                f"template_threshold must be in (0,1], got "
                f"{template_threshold}"
            )
        self.groups = groups
        self.max_iterations = max_iterations
        self.template_threshold = template_threshold
        self.seed = seed

    # ------------------------------------------------------------------

    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        if not token_lists:
            return Clustering(labels=[], templates=[])

        # Deduplicate identical messages: they share word pairs, so the
        # local search can move them as one unit (weighted by count).
        unique: dict[tuple[str, ...], int] = {}
        line_to_unique: list[int] = []
        for tokens in token_lists:
            key = tuple(tokens)
            if key not in unique:
                unique[key] = len(unique)
            line_to_unique.append(unique[key])
        messages = list(unique)
        multiplicity = Counter(line_to_unique)
        n = len(messages)
        k = min(self.groups, n)

        # Sorted once: _best_group sums float scores pair by pair, so a
        # set's iteration order (which follows PYTHONHASHSEED) would
        # pick near-tie winners differently from run to run.
        pairs = [sorted(word_pairs(message)) for message in messages]

        rng = spawn(self.seed, f"logsig:{n}:{k}")
        assignment = [rng.randrange(k) for _ in range(n)]

        # Sparse per-pair, per-group counts (weighted by multiplicity).
        pair_counts: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
        group_sizes = [0.0] * k
        for index in range(n):
            weight = multiplicity[index]
            group = assignment[index]
            group_sizes[group] += weight
            for pair in pairs[index]:
                counts = pair_counts[pair]
                counts[group] = counts.get(group, 0.0) + weight

        order = list(range(n))
        for _ in range(self.max_iterations):
            rng.shuffle(order)
            moved = 0
            for index in order:
                current = assignment[index]
                best = self._best_group(pairs[index], pair_counts, group_sizes, k)
                if best != current:
                    self._move(
                        index,
                        current,
                        best,
                        multiplicity[index],
                        pairs,
                        pair_counts,
                        group_sizes,
                    )
                    assignment[index] = best
                    moved += 1
            if moved == 0:
                break

        # Compact non-empty groups into final cluster labels.
        used_groups = sorted({assignment[u] for u in range(n)})
        relabel = {group: label for label, group in enumerate(used_groups)}
        members_by_label: dict[int, list[int]] = defaultdict(list)
        for index in range(n):
            members_by_label[relabel[assignment[index]]].append(index)

        templates = [
            self._make_template(
                [messages[m] for m in members_by_label[label]],
                [multiplicity[m] for m in members_by_label[label]],
            )
            for label in range(len(used_groups))
        ]
        labels = [relabel[assignment[u]] for u in line_to_unique]
        return Clustering(labels=labels, templates=templates)

    # ------------------------------------------------------------------

    @staticmethod
    def _best_group(
        message_pairs: list[tuple[str, str]],
        pair_counts: dict[tuple[str, str], dict[int, float]],
        group_sizes: list[float],
        k: int,
    ) -> int:
        """Group maximizing the potential of this message's word pairs.

        The per-group potential is Σ over the message's pairs of the
        squared relative frequency of the pair in the group — pairs that
        most of a group shares dominate, matching the >50%-of-members
        emphasis of the original potential function.
        """
        scores = [0.0] * k
        for pair in message_pairs:
            for group, count in pair_counts.get(pair, {}).items():
                size = group_sizes[group]
                if size > 0:
                    ratio = count / size
                    scores[group] += ratio * ratio
        best = 0
        best_score = scores[0]
        for group in range(1, k):
            if scores[group] > best_score:
                best = group
                best_score = scores[group]
        return best

    @staticmethod
    def _move(
        index: int,
        source: int,
        target: int,
        weight: float,
        pairs: list[list[tuple[str, str]]],
        pair_counts: dict[tuple[str, str], dict[int, float]],
        group_sizes: list[float],
    ) -> None:
        group_sizes[source] -= weight
        group_sizes[target] += weight
        for pair in pairs[index]:
            counts = pair_counts[pair]
            remaining = counts.get(source, 0.0) - weight
            if remaining <= 0:
                counts.pop(source, None)
            else:
                counts[source] = remaining
            counts[target] = counts.get(target, 0.0) + weight

    # ------------------------------------------------------------------

    def _make_template(
        self, members: list[tuple[str, ...]], weights: list[int]
    ) -> list[str]:
        """Column-wise template over the group's modal message length."""
        length_votes: Counter[int] = Counter()
        for message, weight in zip(members, weights):
            length_votes[len(message)] += weight
        width = length_votes.most_common(1)[0][0]
        aligned = [
            (message, weight)
            for message, weight in zip(members, weights)
            if len(message) == width
        ]
        total = sum(weight for _m, weight in aligned)
        template = []
        for position in range(width):
            votes: Counter[str] = Counter()
            for message, weight in aligned:
                votes[message[position]] += weight
            token, count = votes.most_common(1)[0]
            if count / total >= self.template_threshold:
                template.append(token)
            else:
                template.append(WILDCARD)
        return template
