"""LKE — Log Key Extraction (Fu et al., ICDM 2009).

LKE was developed at Microsoft for unstructured log analysis.  It
combines clustering with heuristic rules:

1. **Log clustering** — raw messages are clustered by a *weighted* edit
   distance: an edit at token index ``x`` costs ``1/(1+e^(x-mid))``, so
   differences near the head of a message (where constants live) count
   almost fully while differences in the tail (parameters) are nearly
   free.  The clustering is single-linkage with a distance threshold
   estimated from the data by 2-means — the "aggressive" strategy the
   paper blames for LKE's collapse on HPC: one close pair anywhere
   merges two whole clusters.
2. **Cluster splitting** — heuristic rules further split each cluster:
   a column whose distinct-value count is small (≤ ``split_threshold``)
   but larger than one likely mixes distinct constants, so the cluster
   is split on it; columns with many distinct values are parameters and
   are left alone.
3. **Log template generation** — the template of each final cluster is
   the common token skeleton of its members (longest common
   subsequence), with non-common positions masked.

The pairwise clustering step is O(n²) in the number of *unique*
messages — the reproduction keeps that complexity (it is the subject of
the paper's Finding 3) but dedupes exact-duplicate messages and abandons
distance computations early once they exceed the clustering threshold.
"""

from __future__ import annotations

import math

from repro.common.errors import ParserConfigurationError
from repro.common.rng import spawn
from repro.common.textutil import longest_common_subsequence
from repro.common.tokenize import WILDCARD
from repro.parsers.base import Clustering, LogParser


#: Memoized logistic weight tables keyed by (midpoint*2, table length):
#: the weight only depends on min(len_a, len_b), and computing
#: ``math.exp`` per DP cell dominates the pairwise stage otherwise.
_WEIGHT_TABLES: dict[tuple[int, int], list[float]] = {}


def _weight_table(length_a: int, length_b: int) -> list[float]:
    """LKE's position weights for one length pair: an edit at token
    index ``x`` costs ``1 / (1 + e^(x - mid))``, a logistic centred at
    ``mid = min(len) / 2``, precomputed for ``x`` in ``0..max(len)``."""
    shorter = min(length_a, length_b)
    longer = max(length_a, length_b)
    key = (shorter, longer)
    table = _WEIGHT_TABLES.get(key)
    if table is None:
        midpoint = shorter / 2.0
        table = [
            1.0 / (1.0 + math.exp(index - midpoint))
            for index in range(longer + 1)
        ]
        _WEIGHT_TABLES[key] = table
    return table


def _weighted_edit_distance(
    a: tuple[str, ...],
    b: tuple[str, ...],
    bound: float = math.inf,
) -> float:
    """Weighted edit distance; returns ``inf`` early if it exceeds *bound*.

    The early-abandon check (minimum of the current DP row already above
    *bound*) keeps the O(n²) pairwise stage tolerable without changing
    which pairs fall under the clustering threshold.
    """
    n, m = len(a), len(b)
    weight = _weight_table(n, m)
    previous = [0.0] * (m + 1)
    for j in range(1, m + 1):
        previous[j] = previous[j - 1] + weight[j - 1]
    for i in range(1, n + 1):
        weight_i = weight[i - 1]
        current = [previous[0] + weight_i] + [0.0] * m
        token_a = a[i - 1]
        for j in range(1, m + 1):
            if token_a == b[j - 1]:
                substitution = previous[j - 1]
            else:
                substitution = previous[j - 1] + weight[max(i, j) - 1]
            deletion = previous[j] + weight_i
            insertion = current[j - 1] + weight[j - 1]
            best = substitution
            if deletion < best:
                best = deletion
            if insertion < best:
                best = insertion
            current[j] = best
        if min(current) > bound:
            return math.inf
        previous = current
    return previous[m]


def estimate_threshold_two_means(
    distances: list[float], iterations: int = 50
) -> float:
    """Split sampled pairwise distances into near/far groups by 2-means.

    Returns the midpoint between the two cluster boundaries — LKE's
    data-driven clustering threshold.  With fewer than two distinct
    values the threshold falls back to just above the single value.
    """
    if not distances:
        return 0.0
    low, high = min(distances), max(distances)
    if low == high:
        return low + 1e-9
    center_low, center_high = low, high
    for _ in range(iterations):
        near = [d for d in distances if abs(d - center_low) <= abs(d - center_high)]
        far = [d for d in distances if abs(d - center_low) > abs(d - center_high)]
        if not near or not far:
            break
        new_low = sum(near) / len(near)
        new_high = sum(far) / len(far)
        if new_low == center_low and new_high == center_high:
            break
        center_low, center_high = new_low, new_high
    near_max = max(
        (d for d in distances if abs(d - center_low) <= abs(d - center_high)),
        default=low,
    )
    far_min = min(
        (d for d in distances if abs(d - center_low) > abs(d - center_high)),
        default=high,
    )
    return (near_max + far_min) / 2.0


class _UnionFind:
    """Minimal union-find for single-linkage clustering."""

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, item: int) -> int:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self.parent[root_b] = root_a


class Lke(LogParser):
    """LKE with the original's clustering + splitting heuristics.

    Args:
        split_threshold: a column with 1 < distinct values ≤ this is
            treated as mixed constants and split on (Fu et al.'s
            heuristic rule); columns above it are parameters.
        distance_threshold: fixed clustering threshold; ``None`` (the
            default and the original behaviour) estimates it from the
            data: 2-means over sampled nearest-neighbour distances,
            which separates "has a same-event twin" from "is its own
            event" far more sharply than raw pairwise distances.
        threshold_sample: number of messages sampled for the
            nearest-neighbour threshold estimate.
        seed: RNG seed for the threshold sampling (the paper runs LKE
            10× and averages because of this nondeterminism).
        preprocessor: optional domain-knowledge preprocessing.
    """

    name = "LKE"

    def __init__(
        self,
        split_threshold: int = 6,
        distance_threshold: float | None = None,
        threshold_sample: int = 200,
        seed: int | None = None,
        preprocessor=None,
    ) -> None:
        super().__init__(preprocessor=preprocessor)
        if split_threshold < 2:
            raise ParserConfigurationError(
                f"split_threshold must be >= 2, got {split_threshold}"
            )
        if distance_threshold is not None and distance_threshold < 0:
            raise ParserConfigurationError(
                f"distance_threshold must be >= 0, got {distance_threshold}"
            )
        if threshold_sample < 2:
            raise ParserConfigurationError(
                f"threshold_sample must be >= 2, got {threshold_sample}"
            )
        self.split_threshold = split_threshold
        self.distance_threshold = distance_threshold
        self.threshold_sample = threshold_sample
        self.seed = seed

    # ------------------------------------------------------------------

    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        if not token_lists:
            return Clustering(labels=[], templates=[])

        # Deduplicate identical messages; they always cluster together.
        unique: dict[tuple[str, ...], int] = {}
        line_to_unique: list[int] = []
        for tokens in token_lists:
            key = tuple(tokens)
            if key not in unique:
                unique[key] = len(unique)
            line_to_unique.append(unique[key])
        messages = list(unique)
        n = len(messages)

        threshold = self.distance_threshold
        if threshold is None:
            threshold = self._estimate_threshold(messages)

        # Single-linkage clustering: any pair under the threshold merges.
        union = _UnionFind(n)
        for i in range(n):
            message_i = messages[i]
            for j in range(i + 1, n):
                if union.find(i) == union.find(j):
                    continue
                distance = _weighted_edit_distance(
                    message_i, messages[j], bound=threshold
                )
                if distance <= threshold:
                    union.union(i, j)

        clusters: dict[int, list[int]] = {}
        for index in range(n):
            clusters.setdefault(union.find(index), []).append(index)

        # Heuristic cluster splitting, then template generation.
        final_clusters: list[list[int]] = []
        for members in clusters.values():
            final_clusters.extend(self._split_cluster(members, messages))

        labels_by_unique = [0] * n
        templates: list[list[str]] = []
        for label, members in enumerate(final_clusters):
            templates.append(
                self._make_template([messages[m] for m in members])
            )
            for member in members:
                labels_by_unique[member] = label
        labels = [labels_by_unique[u] for u in line_to_unique]
        return Clustering(labels=labels, templates=templates)

    # ------------------------------------------------------------------

    def _estimate_threshold(self, messages: list[tuple[str, ...]]) -> float:
        """2-means over nearest-neighbour distances of a message sample.

        A message with a same-event twin in the sample has a small
        nearest-neighbour distance; a message that is the only instance
        of its event has a large one.  The gap between those two modes
        is the natural clustering threshold.
        """
        n = len(messages)
        if n < 2:
            return 0.0
        rng = spawn(self.seed, f"lke-threshold:{n}")
        sample = (
            rng.sample(range(n), self.threshold_sample)
            if n > self.threshold_sample
            else list(range(n))
        )
        nearest: list[float] = []
        for i in sample:
            best = math.inf
            for j in sample:
                if i == j:
                    continue
                distance = _weighted_edit_distance(
                    messages[i], messages[j], bound=best
                )
                if distance < best:
                    best = distance
            if math.isfinite(best):
                nearest.append(best)
        return estimate_threshold_two_means(nearest)

    # ------------------------------------------------------------------

    def _split_cluster(
        self, members: list[int], messages: list[tuple[str, ...]]
    ) -> list[list[int]]:
        """Recursively split on low-cardinality (constant-mixing) columns.

        A column is a split candidate when its distinct values are few
        (≤ ``split_threshold``) *and* symbolic: values containing
        digits are parameters (ids, counters, addresses), which Fu et
        al.'s heuristic rules leave alone even when only a handful of
        distinct values occur in the data.
        """
        if len(members) <= 1:
            return [members]
        width = min(len(messages[m]) for m in members)
        best_column = None
        best_cardinality = None
        for column in range(width):
            values = {messages[m][column] for m in members}
            if not 1 < len(values) <= self.split_threshold:
                continue
            if any(any(ch.isdigit() for ch in value) for value in values):
                continue
            if best_cardinality is None or len(values) < best_cardinality:
                best_column = column
                best_cardinality = len(values)
        if best_column is None:
            return [members]
        groups: dict[str, list[int]] = {}
        for member in members:
            groups.setdefault(messages[member][best_column], []).append(member)
        result: list[list[int]] = []
        for value in sorted(groups):
            result.extend(self._split_cluster(groups[value], messages))
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _make_template(members: list[tuple[str, ...]]) -> list[str]:
        """Common-skeleton template: LCS tokens kept, the rest masked."""
        representative = list(members[0])
        common = list(members[0])
        for message in members[1:]:
            common = longest_common_subsequence(common, list(message))
            if not common:
                break
        template = []
        common_iter = iter(common)
        pending = next(common_iter, None)
        for token in representative:
            if pending is not None and token == pending:
                template.append(token)
                pending = next(common_iter, None)
            else:
                template.append(WILDCARD)
        return template
