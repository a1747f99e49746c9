"""SLCT — Simple Logfile Clustering Tool (Vaarandi, IPOM 2003).

The first automated log parser.  Inspired by association-rule mining,
it runs as a three-step procedure with two passes over the data:

1. **Word vocabulary construction** — one pass counts the frequency of
   every (position, word) pair.
2. **Cluster candidate construction** — a second pass maps each line to
   the set of its *frequent* (position, word) pairs (frequency ≥ the
   support threshold); that set, together with the line's token count,
   is the line's cluster candidate.
3. **Log template generation** — candidates whose member count reaches
   the support threshold become clusters; the frequent positions keep
   their word and every other position becomes ``*``.  Lines of all
   remaining candidates go to the outlier cluster.

The support threshold may be given as an absolute line count or as a
fraction of the input size (matching the original tool's ``-s`` option).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain

from repro.common.errors import ParserConfigurationError
from repro.common.tokenize import WILDCARD
from repro.parsers.base import Clustering, LogParser, OUTLIER


class Slct(LogParser):
    """SLCT with a support threshold (absolute count or fraction).

    Args:
        support: clusters need at least this many member lines.  Values
            in (0, 1) are interpreted as a fraction of the input size;
            values ≥ 1 as absolute counts.
        preprocessor: optional domain-knowledge preprocessing.
    """

    name = "SLCT"

    def __init__(self, support: float = 0.01, preprocessor=None) -> None:
        super().__init__(preprocessor=preprocessor)
        if support <= 0:
            raise ParserConfigurationError(
                f"SLCT support must be positive, got {support}"
            )
        self.support = support

    def _absolute_support(self, n_lines: int) -> int:
        if self.support < 1:
            return max(1, int(self.support * n_lines))
        return int(self.support)

    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        if not token_lists:
            return Clustering(labels=[], templates=[])
        support = self._absolute_support(len(token_lists))

        # Pass 1: word vocabulary (position, word) -> frequency.
        vocabulary = Counter(chain.from_iterable(map(enumerate, token_lists)))
        frequent_words = {
            pair for pair, count in vocabulary.items() if count >= support
        }

        # Pass 2: map each line to its cluster candidate.
        candidate_members: dict[
            tuple[int, frozenset[tuple[int, str]]], list[int]
        ] = defaultdict(list)
        for line_no, tokens in enumerate(token_lists):
            frequent = frozenset(frequent_words.intersection(enumerate(tokens)))
            candidate_members[(len(tokens), frequent)].append(line_no)

        # Step 3: select clusters and emit templates.
        labels = [OUTLIER] * len(token_lists)
        templates: list[list[str]] = []
        for (length, frequent), members in sorted(
            candidate_members.items(),
            key=lambda item: item[1][0],  # stable: by first occurrence
        ):
            if len(members) < support or not frequent:
                continue  # members stay outliers
            template = [WILDCARD] * length
            for position, word in frequent:
                template[position] = word
            label = len(templates)
            templates.append(template)
            for line_no in members:
                labels[line_no] = label
        return Clustering(labels=labels, templates=templates)
