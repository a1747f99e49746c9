"""Passthrough tagger — exact-signature events, no abstraction.

It clusters lines by their exact token signature in a single O(n)
pass, so each distinct message becomes its own event and its own
template (no wildcards).  That fragments parameterized events into one
event per parameter value, which is precisely the error shape Finding 6
shows is most destructive to PCA mining (near-unique high-IDF columns).

It is not a cheap rung to degrade to.  Behind the streaming engine it
grows one template per distinct line, so nearly every line misses the
cache and reaches the flush parser: ablation A6 (EXPERIMENTS.md)
measures it slower per offered line, and higher in traced peak, than
Drain, IPLoM or SLCT.  On a degradation ladder it is its own floor, and
no :data:`~repro.degradation.ladder.FRONTIER` step leads to it.
"""

from __future__ import annotations

from repro.parsers.base import Clustering, LogParser


class PassthroughParser(LogParser):
    """Exact-signature dedup parser: one event per distinct message.

    Never fails and never blocks; allocates one template per distinct
    token signature.
    """

    name = "Passthrough"

    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        labels: list[int] = []
        templates: list[list[str]] = []
        signature_to_label: dict[tuple[str, ...], int] = {}
        for tokens in token_lists:
            signature = tuple(tokens)
            label = signature_to_label.get(signature)
            if label is None:
                label = len(templates)
                signature_to_label[signature] = label
                templates.append(list(tokens))
            labels.append(label)
        return Clustering(labels=labels, templates=templates)
