"""Deployment verification by event-sequence comparison (§III-A).

Shang et al. (ICSE 2013) debug big-data applications by comparing the
log *event sequences* produced in a pseudo-cloud test environment
against those produced after deployment to the real cloud: only
sequences that differ are reported to developers, shrinking the review
workload.  A bad parser produces wrong event sequences and destroys the
reduction — which is why the paper lists this task among those
sensitive to parsing quality.

Here a *sequence* is the ordered tuple of event ids of one session
(records sharing a ``session_id``, in input order).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError

from repro.common.types import ParseResult


def event_sequences(result: ParseResult) -> dict[str, tuple[str, ...]]:
    """Map each session id to its ordered event-id sequence."""
    sequences: dict[str, list[str]] = {}
    for record, event_id in zip(result.records, result.assignments):
        session_id = record.session_id
        if not session_id:
            continue
        sequences.setdefault(session_id, []).append(event_id)
    return {
        session_id: tuple(events)
        for session_id, events in sequences.items()
    }


@dataclass(frozen=True)
class SequenceDelta:
    """Differences between two deployments' event-sequence sets.

    Attributes:
        only_in_reference: distinct sequences seen only pre-deployment.
        only_in_deployment: distinct sequences seen only post-deployment.
        common: distinct sequences seen in both.
    """

    only_in_reference: frozenset[tuple[str, ...]]
    only_in_deployment: frozenset[tuple[str, ...]]
    common: frozenset[tuple[str, ...]]

    @property
    def n_reported(self) -> int:
        """Sequences a developer must inspect."""
        return len(self.only_in_reference) + len(self.only_in_deployment)

    @property
    def reduction_ratio(self) -> float:
        """Fraction of distinct sequences filtered from review.

        1.0 means the deployment matched the reference perfectly (no
        sequences to review); 0.0 means nothing matched.
        """
        total = self.n_reported + len(self.common)
        if total == 0:
            return 1.0
        return len(self.common) / total


def compare_deployments(
    reference: ParseResult,
    deployment: ParseResult,
    signature: str = "sequence",
) -> SequenceDelta:
    """Compare the distinct event signatures of two parsed runs.

    Event ids are parser-local, so sessions are compared through the
    *templates* behind the ids when available: both results' event ids
    are rewritten to their template strings first, making results from
    two independent parser runs comparable.

    ``signature`` selects the per-session signature:

    * ``"sequence"`` — the exact ordered event sequence (strict);
    * ``"set"`` — the sorted set of event types (robust to benign
      reordering and repetition, the usual normalization when sessions
      interleave nondeterministically).
    """
    if signature not in {"sequence", "set"}:
        raise ValidationError(
            f"signature must be 'sequence' or 'set', got {signature!r}"
        )

    def normalized(result: ParseResult) -> set[tuple[str, ...]]:
        mapping = {
            event.event_id: event.template for event in result.events
        }
        signatures = set()
        for sequence in event_sequences(result).values():
            templates = tuple(
                mapping.get(event_id, event_id) for event_id in sequence
            )
            if signature == "set":
                templates = tuple(sorted(set(templates)))
            signatures.add(templates)
        return signatures

    reference_set = normalized(reference)
    deployment_set = normalized(deployment)
    return SequenceDelta(
        only_in_reference=frozenset(reference_set - deployment_set),
        only_in_deployment=frozenset(deployment_set - reference_set),
        common=frozenset(reference_set & deployment_set),
    )
