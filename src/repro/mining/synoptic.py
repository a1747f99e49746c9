"""Synoptic's temporal invariants and counterexample-guided refinement.

§III-A describes Beschastnikh et al.'s Synoptic: from parsed logs it
builds an initial FSM (:mod:`repro.mining.model`), mines temporal
invariants over the event sequences, and *refines* the model by
splitting states until every mined invariant holds — "if an unsuitable
log parser is used, both initial model building step and model
refinement step will be affected".

This module implements the invariant half and a simplified refinement
loop faithful to Synoptic's structure:

* **Temporal invariants** over session event sequences:

  - ``a AlwaysFollowedBy b`` — every occurrence of *a* is eventually
    followed by *b* within its session;
  - ``a AlwaysPrecededBy b`` — every occurrence of *a* has an earlier
    *b* in its session;
  - ``a NeverFollowedBy b`` — no occurrence of *a* is ever followed by
    *b*.

* **Refinement** — the initial model merges all occurrences of an event
  into one state, which typically *violates* mined NFby invariants by
  introducing paths the log never exhibited.  :func:`refine_model`
  splits the offending state by its incoming context (one round of
  Synoptic's counterexample-guided splitting) until the checked
  invariants hold or no split applies.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.common.errors import MiningError
from repro.common.types import ParseResult
from repro.mining.model import INITIAL, TERMINAL, SystemModel
from repro.mining.verification import event_sequences


@dataclass(frozen=True)
class TemporalInvariant:
    """One mined temporal relation between two event types."""

    kind: str  # "AFby", "APby", or "NFby"
    first: str
    second: str

    def __str__(self) -> str:
        names = {
            "AFby": "AlwaysFollowedBy",
            "APby": "AlwaysPrecededBy",
            "NFby": "NeverFollowedBy",
        }
        return f"{self.first} {names[self.kind]} {self.second}"


def mine_temporal_invariants(
    sequences: Iterable[Sequence[str]],
) -> list[TemporalInvariant]:
    """Mine AFby / APby / NFby invariants from session sequences.

    Follows Synoptic's counting formulation: for each ordered event
    pair, count the sessions where the relation could be observed and
    the sessions where it held; an invariant is mined when it held
    every single time (temporal invariants are exact, unlike the count
    invariants of :mod:`repro.mining.invariants`).
    """
    sequences = [tuple(sequence) for sequence in sequences]
    if not sequences:
        raise MiningError("cannot mine invariants from no sequences")

    events: set[str] = set()
    #: sessions containing a given event.
    containing: dict[str, int] = defaultdict(int)
    #: (a, b): sessions where every a was eventually followed by a b.
    afby_held: dict[tuple[str, str], int] = defaultdict(int)
    #: (a, b): sessions where some a was followed by a b.
    followed_somewhere: dict[tuple[str, str], int] = defaultdict(int)
    #: (a, b): sessions where every a had an earlier b.
    apby_held: dict[tuple[str, str], int] = defaultdict(int)

    for sequence in sequences:
        present = set(sequence)
        events.update(present)
        for event in present:
            containing[event] += 1

        # For AFby: b must appear after the LAST a.
        last_index = {event: i for i, event in enumerate(sequence)}
        # For APby: b must appear before the FIRST a.
        first_index: dict[str, int] = {}
        for i, event in enumerate(sequence):
            first_index.setdefault(event, i)

        followers: dict[str, set[str]] = {}
        suffix: set[str] = set()
        for i in range(len(sequence) - 1, -1, -1):
            event = sequence[i]
            followers.setdefault(event, set()).update(suffix)
            suffix.add(event)

        for a in present:
            after_last_a = set(sequence[last_index[a] + 1 :])
            before_first_a = set(sequence[: first_index[a]])
            for b in present | {TERMINAL}:
                if b == TERMINAL:
                    continue
                if b in after_last_a:
                    afby_held[(a, b)] += 1
                if b in followers.get(a, set()):
                    followed_somewhere[(a, b)] += 1
                if b in before_first_a:
                    apby_held[(a, b)] += 1

    invariants: list[TemporalInvariant] = []
    for a in sorted(events):
        for b in sorted(events):
            if a == b:
                continue
            co_sessions = afby_held[(a, b)]
            if containing[a] > 0 and co_sessions == containing[a]:
                invariants.append(TemporalInvariant("AFby", a, b))
            if containing[a] > 0 and apby_held[(a, b)] == containing[a]:
                invariants.append(TemporalInvariant("APby", a, b))
            if followed_somewhere[(a, b)] == 0:
                invariants.append(TemporalInvariant("NFby", a, b))
    return invariants


def check_invariant(
    sequences: Iterable[Sequence[str]], invariant: TemporalInvariant
) -> bool:
    """Check one invariant against concrete session sequences."""
    for sequence in sequences:
        sequence = tuple(sequence)
        positions = [
            i for i, event in enumerate(sequence)
            if event == invariant.first
        ]
        if not positions:
            continue
        if invariant.kind == "AFby":
            if invariant.second not in sequence[positions[-1] + 1 :]:
                return False
        elif invariant.kind == "APby":
            if invariant.second not in sequence[: positions[0]]:
                return False
        elif invariant.kind == "NFby":
            for position in positions:
                if invariant.second in sequence[position + 1 :]:
                    return False
    return True


def model_violates_nfby(
    model: SystemModel, invariant: TemporalInvariant
) -> bool:
    """True if the model admits a path first → … → second.

    The merged initial model over-generalizes: it may contain a path
    that no logged session took, violating a mined NFby invariant —
    the signal Synoptic refines on.  States may be context-split
    (``event←predecessor``); every state of an event counts as it.
    """
    if invariant.kind != "NFby":
        raise MiningError("model checking implemented for NFby only")

    def is_event(state: str, event: str) -> bool:
        return state == event or state.startswith(f"{event}←")

    # BFS from the states reachable after emitting `first`.
    visited: set[str] = set()
    frontier = [
        state for state in model.states
        if is_event(state, invariant.first)
    ]
    while frontier:
        state = frontier.pop()
        for successor in model.successors(state):
            if successor in visited:
                continue
            if is_event(successor, invariant.second):
                return True
            visited.add(successor)
            frontier.append(successor)
    return False


@dataclass
class RefinedModel:
    """Outcome of the refinement loop."""

    model: SystemModel
    splits: int
    satisfied: list[TemporalInvariant]
    unsatisfied: list[TemporalInvariant]


def _build_context_model(
    sequences: list[tuple[str, ...]], split_events: set[str]
) -> SystemModel:
    """Build the FSM with selected events split by predecessor context."""
    model = SystemModel()
    model.states.update((INITIAL, TERMINAL))
    for sequence in sequences:
        previous_state = INITIAL
        previous_event = INITIAL
        for event in sequence:
            if event in split_events:
                state = f"{event}←{previous_event}"
            else:
                state = event
            model.states.add(state)
            model.transitions[(previous_state, state)] += 1
            previous_state = state
            previous_event = event
        model.transitions[(previous_state, TERMINAL)] += 1
    return model


def refine_model(
    result: ParseResult,
    invariants: list[TemporalInvariant] | None = None,
    max_splits: int = 20,
) -> RefinedModel:
    """Split states by incoming context until NFby invariants hold.

    A simplified counterexample-guided loop: while some mined NFby
    invariant is violated by the current model, split its *first* event
    into per-predecessor states and rebuild.  Sessions are the ground
    truth, so the loop terminates: in the limit every event is
    context-split and the model accepts exactly the logged transitions'
    closure.
    """
    sequences = [
        tuple(sequence)
        for sequence in event_sequences(result).values()
    ]
    if not sequences:
        raise MiningError("no sessions to build a model from")
    if invariants is None:
        invariants = mine_temporal_invariants(sequences)
    nfby = [inv for inv in invariants if inv.kind == "NFby"]

    split_events: set[str] = set()
    model = _build_context_model(sequences, split_events)
    splits = 0
    progress = True
    while progress and splits < max_splits:
        progress = False
        for invariant in nfby:
            if not model_violates_nfby(model, invariant):
                continue
            candidate = _split_candidate(
                model, invariant, split_events
            )
            if candidate is not None:
                split_events.add(candidate)
                model = _build_context_model(sequences, split_events)
                splits += 1
                progress = True
                break

    satisfied = [
        inv for inv in nfby if not model_violates_nfby(model, inv)
    ]
    unsatisfied = [inv for inv in nfby if model_violates_nfby(model, inv)]
    return RefinedModel(
        model=model,
        splits=splits,
        satisfied=satisfied,
        unsatisfied=unsatisfied,
    )


def _base_event(state: str) -> str:
    """The event behind a possibly context-split state name."""
    return state.split("←", 1)[0]


def _split_candidate(
    model: SystemModel,
    invariant: TemporalInvariant,
    already_split: set[str],
) -> str | None:
    """Pick the confluence event to split for a violated NFby invariant.

    BFS from the invariant's *first* states records parent pointers;
    when the *second* event is reached, the violating path is walked
    back and the path state closest to *second* that merges several
    incoming contexts (in-degree from >1 distinct predecessors) and has
    not been split yet is chosen — the merged state responsible for the
    spurious path.
    """
    def is_event(state: str, event: str) -> bool:
        return _base_event(state) == event

    predecessors: dict[str, set[str]] = defaultdict(set)
    for (source, target) in model.transitions:
        predecessors[target].add(source)

    starts = [
        state for state in model.states
        if is_event(state, invariant.first)
    ]
    parents: dict[str, str] = {}
    visited: set[str] = set(starts)
    frontier = list(starts)
    hit: str | None = None
    while frontier and hit is None:
        state = frontier.pop(0)
        for successor in model.successors(state):
            if successor in visited:
                continue
            parents[successor] = state
            if is_event(successor, invariant.second):
                hit = successor
                break
            visited.add(successor)
            frontier.append(successor)
    if hit is None:
        return None

    # Walk the counterexample back, collecting intermediate states.
    path: list[str] = []
    state = parents.get(hit)
    while state is not None and state not in starts:
        path.append(state)
        state = parents.get(state)
    for state in path:  # closest to `second` first
        event = _base_event(state)
        if event in already_split:
            continue
        if len(predecessors[state]) > 1:
            return event
    # No confluence on the path: fall back to splitting the first event.
    if invariant.first not in already_split:
        return invariant.first
    return None
