"""Drain — fixed-depth-tree online log parsing (He et al., ICWS 2017).

Drain is the de-facto modern baseline ("Tools and Benchmarks for
Automated Log Parsing"): a single-pass, genuinely *online* parser that
routes each message through a fixed-depth prefix tree and merges it
into the most similar existing template group, or starts a new one.

The tree has three kinds of levels:

1. **Root → length node** — messages are first partitioned by token
   count, exploiting that lines of one event type almost always have
   the same length (the same assumption IPLoM's first step makes).
2. **Length node → token nodes** — the next ``depth`` levels branch on
   the leading tokens of the message.  Tokens containing digits are
   assumed to be parameters and all routed through a single wildcard
   branch; once a node has ``max_children`` distinct branches, further
   new tokens share the wildcard branch too, bounding the tree width.
3. **Leaf → template groups** — each leaf holds the groups whose
   members took that path.  The incoming message is compared against
   each group's template by positional similarity (wildcard positions
   never count as agreement); the best group at or above
   ``sim_threshold`` absorbs the line and generalizes its template
   (:func:`~repro.common.tokenize.generalize`), otherwise the line
   founds a new group.

Both the routing and the merge are deterministic functions of the
input prefix, so Drain needs no seed, parses in one O(tokens) step per
line, and is ``feed``-compatible: :class:`DrainTree` exposes the
incremental interface directly (one :meth:`DrainTree.feed` per line),
while :class:`DrainParser` wraps a fresh tree per :meth:`parse` call
to honor the stateless batch contract of §II-C shared by every parser
in the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq

from repro.common.errors import ParserConfigurationError
from repro.common.tokenize import WILDCARD, generalize
from repro.parsers.base import Clustering, LogParser

#: Branch label shared by parameter-like and overflow tokens.
_WILDCARD_BRANCH = WILDCARD

#: Branch label for the empty message (token count zero).
_EMPTY_BRANCH = ""


def _looks_variable(token: str) -> bool:
    """Heuristic of the Drain paper: digit-bearing tokens are parameters."""
    # ``str.isdigit``, not ``\d``: the two disagree on e.g. ``²``.
    return any(map(str.isdigit, token))


@dataclass
class _Group:
    """One template group: the evolving template plus its member lines."""

    group_id: int
    template: list[str]
    #: Non-wildcard positions of ``template``; a line agreeing on all of
    #: them is already covered and leaves the template unchanged.
    constants: int
    size: int = 0


@dataclass
class _Node:
    """One internal tree node: branches by token (or the wildcard)."""

    children: dict[str, "_Node"] = field(default_factory=dict)
    groups: list[_Group] = field(default_factory=list)


class DrainTree:
    """The incremental Drain state: feed token lists, get group ids.

    This is the online half of the parser — long-lived, one
    :meth:`feed` per line, group ids stable for the lifetime of the
    tree — usable directly wherever incremental template extraction is
    needed (the streaming engine's flushes construct it afresh per
    batch via :class:`DrainParser`).

    Args:
        depth: total tree depth as in the paper — root and leaf
            included, so ``depth - 2`` leading tokens are used for
            routing.  Must be >= 3.
        sim_threshold: similarity a group must reach to absorb a line,
            in (0, 1).  Positional agreement over the token count;
            wildcard template positions do not count as agreement.
        max_children: distinct token branches per node before new
            tokens fall through to the wildcard branch.
    """

    def __init__(
        self,
        depth: int = 4,
        sim_threshold: float = 0.4,
        max_children: int = 100,
    ) -> None:
        if depth < 3:
            raise ParserConfigurationError(
                f"Drain depth must be >= 3 (root + >=1 token level + "
                f"leaf), got {depth}"
            )
        if not 0.0 < sim_threshold < 1.0:
            raise ParserConfigurationError(
                f"Drain sim_threshold must be in (0, 1), got {sim_threshold}"
            )
        if max_children < 1:
            raise ParserConfigurationError(
                f"Drain max_children must be >= 1, got {max_children}"
            )
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children
        self._root = _Node()
        self._groups: list[_Group] = []

    # ------------------------------------------------------------------
    # Incremental interface
    # ------------------------------------------------------------------

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def templates(self) -> list[list[str]]:
        """Current template per group id (index == group id)."""
        return [list(group.template) for group in self._groups]

    def feed(self, tokens: list[str]) -> int:
        """Route one tokenized line; returns its (stable) group id.

        New lines either join the most similar group at the reached
        leaf (generalizing its template in place) or found a new group
        there.  Group ids are assigned in discovery order and never
        change afterwards.
        """
        leaf = self._descend(tokens)
        group, matching = self._best_match(leaf, tokens)
        if group is None:
            group = _Group(
                group_id=len(self._groups),
                template=list(tokens),
                constants=len(tokens) - tokens.count(WILDCARD),
            )
            self._groups.append(group)
            leaf.groups.append(group)
        elif matching != group.constants:
            # The merged template keeps exactly the agreeing positions.
            group.template = generalize(group.template, tokens)
            group.constants = matching
        group.size += 1
        return group.group_id

    def _descend(self, tokens: list[str]) -> _Node:
        """Walk (building as needed) root → length → leading tokens."""
        node = self._branch(self._root, str(len(tokens)), bounded=False)
        for token in tokens[: self.depth - 2]:
            child = node.children.get(token)
            if child is None:
                # Only constants and the wildcard are ever branch keys,
                # so just a miss needs the digit scan.
                if token == _EMPTY_BRANCH or _looks_variable(token):
                    token = _WILDCARD_BRANCH  # tokenize() never yields ""
                child = self._branch(node, token, bounded=True)
            node = child
        return node

    def _branch(self, node: _Node, token: str, *, bounded: bool) -> _Node:
        child = node.children.get(token)
        if child is None:
            if (
                bounded
                and token != _WILDCARD_BRANCH
                and len(node.children) >= self.max_children
            ):
                return self._branch(node, _WILDCARD_BRANCH, bounded=False)
            child = _Node()
            node.children[token] = child
        return child

    def _best_match(
        self, leaf: _Node, tokens: list[str]
    ) -> tuple[_Group | None, int]:
        """Most similar group at *leaf* reaching the threshold, if any.

        Returned with its positional agreement count; wildcards never
        count as equal, on either side.  Groups under one leaf always
        share a token count (the length level guarantees it), so the
        comparison is positional and the counts rank like the
        similarity ratios ``matching / len(tokens)``.  The empty
        message is identical to the empty template (1.0).
        """
        # A literal ``*`` in the line (preprocessing writes them) must
        # not agree with a template wildcard: no template holds ``None``.
        probe = (
            [None if token == WILDCARD else token for token in tokens]
            if WILDCARD in tokens
            else tokens
        )
        best: _Group | None = None
        best_matching = -1
        for group in leaf.groups:
            matching = sum(map(eq, group.template, probe))
            if matching > best_matching:
                best, best_matching = group, matching
        if best is not None and (
            not tokens or best_matching / len(tokens) >= self.sim_threshold
        ):
            return best, best_matching
        return None, 0

    # ------------------------------------------------------------------
    # Introspection (invariant checks, tests)
    # ------------------------------------------------------------------

    def node_depths(self) -> list[int]:
        """Depth of every node, root = 1 (paper counting, leaf level last)."""
        depths: list[int] = []
        stack: list[tuple[_Node, int]] = [(self._root, 1)]
        while stack:
            node, level = stack.pop()
            depths.append(level)
            for child in node.children.values():
                stack.append((child, level + 1))
        return depths

    def leaf_groups(self) -> list[list[int]]:
        """Group ids per populated leaf, for invariant checks."""
        leaves: list[list[int]] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.groups:
                leaves.append([group.group_id for group in node.groups])
            stack.extend(node.children.values())
        return leaves


class DrainParser(LogParser):
    """Drain under the standard batch contract (§II-C).

    Each :meth:`parse` call feeds the (preprocessed, tokenized) lines
    through a fresh :class:`DrainTree` in input order and reports the
    final group templates — deterministic for a given input sequence,
    no randomness, never an outlier (every line founds a group if
    nothing absorbs it, exactly like the original tool).

    Args:
        depth: fixed tree depth (see :class:`DrainTree`).
        sim_threshold: similarity threshold in (0, 1).
        max_children: branch bound per tree node.
        preprocessor: optional domain-knowledge preprocessing.
    """

    name = "Drain"

    def __init__(
        self,
        depth: int = 4,
        sim_threshold: float = 0.4,
        max_children: int = 100,
        preprocessor=None,
    ) -> None:
        super().__init__(preprocessor=preprocessor)
        # Validate eagerly: a bad configuration should fail at
        # construction, not at the first parse.
        DrainTree(
            depth=depth,
            sim_threshold=sim_threshold,
            max_children=max_children,
        )
        self.depth = depth
        self.sim_threshold = sim_threshold
        self.max_children = max_children

    def tree(self) -> DrainTree:
        """A fresh incremental tree with this parser's configuration."""
        return DrainTree(
            depth=self.depth,
            sim_threshold=self.sim_threshold,
            max_children=self.max_children,
        )

    def _cluster(self, token_lists: list[list[str]]) -> Clustering:
        tree = self.tree()
        labels = [tree.feed(tokens) for tokens in token_lists]
        return Clustering(labels=labels, templates=tree.templates())
