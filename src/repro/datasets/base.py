"""Dataset building blocks: templates, template banks, dataset specs.

A :class:`Template` is a log-message pattern with ``<kind>`` placeholders
(e.g. ``Receiving block <blk> src: /<ip>:<port> dest: /<ip>:<port>``).
Rendering a template substitutes concrete values for the placeholders;
its *truth template* replaces every placeholder-bearing token with the
``*`` wildcard, which is the token-level ground truth the paper's
F-measure evaluation clusters against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from collections.abc import Callable
from random import Random

from repro.common.errors import DatasetError
from repro.common.tokenize import WILDCARD, render_template, tokenize
from repro.common.types import LogRecord

#: Matches one ``<kind>`` placeholder inside a template token.
PLACEHOLDER_PATTERN = re.compile(r"<([a-z_]+)>")


def _randint(rng: Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``, draw for draw, without its three frames.

    CPython's ``randint`` → ``randrange`` → ``_randbelow`` ends in this
    rejection loop, so the Mersenne Twister state advances exactly as
    it does there; ``tests/test_dataset_golden.py`` pins the equality.
    """
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def _choice(rng: Random, seq):
    """``rng.choice(seq)``, draw for draw (see :func:`_randint`)."""
    return seq[_randint(rng, 0, len(seq) - 1)]


def _random_ip(rng: Random) -> str:
    return (
        f"10.{_randint(rng, 0, 255)}.{_randint(rng, 0, 255)}"
        f".{_randint(rng, 1, 254)}"
    )


def _random_port(rng: Random) -> str:
    return str(_randint(rng, 1024, 65535))


def _random_block_id(rng: Random) -> str:
    sign = "-" if rng.random() < 0.5 else ""
    return f"blk_{sign}{_randint(rng, 10**15, 10**19 - 1)}"


def _random_number(rng: Random) -> str:
    return str(_randint(rng, 0, 99999))


def _random_small_number(rng: Random) -> str:
    return str(_randint(rng, 0, 9))


def _random_responder(rng: Random) -> str:
    # HDFS PacketResponder indices are pipeline positions (0..2 for the
    # default replication factor of 3).
    return str(_randint(rng, 0, 2))


def _random_hex(rng: Random) -> str:
    return f"0x{rng.getrandbits(32):08x}"


def _random_size(rng: Random) -> str:
    # Full 64 MB blocks recur; file-tail blocks vary freely.
    if rng.random() < 0.15:
        return "67108864"
    return str(_randint(rng, 1, 67108863))


def _random_path(rng: Random) -> str:
    parts = rng.sample(
        ["user", "root", "data", "tmp", "jobs", "randtxt", "output",
         "part", "task", "mnt", "hadoop", "spool"],
        k=_randint(rng, 2, 4),
    )
    return "/" + "/".join(parts) + f"/part-{_randint(rng, 0, 99999):05d}"


def _random_host(rng: Random) -> str:
    return (
        f"{_choice(rng, ['node', 'cn', 'worker', 'dn', 'srv'])}-"
        f"{_randint(rng, 0, 4095)}"
    )


def _random_user(rng: Random) -> str:
    return _choice(
        rng,
        ["root", "hadoop", "zookeeper", "admin", "svc", "operator", "nobody"],
    )


def _random_float(rng: Random) -> str:
    return f"{rng.uniform(0, 1000):.2f}"


def _random_duration(rng: Random) -> str:
    return f"{_randint(rng, 0, 23):02d}:{_randint(rng, 0, 59):02d}"


#: Failing cores dump repeatedly, so core ids in real BGL logs are
#: heavily skewed: a handful of hot cores account for most dumps, with
#: a long uniform tail.  Hot core ids look like constants to
#: frequency-based parsers — the paper's explanation for SLCT's and
#: LogSig's low raw-BGL accuracy.
_HOT_CORES = tuple(range(256, 4096, 512))


def _random_core(rng: Random) -> str:
    if rng.random() < 0.7:
        return f"core.{_choice(rng, _HOT_CORES)}"
    return f"core.{_randint(rng, 0, 4095)}"


def _random_cluster_node(rng: Random) -> str:
    # The paper's HPC cluster has 49 nodes; node names repeat heavily.
    return f"node-{_randint(rng, 0, 48)}"


def _random_node_location(rng: Random) -> str:
    return (
        f"R{_randint(rng, 0, 77):02d}-M{_randint(rng, 0, 1)}"
        f"-N{_randint(rng, 0, 15)}-C:J{_randint(rng, 0, 17):02d}"
        f"-U{_randint(rng, 1, 11):02d}"
    )


def _random_session(rng: Random) -> str:
    return f"0x{rng.getrandbits(48):012x}"


#: Placeholder kind → value sampler.
FIELD_GENERATORS: dict[str, Callable[[Random], str]] = {
    "ip": _random_ip,
    "port": _random_port,
    "blk": _random_block_id,
    "num": _random_number,
    "snum": _random_small_number,
    "rsp": _random_responder,
    "hex": _random_hex,
    "size": _random_size,
    "path": _random_path,
    "host": _random_host,
    "user": _random_user,
    "float": _random_float,
    "time": _random_duration,
    "core": _random_core,
    "cnode": _random_cluster_node,
    "node": _random_node_location,
    "session": _random_session,
}


@dataclass(frozen=True)
class Template:
    """A log-message pattern with ``<kind>`` placeholders.

    Attributes:
        event_id: stable identifier, unique within its bank (e.g. ``E5``).
        pattern: the message pattern; placeholders may be embedded inside
            tokens (``src: /<ip>:<port>`` renders to ``src: /10.0.0.1:42``
            and its truth token is ``*`` because truth masking is
            token-level).
        weight: relative sampling frequency within the bank.
    """

    event_id: str
    pattern: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise DatasetError(
                f"template {self.event_id}: weight must be positive"
            )
        pieces = PLACEHOLDER_PATTERN.split(self.pattern)  # lit, kind, lit…
        for kind in pieces[1::2]:
            if kind not in FIELD_GENERATORS:
                raise DatasetError(
                    f"template {self.event_id}: unknown placeholder "
                    f"<{kind}>"
                )
        # Compiled once: the leading literal, then (sampler, literal)
        # pairs in pattern order — the order re.sub would call them.
        object.__setattr__(self, "_head", pieces[0])
        object.__setattr__(self, "_fields", tuple(
            (FIELD_GENERATORS[kind], literal)
            for kind, literal in zip(pieces[1::2], pieces[2::2])
        ))

    @property
    def truth_template(self) -> str:
        """Token-level masked form: any token carrying a placeholder → *."""
        tokens = [
            WILDCARD if PLACEHOLDER_PATTERN.search(token) else token
            for token in tokenize(self.pattern)
        ]
        return render_template(tokens)

    @property
    def token_length(self) -> int:
        return len(tokenize(self.pattern))

    def render(self, rng: Random) -> str:
        """Instantiate the pattern with randomly sampled field values."""
        out = self._head
        for sampler, literal in self._fields:
            out += sampler(rng) + literal
        return out


@dataclass(frozen=True)
class TemplateBank:
    """A validated collection of templates for one system's logs."""

    name: str
    templates: tuple[Template, ...]

    def __post_init__(self) -> None:
        if not self.templates:
            raise DatasetError(f"bank {self.name}: no templates")
        by_id = {t.event_id: t for t in self.templates}
        if len(by_id) != len(self.templates):
            raise DatasetError(f"bank {self.name}: duplicate event ids")
        object.__setattr__(self, "_by_id", by_id)
        truths = [t.truth_template for t in self.templates]
        duplicates = {t for t in truths if truths.count(t) > 1}
        if duplicates:
            raise DatasetError(
                f"bank {self.name}: templates collide after masking: "
                f"{sorted(duplicates)[:3]}"
            )

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self):
        return iter(self.templates)

    def by_id(self, event_id: str) -> Template:
        return self._by_id[event_id]

    @property
    def length_range(self) -> tuple[int, int]:
        lengths = [t.token_length for t in self.templates]
        return min(lengths), max(lengths)

    def truth_templates(self) -> dict[str, str]:
        """Map event id → masked truth template."""
        return {t.event_id: t.truth_template for t in self.templates}


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one of the paper's five datasets (Table I)."""

    name: str
    description: str
    bank: TemplateBank
    reference_size: int
    #: The paper's Table I event count this bank must match.
    paper_events: int
    #: The paper's Table I token-length range.
    paper_length_range: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.bank) != self.paper_events:
            raise DatasetError(
                f"{self.name}: bank has {len(self.bank)} templates, paper "
                f"reports {self.paper_events}"
            )


@dataclass
class SyntheticDataset:
    """Generated raw records plus their exact ground truth."""

    spec: DatasetSpec
    records: list[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def truth_assignments(self) -> list[str]:
        """Ground-truth event id for each record, in order."""
        assignments = []
        for record in self.records:
            if record.truth_event is None:
                raise DatasetError("record missing ground-truth event id")
            assignments.append(record.truth_event)
        return assignments

    def contents(self) -> list[str]:
        return [record.content for record in self.records]

    def observed_event_ids(self) -> set[str]:
        return set(self.truth_assignments)
