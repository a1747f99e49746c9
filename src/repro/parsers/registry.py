"""Name-based parser construction for the CLI and the harnesses."""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.parsers.base import LogParser
from repro.parsers.drain import DrainParser
from repro.parsers.iplom import Iplom
from repro.parsers.lke import Lke
from repro.parsers.logsig import LogSig
from repro.parsers.oracle import OracleParser
from repro.parsers.passthrough import PassthroughParser
from repro.parsers.slct import Slct

_PARSERS: dict[str, type[LogParser]] = {
    "SLCT": Slct,
    "IPLoM": Iplom,
    "LKE": Lke,
    "LogSig": LogSig,
    "Drain": DrainParser,
    "GroundTruth": OracleParser,
    "Passthrough": PassthroughParser,
}

#: Parser names in the paper's presentation order, plus the modern
#: Drain baseline appended by the expanded comparison.
PARSER_NAMES = ["SLCT", "IPLoM", "LKE", "LogSig", "Drain"]


def available_parsers() -> list[str]:
    """Every registered parser name, in registration order."""
    return list(_PARSERS)


def resolve_parser_name(name: str) -> str:
    """Canonical registry name for ``name``, case-insensitively.

    Raises :class:`~repro.common.errors.ValidationError` listing the
    available parsers when ``name`` is not registered.  Unlike
    :func:`make_parser` this never constructs the parser, so it is safe
    for names whose constructors demand parameters (e.g. LogSig).
    """
    for registered in _PARSERS:
        if registered.lower() == name.lower():
            return registered
    raise ValidationError(
        f"unknown parser {name!r}; choose from {sorted(_PARSERS)}"
    )


def make_parser(name: str, **params) -> LogParser:
    """Construct a parser by (case-insensitive) name.

    Keyword arguments are forwarded to the parser constructor, so e.g.
    ``make_parser("slct", support=0.005)`` works.

    Raises :class:`~repro.common.errors.ValidationError` (a
    configuration error, exit code 2 at the CLI) for a name not in the
    registry, listing what *is* available.
    """
    for registered, cls in _PARSERS.items():
        if registered.lower() == name.lower():
            return cls(**params)
    raise ValidationError(
        f"unknown parser {name!r}; choose from {sorted(_PARSERS)}"
    )
