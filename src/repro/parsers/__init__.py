"""The four log parsers evaluated in the paper, plus supporting pieces.

* :class:`~repro.parsers.slct.Slct` — Simple Logfile Clustering Tool
  (Vaarandi, IPOM 2003).
* :class:`~repro.parsers.iplom.Iplom` — Iterative Partitioning Log
  Mining (Makanju et al., KDD 2009 / TKDE 2012).
* :class:`~repro.parsers.lke.Lke` — Log Key Extraction (Fu et al.,
  ICDM 2009).
* :class:`~repro.parsers.logsig.LogSig` — message signature search
  (Tang et al., CIKM 2011).
* :class:`~repro.parsers.oracle.OracleParser` — ground-truth parser
  (the "source code based" parser of Xu et al., used for Table III's
  Ground-truth row).
* :class:`~repro.parsers.drain.DrainParser` — fixed-depth-tree online
  parsing (He et al., ICWS 2017), the modern baseline added by the
  expanded comparison.

All parsers share the standard contract of §II-C: a list of
:class:`~repro.common.types.LogRecord` in, a
:class:`~repro.common.types.ParseResult` out (events file + structured
log file).
"""

from repro.parsers.base import LogParser
from repro.parsers.preprocess import (
    Preprocessor,
    Rule,
    default_preprocessor,
)
from repro.parsers.slct import Slct
from repro.parsers.iplom import Iplom
from repro.parsers.lke import Lke
from repro.parsers.logsig import LogSig
from repro.parsers.drain import DrainParser, DrainTree
from repro.parsers.oracle import OracleParser
from repro.parsers.passthrough import PassthroughParser
from repro.parsers.registry import (
    LADDER_PARSER_NAMES,
    PARSER_NAMES,
    available_parsers,
    make_parser,
    resolve_parser_name,
)
from repro.parsers.tagged import TaggedLogParser, tag_records

__all__ = [
    "LogParser",
    "Preprocessor",
    "Rule",
    "default_preprocessor",
    "Slct",
    "Iplom",
    "Lke",
    "LogSig",
    "DrainParser",
    "DrainTree",
    "OracleParser",
    "PassthroughParser",
    "LADDER_PARSER_NAMES",
    "PARSER_NAMES",
    "available_parsers",
    "make_parser",
    "resolve_parser_name",
    "ChunkedParallelParser",
    "TaggedLogParser",
    "tag_records",
]


def __getattr__(name: str):
    """Export :class:`~repro.parsers.parallel.ChunkedParallelParser` on
    first use: nothing in the package depends on it (parallel parsing
    is a parser a caller passes in), so importing a parser, the engine
    or the service does not load ``concurrent.futures.process``."""
    if name == "ChunkedParallelParser":
        from repro.parsers.parallel import ChunkedParallelParser

        return ChunkedParallelParser
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
