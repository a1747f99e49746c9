"""Per-system log-line header formats.

§IV-A notes that "only the parts of free-text log message contents are
used in evaluating the log parsing methods" — real log lines carry
system-specific header fields in front of the content.  This module
renders and strips those headers so that generated files look like the
real datasets and loaders can exercise the header-stripping step of a
real pipeline:

* BGL: ``<label> <epoch> <date> <node> <full-time> <node> RAS <component> <level> <content>``
* HPC: ``<id> <node> <component> <state> <epoch> <content>``
* HDFS: ``<date> <time> <pid> <level> <class>: <content>``
* Zookeeper: ``<date> - <level> [<thread>] - <content>``
* Proxifier: ``[<time>] <program> - <content>``
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from random import Random
from collections.abc import Callable

from repro.common.errors import DatasetError
from repro.common.rng import spawn
from repro.common.types import LogRecord
from repro.datasets.base import _choice, _randint

_EPOCH = datetime.datetime(2005, 6, 3, 15, 42, 50)


def _bgl_header(rng: Random, moment: datetime.datetime) -> str:
    node = (
        f"R{_randint(rng, 0, 77):02d}-M{_randint(rng, 0, 1)}"
        f"-N{_randint(rng, 0, 15)}-C:J{_randint(rng, 0, 17):02d}"
        f"-U{_randint(rng, 1, 11):02d}"
    )
    level = _choice(rng, ["INFO", "WARNING", "ERROR", "FATAL", "SEVERE"])
    component = _choice(
        rng, ["KERNEL", "APP", "DISCOVERY", "HARDWARE", "MMCS"]
    )
    epoch = int(moment.timestamp())
    date = moment.strftime("%Y.%m.%d")
    full = moment.strftime("%Y-%m-%d-%H.%M.%S.%f")
    return f"- {epoch} {date} {node} {full} {node} RAS {component} {level}"

def _hpc_header(rng: Random, moment: datetime.datetime) -> str:
    ident = _randint(rng, 100000, 999999)
    node = f"node-{_randint(rng, 0, 48)}"
    component = _choice(rng, ["unix.hw", "action", "boot_cmd", "state"])
    state = _choice(rng, ["state_change.unavailable", "error", "normal"])
    return f"{ident} {node} {component} {state} {int(moment.timestamp())}"

def _hdfs_header(rng: Random, moment: datetime.datetime) -> str:
    date = moment.strftime("%y%m%d")
    time = moment.strftime("%H%M%S")
    pid = _randint(rng, 10, 9999)
    level = _choice(rng, ["INFO", "WARN"])
    cls = _choice(rng, [
        "dfs.DataNode$PacketResponder",
        "dfs.DataNode$DataXceiver",
        "dfs.FSNamesystem",
        "dfs.DataBlockScanner",
    ])
    return f"{date} {time} {pid} {level} {cls}:"

def _zookeeper_header(rng: Random, moment: datetime.datetime) -> str:
    stamp = moment.strftime("%Y-%m-%d %H:%M:%S,%f")[:-3]
    level = _choice(rng, ["INFO", "WARN", "ERROR"])
    thread = _choice(rng, [
        "main",
        "QuorumPeer[myid=1]/0.0.0.0:2181",
        "NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181",
        "SyncThread:0",
        "WorkerReceiver[myid=2]",
    ])
    return f"{stamp} - {level} [{thread}] -"

def _proxifier_header(rng: Random, moment: datetime.datetime) -> str:
    stamp = moment.strftime("%m.%d %H:%M:%S")
    program = _choice(
        rng, ["chrome.exe", "firefox.exe", "Dropbox.exe", "thunderbird.exe"]
    )
    return f"[{stamp}] {program} -"


_HEADERS: dict[str, Callable[[Random, datetime.datetime], str]] = {
    "BGL": _bgl_header,
    "HPC": _hpc_header,
    "HDFS": _hdfs_header,
    "Zookeeper": _zookeeper_header,
    "Proxifier": _proxifier_header,
}

#: Number of whitespace-delimited header tokens per system (used by
#: :func:`strip_header`).
HEADER_TOKENS: dict[str, int] = {
    "BGL": 9,
    "HPC": 5,
    "HDFS": 5,
    "Zookeeper": 6,
    "Proxifier": 4,
}


@dataclass(frozen=True)
class HeaderFormat:
    """Renderer/stripper pair for one system's log-line header."""

    system: str

    def __post_init__(self) -> None:
        if self.system not in _HEADERS:
            raise DatasetError(
                f"no header format for system {self.system!r}; "
                f"choose from {sorted(_HEADERS)}"
            )

    @property
    def n_tokens(self) -> int:
        return HEADER_TOKENS[self.system]

    def render(self, rng: Random, moment: datetime.datetime) -> str:
        return _HEADERS[self.system](rng, moment)

    def add_headers(
        self, records: list[LogRecord], seed: int | None = None
    ) -> list[str]:
        """Render full log lines (header + content) for *records*."""
        rng = spawn(seed, f"headers:{self.system}:{len(records)}")
        lines = []
        moment = _EPOCH
        for record in records:
            moment += datetime.timedelta(
                seconds=_choice(rng, [0, 0, 1, 1, 2])
            )
            lines.append(
                f"{self.render(rng, moment)} {record.content}"
            )
        return lines

    def strip_header(self, line: str) -> str:
        """Recover the free-text content from a full log line."""
        tokens = line.split(" ", self.n_tokens)
        if len(tokens) <= self.n_tokens:
            raise DatasetError(
                f"line has no content after the {self.system} header: "
                f"{line!r}"
            )
        return tokens[self.n_tokens]
