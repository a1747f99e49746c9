"""Deterministic, seeded fault injection for the resilience suite.

Every recovery path in the runtime — quarantine, retry, circuit
breaking, worker re-dispatch, checkpoint resume — is only trustworthy
if it is *exercised*, and real faults are rare and irreproducible.
This module manufactures them on a fixed schedule derived from a seed,
so a failing resilience test replays bit-for-bit:

* :func:`corrupt_records` / :func:`corrupt_raw_file` dirty an input
  stream (binary garbage, oversized payloads, mid-token truncation,
  invalid UTF-8 bytes) — exercised against the loader's and engine's
  error policies;
* :class:`FlakyFactory` builds parsers that crash or stall on their
  first *n* calls — exercised against
  :class:`~repro.resilience.supervisor.ParserSupervisor` retries,
  deadlines, and fallback chains;
* :class:`ChunkFault` fires inside chunk workers on scheduled
  ``(chunk, attempt)`` pairs — exercised against
  :class:`~repro.parsers.parallel.ChunkedParallelParser` re-dispatch
  and in-process fallback;
* :class:`FaultyIO` interposes on the durability layer's IO seam
  (:class:`~repro.resilience.durability.RealIO`), injecting ``EIO``,
  ``ENOSPC``, fsync failures, and partial/torn writes at scripted
  byte offsets — exercised against every durable writer's
  retry/divert/recover contract;
* :class:`FaultyLineSender` plays a misbehaving network client
  against the ingestion service's TCP front end — mid-line
  disconnects, lost partial lines, slow writers, reconnect storms —
  on a :func:`connection_fault_schedule` derived from a seed
  (the ``REPRO_CONN_SEED`` CI matrix).

Everything here is picklable (plain module-level classes over plain
data) so faults survive the trip into worker processes.
"""

from __future__ import annotations

import errno
import os
import signal as _signal_module
import zlib
import socket
import time
from dataclasses import dataclass
from random import Random
from collections.abc import Iterable, Iterator, Sequence

from repro.common.errors import ReproError, ValidationError
from repro.common.types import LogRecord, ParseResult
from repro.parsers.base import LogParser, ParserFactory
from repro.resilience.durability import RealIO

_SIGKILL = getattr(_signal_module, "SIGKILL", _signal_module.SIGTERM)


class InjectedFault(ReproError, RuntimeError):
    """Raised by the harness where a real crash would occur.

    Subclasses :class:`RuntimeError` so recovery code that catches
    broad runtime failures treats it exactly like the genuine article.
    """


# ----------------------------------------------------------------------
# Input corruption
# ----------------------------------------------------------------------

#: Record-level corruption kinds.
KIND_BINARY = "binary"
KIND_OVERSIZED = "oversized"
KIND_TRUNCATED = "truncated"
RECORD_KINDS = (KIND_BINARY, KIND_OVERSIZED, KIND_TRUNCATED)

_BINARY_JUNK = "\x00\x07\x1b[31m"


def corrupt_records(
    records: Iterable[LogRecord],
    *,
    seed: int,
    every: int,
    kinds: Sequence[str] = RECORD_KINDS,
    oversize_to: int = 5000,
) -> Iterator[LogRecord]:
    """Yield *records* with every ``every``-th one corrupted.

    The corruption kind for each victim is drawn from a
    ``Random(seed)`` stream, so the same seed always corrupts the same
    records the same way.  Kinds:

    * ``binary`` — control bytes spliced into the content (caught by
      :func:`~repro.resilience.quarantine.is_clean_content`);
    * ``oversized`` — content padded past *oversize_to* characters;
    * ``truncated`` — content cut mid-token (stays printable: models
      a log line chopped by a crashing writer, dirty but parseable).
    """
    if every < 1:
        raise ValidationError(f"every must be >= 1, got {every}")
    for kind in kinds:
        if kind not in RECORD_KINDS:
            raise ValidationError(
                f"unknown corruption kind {kind!r}; choose from {RECORD_KINDS}"
            )
    rng = Random(seed)
    for index, record in enumerate(records):
        if (index + 1) % every != 0:
            yield record
            continue
        kind = rng.choice(list(kinds))
        content = record.content
        if kind == KIND_BINARY:
            cut = rng.randrange(len(content) + 1)
            content = content[:cut] + _BINARY_JUNK + content[cut:]
        elif kind == KIND_OVERSIZED:
            pad = "A" * (oversize_to + 1 - len(content))
            content = content + pad
        else:  # truncated
            keep = max(1, len(content) // 3)
            content = content[:keep]
        yield LogRecord(
            content=content,
            timestamp=record.timestamp,
            session_id=record.session_id,
            truth_event=record.truth_event,
        )


def corrupt_raw_file(
    src: str,
    dst: str,
    *,
    seed: int,
    every: int,
    oversize_to: int = 100_000,
) -> int:
    """Copy raw log *src* to *dst*, corrupting every ``every``-th line.

    Works at the byte level so the loader's decode path is exercised:
    victims alternately get invalid UTF-8 bytes spliced in or are
    padded past *oversize_to* bytes.  Returns the number of corrupted
    lines.
    """
    if every < 1:
        raise ValidationError(f"every must be >= 1, got {every}")
    rng = Random(seed)
    corrupted = 0
    with open(src, "rb") as infile, open(dst, "wb") as outfile:
        for index, raw in enumerate(infile):
            line = raw.rstrip(b"\n")
            if line and (index + 1) % every == 0:
                corrupted += 1
                if rng.random() < 0.5:
                    cut = rng.randrange(len(line) + 1)
                    line = line[:cut] + b"\xff\xfe\xfd" + line[cut:]
                else:
                    line = line + b"A" * (oversize_to + 1 - len(line))
            outfile.write(line + b"\n")
    return corrupted


# ----------------------------------------------------------------------
# Flaky parsers (supervisor faults)
# ----------------------------------------------------------------------


class FlakyFactory:
    """Parser factory whose first *n* parses crash and/or stall.

    Args:
        inner: the real factory to delegate to.
        fail_times: the first *fail_times* ``parse()`` calls raise
            :class:`InjectedFault`.
        hang_seconds: when > 0, the first *fail_times* calls sleep this
            long *instead of* raising — long enough past a supervisor
            deadline, that registers as a timeout.
        name: reported parser name (defaults to the inner parser's).

    Call-count state lives on the factory instance, so it spans the
    fresh parser objects a supervisor builds per attempt.  That makes
    the factory in-process only; use :class:`ChunkFault` for faults
    that must fire inside worker processes.
    """

    def __init__(
        self,
        inner: ParserFactory,
        *,
        fail_times: int = 1,
        hang_seconds: float = 0.0,
        name: str | None = None,
    ) -> None:
        if fail_times < 0:
            raise ValidationError(
                f"fail_times must be >= 0, got {fail_times}"
            )
        self.inner = inner
        self.fail_times = fail_times
        self.hang_seconds = hang_seconds
        self.name = name
        self.calls = 0

    def __call__(self) -> LogParser:
        return _FlakyParser(self)


class _FlakyParser(LogParser):
    """The per-call wrapper :class:`FlakyFactory` hands out."""

    def __init__(self, gate: FlakyFactory) -> None:
        super().__init__(preprocessor=None)
        self._gate = gate
        inner = gate.inner()
        self._inner = inner
        self.name = gate.name or inner.name

    def parse(self, records: Sequence[LogRecord]) -> ParseResult:
        gate = self._gate
        gate.calls += 1
        if gate.calls <= gate.fail_times:
            if gate.hang_seconds > 0:
                time.sleep(gate.hang_seconds)
            else:
                raise InjectedFault(
                    f"injected crash on parse call {gate.calls} "
                    f"of {self.name}"
                )
        return self._inner.parse(records)

    def _cluster(self, token_lists):  # pragma: no cover - parse() overridden
        raise NotImplementedError("_FlakyParser overrides parse() directly")


# ----------------------------------------------------------------------
# Worker-chunk faults
# ----------------------------------------------------------------------

#: Chunk fault modes.
MODE_RAISE = "raise"
MODE_EXIT = "exit"
MODE_HANG = "hang"
CHUNK_MODES = (MODE_RAISE, MODE_EXIT, MODE_HANG)


@dataclass(frozen=True)
class ChunkFault:
    """Scheduled fault firing inside chunk parses.

    Args:
        chunks: chunk indices to sabotage.
        attempts: the fault fires on attempts ``1..attempts`` of a
            sabotaged chunk and then lets it succeed — raise
            ``attempts`` past the dispatcher's ``max_chunk_attempts``
            to force the in-process fallback.
        mode: ``raise`` (exception in the worker), ``exit`` (hard
            ``os._exit``, i.e. a dead worker process and a broken
            pool), or ``hang`` (sleep ``hang_seconds`` before parsing,
            tripping a chunk deadline).
        hang_seconds: stall length for ``hang`` mode.
        worker_only: when True (default), the fault never fires for
            in-process parses — so the dispatcher's in-process
            fallback, which models escaping a poisoned worker
            environment, genuinely recovers.

    Frozen and built from plain data, so it pickles into workers and
    the schedule is identical on every replay.
    """

    chunks: tuple[int, ...]
    attempts: int = 1
    mode: str = MODE_RAISE
    hang_seconds: float = 5.0
    worker_only: bool = True

    def __post_init__(self) -> None:
        if self.mode not in CHUNK_MODES:
            raise ValidationError(
                f"chunk fault mode must be one of {CHUNK_MODES}, "
                f"got {self.mode!r}"
            )
        if self.attempts < 1:
            raise ValidationError(
                f"attempts must be >= 1, got {self.attempts}"
            )

    def should_fire(
        self, chunk_index: int, attempt: int, in_process: bool
    ) -> bool:
        if in_process and self.worker_only:
            return False
        return chunk_index in self.chunks and attempt <= self.attempts

    def fire(self, chunk_index: int, attempt: int) -> None:
        """Enact the fault (called from inside the chunk parse)."""
        if self.mode == MODE_EXIT:
            os._exit(13)
        if self.mode == MODE_HANG:
            time.sleep(self.hang_seconds)
            return
        raise InjectedFault(
            f"injected worker crash on chunk {chunk_index} "
            f"attempt {attempt}"
        )


# ----------------------------------------------------------------------
# IO faults (durability layer)
# ----------------------------------------------------------------------

#: IO fault kinds.
IO_EIO = "eio"
IO_ENOSPC = "enospc"
IO_FSYNC = "fsync"
IO_TORN = "torn"
IO_KINDS = (IO_EIO, IO_ENOSPC, IO_FSYNC, IO_TORN)

_IO_ERRNO = {
    IO_EIO: errno.EIO,
    IO_ENOSPC: errno.ENOSPC,
    IO_FSYNC: errno.EIO,
    IO_TORN: errno.EIO,
}


@dataclass
class IoFault:
    """One scripted IO failure.

    Args:
        kind: ``eio`` (the write fails outright), ``enospc`` (the
            device fills: bytes up to the offset land, the rest raise
            ``ENOSPC``), ``fsync`` (the Nth fsync call fails — data
            may sit in the page cache but durability is not
            guaranteed), ``torn`` (the write is cut mid-record at the
            scripted byte offset, modeling power loss during a
            multi-byte write).
        at_bytes: for ``eio``/``enospc``/``torn``: the cumulative
            byte-stream offset (across all writes through this
            :class:`FaultyIO`) at which the fault fires.
        at_call: for ``fsync``: the 1-based fsync call number from
            which the fault fires (later calls keep failing while
            ``times`` lasts, so a persistently broken device is
            ``times=N``).
        path_contains: only writes/fsyncs whose path contains this
            substring are eligible (``None`` matches every path).
        times: how many times the fault fires before disarming — 1
            models a transient hiccup a retry survives, a large value
            models a persistently failing device.
    """

    kind: str
    at_bytes: int = 0
    at_call: int = 1
    path_contains: str | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in IO_KINDS:
            raise ValidationError(
                f"io fault kind must be one of {IO_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.times < 1:
            raise ValidationError(f"times must be >= 1, got {self.times}")

    def matches_path(self, path: str) -> bool:
        return self.path_contains is None or self.path_contains in path


class FaultyIO(RealIO):
    """A :class:`~repro.resilience.durability.RealIO` that fails on cue.

    Wraps the real IO primitives, tracking the cumulative bytes
    written and fsync calls issued through it, and enacts the scripted
    :class:`IoFault` list deterministically: the same script against
    the same write sequence always fails at the same byte.  Torn and
    ``ENOSPC`` faults genuinely persist the partial prefix before
    raising, so recovery code faces real half-written files, not
    pretend ones.

    Use :func:`io_fault_schedule` to derive a reproducible script from
    a seed (the ``REPRO_IO_SEED`` CI matrix does).
    """

    def __init__(self, script: Sequence[IoFault] = ()) -> None:
        self.script = list(script)
        self.bytes_written = 0
        self.fsync_calls = 0
        self.fired: list[IoFault] = []
        self._paths: dict[int, str] = {}

    def open(self, path: str, mode: str):
        handle = super().open(path, mode)
        self._paths[id(handle)] = path
        return handle

    def _path_of(self, handle) -> str:
        return self._paths.get(id(handle), getattr(handle, "name", "?"))

    def _arm(self, fault: IoFault) -> None:
        fault.times -= 1
        self.fired.append(fault)
        if fault.times == 0:
            self.script.remove(fault)

    def write(self, handle, data: bytes) -> None:
        path = self._path_of(handle)
        start = self.bytes_written
        end = start + len(data)
        for fault in list(self.script):
            if fault.kind not in (IO_EIO, IO_ENOSPC, IO_TORN):
                continue
            if not fault.matches_path(path):
                continue
            if not (start <= fault.at_bytes < end):
                continue
            self._arm(fault)
            keep = fault.at_bytes - start
            if fault.kind != IO_EIO and keep:
                super().write(handle, data[:keep])
                super().flush(handle)
                self.bytes_written += keep
            raise OSError(
                _IO_ERRNO[fault.kind],
                f"injected {fault.kind} at byte {fault.at_bytes} "
                f"of {path}",
            )
        super().write(handle, data)
        self.bytes_written = end

    def fsync(self, handle) -> None:
        self.fsync_calls += 1
        path = self._path_of(handle)
        for fault in list(self.script):
            if fault.kind != IO_FSYNC or not fault.matches_path(path):
                continue
            if self.fsync_calls < fault.at_call:
                continue
            self._arm(fault)
            raise OSError(
                _IO_ERRNO[IO_FSYNC],
                f"injected fsync failure (call {self.fsync_calls}) "
                f"on {path}",
            )
        super().fsync(handle)


def io_fault_schedule(
    seed: int,
    *,
    n: int = 4,
    max_bytes: int = 4096,
    kinds: Sequence[str] = IO_KINDS,
    path_contains: str | None = None,
    times: int = 1,
) -> list[IoFault]:
    """A reproducible IO fault script drawn from *seed*.

    The same seed always yields the same script, so a failing
    durability test replays bit-for-bit.  Faults are spaced so a
    single-retry writer can survive each one individually: byte
    offsets land in disjoint windows at least half a window apart,
    and fsync call numbers keep a gap of two so the retry's fsync
    falls between faults rather than on the next one.  Stacking
    ``times`` (or tightening the spacing by hand) is how tests model
    a persistently failing device.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    for kind in kinds:
        if kind not in IO_KINDS:
            raise ValidationError(
                f"unknown io fault kind {kind!r}; choose from {IO_KINDS}"
            )
    rng = Random(seed)
    window = max(1024, max_bytes // n)
    script = []
    fsync_call = 0
    for index in range(n):
        kind = rng.choice(list(kinds))
        fsync_call += rng.randint(2, 5)
        script.append(
            IoFault(
                kind=kind,
                at_bytes=index * window + rng.randrange(window // 2),
                at_call=fsync_call,
                path_contains=path_contains,
                times=times,
            )
        )
    return script


# ----------------------------------------------------------------------
# Connection faults (service front end)
# ----------------------------------------------------------------------

#: Connection fault kinds.
CONN_DISCONNECT = "disconnect"
CONN_PARTIAL = "partial"
CONN_SLOW = "slow"
CONN_STORM = "storm"
CONN_KINDS = (CONN_DISCONNECT, CONN_PARTIAL, CONN_SLOW, CONN_STORM)


@dataclass(frozen=True)
class ConnectionFault:
    """One scripted misbehavior of a network log producer.

    Args:
        kind: ``disconnect`` (the socket closes mid-line; the client
            reconnects and resends the whole line, so the server sees
            a dangling partial *and* the full line again),
            ``partial`` (the socket closes mid-line and the tail is
            *lost* — the line never arrives whole, modeling a crashed
            writer), ``slow`` (the line is written in two halves with
            a stall between them, modeling a slow writer the server
            must not block other tenants on), ``storm`` (the client
            drops and re-establishes the connection ``repeats`` times
            back-to-back before sending the line normally).
        at_line: 0-based index (within one sender's line sequence) at
            which the fault fires.
        cut_fraction: for ``disconnect``/``partial``: where within the
            encoded line the cut lands, as a fraction of its length.
        delay_seconds: for ``slow``: the mid-line stall.
        repeats: for ``storm``: how many rapid reconnect cycles.
    """

    kind: str
    at_line: int
    cut_fraction: float = 0.5
    delay_seconds: float = 0.05
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.kind not in CONN_KINDS:
            raise ValidationError(
                f"connection fault kind must be one of {CONN_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.at_line < 0:
            raise ValidationError(
                f"at_line must be >= 0, got {self.at_line}"
            )
        if not 0.0 <= self.cut_fraction <= 1.0:
            raise ValidationError(
                f"cut_fraction must be in [0, 1], got {self.cut_fraction}"
            )
        if self.repeats < 1:
            raise ValidationError(
                f"repeats must be >= 1, got {self.repeats}"
            )


def connection_fault_schedule(
    seed: int,
    *,
    n: int = 4,
    span: int = 200,
    kinds: Sequence[str] = CONN_KINDS,
    delay_seconds: float = 0.02,
) -> list[ConnectionFault]:
    """A reproducible connection fault script drawn from *seed*.

    Fault lines land in disjoint windows of ``span // n`` lines, so
    faults never stack on one line and the same seed replays the same
    script bit-for-bit.  *span* should be the number of lines the
    faulty sender will send.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if span < n:
        raise ValidationError(
            f"span must be >= n ({n}), got {span}"
        )
    for kind in kinds:
        if kind not in CONN_KINDS:
            raise ValidationError(
                f"unknown connection fault kind {kind!r}; "
                f"choose from {CONN_KINDS}"
            )
    rng = Random(seed)
    window = span // n
    return [
        ConnectionFault(
            kind=rng.choice(list(kinds)),
            at_line=index * window + rng.randrange(window),
            cut_fraction=rng.uniform(0.2, 0.8),
            delay_seconds=delay_seconds,
            repeats=rng.randint(2, 4),
        )
        for index in range(n)
    ]


class FaultyLineSender:
    """A misbehaving TCP log producer, scripted by :class:`ConnectionFault`.

    Connects to the ingestion service's line front end and sends each
    line terminated by ``\\n``, enacting the script deterministically:
    the same script against the same lines always misbehaves at the
    same bytes.  Tracks what actually happened so tests can assert on
    it (``fired``, ``reconnects``, ``lost_lines``).

    The sender is the *client* half of connection fault injection: the
    server under test must survive dangling partials (quarantining the
    fragment, never crashing the tenant's neighbors), absorb reconnect
    storms, and keep slow writers from stalling other connections.
    """

    def __init__(
        self,
        host: str,
        port: int,
        script: Sequence[ConnectionFault] = (),
        *,
        connect_timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.script = {fault.at_line: fault for fault in script}
        if len(self.script) != len(script):
            raise ValidationError(
                "connection fault script has two faults on one line; "
                "use disjoint at_line values"
            )
        self.connect_timeout = connect_timeout
        self.fired: list[ConnectionFault] = []
        self.reconnects = 0
        self.lost_lines = 0
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self._sock = sock
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def _reconnect(self) -> socket.socket:
        self._drop()
        self.reconnects += 1
        return self._connect()

    def send_lines(self, lines: Iterable[str]) -> dict:
        """Send *lines*, misbehaving on schedule; returns a summary.

        Returns ``{"sent": n, "lost": n, "fired": n, "reconnects": n}``
        where ``sent`` counts lines the server eventually received
        whole and ``lost`` counts ``partial``-fault lines whose tail
        never arrived.
        """
        sock = self._sock or self._connect()
        sent = 0
        try:
            for index, line in enumerate(lines):
                payload = line.encode("utf-8") + b"\n"
                fault = self.script.get(index)
                if fault is None:
                    sock.sendall(payload)
                    sent += 1
                    continue
                self.fired.append(fault)
                cut = max(1, int(len(payload) * fault.cut_fraction))
                if fault.kind == CONN_DISCONNECT:
                    sock.sendall(payload[:cut])
                    sock = self._reconnect()
                    sock.sendall(payload)
                    sent += 1
                elif fault.kind == CONN_PARTIAL:
                    sock.sendall(payload[:cut])
                    sock = self._reconnect()
                    self.lost_lines += 1
                elif fault.kind == CONN_SLOW:
                    sock.sendall(payload[:cut])
                    time.sleep(fault.delay_seconds)
                    sock.sendall(payload[cut:])
                    sent += 1
                else:  # storm
                    for _ in range(fault.repeats):
                        sock = self._reconnect()
                    sock.sendall(payload)
                    sent += 1
        finally:
            self.close()
        return {
            "sent": sent,
            "lost": self.lost_lines,
            "fired": len(self.fired),
            "reconnects": self.reconnects,
        }

    def close(self) -> None:
        self._drop()


# ----------------------------------------------------------------------
# Process faults (shard worker subprocesses)
# ----------------------------------------------------------------------

#: Process fault kinds.
PROC_KILL = "kill"
PROC_EXIT = "exit"
PROC_HANG = "hang"
PROC_SLOW_START = "slow-start"
PROC_KINDS = (PROC_KILL, PROC_EXIT, PROC_HANG, PROC_SLOW_START)


@dataclass(frozen=True)
class ProcessFault:
    """Scheduled fault enacted *inside* a shard worker process.

    Unlike :class:`ChunkFault` (which sabotages one stateless chunk
    parse), a process fault kills, wedges, or delays a long-lived
    :class:`~repro.service.workers.ShardWorker` — the thing the
    supervisor's watchdog, restart backoff, and poison-pill protocol
    exist to survive.

    Args:
        kind: ``kill`` (``SIGKILL`` self — no cleanup, no exit code
            beyond the signal), ``exit`` (hard nonzero ``os._exit``),
            ``hang`` (stop heartbeating and sleep ``hang_seconds`` —
            trips the parent watchdog), or ``slow-start`` (sleep
            ``delay_seconds`` before the worker signals ready).
        at_record: global record index (the shard's stream position)
            at which ``kill``/``exit``/``hang`` fire, checked at feed
            time so attribution is exact.  Ignored by ``slow-start``.
        at_drain: fire when the drain request is processed (before the
            shard finalizes) instead of at a record index.
        lives: worker incarnation numbers (1-based) in which the fault
            fires.  ``lives=(1,)`` models a transient crash the replay
            survives; ``lives=(1, 2, 3)`` at one record models a
            poison pill that keeps killing its replayer.
        exit_code / hang_seconds / delay_seconds: kind parameters.

    Frozen plain data: pickles into the worker spec and replays
    bit-for-bit.
    """

    kind: str
    at_record: int = 0
    at_drain: bool = False
    lives: tuple[int, ...] = (1,)
    exit_code: int = 3
    hang_seconds: float = 60.0
    delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in PROC_KINDS:
            raise ValidationError(
                f"process fault kind must be one of {PROC_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.at_record < 0:
            raise ValidationError(
                f"at_record must be >= 0, got {self.at_record}"
            )
        if not self.lives or any(life < 1 for life in self.lives):
            raise ValidationError(
                f"lives must be non-empty 1-based incarnations, "
                f"got {self.lives!r}"
            )
        if self.exit_code == 0:
            raise ValidationError("exit fault must use a nonzero exit code")

    def fires_at_start(self, life: int) -> bool:
        return self.kind == PROC_SLOW_START and life in self.lives

    def should_fire(self, record_index: int, life: int) -> bool:
        """Fire at feed time for record *record_index* in *life*?"""
        if self.kind == PROC_SLOW_START or self.at_drain:
            return False
        return record_index == self.at_record and life in self.lives

    def should_fire_at_drain(self, life: int) -> bool:
        if self.kind == PROC_SLOW_START or not self.at_drain:
            return False
        return life in self.lives

    def fire(self) -> None:
        """Enact the fault (called from inside the worker process)."""
        if self.kind == PROC_KILL:
            os.kill(os.getpid(), _SIGKILL)
        elif self.kind == PROC_EXIT:
            os._exit(self.exit_code)
        elif self.kind == PROC_HANG:
            time.sleep(self.hang_seconds)
        else:  # slow-start: enacted by the worker before ready
            time.sleep(self.delay_seconds)


def process_fault_schedule(
    seed: int,
    *,
    n: int = 3,
    span: int = 200,
    kinds: Sequence[str] = (PROC_KILL, PROC_EXIT, PROC_HANG),
    lives: tuple[int, ...] | None = None,
    hang_seconds: float = 60.0,
) -> list[ProcessFault]:
    """A reproducible per-tenant crash script drawn from *seed*.

    Fault records land in disjoint windows of ``span // n`` records
    (same discipline as :func:`connection_fault_schedule`), so each
    crash resolves — restart, careful replay — before the next one
    lands, and the same seed replays the same script bit-for-bit.
    *span* should be the number of records the tenant will receive.

    By default fault *i* is armed in worker life ``i + 1``: the first
    fault kills the original worker, the second kills its replacement
    once it has replayed past the first window, and so on — every
    scheduled fault actually fires.  Pass *lives* explicitly to arm
    all faults in the same incarnations instead (e.g. a poison pill).
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if span < n:
        raise ValidationError(f"span must be >= n ({n}), got {span}")
    for kind in kinds:
        if kind not in PROC_KINDS or kind == PROC_SLOW_START:
            raise ValidationError(
                f"unschedulable process fault kind {kind!r}; "
                f"choose from {(PROC_KILL, PROC_EXIT, PROC_HANG)}"
            )
    rng = Random(seed)
    window = span // n
    return [
        ProcessFault(
            kind=rng.choice(list(kinds)),
            at_record=index * window + rng.randrange(window),
            lives=lives if lives is not None else (index + 1,),
            exit_code=rng.randint(1, 125),
            hang_seconds=hang_seconds,
        )
        for index in range(n)
    ]


# ----------------------------------------------------------------------
# Network faults (exactly-once delivery layer, protocol v2)
# ----------------------------------------------------------------------

#: Network fault kinds.
NET_PARTITION = "partition"
NET_HALF_CLOSE = "half-close"
NET_DUPLICATE = "duplicate"
NET_REORDER = "reorder"
NET_ACK_DROP = "ack-drop"
NET_KINDS = (
    NET_PARTITION,
    NET_HALF_CLOSE,
    NET_DUPLICATE,
    NET_REORDER,
    NET_ACK_DROP,
)


@dataclass(frozen=True)
class NetworkFault:
    """One scripted network-level misbehavior on a v2 delivery stream.

    Where :class:`ConnectionFault` models a *misbehaving producer*
    against the fire-and-forget v1 front end, a ``NetworkFault``
    models the *network itself* misbehaving under a client that is
    trying to be correct — the
    :class:`~repro.service.client.DurableSender` enacts the script and
    must still converge to exactly-once server-side effects.

    Args:
        kind: ``partition`` (the connection drops mid-line; the
            sender reconnects and resends its unacked suffix — the
            server sees a dangling partial plus duplicates),
            ``half-close`` (the write side closes mid-line and the
            tail of that transmission is lost; the spooled line is
            resent whole on reconnect), ``duplicate`` (the encoded
            line is delivered ``repeats`` times back-to-back — a
            duplicated packet), ``reorder`` (the line is held back
            and delivered *after* its successor, within the server's
            holdback window), ``ack-drop`` (the next ``drop_acks``
            acknowledgement lines the client reads are discarded, as
            if lost in flight — forcing a redundant resend the server
            must suppress).
        at_line: 0-based index within the sender's transmission
            sequence at which the fault fires.
        cut_fraction: for ``partition``/``half-close``: where within
            the encoded line the cut lands.
        repeats: for ``duplicate``: total copies delivered.
        drop_acks: for ``ack-drop``: acknowledgement lines discarded.
    """

    kind: str
    at_line: int
    cut_fraction: float = 0.5
    repeats: int = 2
    drop_acks: int = 2

    def __post_init__(self) -> None:
        if self.kind not in NET_KINDS:
            raise ValidationError(
                f"network fault kind must be one of {NET_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.at_line < 0:
            raise ValidationError(
                f"at_line must be >= 0, got {self.at_line}"
            )
        if not 0.0 <= self.cut_fraction <= 1.0:
            raise ValidationError(
                f"cut_fraction must be in [0, 1], got {self.cut_fraction}"
            )
        if self.repeats < 2:
            raise ValidationError(
                f"repeats must be >= 2 (one copy is not a duplicate), "
                f"got {self.repeats}"
            )
        if self.drop_acks < 1:
            raise ValidationError(
                f"drop_acks must be >= 1, got {self.drop_acks}"
            )


def network_fault_schedule(
    seed: int,
    *,
    n: int = 5,
    span: int = 200,
    kinds: Sequence[str] = NET_KINDS,
) -> list[NetworkFault]:
    """A reproducible network fault storm drawn from *seed*.

    Fault lines land in disjoint windows of ``span // n`` lines (the
    same discipline as :func:`connection_fault_schedule`), so each
    fault resolves before the next fires and the same seed replays the
    same storm bit-for-bit.  Kinds are assigned by shuffled repeated
    cycle rather than independent draws, so whenever ``n >=
    len(kinds)`` every kind appears at least once — a certification
    run that claims to cover partitions, duplicates, reorders, and ack
    drops actually does.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if span < n:
        raise ValidationError(f"span must be >= n ({n}), got {span}")
    for kind in kinds:
        if kind not in NET_KINDS:
            raise ValidationError(
                f"unknown network fault kind {kind!r}; "
                f"choose from {NET_KINDS}"
            )
    rng = Random(seed)
    window = span // n
    assigned: list[str] = []
    while len(assigned) < n:
        cycle = list(kinds)
        rng.shuffle(cycle)
        assigned.extend(cycle)
    return [
        NetworkFault(
            kind=assigned[index],
            at_line=index * window + rng.randrange(window),
            cut_fraction=rng.uniform(0.2, 0.8),
            repeats=rng.randint(2, 3),
            drop_acks=rng.randint(1, 3),
        )
        for index in range(n)
    ]


def crash_storm_schedule(
    seed: int,
    tenants: Sequence[str],
    *,
    faults_per_tenant: int = 2,
    span: int = 200,
    kinds: Sequence[str] = (PROC_KILL, PROC_EXIT, PROC_HANG),
    hang_seconds: float = 60.0,
) -> dict[str, list[ProcessFault]]:
    """Per-tenant crash scripts for a whole-service chaos run.

    Each tenant's sub-seed mixes *seed* with the tenant key, so adding
    a tenant does not reshuffle the others' scripts.
    """
    if not tenants:
        raise ValidationError("crash storm needs at least one tenant")
    return {
        tenant: process_fault_schedule(
            seed ^ (zlib.crc32(tenant.encode("utf-8")) & 0x7FFFFFFF),
            n=faults_per_tenant,
            span=span,
            kinds=kinds,
            hang_seconds=hang_seconds,
        )
        for tenant in tenants
    }
