"""Deterministic, seeded fault injection for the resilience suite.

Every recovery path in the runtime — quarantine, retry, circuit
breaking, worker re-dispatch, checkpoint resume, exactly-once
delivery — is only trustworthy if it is *exercised*, and real faults
are rare and irreproducible.  This module manufactures them on a fixed
schedule derived from a seed, so a failing resilience test replays
bit-for-bit:

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
* :class:`IoFault` (EIO, ENOSPC, fsync failure, torn write — enacted
  by :class:`FaultyIO`), :class:`ProcessFault` (killed, exited, or
  wedged shard workers), and :class:`NetworkFault` (partition,
  half-close, duplicate, reorder, ack-drop — enacted by
  :class:`~repro.service.client.DurableSender`) scripts — exercised
  against the durable writers, the shard supervisor, and exactly-once
  delivery.

**The seeded scheduler.**  One function, :func:`fault_schedule`, draws
all three families: it validates once, seeds one ``Random(seed)``,
and places one fault in each of ``n`` disjoint windows of
``span // n`` (bytes, records, or transmissions), so faults never
stack and each resolves before the next lands.  A family supplies
only its draw rule, in a fixed RNG call order, so a seed replays the
same script forever; :func:`crash_storm_schedule` is the same
scheduler per tenant.

Everything here is picklable (plain module-level classes over plain
data) so faults survive the trip into worker processes.
"""

from __future__ import annotations

import errno
import os
import signal as _signal_module
import time
import zlib
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from random import Random

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


@dataclass(frozen=True)
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
        times: how many times the fault fires in each
            :class:`FaultyIO` before disarming there — 1 models a
            transient hiccup a retry survives, a large value models a
            persistently failing device.  The count is the
            :class:`FaultyIO`'s state, so one script arms any number
            of lives alike.
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

    Use ``fault_schedule(IoFault, seed)`` to derive a reproducible
    script from a seed (the ``REPRO_IO_SEED`` CI matrix does).
    """

    def __init__(self, script: Sequence[IoFault] = ()) -> None:
        #: ``[fault, firings left]`` per still-armed fault.
        self._armed = [[fault, fault.times] for fault in script]
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

    def _arm(self, slot: list) -> None:
        slot[1] -= 1
        self.fired.append(slot[0])
        if slot[1] == 0:
            self._armed.remove(slot)

    def write(self, handle, data: bytes) -> None:
        path = self._path_of(handle)
        start = self.bytes_written
        end = start + len(data)
        for slot in list(self._armed):
            fault = slot[0]
            if fault.kind == IO_FSYNC or not fault.matches_path(path):
                continue
            if not (start <= fault.at_bytes < end):
                continue
            self._arm(slot)
            keep = fault.at_bytes - start
            if fault.kind != IO_EIO and keep:
                super().write(handle, data[:keep])
                super().flush(handle)
                self.bytes_written += keep
            raise OSError(
                errno.ENOSPC if fault.kind == IO_ENOSPC else errno.EIO,
                f"injected {fault.kind} at byte {fault.at_bytes} "
                f"of {path}",
            )
        super().write(handle, data)
        self.bytes_written = end

    def fsync(self, handle) -> None:
        self.fsync_calls += 1
        path = self._path_of(handle)
        for slot in list(self._armed):
            fault = slot[0]
            if fault.kind != IO_FSYNC or not fault.matches_path(path):
                continue
            if self.fsync_calls < fault.at_call:
                continue
            self._arm(slot)
            raise OSError(
                errno.EIO,
                f"injected fsync failure (call {self.fsync_calls}) "
                f"on {path}",
            )
        super().fsync(handle)


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

    Models the *network itself* misbehaving under a client that is
    trying to be correct — the
    :class:`~repro.service.client.DurableSender` enacts the script and
    must still converge to exactly-once server-side effects, while the
    server quarantines the torn fragments the cuts leave behind.

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


# ----------------------------------------------------------------------
# The seeded scheduler
# ----------------------------------------------------------------------


def _draw_io(rng: Random, kinds, starts: range, window: int):
    # Offsets in each window's first half; fsync calls 2-5 apart, so a
    # single-retry writer's own fsync lands between two faults.
    fsync_call = 0
    for start in starts:
        kind = rng.choice(kinds)
        fsync_call += rng.randint(2, 5)
        yield IoFault(
            kind,
            at_bytes=start + rng.randrange(window // 2),
            at_call=fsync_call,
        )


def _draw_process(rng: Random, kinds, starts: range, window: int):
    # Fault i is armed in worker life i + 1: each kills the replacement
    # of the last once it has replayed past that window, so all fire.
    for life, start in enumerate(starts, 1):
        yield ProcessFault(
            rng.choice(kinds),
            at_record=start + rng.randrange(window),
            lives=(life,),
            exit_code=rng.randint(1, 125),
        )


def _draw_network(rng: Random, kinds, starts: range, window: int):
    # Kinds are a shuffled, repeated cycle drawn before any window, so
    # with n >= len(kinds) a storm certifies every kind it names.
    cycle: list[str] = []
    while len(cycle) < len(starts):
        batch = list(kinds)
        rng.shuffle(batch)
        cycle.extend(batch)
    for kind, start in zip(cycle, starts):
        yield NetworkFault(
            kind,
            at_line=start + rng.randrange(window),
            cut_fraction=rng.uniform(0.2, 0.8),
            repeats=rng.randint(2, 3),
            drop_acks=rng.randint(1, 3),
        )


#: Family -> (schedulable kinds, default n, default span, draw rule);
#: a span counts bytes written, records fed, or lines transmitted.
_FAMILIES = {
    IoFault: (IO_KINDS, 4, 4096, _draw_io),
    ProcessFault: ((PROC_KILL, PROC_EXIT, PROC_HANG), 3, 200, _draw_process),
    NetworkFault: (NET_KINDS, 5, 200, _draw_network),
}


def fault_schedule(
    family: type,
    seed: int,
    *,
    n: int | None = None,
    span: int | None = None,
    kinds: Sequence[str] | None = None,
) -> list:
    """A reproducible script of *family* faults drawn from *seed*.

    *family* is :class:`IoFault`, :class:`ProcessFault`, or
    :class:`NetworkFault`.  One fault lands in each of *n* disjoint
    windows of ``span // n`` (*span* should cover what the run will
    write, feed, or send), drawn by the family's rule from one
    ``Random(seed)``.  Unset, *n* × *span* is 4 × 4096 bytes,
    3 × 200 records, or 5 × 200 lines, and *kinds* every schedulable
    kind.
    """
    allowed, default_n, default_span, draw = _FAMILIES[family]
    n = default_n if n is None else n
    span = default_span if span is None else span
    kinds = allowed if kinds is None else kinds
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if span < n:
        raise ValidationError(f"span must be >= n ({n}), got {span}")
    for kind in kinds:
        if kind not in allowed:
            raise ValidationError(
                f"unschedulable {family.__name__} kind {kind!r}; "
                f"choose from {allowed}"
            )
    window = span // n
    starts = range(0, n * window, window)
    return list(draw(Random(seed), list(kinds), starts, window))


def crash_storm_schedule(
    seed: int,
    tenants: Sequence[str],
    *,
    faults_per_tenant: int = 2,
    span: int = 200,
    hang_seconds: float = 60.0,
) -> dict[str, list[ProcessFault]]:
    """Per-tenant crash scripts for a whole-service chaos run.

    Each tenant's script is ``fault_schedule(ProcessFault, ...)`` at a
    sub-seed mixing *seed* with the tenant key, so adding a tenant
    does not reshuffle the others' scripts.  *hang_seconds* is not
    drawn; it is set on every drawn fault.
    """
    if not tenants:
        raise ValidationError("crash storm needs at least one tenant")
    return {
        tenant: [
            replace(fault, hang_seconds=hang_seconds)
            for fault in fault_schedule(
                ProcessFault,
                seed ^ (zlib.crc32(tenant.encode("utf-8")) & 0x7FFFFFFF),
                n=faults_per_tenant,
                span=span,
            )
        ]
        for tenant in tenants
    }
