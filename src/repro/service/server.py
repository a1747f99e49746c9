"""The multi-tenant ingestion service: router, front ends, drain.

An :class:`IngestionService` accepts tenant-tagged lines —
``tenant<TAB>content`` — routes each to its tenant's
:class:`~repro.service.shard.TenantShard` (materialized lazily, or
adopted from a previous life's checkpoints), and on drain flushes
every shard through the prefix policy so each tenant's outputs are
byte-identical to a batch parse of its stream.

Front ends:

* :class:`LineServer` — a threaded TCP line server.  One reader
  thread per connection, so a slow writer stalls only its own
  connection; dangling partial lines at disconnect become
  tenant-attributed quarantine records, never crashes.
* :func:`replay_lines` — the in-process adapter: feed any iterable of
  tagged lines (a file, a generator, a test) through the same
  admission/routing path the TCP server uses.

Protocol-level garbage — lines with no tab, tenant keys outside
``[A-Za-z0-9._-]{1,64}``, partial lines cut by a disconnect — lands in
the *service* quarantine (``service.quarantine.jsonl`` in the data
root) with reason ``protocol``, because it cannot be safely attributed
to any tenant's stream position.
"""

from __future__ import annotations

import os
import re
import socket
import threading
import time
from collections.abc import Iterable

from repro.common.errors import ValidationError
from repro.common.net import bind_with_retry
from repro.common.types import LogRecord
from repro.observability.tracing import SPAN_SERVICE_DRAIN
from repro.resilience.quarantine import QuarantineRecord, QuarantineSink
from repro.service.admission import AdmissionController
from repro.service.protocol import (
    DUPLICATE,
    OK_LINE,
    PROTOCOL_V1,
    PROTOCOL_V2,
    PROTOCOLS,
    ack_line,
    parse_data,
    parse_hello,
)
from repro.service.shard import TenantShard
from repro.service.workers import ShardSupervisor

#: Isolation modes: ``thread`` keeps PR 7's in-process shards,
#: ``process`` moves each shard into a supervised worker subprocess.
ISOLATION_THREAD = "thread"
ISOLATION_PROCESS = "process"
ISOLATION_MODES = (ISOLATION_THREAD, ISOLATION_PROCESS)

#: Tenant keys are path-safe by construction (they name directories).
TENANT_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Quarantine reason for unroutable input.
REASON_PROTOCOL = "protocol"

#: Service-level outcome tags (shard outcomes pass through verbatim).
PROTOCOL = "protocol"
RATE_LIMITED = "rate"
SAMPLED = "sampled"
SHED = "shed"
#: A v2 line whose tenant batch raised: not owned, not acked.
ERROR = "error"

#: Basename of the service-level quarantine in the data root.
SERVICE_QUARANTINE_NAME = "service.quarantine.jsonl"


class _ConnectionDone(Exception):
    """Internal: unwind one connection's read loop (peer went away)."""


class IngestionService:
    """Tenant router + shard supervisor + graceful drain.

    Args:
        data_dir: root directory; each tenant owns a subdirectory.
        factory: zero-argument flush-parser factory shared by all
            unbudgeted shards — each shard still builds its *own*
            engine and cache from it.
        admission: optional :class:`AdmissionController`; wire its
            monitor's ``queue_probe`` to :meth:`total_pending` for
            global queue-pressure shedding.
        isolation: ``thread`` (default) routes to in-process
            :class:`TenantShard` threads; ``process`` routes to
            :class:`~repro.service.workers.ShardSupervisor`-managed
            worker subprocesses, which survive crashes, hangs, and
            poison records at the cost of queue-hop latency.
        worker_kwargs: forwarded to every :class:`ShardSupervisor`
            in process mode (``watchdog``, ``checkpoint_every``,
            ``poison_threshold``, ``fence_threshold``, ``faults``,
            ``drain_timeout``, ...); rejected in thread mode.
        shard_kwargs: forwarded to every :class:`TenantShard`, on
            either host (``flush_policy``, ``flush_size``,
            ``cache_capacity``, ``max_pending``, ``overflow``,
            ``budget``, ``ladder``, ``breaker_threshold``, ...).
    """

    def __init__(
        self,
        data_dir: str,
        factory,
        *,
        parser_name: str = "parser",
        admission: AdmissionController | None = None,
        telemetry=None,
        io=None,
        isolation: str = ISOLATION_THREAD,
        protocol: str = PROTOCOL_V1,
        worker_kwargs: dict | None = None,
        on_checkpoint=None,
        **shard_kwargs,
    ) -> None:
        if isolation not in ISOLATION_MODES:
            raise ValidationError(
                f"unknown isolation mode {isolation!r} "
                f"(expected one of {', '.join(ISOLATION_MODES)})"
            )
        if protocol not in PROTOCOLS:
            raise ValidationError(
                f"unknown wire protocol {protocol!r} "
                f"(expected one of {', '.join(PROTOCOLS)})"
            )
        if worker_kwargs and isolation != ISOLATION_PROCESS:
            raise ValidationError(
                "worker_kwargs only apply to process isolation"
            )
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        self.factory = factory
        self.parser_name = parser_name
        self.admission = admission
        self.telemetry = telemetry
        self.io = io
        self.isolation = isolation
        self.protocol = protocol
        self.on_checkpoint = on_checkpoint
        self.worker_kwargs = dict(worker_kwargs or {})
        self.shard_kwargs = shard_kwargs
        self._shards: dict[str, TenantShard] = {}
        self._lock = threading.Lock()
        self._submitted = 0
        self._drained: dict | None = None
        self.quarantine = QuarantineSink(
            os.path.join(data_dir, SERVICE_QUARANTINE_NAME),
            telemetry=telemetry,
            io=io,
        )
        if telemetry is not None:
            telemetry.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self) -> None:
        metrics = self.telemetry.metrics
        metrics.get("repro_service_tenants").set(len(self._shards))
        metrics.get("repro_service_queue_depth").set(self.total_pending())

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def total_pending(self) -> float:
        """Summed shard queue depth — the admission queue probe."""
        return float(sum(s.pending for s in list(self._shards.values())))

    @property
    def submitted(self) -> int:
        """Lines seen so far (admitted or not) — drives bounded soaks."""
        return self._submitted

    def tenants(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, tenant: str) -> TenantShard:
        """The tenant's shard, materialized on first sight."""
        shard = self._shards.get(tenant)
        if shard is None:
            with self._lock:
                shard = self._shards.get(tenant)
                if shard is None:
                    # Whichever host the isolation mode picks holds the
                    # tenant's front, v2 when the service is.
                    kwargs = dict(
                        parser_name=self.parser_name,
                        telemetry=self.telemetry,
                        io=self.io,
                        exactly_once=self.protocol == PROTOCOL_V2,
                        **self.shard_kwargs,
                    )
                    if self.isolation == ISOLATION_PROCESS:
                        worker_kwargs = dict(self.worker_kwargs)
                        faults = worker_kwargs.get("faults")
                        if isinstance(faults, dict):
                            # A crash-storm schedule maps tenants to
                            # their own fault scripts.
                            worker_kwargs["faults"] = tuple(
                                faults.get(tenant, ())
                            )
                        elif callable(faults):
                            # Lazily derive a tenant's script (the
                            # CLI cannot enumerate tenants up front).
                            worker_kwargs["faults"] = tuple(
                                faults(tenant)
                            )
                        shard = ShardSupervisor(
                            tenant,
                            self.data_dir,
                            self.factory,
                            on_checkpoint=self.on_checkpoint,
                            **worker_kwargs,
                            **kwargs,
                        )
                    else:
                        shard = TenantShard(
                            tenant, self.data_dir, self.factory, **kwargs
                        )
                    self._shards[tenant] = shard
        return shard

    def adopt_existing(self) -> list[str]:
        """Materialize shards for tenant directories a previous life left.

        Called on startup so a resumed service finalizes *every*
        tenant at the next drain, including ones that receive no new
        lines this life.  Returns the adopted tenant keys.
        """
        adopted = []
        for name in sorted(os.listdir(self.data_dir)):
            if not TENANT_KEY_RE.match(name):
                continue
            if not os.path.isdir(os.path.join(self.data_dir, name)):
                continue
            self.shard(name)
            adopted.append(name)
        return adopted

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _protocol_reject(
        self, payload: str, origin: str, detail: str, tenant: str | None = None
    ) -> None:
        """Quarantine unroutable input.  A *tenant* label marks a whole
        submitted line (counted); ``None`` a dangling fragment."""
        with self._lock:
            self.quarantine.add(
                QuarantineRecord(
                    source=origin,
                    line_no=self._submitted,
                    byte_offset=-1,
                    reason=REASON_PROTOCOL,
                    detail=detail,
                    preview=payload[:200],
                )
            )
            if tenant is not None:
                self._submitted += 1
        if tenant is not None:
            self._count_rejection(tenant, PROTOCOL)

    def _count_rejection(self, tenant: str, cause: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.get(
                "repro_service_rejected_total"
            ).labels(tenant=tenant, cause=cause).inc()

    def _route(self, line: str, payload: str, origin: str, shape: str):
        """The one router: tenant split, key validation, admission.

        *payload* is the ``tenant<TAB>content`` part of *line* (all of
        it under v1); a reject quarantines *line* and names *shape* as
        the expected format.  Returns ``(refusal, tenant, content)``;
        *refusal* is ``None`` when the tenant's shard should see it.
        """
        tenant, sep, content = payload.partition("\t")
        if not sep or not TENANT_KEY_RE.match(tenant):
            detail = (
                f"invalid tenant key {tenant[:64]!r}" if sep
                else f"no tenant key (expected {shape})"
            )
            self._protocol_reject(line, origin, detail, tenant or "<none>")
            return PROTOCOL, None, content
        with self._lock:
            self._submitted += 1
            if self.admission is not None:
                admitted, cause = self.admission.admit(tenant)
                if not admitted:
                    self._count_rejection(tenant, cause)
                    return cause, tenant, content
        return None, tenant, content

    def submit_line(self, line: str, origin: str = "<stream>") -> str:
        """Route one tagged line; returns the outcome tag.

        Outcomes: the shard tags (``accepted``/``replayed``/
        ``rejected``/``quarantined``/``breaker``) or the service tags
        (``protocol``/``rate``/``sampled``/``shed``).
        """
        line = line.rstrip("\r")
        refusal, tenant, content = self._route(
            line, line, origin, "tenant<TAB>content"
        )
        if refusal is not None:
            return refusal
        return self.shard(tenant).submit(LogRecord(content=content))

    def submit_line_v2(
        self, line: str, client: str, origin: str = "<stream>"
    ) -> tuple[str, str | None, int | None]:
        """Route one sequence-tagged line: a batch of one.

        Returns its ``(outcome, tenant, high)``; a failed journal
        commit is raised.
        """
        results, errors = self.submit_lines_v2([line], client, origin)
        if errors:
            raise errors[0]
        return results[0]

    def submit_lines_v2(
        self, lines: list[str], client: str, origin: str = "<stream>"
    ) -> tuple[list[tuple[str, str | None, int | None]], list[Exception]]:
        """Route sequence-tagged lines (protocol v2), one batch per tenant.

        Every line is routed in arrival order; then each tenant's
        lines go to its shard as one ``submit_seqs`` batch.  Returns
        one ``(outcome, tenant, high)`` per line and the errors of the
        batches that raised.  *high* is the client's ack watermark
        after the tenant's batch — every sequence it covers is durably
        owned — or ``None`` when no ack may be sent: the line was
        unroutable (``protocol``), shed by admission, or in a batch
        that raised (``error``); the client must resend.
        """
        if self.protocol != PROTOCOL_V2:
            raise ValidationError(
                "sequence-tagged lines require a protocol-v2 service"
            )
        results: list = []
        batches: dict[str, list] = {}
        detail = "no sequence number (expected seq<SP>tenant<TAB>content)"
        for line in lines:
            line = line.rstrip("\r")
            parsed = parse_data(line)
            if parsed is None:
                self._protocol_reject(line, origin, detail, "<none>")
                results.append((PROTOCOL, None, None))
                continue
            seq, payload = parsed
            refusal, tenant, content = self._route(
                line, payload, origin, "seq tenant<TAB>content"
            )
            if refusal is None:
                batches.setdefault(tenant, []).append(
                    (len(results), LogRecord(content=content), seq)
                )
            results.append((refusal, tenant, None))
        errors = []
        for tenant, batch in batches.items():
            try:
                outcomes, high = self.shard(tenant).submit_seqs(
                    [(record, seq) for _, record, seq in batch], client
                )
            except Exception as error:  # noqa: BLE001 - other tenants go on
                errors.append(error)
                outcomes, high = [ERROR] * len(batch), None
            for (at, _, _), outcome in zip(batch, outcomes):
                results[at] = (outcome, tenant, high)
            duplicates = outcomes.count(DUPLICATE)
            if duplicates and self.telemetry is not None:
                self.telemetry.metrics.get(
                    "repro_delivery_duplicates_suppressed_total"
                ).labels(tenant=tenant).inc(duplicates)
        return results, errors

    def note_partial(self, fragment: str, origin: str) -> None:
        """A connection died mid-line; quarantine the dangling bytes."""
        self._protocol_reject(
            fragment,
            origin,
            "partial line: connection closed before newline",
        )

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def checkpoint_all(self) -> None:
        """Checkpoint every shard without finalizing anything."""
        for tenant in self.tenants():
            self._shards[tenant].checkpoint()

    def drain(self) -> dict:
        """Flush every shard to durable, manifest-covered artifacts.

        Idempotent.  Returns ``{"tenants": {key: shard summary},
        "protocol_rejects": n}``.
        """
        if self._drained is not None:
            return self._drained
        span = None
        if self.telemetry is not None:
            span = self.telemetry.tracer.start(
                SPAN_SERVICE_DRAIN, tenants=len(self._shards)
            )
        shards = {tenant: self._shards[tenant] for tenant in self.tenants()}
        if self.isolation == ISOLATION_PROCESS:
            # Start every worker's drain before waiting on the first,
            # so the tenants finalize side by side and the wait is the
            # slowest one's, not the sum.  (A thread-mode shard drains
            # inside its own drain() call; there is nothing to begin.)
            for shard in shards.values():
                shard.begin_drain()
        summaries = {
            tenant: shard.drain() for tenant, shard in shards.items()
        }
        self.quarantine.close()
        summary = {
            "tenants": summaries,
            "protocol_rejects": len(self.quarantine),
            "submitted": self._submitted,
        }
        if span is not None:
            span.attrs["protocol_rejects"] = len(self.quarantine)
            self.telemetry.tracer.finish(span)
        self._drained = summary
        return summary

    def health(self) -> dict:
        """Liveness verdict for the ``/healthz`` endpoint.

        Healthy means every materialized shard is still willing to
        parse: a fenced process-mode supervisor or an open thread-mode
        circuit breaker flips ``ok`` to ``False`` (the endpoint maps
        that to HTTP 503) while leaving per-tenant detail in place so
        an operator sees *which* tenant went dark.
        """
        tenants: dict[str, dict] = {}
        ok = True
        with self._lock:
            shards = dict(self._shards)
        for tenant in sorted(shards):
            shard = shards[tenant]
            breaker_open = bool(shard.breaker_open)
            if breaker_open:
                ok = False
            tenants[tenant] = {
                "state": shard.state,
                "breaker_open": breaker_open,
            }
        return {
            "ok": ok,
            "isolation": self.isolation,
            "tenants": tenants,
        }

    def describe(self) -> str:
        lines = [
            f"service: {len(self._shards)} tenant(s), "
            f"{self._submitted} line(s) submitted, "
            f"{len(self.quarantine)} protocol reject(s)"
        ]
        for tenant in self.tenants():
            lines.append("  " + self._shards[tenant].describe())
        if self.admission is not None:
            lines.append("  " + self.admission.describe())
        return "\n".join(lines)


def replay_lines(
    service: IngestionService,
    lines: Iterable[str],
    origin: str = "<replay>",
    *,
    guard=None,
) -> dict[str, int]:
    """In-process source adapter: submit *lines*, count outcomes.

    *guard* is an optional
    :class:`~repro.service.signals.ShutdownGuard`; it is checked
    between lines, so a graceful-shutdown signal stops the replay at a
    line boundary with every shard in a drainable state.
    """
    outcomes: dict[str, int] = {}
    for line in lines:
        if guard is not None:
            guard.check()
        line = line.rstrip("\n")
        if not line:
            continue
        outcome = service.submit_line(line, origin)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    return outcomes


class LineServer:
    """Threaded TCP line front end over an :class:`IngestionService`.

    One reader thread per connection: a slow or stalled writer ties up
    only its own thread, and a connection that dies mid-line yields a
    ``protocol`` quarantine record for the dangling fragment.  Binding
    port 0 (the default) picks a free port, published via
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        service: IngestionService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 16,
        bind_retries: int = 5,
        sleep=time.sleep,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.backlog = backlog
        self.bind_retries = bind_retries
        self._sleep = sleep
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Live connections and their reader threads; a connection
        #: leaves when its thread ends.
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._lock = threading.Lock()
        self._stopping = False

    def start(self) -> None:
        if self._sock is not None:
            raise ValidationError("server already started")
        sock = bind_with_retry(
            self.host,
            self.port,
            retries=self.bind_retries,
            sleep=self._sleep,
        )
        sock.listen(self.backlog)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ingest-accept", daemon=True
        )
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping:
            try:
                conn, addr = self._sock.accept()
            except OSError:
                break  # listening socket closed by stop()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"ingest-conn-{addr[1]}",
                daemon=True,
            )
            with self._lock:
                self._conns[conn] = thread
            thread.start()

    def _count_connection(self, outcome: str) -> None:
        telemetry = self.service.telemetry
        if telemetry is not None:
            telemetry.metrics.get(
                "repro_service_connections_total"
            ).labels(outcome=outcome).inc()

    def _count_acks(self, frames: int) -> None:
        telemetry = self.service.telemetry
        if telemetry is not None:
            telemetry.metrics.get("repro_delivery_acked_total").inc(frames)

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        """One connection's read loop: after a v2 ``HELLO``, each
        chunk's complete lines go to one ``submit_lines_v2`` call (one
        journal commit per tenant), and the owed ``ACK`` frames leave
        in one write after it returns."""
        origin = f"tcp:{addr[0]}:{addr[1]}"
        buffer = b""
        outcome = "eof"
        # Did any complete line reach the router?  An OSError after
        # data was ingested is a different animal from a pre-data
        # reset — the v2 resend metrics must not conflate them.
        ingested = False
        # Per-connection protocol state: v1 until (and unless) the
        # first line is a well-formed v2 HELLO on a v2 service.
        first_line = True
        client_id: str | None = None
        conn.settimeout(0.2)
        try:
            # Acks leave as one write per chunk; coalescing them with
            # later ones (Nagle + delayed ACK) only adds latency.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - reset before the first read
            pass
        try:
            while True:
                try:
                    data = conn.recv(65536)
                except socket.timeout:
                    if self._stopping:
                        outcome = "stopped"
                        break
                    continue
                except OSError:
                    outcome = "reset_after_data" if ingested else "reset"
                    break
                if not data:
                    break
                *lines, buffer = (buffer + data).split(b"\n")
                texts = [
                    raw.decode("utf-8", errors="replace") for raw in lines
                ]
                if texts and first_line:
                    first_line = False
                    # A first line that is not a HELLO is a v1 client's:
                    # its lines route verbatim, fire-and-forget.
                    if self.service.protocol == PROTOCOL_V2:
                        client_id = parse_hello(texts[0])
                    if client_id is not None:
                        try:
                            conn.sendall(OK_LINE)
                        except OSError:
                            outcome = "reset"
                            buffer = b""
                            raise _ConnectionDone()
                        del texts[0]
                # Highest cumulative watermark owed per tenant for this
                # chunk; each came back after its tenant's batch commit.
                owed: dict[str, int] = {}
                errors = []
                if client_id is None:
                    for text in texts:
                        try:
                            self.service.submit_line(text, origin)
                            ingested = True
                        except Exception as error:  # noqa: BLE001
                            errors.append(error)
                elif texts:
                    try:
                        results, errors = self.service.submit_lines_v2(
                            texts, client_id, origin
                        )
                        ingested = True
                    except Exception as error:  # noqa: BLE001
                        results, errors = [], [error]
                    for _, tenant, high in results:
                        if high is not None and high > owed.get(tenant, -1):
                            owed[tenant] = high
                for error in errors:
                    # Shards never let tenant faults escape; anything
                    # landing here is a service bug or a failed journal
                    # commit — record it, keep the connection (and
                    # every other tenant) alive.
                    outcome = "error"
                    telemetry = self.service.telemetry
                    if telemetry is not None:
                        telemetry.events.emit(
                            "service_error",
                            origin=origin,
                            error=f"{type(error).__name__}: {error}",
                        )
                if owed:
                    # After the chunk's last complete line, without
                    # waiting for more input.
                    try:
                        conn.sendall(
                            b"".join(
                                ack_line(tenant, high)
                                for tenant, high in owed.items()
                            )
                        )
                    except OSError:
                        # The lines are owned; only the acks were lost.
                        # The client repairs that by resending on
                        # reconnect.
                        outcome = "reset_after_data"
                        buffer = b""
                        break
                    self._count_acks(len(owed))
        except _ConnectionDone:
            pass
        finally:
            if buffer:
                self.service.note_partial(
                    buffer.decode("utf-8", errors="replace"), origin
                )
                if outcome == "eof":
                    outcome = "partial"
            try:
                conn.close()
            except OSError:  # pragma: no cover - already dead
                pass
            with self._lock:
                self._conns.pop(conn, None)
            self._count_connection(outcome)

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, let in-flight readers finish, close sockets."""
        self._stopping = True
        if self._sock is not None:
            try:
                # close() alone leaves a thread blocked in accept()
                # asleep; shutdown() wakes it.
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # pragma: no cover - platform refuses
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout)
        with self._lock:
            live = dict(self._conns)
        for conn, thread in live.items():
            thread.join(timeout=drain_timeout)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "LineServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
