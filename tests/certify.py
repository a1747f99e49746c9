"""The service certification harness: one calm run, one perturbed run,
one comparison.

Every recovery guarantee of the ingestion service is certified the
same way (DESIGN §10, "Service certification matrix"):

1. :func:`calm_run` replays a scenario's tenant streams through an
   unperturbed thread-isolation v1 service — the reference.
2. :func:`perturbed_run` drives the same streams through one cell of
   the matrix: a host (``thread``/``process``), a wire protocol
   (``v1``/``v2``), a :class:`Perturbation`, and the host a resumed
   life runs under.
3. :func:`compare` is the one oracle, the one ``verify-run --against``
   uses: both manifests verify, and ``diff_manifests`` finds no
   difference.  The checkpoint is left out where the path differs
   from the calm one: its template cache's LRU order legitimately
   depends on a restart, a resend or a second life, and a v2
   checkpoint holds delivery windows the v1 reference lacks.
   Quarantine files are manifest artifacts, so they are compared too.

The matrix is the data table :data:`GRID`; ``pytest -rsx
tests/test_certification.py`` lists its gaps.  ``REPRO_NET_SEED``
picks the network storm, ``REPRO_PROC_SEED`` the crash storm and the
mid-batch kill point; CI sweeps both.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field

import pytest

from repro.common.errors import CheckpointError, DeliveryError, ValidationError
from repro.observability import Telemetry, TelemetryServer, parse_prometheus
from repro.parsers import make_parser
from repro.resilience import (
    NetworkFault,
    ProcessFault,
    crash_storm_schedule,
    diff_manifests,
    fault_schedule,
    verify_manifest,
)
from repro.resilience.faults import (
    PROC_EXIT,
    PROC_HANG,
    PROC_KILL,
    PROC_SLOW_START,
)
from repro.service import (
    DurableSender,
    IngestionService,
    LineServer,
    ShardSupervisor,
    replay_lines,
)
from repro.service.shard import CHECKPOINT_NAME, MANIFEST_NAME
from repro.service.workers import _FEED_BATCH

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: CI sweeps these; local runs use the defaults.
NET_SEED = int(os.environ.get("REPRO_NET_SEED", "7"))
PROC_SEED = int(os.environ.get("REPRO_PROC_SEED", "7"))

#: Aggressive supervisor timing so fault runs resolve in well under a
#: second of real waiting: heartbeats every 20ms, watchdog at 400ms.
FAST = dict(heartbeat_interval=0.02, watchdog=0.4, drain_timeout=60.0)

#: ``serve`` arguments per host.
HOST_ARGS = {
    "thread": (),
    "process": ("--isolation", "process", "--checkpoint-every", "8"),
}

CLIENT = "certified-client"


def factory(name: str = "Drain"):
    return functools.partial(make_parser, name)


def conn_lines(n: int, start: int = 0) -> list[str]:
    return [f"conn from host{i % 5} port {i}" for i in range(start, start + n)]


def tenant_lines(tenant: str, n: int, start: int = 0) -> list[tuple[str, str]]:
    return [
        (
            tenant,
            f"Connection from 10.0.{start + i}.{i % 7} "
            f"port {3000 + start + i} established",
        )
        for i in range(n)
    ]


def tagged(streams) -> list[str]:
    """``tenant<TAB>content`` lines, the v1 wire and replay format."""
    return [f"{tenant}\t{content}" for tenant, content in streams]


def env_with_src() -> dict:
    env = os.environ.copy()
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def run_cli(*argv: str, timeout: float = 120.0):
    """One finished ``python -m repro`` run (stdout and stderr merged)."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=timeout, env=env_with_src(), cwd=REPO_ROOT,
    )


@contextlib.contextmanager
def serving(data_dir, *extra: str):
    """A live ``serve`` subprocess and its published port.

    It runs in its own process group, so signalling the group takes
    forked shard workers down with the parent: a killed life leaves
    no orphan writing to the tenant directories.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "Drain", str(data_dir),
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env_with_src(), cwd=REPO_ROOT, preexec_fn=os.setsid,
    )
    try:
        deadline = time.monotonic() + 30
        banner = ""
        while not banner.startswith("serving on "):
            banner = proc.stdout.readline()
            if time.monotonic() > deadline or (
                not banner and proc.poll() is not None
            ):
                raise AssertionError("serve never published its port")
        yield proc, int(banner.rsplit(":", 1)[1])
    finally:
        if proc.poll() is None:
            stop(proc, signal.SIGKILL)


def stop(proc: subprocess.Popen, sig: int) -> str:
    """Signal *proc*'s group and wait; returns its output."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, sig)
    out, _ = proc.communicate(timeout=120)
    return out


def send_v1(port: int, lines: list[str]) -> None:
    conn = socket.create_connection(("127.0.0.1", port), timeout=10)
    conn.sendall("".join(line + "\n" for line in lines).encode())
    conn.close()


def wait_for(condition, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert condition(), "condition not reached before the deadline"


class FakeClock:
    """An injectable monotonic clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            return self.now

    def advance(self, seconds):
        with self._lock:
            self.now += seconds


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """One way to disturb a run, with the input it disturbs.

    *streams* is the ``(tenant, content)`` input in arrival order;
    *faults* maps tenants to :class:`ProcessFault` scripts (a process
    host runs them with the *worker* arguments and must restart each
    tenant *restarts* times); *net* drives a v2 sender through the
    ``REPRO_NET_SEED`` storm; *signal* hits a whole ``serve`` after it
    received *life1* lines; *hammer* scrapes ``/metrics`` from four
    threads throughout; *tamper* breaks a drained first life's
    checkpoint, which a resume under *resume_parser* must refuse;
    *mid_batch* is a record the first life's feed batches must hold
    strictly inside one batch (the premise of a mid-batch kill).
    """

    streams: tuple
    faults: dict = field(default_factory=dict)
    worker: dict = field(default_factory=dict)
    restarts: dict = field(default_factory=dict)
    net: bool = False
    signal: int | None = None
    life1: int | None = None
    hammer: bool = False
    tamper: object = None
    resume_parser: str = "Drain"
    mid_batch: int | None = None

    @property
    def tenants(self) -> list[str]:
        return sorted({tenant for tenant, _ in self.streams})

    @property
    def resumes(self) -> bool:
        """Whether a second life exists that another host could run."""
        return self.signal is not None or self.tamper is not None


def _streams(tenant, lines):
    return tuple((tenant, line) for line in lines)


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def _at_record(kind, **kwargs):
    return Perturbation(
        _streams("t", conn_lines(60)),
        faults={"t": (ProcessFault(kind, at_record=23, **kwargs),)},
        worker=dict(checkpoint_every=10),
        restarts={"t": 1},
    )


#: A mid-batch kill point: the slow start holds ``ready`` back until
#: the whole stream is in the outbox, so batches are
#: ``[0, 64), [64, 128), ...`` and this record is inside the second.
KILL_MID_BATCH = _FEED_BATCH + 1 + PROC_SEED % (_FEED_BATCH - 2)

_STORM_TENANTS = ("alpha", "beta", "gamma")
_CRASH_STORM = crash_storm_schedule(
    PROC_SEED, list(_STORM_TENANTS), faults_per_tenant=2, span=40,
    hang_seconds=30.0,
)
_PART1 = tenant_lines("alpha", 40) + tenant_lines("beta", 30)
_PART2 = tenant_lines("alpha", 20, 40) + tenant_lines("beta", 25, 30)
_WIRE = tuple(tenant_lines("alpha", 30) + tenant_lines("beta", 20))

PERTURBATIONS = {
    "none": Perturbation(_streams("t", conn_lines(60)), restarts={"t": 0}),
    "proc-kill": _at_record(PROC_KILL),
    "proc-exit": _at_record(PROC_EXIT, exit_code=9),
    "proc-hang": _at_record(PROC_HANG, hang_seconds=30.0),
    "kill-mid-batch": Perturbation(
        _streams("t", conn_lines(300)),
        faults={"t": (
            ProcessFault(PROC_SLOW_START, delay_seconds=0.3),
            ProcessFault(PROC_KILL, at_record=KILL_MID_BATCH),
        )},
        # not a multiple of the batch size
        worker=dict(checkpoint_every=50),
        restarts={"t": 1},
        mid_batch=KILL_MID_BATCH,
    ),
    "kill-at-drain": Perturbation(
        tuple(_PART1),
        faults={"alpha": (ProcessFault(PROC_KILL, at_drain=True),)},
        worker=dict(checkpoint_every=8),
        restarts={"alpha": 1, "beta": 0},
    ),
    # Every scheduled fault fires and is survived: the schedule arms
    # fault i in life i+1, so no fault is shadowed by an earlier one.
    "crash-storm": Perturbation(
        tuple(
            (_STORM_TENANTS[i % 3], f"conn from host{i % 7} port {i}")
            for i in range(120)
        ),
        faults=_CRASH_STORM,
        worker=dict(checkpoint_every=8),
        restarts={t: len(faults) for t, faults in _CRASH_STORM.items()},
    ),
    "net-storm": Perturbation(_WIRE, net=True),
    "service-sigkill": Perturbation(_WIRE, net=True, signal=signal.SIGKILL),
    "service-sigterm": Perturbation(
        tuple(_PART1 + _PART2), net=True, signal=signal.SIGTERM,
        life1=len(_PART1),
    ),
    "scrape-hammer": Perturbation(
        tuple(
            pair
            for i in range(3000)
            for pair in (
                ("alpha", f"proc a{i % 7} started on node-{i % 13}"),
                ("beta", f"conn b{i % 5} closed from host-{i % 11}"),
            )
        ),
        hammer=True,
    ),
    "checkpoint-parser": Perturbation(  # an intact checkpoint, resumed
        _streams("t", conn_lines(20)), tamper=lambda path: None,
        resume_parser="IPLoM",
    ),
    "checkpoint-torn": Perturbation(
        _streams("t", conn_lines(20)), tamper=_truncate
    ),
    # Gaps: nothing here can drive these yet.
    "power-loss": Perturbation(()),
    "kill-point-sweep": Perturbation(()),
}


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    host: str
    protocol: str
    perturbation: str
    #: The host a resumed life runs under (``None``: no second life).
    resume: str | None
    state: object

    @property
    def id(self) -> str:
        cell = f"{self.host}-{self.protocol}-{self.perturbation}"
        if self.resume not in (None, self.host):
            cell += f"-resume-{self.resume}"
        return cell


#: Cell states.  ``OK``: certified.  An exception type: refused by
#: design; the perturbed run must raise it.  A string: a gap, skipped
#: with that reason (name the ROADMAP item that fills it).
#: ``("xfail", reason)``: a known bug, a strict xfail.
OK = None
NO_WORKER = ValidationError  # thread isolation takes no worker_kwargs
NO_HELLO = DeliveryError  # a v1 server never answers the v2 handshake
BAD_CP = CheckpointError  # the resume host refuses to create the shard
NO_FSYNC = "journal and spool are never fsynced (ROADMAP item 6: --fsync)"
NO_SWEEP = "kill points in append/batch/ack/prune (ROADMAP item 6)"

COLUMNS = (
    ("thread", "v1"), ("thread", "v2"), ("process", "v1"), ("process", "v2")
)
#: The matrix.  A perturbation with a second life has each cell once
#: per resume host: the same host, and the other one.
GRID = {
    #                   thread/v1  thread/v2  process/v1 process/v2
    "none":             (OK,        OK,        OK,        OK),
    "proc-kill":        (NO_WORKER, NO_WORKER, OK,        OK),
    "proc-exit":        (NO_WORKER, NO_WORKER, OK,        OK),
    "proc-hang":        (NO_WORKER, NO_WORKER, OK,        OK),
    "kill-mid-batch":   (NO_WORKER, NO_WORKER, OK,        OK),
    "kill-at-drain":    (NO_WORKER, NO_WORKER, OK,        OK),
    "crash-storm":      (NO_WORKER, NO_WORKER, OK,        OK),
    "net-storm":        (NO_HELLO,  OK,        NO_HELLO,  OK),
    "service-sigkill":  (OK,        OK,        OK,        OK),
    "service-sigterm":  (OK,        OK,        OK,        OK),
    "scrape-hammer":    (OK,        OK,        OK,        OK),
    "checkpoint-parser": (BAD_CP,   BAD_CP,    BAD_CP,    BAD_CP),
    "checkpoint-torn":  (BAD_CP,    BAD_CP,    BAD_CP,    BAD_CP),
    "power-loss":       (NO_FSYNC,) * 4,
    "kill-point-sweep": (NO_SWEEP,) * 4,
}
_OTHER = {"thread": "process", "process": "thread"}
MATRIX = tuple(
    Row(host, protocol, name, resume, state)
    for name, states in GRID.items()
    for (host, protocol), state in zip(COLUMNS, states, strict=True)
    for resume in (
        (host, _OTHER[host]) if PERTURBATIONS[name].resumes else (None,)
    )
)
ROWS = {row.id: row for row in MATRIX}

#: Rows that certification tests predating the matrix run under their
#: own ids (in test_workers, test_service_faults, test_delivery and
#: test_telemetry_plane); ``test_certification.py`` runs the rest.
OWNED = {
    "process-v1-proc-kill", "process-v1-proc-exit", "process-v1-proc-hang",
    "process-v1-kill-mid-batch", "process-v1-kill-at-drain",
    "process-v2-kill-at-drain", "process-v1-crash-storm",
    "thread-v1-service-sigkill", "thread-v1-service-sigterm",
    "process-v1-service-sigterm", "thread-v2-service-sigkill",
    "process-v2-service-sigkill", "thread-v2-service-sigkill-resume-process",
    "process-v2-service-sigkill-resume-thread", "thread-v1-scrape-hammer",
}


# ---------------------------------------------------------------------------
# 1. The calm run
# ---------------------------------------------------------------------------


def calm_run(root, streams) -> str:
    """The reference: *streams* replayed through a calm thread-mode v1
    service.  Cached under *root* by input, so a session computes each
    reference once; returns the data directory."""
    key = hashlib.sha256(json.dumps(list(streams)).encode()).hexdigest()
    data_dir = os.path.join(str(root), f"calm-{key[:16]}")
    if not os.path.isdir(data_dir):
        building = data_dir + ".building"
        shutil.rmtree(building, ignore_errors=True)
        service = IngestionService(building, factory(), parser_name="Drain")
        replay_lines(service, tagged(streams))
        service.drain()
        os.rename(building, data_dir)
    return data_dir


# ---------------------------------------------------------------------------
# 2. The perturbed run
# ---------------------------------------------------------------------------


def _service(data_dir, host, protocol, p, telemetry=None, parser="Drain"):
    worker_kwargs = None
    if host == "process":
        worker_kwargs = dict(FAST, faults=p.faults, **p.worker)
    elif p.faults:
        worker_kwargs = dict(faults=p.faults)  # refused: no worker here
    return IngestionService(
        str(data_dir), factory(parser), parser_name=parser,
        telemetry=telemetry, isolation=host, protocol=protocol,
        worker_kwargs=worker_kwargs,
    )


def storm(n_lines: int):
    return fault_schedule(NetworkFault, NET_SEED, n=5, span=n_lines)


@contextlib.contextmanager
def _hammering(telemetry, errors):
    """Four threads scraping ``/metrics`` until the block exits."""
    done = threading.Event()

    def scrape(url):
        while not done.is_set():
            try:
                with urllib.request.urlopen(url, timeout=5.0) as response:
                    parse_prometheus(response.read().decode("utf-8"))
            except Exception as error:  # noqa: BLE001 - asserted by caller
                return errors.append(error)

    with TelemetryServer(telemetry.metrics) as server:
        url = f"{server.url}/metrics"
        threads = [
            threading.Thread(target=scrape, args=(url,)) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            yield
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)


@contextlib.contextmanager
def tapped_wire():
    """Yield a log of what each supervisor's monitor puts to its worker
    and gets back, with a ``("life", n)`` entry at each spawn.  The
    monitor thread is the only caller of both ends, so the log is the
    true interleaving of its puts and gets."""
    log = []
    real_spawn = ShardSupervisor._spawn

    def tapped_spawn(self):
        process, inbox, results = real_spawn(self)
        log.append(("life", self.life))
        put, get = inbox.put_nowait, results.get

        def tapped_put(message):
            put(message)
            log.append(("put", message))

        def tapped_get(*args, **kwargs):
            message = get(*args, **kwargs)
            log.append(("got", message))
            return message

        inbox.put_nowait, results.get = tapped_put, tapped_get
        return process, inbox, results

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardSupervisor, "_spawn", tapped_spawn)
        yield log


def feed_batches(log):
    """The record-index batches of the ``feed`` messages in *log*."""
    return [
        [entry[0] for entry in message[1]]
        for direction, message in log
        if direction == "put" and message[0] == "feed"
    ]


def _in_process(row, p, data_dir) -> dict:
    """One in-process life: feed, drain; returns the drain summary."""
    telemetry = Telemetry.create(trace_id="t") if p.hammer else None
    errors: list = []
    tapping = p.mid_batch is not None
    with tapped_wire() if tapping else contextlib.nullcontext() as wire:
        service = _service(data_dir, row.host, row.protocol, p, telemetry)
        try:
            with (
                _hammering(telemetry, errors) if p.hammer
                else contextlib.nullcontext()
            ):
                if row.protocol == "v1" and not p.net:
                    replay_lines(service, tagged(p.streams))
                else:
                    with LineServer(service) as server, DurableSender(
                        server.host, server.port, CLIENT,
                        f"{data_dir}.spool.jsonl",
                        faults=storm(len(p.streams)) if p.net else (),
                        base_backoff=0.01, max_backoff=0.2,
                        connect_timeout=0.5,
                    ) as client:
                        for tenant, content in p.streams:
                            client.send(tenant, content)
                        # A v1 server reads the handshake as a line
                        # with no tenant key and never answers it.
                        client.flush(
                            timeout=60.0 if row.protocol == "v2" else 1.0
                        )
        finally:
            summary = service.drain()
    assert errors == [], f"a scrape failed validation: {errors[:1]}"
    if tapping:  # the mid-batch kill's premise, read off the wire
        first_life = feed_batches(wire[: wire.index(("life", 2))])
        (batch,) = [batch for batch in first_life if p.mid_batch in batch]
        assert batch[0] < p.mid_batch < batch[-1], f"not mid-batch: {batch}"
    return summary


def _serve_lives(row, p, data_dir) -> dict:
    """Two ``serve`` lives around a whole-service signal.

    v1: life 1 receives the first ``life1`` lines over a raw socket;
    life 2 replays the whole stream (the at-least-once source) and
    skips what the checkpoints hold.  v2: life 1 delivers through the
    seeded storm; the client dies before processing any ack (its
    pre-flush spool is kept), so life 2's recovered client resends
    everything — the restored windows must suppress every byte — and
    then sends the rest.  Returns life 2's metric samples under v2.
    """
    life1 = p.streams[: p.life1]
    rest = p.streams[len(life1):]
    args1 = HOST_ARGS[row.host]
    args2 = HOST_ARGS[row.resume]
    if row.protocol == "v1":
        with serving(data_dir, *args1) as (proc, port):
            send_v1(port, tagged(life1))
            # Until every tenant's shard exists: its lines are being read.
            wait_for(lambda: all(
                os.path.isdir(os.path.join(str(data_dir), t))
                for t in p.tenants
            ))
            time.sleep(0.3)
            out = stop(proc, p.signal)
        _assert_life1_ended(proc, p, out, data_dir)
        replay = f"{data_dir}.replay.log"
        with open(replay, "w", encoding="utf-8") as handle:
            handle.writelines(line + "\n" for line in tagged(p.streams))
        done = run_cli("serve", "Drain", str(data_dir), "--replay", replay,
                       *args2)
        assert done.returncode == 0, done.stdout
        assert f"adopted {len(p.tenants)} tenant(s)" in done.stdout
        if p.signal == signal.SIGTERM:  # life 1 drained a checkpoint
            assert "replayed=" in done.stdout
        return {}
    spool = f"{data_dir}.spool.jsonl"
    crashed = f"{data_dir}.crashed.spool.jsonl"
    with serving(data_dir, "--protocol", "v2", *args1) as (proc, port):
        with DurableSender(
            "127.0.0.1", port, CLIENT, spool, faults=storm(len(life1)),
            base_backoff=0.01, max_backoff=0.2,
        ) as client:
            for tenant, content in life1:
                client.send(tenant, content)
            shutil.copy(spool, crashed)  # the client dies before any ack
            assert client.flush(timeout=120.0)["delivered"] == len(life1)
        out = stop(proc, p.signal)
    _assert_life1_ended(proc, p, out, data_dir)
    metrics = f"{data_dir}.metrics.json"
    with serving(
        data_dir, "--protocol", "v2", "--metrics-out", metrics, *args2
    ) as (proc, port):
        with DurableSender(
            "127.0.0.1", port, CLIENT, crashed,
            base_backoff=0.01, max_backoff=0.2,
        ) as client:
            assert client.spool_depth == len(life1)
            for tenant, content in rest:
                client.send(tenant, content)
            client.flush(timeout=120.0)
        out = stop(proc, signal.SIGTERM)
    assert proc.returncode == 0, out
    with open(metrics, encoding="utf-8") as handle:
        return json.load(handle)["samples"]


def _assert_life1_ended(proc, p, out, data_dir):
    if p.signal == signal.SIGKILL:
        assert proc.returncode == -signal.SIGKILL, out
        return
    assert proc.returncode == 0, out
    assert "shutdown requested; draining" in out
    for tenant in p.tenants:  # a graceful drain finalizes every tenant
        manifest = os.path.join(str(data_dir), tenant, MANIFEST_NAME)
        assert verify_manifest(manifest).ok, tenant


def _tampered_resume(row, p, data_dir) -> None:
    """Drain a calm first life, break its checkpoint, and resume on
    ``resume``: creating each tenant's shard must refuse."""
    _in_process(row, p, data_dir)  # outside the refusal: must succeed
    for tenant in p.tenants:
        p.tamper(os.path.join(str(data_dir), tenant, CHECKPOINT_NAME))
    service = _service(
        data_dir, row.resume, row.protocol, p, parser=p.resume_parser
    )
    for tenant in p.tenants:
        with pytest.raises(row.state):
            service.shard(tenant)
    service.drain()


def perturbed_run(row: Row, data_dir) -> dict:
    """Run *row*'s cell; returns the drain summary or life-2 samples."""
    p = PERTURBATIONS[row.perturbation]
    if p.tamper is not None:
        return _tampered_resume(row, p, data_dir)
    if p.signal is not None:
        return _serve_lives(row, p, data_dir)
    return _in_process(row, p, data_dir)


# ---------------------------------------------------------------------------
# 3. The comparison
# ---------------------------------------------------------------------------


def compare(got_dir, want_dir, tenants, ignore=(CHECKPOINT_NAME,)) -> None:
    """Each tenant's manifests verify and agree but for *ignore*, and
    the perturbed tenant directory holds nothing the manifest misses."""
    for tenant in tenants:
        got = os.path.join(str(got_dir), tenant, MANIFEST_NAME)
        want = os.path.join(str(want_dir), tenant, MANIFEST_NAME)
        assert verify_manifest(got).ok, verify_manifest(got).problems
        assert verify_manifest(want).ok, verify_manifest(want).problems
        differences = diff_manifests(got, want, ignore=ignore)
        assert differences == [], f"{tenant}: {differences}"
        with open(got, encoding="utf-8") as handle:
            covered = set(json.load(handle)["artifacts"])
        assert set(os.listdir(os.path.dirname(got))) == covered | {
            MANIFEST_NAME
        }, f"{tenant}: files outside the manifest"


# ---------------------------------------------------------------------------
# One cell
# ---------------------------------------------------------------------------


def certify(row_id: str, tmp_path, calm_root) -> None:
    """Run one matrix row and hold it to its state."""
    row = ROWS[row_id]
    perturbation = PERTURBATIONS[row.perturbation]
    data_dir = tmp_path / "perturbed"
    if perturbation.tamper is not None:
        return perturbed_run(row, data_dir)  # the resume asserts its refusal
    if isinstance(row.state, type):
        with pytest.raises(row.state):
            perturbed_run(row, data_dir)
        return
    outcome = perturbed_run(row, data_dir)
    # No restart, resend or second life: even the v1 checkpoint agrees.
    strict = row.protocol == "v1" and not (
        perturbation.faults or perturbation.net or perturbation.resumes
    )
    compare(
        data_dir,
        calm_run(calm_root, perturbation.streams),
        perturbation.tenants,
        ignore=() if strict else (CHECKPOINT_NAME,),
    )
    if perturbation.signal is not None:
        if row.protocol == "v2":
            # Life 2's windows, restored from the journal or the
            # checkpoints, dropped the recovered client's resends.
            for tenant in perturbation.tenants:
                assert outcome.get(
                    "repro_delivery_duplicates_suppressed_total"
                    f'{{tenant="{tenant}"}}', 0.0
                ) > 0, f"{tenant}: the dedup windows did not survive"
            assert outcome.get("repro_delivery_acked_total", 0.0) > 0
        return
    for tenant in perturbation.tenants:
        summary = outcome["tenants"][tenant]
        assert not summary.get("fenced"), tenant
        assert summary["lines"] == sum(
            1 for t, _ in perturbation.streams if t == tenant
        ), f"{tenant}: a record was lost or duplicated"
        if row.host == "process":
            assert summary["restarts"] == perturbation.restarts.get(
                tenant, 0
            ), tenant
