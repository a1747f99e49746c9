"""Process-isolated shard workers: supervision, poison pills, fencing.

The contracts tested here:

* **Poison pills** — a record that kills its replayer
  ``poison_threshold`` consecutive times is diverted to quarantine
  with ``poison:<tenant>`` provenance after a deterministic number of
  worker deaths, and the stream completes without it.
* **Fencing** — a shard dying on *distinct* records accumulates
  breaker failures until it is fenced: no more restarts, submits
  refused, neighbors unaffected.
* **The worker wire** — batched feeds, per-record checkpoint cadence,
  careful replay, and the journal's ownership of every ack.

Byte-identity under worker crashes, hangs, mid-batch and drain-time
kills and the seeded crash storm (``REPRO_PROC_SEED``) are rows of
the certification matrix (``tests/certify.py``); the tests that
certified them before it run their rows here.

All supervisor deadlines are monotonic with injectable clocks; the
wall-clock audit test pins that property at the source level.
"""

import gc
import json
import multiprocessing
import os
import queue
import threading
import time

import pytest

import certify
from certify import FAST, PROC_SEED, FakeClock, conn_lines, factory, wait_for
from repro.common.errors import ValidationError
from repro.common.types import LogRecord
from repro.observability import Telemetry
from repro.resilience import (
    ProcessFault,
    crash_storm_schedule,
    fault_schedule,
    read_jsonl_payloads,
)
from repro.resilience.durability import RealIO, frame_record, scan_framed
from repro.resilience.faults import (
    PROC_EXIT,
    PROC_HANG,
    PROC_KILL,
    PROC_KINDS,
    PROC_SLOW_START,
)
from repro.service import (
    IngestionService,
    ShardSupervisor,
    TenantShard,
    replay_lines,
)
from repro.service.protocol import JOURNAL_NAME, BatchJournal
from repro.service.shard import CHECKPOINT_NAME
from repro.service.workers import (
    _FEED_BATCH,
    FENCED,
    STATE_DRAINED,
    STATE_FENCED,
    STATE_RUNNING,
    supervisor_status,
)


def _feed(supervisor, lines):
    for line in lines:
        supervisor.submit(LogRecord(content=line))


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)


@pytest.fixture
def wire_log():
    with certify.tapped_wire() as log:
        yield log


class TestProcessFaultSchedule:
    def test_same_seed_same_script(self):
        assert fault_schedule(ProcessFault, PROC_SEED) == fault_schedule(
            ProcessFault, PROC_SEED
        )
        assert fault_schedule(ProcessFault, 1) != fault_schedule(
            ProcessFault, 2
        )

    def test_faults_land_in_disjoint_windows(self):
        faults = fault_schedule(ProcessFault, PROC_SEED, n=4, span=100)
        records = [fault.at_record for fault in faults]
        assert records == sorted(records)
        for index, record in enumerate(records):
            assert index * 25 <= record < (index + 1) * 25
        assert all(fault.kind in PROC_KINDS for fault in faults)

    def test_storm_sub_seeds_are_tenant_stable(self):
        small = crash_storm_schedule(PROC_SEED, ["a", "b"])
        grown = crash_storm_schedule(PROC_SEED, ["a", "b", "c"])
        assert small["a"] == grown["a"]
        assert small["b"] == grown["b"]

    def test_rejects_unschedulable_kinds_and_bad_shapes(self):
        with pytest.raises(ValidationError):
            fault_schedule(ProcessFault, 1, kinds=(PROC_SLOW_START,))
        with pytest.raises(ValidationError):
            fault_schedule(ProcessFault, 1, n=0)
        with pytest.raises(ValidationError):
            fault_schedule(ProcessFault, 1, n=10, span=5)
        with pytest.raises(ValidationError):
            crash_storm_schedule(1, [])
        with pytest.raises(ValidationError):
            ProcessFault("segfault")
        with pytest.raises(ValidationError):
            ProcessFault(PROC_EXIT, exit_code=0)
        with pytest.raises(ValidationError):
            ProcessFault(PROC_KILL, lives=())


class TestBatchJournal:
    def test_append_then_reset_rewrites_atomically(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = BatchJournal(path)
        journal.append(0, LogRecord(content="a"))
        journal.append(1, LogRecord(content="b"))
        payloads, _ = scan_framed(open(path, "rb").read())
        assert [p["index"] for p in payloads] == [0, 1]
        journal.reset([(1, LogRecord(content="b"))])
        payloads, _ = scan_framed(open(path, "rb").read())
        assert [p["index"] for p in payloads] == [1]
        journal.remove()
        assert not os.path.exists(path)

    def test_init_discards_a_previous_life(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        BatchJournal(path).append(0, LogRecord(content="stale"))
        journal = BatchJournal(path)
        payloads, _ = scan_framed(open(path, "rb").read())
        assert payloads == []
        journal.remove()

    def test_append_after_reset_lands_in_the_rewritten_file(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = BatchJournal(path)
        for index in range(3):
            journal.append(index, LogRecord(content=f"r{index}"))
        journal.reset([(2, LogRecord(content="r2"), ("c", 3))])
        journal.append(3, LogRecord(content="r3"), ("c", 4))
        journal.close()
        recovered = BatchJournal(path, recover=True).recovered
        assert [(index, record.content, delivery)
                for index, record, delivery in recovered] == [
            (2, "r2", ("c", 3)), (3, "r3", ("c", 4)),
        ]

    def test_torn_tail_of_a_held_handle_life_is_truncated(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = BatchJournal(path)
        journal.append(0, LogRecord(content="a"))
        journal.append(1, LogRecord(content="b"))
        intact = os.path.getsize(path)
        journal.close()
        # SIGKILL mid-append: half a frame behind the flushed entries.
        with open(path, "ab") as handle:
            handle.write(frame_record({"index": 2, "content": "c"})[:9])
        survivor = BatchJournal(path, recover=True)
        assert [entry[0] for entry in survivor.recovered] == [0, 1]
        assert os.path.getsize(path) == intact
        survivor.append(2, LogRecord(content="c"))
        survivor.close()
        with open(path, "rb") as handle:
            payloads, valid = scan_framed(handle.read())
        assert [p["index"] for p in payloads] == [0, 1, 2]
        assert valid == os.path.getsize(path)

    @needs_proc_fd
    def test_one_descriptor_held_and_given_back(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = BatchJournal(path)
        baseline = _open_fds()
        for index in range(20):
            journal.append(index, LogRecord(content="x"))
        assert _open_fds() == baseline + 1, "one handle, not one per record"
        journal.reset(())
        assert _open_fds() == baseline
        journal.append(20, LogRecord(content="x"))
        journal.remove()
        assert _open_fds() == baseline
        assert not os.path.exists(path)


class TestSupervisedShard:
    def test_clean_process_run_matches_thread_run(self, tmp_path):
        lines = conn_lines(60)
        data = str(tmp_path / "proc")
        # A v1 supervisor journals nothing (its source replays the
        # stream) and retires what a v2 life left behind.
        journal = os.path.join(data, "t", JOURNAL_NAME)
        os.makedirs(os.path.dirname(journal))
        with open(journal, "wb") as handle:
            handle.write(frame_record({"index": 0, "content": "stale"}))
        sightings = []
        sup = ShardSupervisor(
            "t", data, factory(), parser_name="Drain",
            checkpoint_every=16,
            on_checkpoint=lambda *_: sightings.append(
                os.path.exists(journal)
            ),
            **FAST,
        )
        for line in lines:
            sightings.append(os.path.exists(journal))
            sup.submit(LogRecord(content=line))
        summary = sup.drain()
        assert summary["lines"] == 60
        assert summary["restarts"] == 0
        assert summary["isolation"] == "process"
        assert sup.state == STATE_DRAINED
        calm = certify.calm_run(tmp_path, [("t", line) for line in lines])
        certify.compare(data, calm, ["t"])
        assert len(sightings) > 60, "checkpoint acks were sampled too"
        assert not any(sightings) and not os.path.exists(journal)

    @pytest.mark.parametrize(
        "row",
        ["process-v1-proc-kill", "process-v1-proc-exit",
         "process-v1-proc-hang"],
        ids=["sigkill", "exit-nonzero", "hang"],
    )
    def test_crash_restart_resumes_byte_identical(
        self, row, tmp_path, calm_root
    ):
        certify.certify(row, tmp_path, calm_root)

    def test_kill_during_drain_restarts_and_finalizes(
        self, tmp_path, calm_root
    ):
        certify.certify("process-v2-kill-at-drain", tmp_path, calm_root)

    def test_restart_reason_metrics(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        faults = (
            ProcessFault(PROC_KILL, at_record=5, lives=(1,)),
            ProcessFault(PROC_EXIT, at_record=25, lives=(2,), exit_code=3),
            ProcessFault(PROC_HANG, at_record=45, lives=(3,),
                         hang_seconds=30.0),
        )
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=10, faults=faults, **FAST,
        )
        _feed(sup, conn_lines(60))
        summary = sup.drain()
        assert summary["restarts"] == 3
        value = telemetry.metrics.value
        assert value("repro_shard_restarts_total",
                     tenant="t", status="error") == 2.0
        assert value("repro_shard_restarts_total",
                     tenant="t", status="timeout") == 1.0
        # The shared status, plus the signal or exit detail, still
        # tells the kill, the exit and the hang apart.
        exits = telemetry.events.of_kind("worker_exit")
        assert [(e["status"], e["error"]) for e in exits] == [
            ("error", "killed by signal 9"),
            ("error", "exit code 3"),
            ("timeout", "no message for 0.4s (watchdog)"),
        ]
        kinds = [e["kind"] for e in telemetry.events.events]
        assert kinds.count("worker_restart") == 3
        assert "worker_drained" in kinds
        # lines synced across the process boundary
        assert value("repro_service_lines_total", tenant="t") == 60.0

    def test_worker_spans_adopted_across_process_boundary(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, **FAST,
        )
        _feed(sup, conn_lines(10))
        sup.drain()
        names = [span.name for span in telemetry.tracer.spans]
        assert "shard_worker" in names
        worker_span = next(
            span for span in telemetry.tracer.spans
            if span.name == "shard_worker"
        )
        assert worker_span.attrs["lines"] == 10
        assert worker_span.span_id.startswith("t-l1-")

    def test_poison_record_diverted_after_exact_death_count(self, tmp_path):
        """The pill dies N+1 times total: one unattributed normal-mode
        death, then ``poison_threshold`` attributed careful-replay
        deaths — then it is quarantined and the stream completes."""
        threshold = 2
        telemetry = Telemetry.create(trace_id="t")
        pill = ProcessFault(PROC_KILL, at_record=30, lives=(1, 2, 3, 4, 5, 6))
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=10, faults=(pill,),
            poison_threshold=threshold, fence_threshold=10, **FAST,
        )
        _feed(sup, conn_lines(60))
        summary = sup.drain()
        assert sup.state == STATE_DRAINED, "no crash loop, no fence"
        assert summary["restarts"] == threshold + 1
        assert summary["lines"] == 59, "everything but the pill parsed"
        assert summary["quarantined"] == 1
        quarantined = read_jsonl_payloads(
            os.path.join(str(tmp_path), "t", "out.quarantine.jsonl")
        )
        assert len(quarantined) == 1
        record = quarantined[0]
        assert record["source"] == "poison:t"
        assert record["line_no"] == 30
        assert record["reason"] == "poison-pill"
        assert telemetry.metrics.value(
            "repro_shard_poison_records_total", tenant="t"
        ) == 1.0
        assert any(
            e["kind"] == "poison_diverted" for e in telemetry.events.events
        )

    def test_distinct_record_deaths_fence_the_shard(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        faults = tuple(
            ProcessFault(PROC_KILL, at_record=record, lives=(life,))
            for life, record in enumerate((3, 5, 7, 9), start=1)
        )
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, checkpoint_every=100, faults=faults,
            poison_threshold=5, fence_threshold=3, **FAST,
        )
        _feed(sup, conn_lines(20))
        wait_for(lambda: sup.state == STATE_FENCED)
        assert sup.restarts == 3, "exactly fence_threshold deaths"
        assert sup.breaker_open
        assert sup.submit(LogRecord(content="refused")) == FENCED
        summary = sup.drain()
        assert summary["fenced"] is True
        assert summary["manifest"] is None
        assert any(
            e["kind"] == "worker_fenced" for e in telemetry.events.events
        )

    def test_slow_start_delays_but_completes(self, tmp_path):
        fault = ProcessFault(PROC_SLOW_START, delay_seconds=0.1)
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            faults=(fault,), **FAST,
        )
        _feed(sup, conn_lines(5))
        summary = sup.drain()
        assert summary["lines"] == 5
        assert summary["restarts"] == 0

    def test_budget_is_rejected_in_process_mode(self, tmp_path):
        with pytest.raises(ValidationError):
            ShardSupervisor(
                "t", str(tmp_path), factory(), parser_name="Drain",
                budget=object(),
            )

    def test_bad_timing_shapes_are_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ShardSupervisor(
                "t", str(tmp_path), factory(),
                watchdog=0.1, heartbeat_interval=0.2,
            )
        with pytest.raises(ValidationError):
            ShardSupervisor(
                "t", str(tmp_path), factory(), poison_threshold=0
            )
        with pytest.raises(ValidationError):
            ShardSupervisor(
                "t", str(tmp_path), factory(), fence_threshold=0
            )


class TestBatchedFeed:
    """One ``feed`` message carries up to ``_FEED_BATCH`` records; the
    per-record protocol (gap check, faults, checkpoint cadence, SLO
    observation) runs unchanged inside the batch.

    The slow-start fault holds ``ready`` back until the whole stream
    is in the outbox, so batch boundaries are deterministic:
    ``[0, 64), [64, 128), ...``.
    """

    SLOW_START = ProcessFault(PROC_SLOW_START, delay_seconds=0.3)

    def test_kill_mid_batch_finalizes_byte_identical(
        self, tmp_path, calm_root
    ):
        certify.certify("process-v1-kill-mid-batch", tmp_path, calm_root)

    def test_checkpoint_cadence_is_per_record_not_per_message(
        self, tmp_path, wire_log
    ):
        positions = []
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            checkpoint_every=50, faults=(self.SLOW_START,),
            on_checkpoint=lambda tenant, position: positions.append(position),
            **FAST,
        )
        _feed(sup, conn_lines(310))
        sup.drain()
        # Every 50th record — mid-batch each time — then the drain's
        # own checkpoint over the remainder (which may repeat).
        assert sorted(set(positions)) == [50, 100, 150, 200, 250, 300, 310]
        assert positions == sorted(positions)
        # Batch boundaries are deterministic.
        assert certify.feed_batches(wire_log) == [
            list(range(start, min(start + _FEED_BATCH, 310)))
            for start in range(0, 310, _FEED_BATCH)
        ]

    def test_hole_inside_a_batch_answers_gap_and_fences(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, faults=(self.SLOW_START,), **FAST,
        )
        _feed(sup, conn_lines(10))
        with sup._lock:  # lose an entry the journal should have replayed
            del sup._outbox[5]
        wait_for(lambda: sup.state == STATE_FENCED)
        violations = [
            e for e in telemetry.events.events
            if e["kind"] == "worker_protocol_violation"
        ]
        assert [(e["expected"], e["got"]) for e in violations] == [(5, 6)]
        assert sup.drain()["fenced"] is True

    def test_careful_replay_is_one_record_per_message(self, tmp_path, wire_log):
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            checkpoint_every=50,
            faults=(self.SLOW_START, ProcessFault(PROC_KILL, at_record=70)),
            **FAST,
        )
        _feed(sup, conn_lines(150))
        summary = sup.drain()
        assert summary["restarts"] == 1 and summary["lines"] == 150
        second_life = wire_log[wire_log.index(("life", 2)) + 1:]
        # Replay confirms each record before the next one leaves.  It
        # restarts at the checkpoint (50) — or at 0 when the SIGKILL
        # beat the worker's feeder thread to the checkpoint ack.
        conversation = [
            (direction, certify.feed_batches([(direction, message)])[0])
            if message[0] == "feed" else (direction, message[1])
            for direction, message in second_life
            if message[0] in ("feed", "done")
        ]
        start = conversation[0][1][0]
        assert start in (0, 50)
        expected = []
        for index in range(start, 150):
            expected += [("put", [index]), ("got", index)]
        assert conversation == expected
        assert all(
            message[2] is True
            for direction, message in second_life
            if direction == "put" and message[0] == "feed"
        ), "every careful feed asks for its confirm"

    def test_calm_tenant_ships_few_messages_and_observes_every_record(
        self, tmp_path, wire_log
    ):
        telemetry = Telemetry.create(trace_id="t")
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, **FAST,
        )
        _feed(sup, conn_lines(2000))
        summary = sup.drain()
        assert summary["lines"] == 2000 and summary["restarts"] == 0
        feeds = certify.feed_batches(wire_log)
        assert [i for batch in feeds for i in batch] == list(range(2000))
        assert max(len(batch) for batch in feeds) <= _FEED_BATCH
        assert len(feeds) <= 2000 // 8, "messages << records"
        for name in (
            "repro_tenant_queue_wait_seconds",
            "repro_tenant_ingest_latency_seconds",
        ):
            child = dict(telemetry.metrics.get(name).children())[("t",)]
            assert child.count == 2000, name


class TestJournalOwnsEveryAck:
    @pytest.mark.parametrize("host", ["thread", "process"])
    def test_submit_during_prune_rewrite_stays_journaled(
        self, tmp_path, host
    ):
        """An ack is a durable promise (DESIGN §14): a ``submit_seq``
        that races the checkpoint's rewrite of the journal must end
        up in the rewritten file, not in the inode it replaced —
        whichever host holds the front."""

        class RacingIO(RealIO):
            """The journal's ``replace`` gives a concurrent submit a
            head start."""

            def __init__(self):
                self.racer = None
                self.raced = []

            def replace(self, src, dst):
                if dst.endswith(JOURNAL_NAME):
                    racer, self.racer = self.racer, None
                    if racer is not None:
                        thread = threading.Thread(target=racer)
                        thread.start()
                        thread.join(timeout=0.5)
                        self.raced.append(thread)
                super().replace(src, dst)

        io = RacingIO()
        if host == "process":
            sup = ShardSupervisor(
                "t", str(tmp_path), factory(), parser_name="Drain",
                io=io, exactly_once=True, checkpoint_every=10_000, **FAST,
            )
        else:
            sup = TenantShard(
                "t", str(tmp_path), factory(), parser_name="Drain",
                io=io, exactly_once=True,
            )
        acked = {}
        for seq in range(1, 6):
            _, acked["high"] = sup.submit_seq(
                LogRecord(content=f"conn from host1 port {seq}"), "c", seq
            )

        def late_submit():
            _, acked["high"] = sup.submit_seq(
                LogRecord(content="conn from host1 port 6"), "c", 6
            )

        io.racer = late_submit
        # process: ack -> _prune -> rewrite; thread: inline, same lock
        sup.checkpoint()
        wait_for(lambda: io.raced and not io.raced[0].is_alive())
        assert acked["high"] == 6
        tenant_dir = os.path.join(str(tmp_path), "t")
        with open(os.path.join(tenant_dir, CHECKPOINT_NAME)) as handle:
            covered = json.load(handle)["delivery"]["clients"]["c"]
        journaled = {
            payload["seq"] for payload in read_jsonl_payloads(
                os.path.join(tenant_dir, JOURNAL_NAME)
            )
        }
        owned = set(range(1, covered + 1)) | journaled
        assert owned >= set(range(1, 7)), (
            f"acked through 6 but only {sorted(owned)} is owned durably"
        )
        assert sup.drain()["lines"] == 6


class TestOneFrontTwoHosts:
    """What one host acked and never checkpointed, the other replays —
    with no client resend to paper over a lost journal."""

    def _ack(self, host, seqs):
        for seq in seqs:
            _, high = host.submit_seq(
                LogRecord(content=f"conn from host1 port {seq}"), "c", seq
            )
            assert high == seq

    def test_thread_host_dies_process_host_resumes(self, tmp_path):
        shard = TenantShard(
            "t", str(tmp_path), factory(), parser_name="Drain",
            exactly_once=True,
        )
        self._ack(shard, range(1, 11))
        shard._front.close()  # SIGKILL: no checkpoint, no drain
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            exactly_once=True, **FAST,
        )
        assert sup.submit_seq(LogRecord(content="dup"), "c", 10) == (
            "duplicate", 10
        )
        self._ack(sup, [11])
        assert sup.drain()["lines"] == 11
        assert sorted(os.listdir(os.path.join(str(tmp_path), "t"))) == [
            "out.checkpoint.json", "out.events", "out.manifest.json",
            "out.structured",
        ]

    def test_process_host_dies_thread_host_resumes(self, tmp_path):
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            exactly_once=True, checkpoint_every=4, **FAST,
        )
        self._ack(sup, range(1, 11))
        wait_for(lambda: sup._acked >= 8)
        # The closest in-process stand-in for a SIGKILLed service: the
        # worker is killed, the journal suffix stays on disk.
        sup._abandon()
        wait_for(lambda: sup.state == STATE_FENCED)
        shard = TenantShard(
            "t", str(tmp_path), factory(), parser_name="Drain",
            exactly_once=True,
        )
        assert shard.position == 10
        assert shard.submit_seq(LogRecord(content="dup"), "c", 10) == (
            "duplicate", 10
        )
        self._ack(shard, [11])
        summary = shard.drain()
        assert (summary["seen"], summary["lines"]) == (11, 11)


    @pytest.mark.parametrize("host", ["thread", "process"])
    def test_acked_v2_lines_do_not_survive_a_v1_life(self, tmp_path, host):
        """Life A (thread, v2) acks 10 lines and dies uncheckpointed;
        life B (v1, on *host*) takes 3 new lines and drains; life C
        (thread, v2) drains B's 3 lines — not B's 3 followed by A's
        journal past them, a stream no calm run produces."""
        data = str(tmp_path)
        first = TenantShard(
            "t", data, factory(), parser_name="Drain", exactly_once=True,
        )
        self._ack(first, range(1, 11))
        first._front.close()  # SIGKILL: no checkpoint, no drain
        if host == "thread":
            second = TenantShard("t", data, factory(), parser_name="Drain")
        else:
            second = ShardSupervisor(
                "t", data, factory(), parser_name="Drain", **FAST
            )
        for i in range(3):
            second.submit(LogRecord(content=f"conn from host2 port {i}"))
        assert second.drain()["lines"] == 3
        third = TenantShard(
            "t", data, factory(), parser_name="Drain", exactly_once=True,
        )
        assert third.drain()["lines"] == 3


class TestExitClassification:
    def test_last_message_racing_the_exit_is_not_a_crash(
        self, tmp_path, monkeypatch
    ):
        """A worker that exits right after ``drained`` can be seen dead
        before the message is seen at all; the queue is read out
        before the exit is classified."""

        class ExitedProcess:
            exitcode = 0

            def is_alive(self):
                return False

            def join(self, timeout=None):
                pass

            terminate = kill = join

        class Inbox:
            def put_nowait(self, message):
                pass

            def close(self):
                pass

            cancel_join_thread = close

        class RacingResults(Inbox):
            """Empty on the first read; the message lands right after."""

            def __init__(self, messages):
                self.messages = list(messages)
                self.reads = 0

            def get(self, block=True, timeout=None):
                self.reads += 1
                if self.reads == 1 or not self.messages:
                    raise queue.Empty
                return self.messages.pop(0)

        summary = {"tenant": "t", "lines": 0, "events": 0, "manifest": None}

        def spawn(self):
            self.life += 1
            return ExitedProcess(), Inbox(), RacingResults(
                [("drained", summary, [], {})]
            )

        monkeypatch.setattr(ShardSupervisor, "_spawn", spawn)
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            sleep=lambda _s: None, **FAST,
        )
        drained = sup.drain()
        assert sup.state == STATE_DRAINED
        assert sup.restarts == 0 and drained["restarts"] == 0
        assert not drained.get("fenced")


class TestConcurrentDrain:
    TENANTS = ("a", "b", "c", "d")

    def _service(self, tmp_path, **worker_kwargs):
        service = IngestionService(
            str(tmp_path), factory(), parser_name="Drain",
            isolation="process",
            worker_kwargs=dict(checkpoint_every=8, **worker_kwargs),
        )
        replay_lines(service, [
            f"{self.TENANTS[i % 4]}\tconn from host{i % 5} port {i}"
            for i in range(80)
        ])
        return service

    def test_every_tenant_begins_before_the_first_is_collected(
        self, tmp_path, monkeypatch
    ):
        service = self._service(tmp_path, **FAST)
        shards = [service.shard(tenant) for tenant in self.TENANTS]
        requested_at_collect = []
        real_drain = ShardSupervisor.drain

        def spying_drain(self):
            requested_at_collect.append(
                [shard._drain_requested for shard in shards]
            )
            return real_drain(self)

        monkeypatch.setattr(ShardSupervisor, "drain", spying_drain)
        summary = service.drain()
        assert requested_at_collect[0] == [True] * 4
        assert sorted(summary) == ["protocol_rejects", "submitted", "tenants"]
        assert summary["submitted"] == 80 and summary["protocol_rejects"] == 0
        assert list(summary["tenants"]) == list(self.TENANTS)
        for tenant, shard_summary in summary["tenants"].items():
            assert shard_summary == {
                "tenant": tenant, "seen": 20, "accepted": 20, "lines": 20,
                "events": shard_summary["events"], "quarantined": 0,
                "breaker_open": False, "restarts": 0,
                "isolation": "process",
                "manifest": os.path.join(
                    str(tmp_path), tenant, "out.manifest.json"
                ),
            }
        assert service.drain() is summary, "idempotent"

    def test_a_tenant_past_its_deadline_does_not_hold_up_the_rest(
        self, tmp_path, monkeypatch
    ):
        wedged = ProcessFault(PROC_HANG, at_drain=True, hang_seconds=60.0)
        service = self._service(
            tmp_path, faults={"a": (wedged,)}, heartbeat_interval=0.02,
            watchdog=0.4, drain_timeout=1.5, term_grace=0.5,
        )
        shards = {t: service.shard(t) for t in self.TENANTS}
        others_done = []
        real_drain = ShardSupervisor.drain

        def spying_drain(self):
            summary = real_drain(self)
            if self.tenant == "a":
                others_done.extend(
                    shards[t].state == STATE_DRAINED for t in "bcd"
                )
            return summary

        monkeypatch.setattr(ShardSupervisor, "drain", spying_drain)
        summary = service.drain()["tenants"]
        assert summary["a"]["fenced"] is True
        assert others_done == [True] * 3, (
            "b, c, d drained while a sat out its deadline"
        )
        for tenant in "bcd":
            assert summary[tenant]["lines"] == 20
            assert not summary[tenant].get("fenced")

    def test_worker_exists_when_the_constructor_returns(self, tmp_path):
        # Forked by the supervisor thread, but before the submitter
        # gets the shard back: how many workers a service has never
        # depends on which thread won the GIL.
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain", **FAST
        )
        names = [child.name for child in multiprocessing.active_children()]
        assert sup.life == 1 and "shard-t-1" in names
        sup.drain()

    def test_failed_first_spawn_fences_and_does_not_hang(
        self, tmp_path, monkeypatch
    ):
        def spawn(self):
            raise OSError("fork: out of memory")

        monkeypatch.setattr(ShardSupervisor, "_spawn", spawn)
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain", **FAST
        )
        wait_for(lambda: sup.state == STATE_FENCED)
        assert sup.drain().get("fenced")

    def test_idle_monitor_does_not_busy_poll(self, tmp_path):
        calls = []

        def counting_clock():
            calls.append(None)
            return time.monotonic()

        # One clock read per monitor iteration (the watchdog check)
        # and one per worker message; a long heartbeat keeps the
        # window free of messages.
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            heartbeat_interval=2.0, watchdog=10.0, clock=counting_clock,
        )
        wait_for(lambda: sup.state == STATE_RUNNING)
        before = len(calls)
        time.sleep(0.5)
        iterations = len(calls) - before
        sup.drain()
        assert 1 <= iterations <= 30, iterations

    @needs_proc_fd
    def test_fifty_service_lives_leak_no_descriptor(self, tmp_path):
        def life(number, isolation):
            service = IngestionService(
                str(tmp_path / f"life{number}"), factory(),
                parser_name="Drain", protocol="v2", isolation=isolation,
                worker_kwargs=dict(FAST) if isolation == "process" else None,
            )
            for seq in range(1, 4):
                service.submit_line_v2(
                    f"{seq} t\tconn from host1 port {seq}", "c"
                )
            service.checkpoint_all()  # rewrite, then append again
            service.submit_line_v2("4 t\tconn from host1 port 4", "c")
            assert service.drain()["tenants"]["t"]["lines"] == 4

        life(0, "thread")
        life(1, "process")
        gc.collect()
        baseline = _open_fds()
        for number in range(2, 52):
            life(number, "process" if number % 10 == 0 else "thread")
        gc.collect()
        assert _open_fds() <= baseline


class TestMonotonicDeadlines:
    def test_no_wall_clock_in_service_sources(self):
        """Satellite audit: deadlines in service/ must be monotonic.

        ``time.time()`` is steppable by NTP — a deadline computed from
        it can fire years early or never.  The service layer's only
        wall-clock use is the tracer's export timestamps, which live
        in observability/, not here.
        """
        import repro.service as service_pkg

        root = os.path.dirname(service_pkg.__file__)
        for name in sorted(os.listdir(root)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as handle:
                source = handle.read()
            assert "time.time(" not in source, (
                f"service/{name} uses wall-clock time; deadlines must "
                f"use time.monotonic()"
            )

    def test_watchdog_fires_on_injected_clock_not_wall_time(self, tmp_path):
        """A hung worker is declared dead when the *injected* clock
        passes the deadline — no real waiting involved."""

        clock = FakeClock()
        fault = ProcessFault(PROC_HANG, at_record=5, hang_seconds=120.0)
        sup = ShardSupervisor(
            "t", str(tmp_path), factory(), parser_name="Drain",
            checkpoint_every=4, heartbeat_interval=0.02,
            watchdog=900.0, drain_timeout=60.0,
            faults=(fault,), clock=clock, sleep=lambda _s: None,
        )
        _feed(sup, conn_lines(10))
        # The last position the worker ships before the hang is its
        # checkpoint at 4; record 4 parses and record 5 hangs at once.
        wait_for(lambda: sup._stats.get("position", 0) >= 4)
        # The worker now sleeps inside record 5.  Real time passing
        # must NOT trip the 900s watchdog...
        time.sleep(0.3)
        assert sup.restarts == 0
        # ...but the injected clock jumping past it must.
        clock.advance(1000.0)
        summary = sup.drain()
        assert summary["restarts"] == 1
        assert summary["lines"] == 10

    def test_heartbeat_age_tracks_injected_clock(self, tmp_path):
        sup = ShardSupervisor.__new__(ShardSupervisor)
        sup._clock = lambda: 42.0
        sup._last_seen = 40.0
        assert sup.heartbeat_age() == pytest.approx(2.0)


class TestCrashStormService:
    def test_storm_across_three_tenants_matches_calm_run(
        self, tmp_path, calm_root
    ):
        certify.certify("process-v1-crash-storm", tmp_path, calm_root)

    def test_storm_with_poison_tenant(self, tmp_path):
        threshold = 2
        pill = ProcessFault(PROC_KILL, at_record=13, lives=(1, 2, 3, 4, 5))
        service = IngestionService(
            str(tmp_path), factory(), parser_name="Drain",
            isolation="process",
            worker_kwargs=dict(
                faults={"venom": (pill,)},
                checkpoint_every=8,
                poison_threshold=threshold,
                fence_threshold=10,
                **FAST,
            ),
        )
        lines = [f"venom\tconn from host{i % 5} port {i}" for i in range(30)]
        lines += [f"calm\tconn from host{i % 5} port {i}" for i in range(30)]
        replay_lines(service, lines)
        summary = service.drain()
        venom = summary["tenants"]["venom"]
        assert venom["restarts"] == threshold + 1
        assert venom["quarantined"] == 1
        quarantined = read_jsonl_payloads(
            os.path.join(str(tmp_path), "venom", "out.quarantine.jsonl")
        )
        assert quarantined[0]["source"] == "poison:venom"
        assert summary["tenants"]["calm"]["restarts"] == 0
        assert summary["tenants"]["calm"]["lines"] == 30

    def test_process_isolation_rejects_tenant_budgets(self, tmp_path):
        with pytest.raises(ValidationError):
            IngestionService(
                str(tmp_path), factory(),
                isolation="process", budget=object(), ladder=object(),
            )
        with pytest.raises(ValidationError):
            IngestionService(str(tmp_path), factory(), isolation="rocket")
        with pytest.raises(ValidationError):
            IngestionService(
                str(tmp_path), factory(), worker_kwargs=dict(watchdog=1.0)
            )


class TestSupervisorStatus:
    def test_status_line_from_registry(self, tmp_path):
        telemetry = Telemetry.create(trace_id="t")
        service = IngestionService(
            str(tmp_path), factory(), parser_name="Drain",
            telemetry=telemetry, isolation="process",
            worker_kwargs=dict(checkpoint_every=8, **FAST),
        )
        replay_lines(
            service,
            [f"alpha\tconn from host{i} port {i}" for i in range(10)],
        )
        status = supervisor_status(service)
        assert "alpha" in status["tenants"]
        assert status["line"].startswith("supervisor: alpha ")
        assert "r=0" in status["line"]
        service.drain()
        status = supervisor_status(service)
        assert status["tenants"]["alpha"]["state"] == STATE_DRAINED

    def test_status_works_in_thread_mode(self, tmp_path):
        service = IngestionService(
            str(tmp_path), factory(), parser_name="Drain"
        )
        replay_lines(service, ["alpha\tconn from host1 port 1"])
        status = supervisor_status(service)
        assert status["tenants"]["alpha"]["state"] == "alive"
        service.drain()
