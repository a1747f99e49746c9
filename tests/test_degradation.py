"""Tests for the resource-budgeted degradation runtime."""

from __future__ import annotations

from random import Random

import pytest

from repro.cli import _build_stream_ladder, build_arg_parser, main
from repro.common.errors import (
    BudgetExceededError,
    ParserConfigurationError,
    ValidationError,
)
from repro.common.types import LogRecord
from repro.datasets import generate_dataset, get_dataset_spec
from repro.degradation import (
    FRONTIER,
    BudgetLimit,
    BudgetMonitor,
    DegradationLadder,
    DegradedSession,
    LadderRung,
    MiningImpactLedger,
    ResourceBudget,
    frontier,
    soak_ladder,
)
from repro.degradation.budget import (
    DIM_MEMORY,
    DIM_QUEUE,
    LEVEL_HARD,
    LEVEL_SOFT,
)
from repro.degradation.ladder import TRIGGER_HARD, TRIGGER_SOFT
from repro.parsers import PARSER_NAMES, make_parser
from repro.resilience.supervisor import (
    STATUS_BUDGET,
    ParserSupervisor,
    RetryPolicy,
)
from repro.streaming import StreamingParser


def distinct_records(n: int) -> list[LogRecord]:
    """n records that are all cache misses (every content distinct)."""
    return [
        LogRecord(content=f"event kind{i} happened on node{i} port {i}")
        for i in range(n)
    ]


def ramp_probe(values):
    """Memory probe replaying *values*, then holding the last one."""
    state = {"i": 0}

    def probe() -> float:
        value = values[min(state["i"], len(values) - 1)]
        state["i"] += 1
        return value

    return probe


# ----------------------------------------------------------------------
# Budgets and the monitor
# ----------------------------------------------------------------------


def test_budget_limit_grades_soft_and_hard():
    limit = BudgetLimit(soft=10, hard=20)
    assert limit.grade(5) is None
    assert limit.grade(10) == LEVEL_SOFT
    assert limit.grade(20) == LEVEL_HARD


def test_budget_limit_validation():
    with pytest.raises(ValidationError):
        BudgetLimit(soft=-1)
    with pytest.raises(ValidationError):
        BudgetLimit(soft=5, hard=2)


def test_resource_budget_of_derives_soft_limits():
    budget = ResourceBudget.of(memory_mb=64, wall_seconds=10)
    limits = budget.limits()
    assert limits[DIM_MEMORY].hard == 64 * 1024 * 1024
    assert limits[DIM_MEMORY].soft == 32 * 1024 * 1024
    assert "wall" in budget.describe()
    assert ResourceBudget().describe() == "budget: unlimited"
    with pytest.raises(ValidationError):
        ResourceBudget.of(memory_mb=1, soft_fraction=0.0)


def test_monitor_uses_injected_probes_and_sorts_hard_first():
    budget = ResourceBudget(
        memory_bytes=BudgetLimit(soft=100, hard=200),
        queue_depth=BudgetLimit(soft=5, hard=10),
    )
    monitor = BudgetMonitor(budget, memory_probe=lambda: 150.0)
    sample, breaches = monitor.evaluate(queue_depth=50)
    assert sample.memory_bytes == 150.0
    assert sample.queue_depth == 50.0
    # queue is a hard breach, memory only soft: hard must sort first.
    assert [b.level for b in breaches] == [LEVEL_HARD, LEVEL_SOFT]
    assert breaches[0].dimension == DIM_QUEUE
    assert "breach" in breaches[0].describe()


def test_monitor_wall_clock_uses_injected_clock():
    clock_state = {"now": 100.0}
    budget = ResourceBudget(wall_seconds=BudgetLimit(soft=1, hard=5))
    monitor = BudgetMonitor(
        budget, clock=lambda: clock_state["now"], memory_probe=lambda: 0.0
    )
    monitor.start()
    clock_state["now"] = 102.0
    sample = monitor.sample()
    assert sample.wall_seconds == pytest.approx(2.0)
    assert [b.level for b in monitor.check(sample)] == [LEVEL_SOFT]


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------


def test_frontier_steps_each_parser_once_to_its_floor():
    # The measured rule of ablation A6: LKE, LogSig and SLCT step once
    # to Drain; every other parser is its own floor.
    names = [*PARSER_NAMES, "Passthrough"]
    assert {name: frontier(name) for name in names} == {
        "SLCT": ["SLCT", "Drain"],
        "IPLoM": ["IPLoM"],
        "LKE": ["LKE", "Drain"],
        "LogSig": ["LogSig", "Drain"],
        "Drain": ["Drain"],
        "Passthrough": ["Passthrough"],
    }


def test_ladder_soft_steps_need_sustained_pressure():
    ladder = soak_ladder(cooldown_checks=3)
    ladder.note_check(True)
    ladder.note_check(True)
    assert not ladder.ready()  # two breached checks < cooldown of 3
    ladder.note_check(False)  # relief resets the streak
    ladder.note_check(True)
    ladder.note_check(True)
    ladder.note_check(True)
    assert ladder.ready()


def test_ladder_steps_one_rung_at_a_time_with_audit_trail():
    ladder = soak_ladder(cooldown_checks=1)
    first = ladder.step_down(trigger=TRIGGER_SOFT, at_line=10)
    second = ladder.step_down(trigger=TRIGGER_HARD, at_line=20)
    assert (first.from_rung, first.to_rung) == ("LKE", "LogSig")
    assert (second.from_rung, second.to_rung) == ("LogSig", "Drain")
    assert [event.sequence for event in ladder.events] == [1, 2]
    assert ladder.current.parser == "Drain"
    assert "[Drain]" in ladder.describe()


def test_ladder_exhaustion_refuses_further_steps():
    ladder = DegradationLadder([LadderRung("Passthrough")])
    assert ladder.exhausted
    assert ladder.peek_next() is None
    with pytest.raises(ValidationError):
        ladder.step_down(trigger=TRIGGER_SOFT, at_line=0)


def test_ladder_rung_validation():
    with pytest.raises(ValidationError):
        DegradationLadder([])
    with pytest.raises(ValidationError):
        DegradationLadder([LadderRung("Drain")], cooldown_checks=0)


# ----------------------------------------------------------------------
# The mining-impact ledger
# ----------------------------------------------------------------------


def test_ledger_prices_a_downgrade():
    ledger = MiningImpactLedger()
    cost = ledger.record(1, "IPLoM", "SLCT")
    assert cost.detection_delta < 0  # Table III: IPLoM 64% -> SLCT 11%
    assert cost.false_alarm_delta > 0
    assert "IPLoM -> SLCT" in cost.describe()
    assert "ledger" in ledger.describe()
    assert ledger.total_detection_delta == pytest.approx(cost.detection_delta)


def _stream_args(*argv: str):
    return build_arg_parser().parse_args(["stream", *argv])


def test_every_default_rung_builds_its_parser():
    # A rung that cannot construct its parser crashes the runtime at
    # the worst possible moment — mid step-down under budget pressure.
    # (Regression: the LogSig rung once lacked its required `groups`.)
    for name in PARSER_NAMES:
        for rung in _build_stream_ladder(_stream_args(name)).rungs:
            assert rung.build_parser().name == rung.parser
    for rung in soak_ladder().rungs:
        assert rung.build_parser().name == rung.parser


def test_ledger_prices_every_default_rung():
    # Every parser a ladder can hold must have a reference row, or a
    # downgrade could not be priced mid-run.
    ledger = MiningImpactLedger()
    for name in [*PARSER_NAMES, "Passthrough"]:
        assert ledger.estimate_for(name).parser == name
    # Drain sits between IPLoM and SLCT in fidelity: stepping onto it
    # costs a little detection, stepping off it to SLCT costs a lot.
    assert ledger.cost("IPLoM", "Drain").detection_delta <= 0
    assert ledger.cost("Drain", "SLCT").detection_delta < -0.3
    # Drain sits between IPLoM and SLCT in fidelity: stepping onto it
    # costs a little detection, stepping off it to SLCT costs a lot.
    assert ledger.cost("IPLoM", "Drain").detection_delta <= 0
    assert ledger.cost("Drain", "SLCT").detection_delta < -0.3


def test_ledger_rejects_unknown_parser():
    with pytest.raises(ValidationError):
        MiningImpactLedger().estimate_for("NoSuchParser")


# ----------------------------------------------------------------------
# The passthrough rung
# ----------------------------------------------------------------------


def test_passthrough_gives_each_signature_its_own_event():
    parser = make_parser("passthrough")
    records = [
        LogRecord(content="open file a"),
        LogRecord(content="open file b"),
        LogRecord(content="open file a"),
    ]
    result = parser.parse(records)
    assert len(result.events) == 2
    assert result.assignments[0] == result.assignments[2]
    assert result.assignments[0] != result.assignments[1]


# ----------------------------------------------------------------------
# Engine backpressure (bounded ingest)
# ----------------------------------------------------------------------


def engine_with(overflow: str, **kwargs) -> StreamingParser:
    return StreamingParser(
        lambda: make_parser("IPLoM"),
        flush_size=1000,
        max_pending=5,
        overflow=overflow,
        **kwargs,
    )


def test_backpressure_shed_drops_overflowing_misses():
    engine = engine_with("shed")
    results = [engine.feed(record) for record in distinct_records(12)]
    assert results[:5] == [0, 1, 2, 3, 4]
    assert results[5:] == [-1] * 7
    assert engine.counters.shed == 7
    assert engine.counters.lines == 5


def test_backpressure_sample_keeps_a_census():
    engine = engine_with("sample", overflow_sample_keep=2)
    results = [engine.feed(record) for record in distinct_records(11)]
    admitted = [r for r in results if r >= 0]
    # 5 fill the buffer; of the 6 overflowing, every 2nd is admitted.
    assert len(admitted) == 8
    assert engine.counters.shed == 3


def test_backpressure_block_flushes_synchronously():
    engine = engine_with("block")
    for record in distinct_records(12):
        assert engine.feed(record) >= 0
    assert engine.counters.shed == 0
    assert engine.counters.lines == 12
    assert engine.counters.flushes >= 1


def test_backpressure_validation():
    with pytest.raises(ParserConfigurationError):
        engine_with("explode")
    with pytest.raises(ParserConfigurationError):
        StreamingParser(lambda: make_parser("IPLoM"), max_pending=0)


def test_shed_returns_minus_one_without_corrupting_state():
    engine = engine_with("shed")
    for record in distinct_records(8):
        engine.feed(record)
    engine.finalize()
    result = engine.result()
    assert len(result.assignments) == 5  # only admitted lines retained
    assert all(a != "PENDING" for a in result.assignments)


# ----------------------------------------------------------------------
# Live reconfiguration
# ----------------------------------------------------------------------


def test_reconfigure_swaps_only_the_parser():
    engine = StreamingParser(
        lambda: make_parser("IPLoM"), flush_size=100, cache_capacity=64
    )
    for record in distinct_records(10):
        engine.feed(record)
    applied = engine.reconfigure(lambda: make_parser("SLCT"))
    assert applied == {"flush_parser": "SLCT"}
    assert (engine.flush_size, engine.cache.capacity) == (100, 64)
    assert engine.pending_count == 10  # the backlog waits for the new parser


# ----------------------------------------------------------------------
# DegradedSession: budget checks drive the ladder
# ----------------------------------------------------------------------


def fast_ladder(cooldown: int = 1) -> DegradationLadder:
    # Streams here stay under the default flush size, so only the last
    # rung ever parses.
    return soak_ladder(cooldown_checks=cooldown)


def budgeted(ladder, monitor, check_every, **engine_kwargs):
    """A session over a fresh engine on the ladder's current rung."""
    engine = StreamingParser(ladder.current.build_parser, **engine_kwargs)
    return DegradedSession(
        engine, ladder, monitor, check_every=check_every, track_matrix=False
    )


def test_degraded_session_steps_down_under_soft_pressure():
    mb = 1024 * 1024
    budget = ResourceBudget(memory_bytes=BudgetLimit(soft=32 * mb, hard=64 * mb))
    monitor = BudgetMonitor(
        budget, memory_probe=ramp_probe([10 * mb, 40 * mb, 40 * mb, 40 * mb])
    )
    session = budgeted(fast_ladder(cooldown=2), monitor, check_every=10)
    session.consume(distinct_records(60))
    session.finalize()
    first = session.ladder.events[0]
    assert first.from_rung == "LKE"
    assert first.to_rung == "LogSig"
    assert first.trigger == TRIGGER_SOFT
    assert first.breaches and first.sample is not None
    assert first.mining_impact  # non-empty estimate
    assert session.ladder.current.parser in ("LogSig", "Drain")
    assert "degradation" in session.describe()


def test_drain_headed_ladder_steps_down_under_pressure():
    # Drain is its own floor on the frontier, but a ladder given with
    # ``--ladder`` still degrades like any other: one audited rung at a
    # time, each transition priced by the ledger.
    mb = 1024 * 1024
    budget = ResourceBudget(memory_bytes=BudgetLimit(soft=32 * mb, hard=64 * mb))
    monitor = BudgetMonitor(
        budget, memory_probe=ramp_probe([10 * mb, 40 * mb, 40 * mb, 40 * mb])
    )
    ladder = DegradationLadder(
        [LadderRung("Drain"), LadderRung("IPLoM")], cooldown_checks=2
    )
    session = budgeted(ladder, monitor, check_every=10)
    session.consume(distinct_records(60))
    session.finalize()
    first = session.ladder.events[0]
    assert first.from_rung == "Drain"
    assert first.to_rung == "IPLoM"
    assert first.mining_impact  # priced by the ledger
    assert session.parser.counters.lines == 60


def test_degraded_session_hard_breach_steps_without_cooldown():
    budget = ResourceBudget(memory_bytes=BudgetLimit(soft=10, hard=20))
    monitor = BudgetMonitor(budget, memory_probe=ramp_probe([5, 25]))
    session = budgeted(fast_ladder(cooldown=99), monitor, check_every=5)
    # Checks run before the 6th and the 11th record.
    session.consume(distinct_records(11))
    assert [event.trigger for event in session.ladder.events] == [TRIGGER_HARD]


def test_degraded_session_raises_when_hard_breach_meets_exhausted_ladder():
    budget = ResourceBudget(memory_bytes=BudgetLimit(soft=10, hard=20))
    monitor = BudgetMonitor(budget, memory_probe=lambda: 100.0)
    ladder = DegradationLadder([LadderRung("Passthrough")])
    session = budgeted(ladder, monitor, check_every=5)
    with pytest.raises(BudgetExceededError) as excinfo:
        session.consume(distinct_records(10))
    assert excinfo.value.breaches


def test_degraded_session_admits_every_line():
    # No rung drops lines: a session that walks the whole ladder still
    # hands every offered record to the engine.
    budget = ResourceBudget(memory_bytes=BudgetLimit(soft=10, hard=20))
    monitor = BudgetMonitor(budget, memory_probe=lambda: 25.0)
    session = budgeted(fast_ladder(), monitor, check_every=3)
    session.consume(distinct_records(7))
    assert session.ladder.current.parser == "Drain"
    result = session.finalize()
    assert session.parser.counters.lines == 7
    assert len(result.assignments) == 7


def test_degraded_session_rejects_bad_check_every():
    monitor = BudgetMonitor(ResourceBudget(), memory_probe=lambda: 0.0)
    with pytest.raises(ValidationError):
        budgeted(fast_ladder(), monitor, check_every=0)


# ----------------------------------------------------------------------
# The supervisor's budget status
# ----------------------------------------------------------------------


def test_supervisor_budget_status_skips_retries(toy_records):
    sleeps: list[float] = []

    class OverBudget:
        name = "OverBudget"

        def parse(self, records):
            raise BudgetExceededError("memory budget exhausted")

    supervisor = ParserSupervisor(
        [("A", OverBudget), ("B", lambda: make_parser("IPLoM"))],
        retry=RetryPolicy(attempts=3, base_delay=0.5),
        sleep=sleeps.append,
    )
    outcome = supervisor.parse(toy_records)
    assert outcome.parser == "B"
    assert [a.status for a in outcome.report.attempts][0] == STATUS_BUDGET
    assert sleeps == []  # a blown budget is never retried, so no backoff


def test_random_jitter_rng_is_plumbed_through(toy_records):
    # With an rng and a jittered policy, the supervisor still succeeds
    # and the jittered delays stay within the policy's bounds.
    from repro.resilience.faults import FlakyFactory

    sleeps: list[float] = []
    flaky = FlakyFactory(lambda: make_parser("IPLoM"), fail_times=2)
    policy = RetryPolicy(attempts=3, base_delay=0.1, backoff=2.0, jitter=0.5)
    supervisor = ParserSupervisor(
        [("IPLoM", flaky)],
        retry=policy,
        sleep=sleeps.append,
        rng=Random(42),
    )
    supervisor.parse(toy_records)
    assert len(sleeps) == 2
    for attempt, actual in enumerate(sleeps, start=1):
        base = min(policy.max_delay, policy.base_delay * policy.backoff ** (attempt - 1))
        assert base * 0.5 <= actual <= base * 1.5


# ----------------------------------------------------------------------
# The measured frontier
# ----------------------------------------------------------------------


def _flush_lines_per_offered_line(rung: LadderRung, records) -> float:
    """Lines a rung hands its flush parser per offered line, in the
    stream shape (delta, flush 512, cache 4096)."""
    handed: list[int] = []

    def factory():
        parser = rung.build_parser()
        parse = parser.parse

        def counted(batch):
            handed.append(len(batch))
            return parse(batch)

        parser.parse = counted
        return parser

    engine = StreamingParser(factory)
    assert all(engine.feed(record) >= 0 for record in records)
    engine.finalize()
    assert engine.counters.lines == len(records)  # every line admitted
    return sum(handed) / len(records)


@pytest.mark.parametrize("dataset", ["HDFS", "BGL", "HPC"])
def test_frontier_steps_hand_no_more_lines_to_the_flush_parser(dataset):
    records = generate_dataset(get_dataset_spec(dataset), 1000, seed=11).records
    handed = {
        name: _flush_lines_per_offered_line(
            _build_stream_ladder(_stream_args(name, "--seed", "11")).rungs[0],
            records,
        )
        for name in {name for step in FRONTIER for name in step}
    }
    for upper, lower in FRONTIER:
        assert handed[lower] <= handed[upper], (upper, lower, handed)


# ----------------------------------------------------------------------
# A budget that never breaches changes nothing
# ----------------------------------------------------------------------


def _stream_bytes(tmp_path, label, *argv) -> tuple[bytes, bytes]:
    stem = str(tmp_path / label)
    assert main(["stream", *argv, "--output-stem", stem]) == 0
    with open(stem + ".events", "rb") as events:
        with open(stem + ".structured", "rb") as structured:
            return events.read(), structured.read()


@pytest.mark.parametrize("parser", ["Drain", "IPLoM"])
@pytest.mark.parametrize("dataset", ["HDFS", "BGL"])
def test_unbreached_budgeted_stream_writes_the_plain_bytes(
    tmp_path, capsys, parser, dataset
):
    source = [parser, "--dataset", dataset, "--size", "2000", "--seed", "3"]
    plain = _stream_bytes(tmp_path, "plain", *source)
    budgeted = _stream_bytes(
        tmp_path, "budgeted", *source, "--budget-queue", "100000"
    )
    assert budgeted == plain
    assert "finished on rung " + parser + " after 0" in capsys.readouterr().out


def test_budgeted_stream_honours_the_parser_flags(tmp_path, capsys):
    # Regression: each rung was built from the rung's own params, so
    # --sim-threshold, --depth, --support and --groups were dropped.
    source = ["Drain", "--dataset", "BGL", "--size", "2000", "--seed", "3"]
    strict = ["--sim-threshold", "0.9"]
    plain = _stream_bytes(tmp_path, "plain", *source, *strict)
    budgeted = _stream_bytes(
        tmp_path, "budgeted", *source, *strict, "--budget-queue", "100000"
    )
    loose = _stream_bytes(
        tmp_path, "loose", *source, "--budget-queue", "100000"
    )
    capsys.readouterr()
    assert budgeted == plain
    assert budgeted != loose


def test_ladder_rungs_are_built_from_the_parser_flags():
    ladder = _build_stream_ladder(
        _stream_args(
            "LKE", "--ladder", "LogSig,SLCT,Drain", "--groups", "7",
            "--support", "0.05", "--sim-threshold", "0.6", "--seed", "4",
        )
    )
    assert [(rung.parser, rung.params) for rung in ladder.rungs] == [
        ("LogSig", {"groups": 7, "seed": 4}),
        ("SLCT", {"support": 0.05}),
        ("Drain", {"sim_threshold": 0.6, "depth": 4}),
    ]


def test_parser_off_the_frontier_is_its_own_floor(capsys):
    assert main(
        [
            "stream", "IPLoM", "--dataset", "HDFS", "--size", "400",
            "--seed", "5", "--budget-queue", "20", "--check-every", "25",
            "--flush-size", "20",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "ladder: [IPLoM] |" in out
    assert "finished on rung IPLoM" in out


@pytest.mark.parametrize("parser", ["Drain", "IPLoM"])
@pytest.mark.parametrize("dataset", ["HDFS", "BGL"])
def test_unbreached_budgeted_shard_writes_the_delta_shard_artifacts(
    tmp_path, parser, dataset
):
    from repro.service.shard import TenantShard

    records = generate_dataset(get_dataset_spec(dataset), 1500, seed=3).records

    def run(label, **kwargs) -> dict[str, bytes]:
        shard = TenantShard(
            "alpha",
            str(tmp_path / label),
            lambda: make_parser(parser),
            parser_name=parser,
            **kwargs,
        )
        for record in records:
            shard.submit(record)
        shard.drain()
        root = tmp_path / label / "alpha"
        return {path.name: path.read_bytes() for path in root.iterdir()}

    plain = run("plain", flush_policy="delta")
    serve = build_arg_parser().parse_args(["serve", parser, str(tmp_path)])
    budgeted = run(
        "budgeted",
        budget=ResourceBudget.of(queue_depth=100_000),
        ladder=_build_stream_ladder(serve),
    )
    assert budgeted == plain
