"""Deterministic chaos-soak tests: seeded schedules force the ladder.

Each scenario replays a scripted resource-pressure schedule against a
real streaming parse of generated HDFS sessions and audits the invariant
set from the issue: the ladder fires in order, never skips a rung, every
transition carries budget evidence and a mining-impact estimate, and the
run always finalizes a valid structured log and event matrix.

The CI soak job parametrizes the seed through ``REPRO_SOAK_SEED`` so a
two-seed matrix exercises different schedules without editing the test.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.common.errors import ValidationError
from repro.degradation import SCENARIO_KINDS, SoakScenario, run_soak, soak_ladder


def _seeds() -> list[int]:
    env = os.environ.get("REPRO_SOAK_SEED")
    if env is not None:
        return [int(env)]
    return [7, 11]


@pytest.mark.parametrize("kind", SCENARIO_KINDS)
@pytest.mark.parametrize("seed", _seeds())
def test_soak_scenario_passes_audit(kind, seed):
    report = run_soak(SoakScenario(kind=kind, seed=seed))
    assert report.ok, report.describe()
    assert not report.violations
    assert report.quarantined == 0


def test_soak_transitions_follow_the_ladder_in_order():
    report = run_soak(SoakScenario(kind="memory-pressure", seed=7))
    rungs = [rung.parser for rung in soak_ladder().rungs]
    events = report.session.ladder.events
    assert len(events) >= 2
    for event in events:
        at = rungs.index(event.from_rung)
        assert rungs[at + 1] == event.to_rung  # exactly one rung, no skips
        assert event.sample is not None
        assert event.breaches
        assert event.mining_impact
    assert [event.sequence for event in events] == list(
        range(1, len(events) + 1)
    )


def test_soak_always_finalizes_valid_outputs():
    report = run_soak(SoakScenario(kind="slow-consumer", seed=7))
    result = report.result
    assert result is not None
    assert len(result.assignments) == report.session.parser.counters.lines
    assert "PENDING" not in result.assignments
    matrix = report.session.matrix()
    assert matrix.n_sessions > 0


def test_soak_deadline_squeeze_uses_scripted_clock():
    # Same seed -> identical schedule -> identical transition count.
    first = run_soak(SoakScenario(kind="deadline-squeeze", seed=23))
    second = run_soak(SoakScenario(kind="deadline-squeeze", seed=23))
    assert first.ok and second.ok
    first_steps = first.session.ladder.events
    second_steps = second.session.ladder.events
    assert len(first_steps) == len(second_steps)
    assert [e.to_rung for e in first_steps] == [
        e.to_rung for e in second_steps
    ]


def test_soak_scenario_validates_kind_and_knobs():
    with pytest.raises(ValidationError):
        SoakScenario(kind="solar-flare")
    with pytest.raises(ValidationError):
        SoakScenario(kind="memory-pressure", n_blocks=0)
    with pytest.raises(ValidationError):
        SoakScenario(kind="memory-pressure", min_transitions=0)


def test_cli_soak_command(capsys):
    assert main(["soak", "slow-consumer", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "degradation" in out


def test_cli_soak_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit):
        main(["soak", "solar-flare"])
