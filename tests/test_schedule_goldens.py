"""Seeded fault schedules, pinned to the byte.

Every recovery certification (resumed == calm, faulted+SIGKILLed ==
calm, exactly-once) replays the faults a seeded schedule draws, and CI
runs those suites at seeds 7 and 101.  These goldens are the ``repr``
of every schedule family at both seeds, for the CLI's arguments and for
each argument set the suite passes, so a scheduler change that moves
one fault -- a byte offset, a kind, one RNG draw out of order -- fails
here before it silently changes what a certification replays.
"""

import pytest

from repro.resilience.faults import (
    IoFault,
    NetworkFault,
    ProcessFault,
    crash_storm_schedule,
    fault_schedule,
)

#: Case id -> the schedule it names, drawn from a seed.
CALLS = {
    "io": lambda seed: fault_schedule(IoFault, seed),
    "process": lambda seed: fault_schedule(ProcessFault, seed),
    "process-n4-span100": lambda seed: fault_schedule(
        ProcessFault, seed, n=4, span=100
    ),
    "network": lambda seed: fault_schedule(NetworkFault, seed),
    "network-n5-span120": lambda seed: fault_schedule(
        NetworkFault, seed, n=5, span=120
    ),
    "network-n5-span90": lambda seed: fault_schedule(
        NetworkFault, seed, n=5, span=90
    ),
    "network-n5-span50": lambda seed: fault_schedule(
        NetworkFault, seed, n=5, span=50
    ),
    "storm-cli": lambda seed: crash_storm_schedule(seed, ["alpha"]),
    "storm-abc": lambda seed: crash_storm_schedule(seed, ["a", "b", "c"]),
    "storm-abc-span40": lambda seed: crash_storm_schedule(
        seed, ["a", "b", "c"], faults_per_tenant=2, span=40,
        hang_seconds=30.0,
    ),
    "storm-alpha-beta-gamma": lambda seed: crash_storm_schedule(
        seed, ["alpha", "beta", "gamma"], faults_per_tenant=2, span=40,
        hang_seconds=30.0,
    ),
}


def _lines(schedule) -> list[str]:
    """One ``repr`` per fault; a crash storm prefixes its tenant."""
    if isinstance(schedule, dict):
        return [
            f"{tenant}: {fault!r}"
            for tenant, faults in schedule.items()
            for fault in faults
        ]
    return [repr(fault) for fault in schedule]


GOLDEN = {
    (7, 'io'): [
        "IoFault(kind='fsync', at_bytes=404, at_call=3, path_contains=None, times=1)",
        "IoFault(kind='eio', at_bytes=1120, at_call=5, path_contains=None, times=1)",
        "IoFault(kind='fsync', at_bytes=2267, at_call=7, path_contains=None, times=1)",
        "IoFault(kind='eio', at_bytes=3516, at_call=9, path_contains=None, times=1)",
    ],
    (7, 'process'): [
        "ProcessFault(kind='exit', at_record=19, at_drain=False, lives=(1,), exit_code=51, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=72, at_drain=False, lives=(2,), exit_code=10, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=144, at_drain=False, lives=(3,), exit_code=47, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (7, 'process-n4-span100'): [
        "ProcessFault(kind='exit', at_record=4, at_drain=False, lives=(1,), exit_code=51, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=26, at_drain=False, lives=(2,), exit_code=10, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=53, at_drain=False, lives=(3,), exit_code=47, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=76, at_drain=False, lives=(4,), exit_code=117, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (7, 'network'): [
        "NetworkFault(kind='ack-drop', at_line=4, cut_fraction=0.6927645751947851, repeats=2, drop_acks=2)",
        "NetworkFault(kind='partition', at_line=77, cut_fraction=0.23479935486482412, repeats=2, drop_acks=1)",
        "NetworkFault(kind='reorder', at_line=85, cut_fraction=0.4601874101974316, repeats=2, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=125, cut_fraction=0.5306283522748315, repeats=2, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=167, cut_fraction=0.7684698204244926, repeats=2, drop_acks=3)",
    ],
    (7, 'network-n5-span120'): [
        "NetworkFault(kind='ack-drop', at_line=2, cut_fraction=0.6927645751947851, repeats=2, drop_acks=2)",
        "NetworkFault(kind='partition', at_line=42, cut_fraction=0.23479935486482412, repeats=2, drop_acks=1)",
        "NetworkFault(kind='reorder', at_line=50, cut_fraction=0.4601874101974316, repeats=2, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=74, cut_fraction=0.5306283522748315, repeats=2, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=99, cut_fraction=0.7684698204244926, repeats=2, drop_acks=3)",
    ],
    (7, 'network-n5-span90'): [
        "NetworkFault(kind='ack-drop', at_line=2, cut_fraction=0.6927645751947851, repeats=2, drop_acks=2)",
        "NetworkFault(kind='partition', at_line=19, cut_fraction=0.7458224378858616, repeats=2, drop_acks=1)",
        "NetworkFault(kind='reorder', at_line=38, cut_fraction=0.4601874101974316, repeats=2, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=56, cut_fraction=0.5306283522748315, repeats=2, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=75, cut_fraction=0.7684698204244926, repeats=2, drop_acks=3)",
    ],
    (7, 'network-n5-span50'): [
        "NetworkFault(kind='ack-drop', at_line=1, cut_fraction=0.6927645751947851, repeats=2, drop_acks=2)",
        "NetworkFault(kind='partition', at_line=19, cut_fraction=0.23479935486482412, repeats=2, drop_acks=1)",
        "NetworkFault(kind='reorder', at_line=21, cut_fraction=0.4601874101974316, repeats=2, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=31, cut_fraction=0.5306283522748315, repeats=2, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=41, cut_fraction=0.7684698204244926, repeats=2, drop_acks=3)",
    ],
    (7, 'storm-cli'): [
        "alpha: ProcessFault(kind='exit', at_record=79, at_drain=False, lives=(1,), exit_code=106, hang_seconds=60.0, delay_seconds=0.5)",
        "alpha: ProcessFault(kind='exit', at_record=178, at_drain=False, lives=(2,), exit_code=47, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (7, 'storm-abc'): [
        "a: ProcessFault(kind='hang', at_record=5, at_drain=False, lives=(1,), exit_code=65, hang_seconds=60.0, delay_seconds=0.5)",
        "a: ProcessFault(kind='kill', at_record=156, at_drain=False, lives=(2,), exit_code=93, hang_seconds=60.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='exit', at_record=11, at_drain=False, lives=(1,), exit_code=93, hang_seconds=60.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=119, at_drain=False, lives=(2,), exit_code=75, hang_seconds=60.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='kill', at_record=85, at_drain=False, lives=(1,), exit_code=97, hang_seconds=60.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='exit', at_record=119, at_drain=False, lives=(2,), exit_code=42, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (7, 'storm-abc-span40'): [
        "a: ProcessFault(kind='hang', at_record=1, at_drain=False, lives=(1,), exit_code=65, hang_seconds=30.0, delay_seconds=0.5)",
        "a: ProcessFault(kind='kill', at_record=34, at_drain=False, lives=(2,), exit_code=93, hang_seconds=30.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='exit', at_record=2, at_drain=False, lives=(1,), exit_code=93, hang_seconds=30.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=24, at_drain=False, lives=(2,), exit_code=75, hang_seconds=30.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='kill', at_record=8, at_drain=False, lives=(1,), exit_code=111, hang_seconds=30.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='kill', at_record=30, at_drain=False, lives=(2,), exit_code=54, hang_seconds=30.0, delay_seconds=0.5)",
    ],
    (7, 'storm-alpha-beta-gamma'): [
        "alpha: ProcessFault(kind='exit', at_record=19, at_drain=False, lives=(1,), exit_code=106, hang_seconds=30.0, delay_seconds=0.5)",
        "alpha: ProcessFault(kind='exit', at_record=39, at_drain=False, lives=(2,), exit_code=47, hang_seconds=30.0, delay_seconds=0.5)",
        "beta: ProcessFault(kind='kill', at_record=2, at_drain=False, lives=(1,), exit_code=113, hang_seconds=30.0, delay_seconds=0.5)",
        "beta: ProcessFault(kind='exit', at_record=28, at_drain=False, lives=(2,), exit_code=121, hang_seconds=30.0, delay_seconds=0.5)",
        "gamma: ProcessFault(kind='hang', at_record=18, at_drain=False, lives=(1,), exit_code=94, hang_seconds=30.0, delay_seconds=0.5)",
        "gamma: ProcessFault(kind='kill', at_record=30, at_drain=False, lives=(2,), exit_code=24, hang_seconds=30.0, delay_seconds=0.5)",
    ],
    (101, 'io'): [
        "IoFault(kind='enospc', at_bytes=478, at_call=4, path_contains=None, times=1)",
        "IoFault(kind='eio', at_bytes=1251, at_call=7, path_contains=None, times=1)",
        "IoFault(kind='fsync', at_bytes=2265, at_call=12, path_contains=None, times=1)",
        "IoFault(kind='fsync', at_bytes=3144, at_call=17, path_contains=None, times=1)",
    ],
    (101, 'process'): [
        "ProcessFault(kind='hang', at_record=24, at_drain=False, lives=(1,), exit_code=117, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=111, at_drain=False, lives=(2,), exit_code=60, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='kill', at_record=196, at_drain=False, lives=(3,), exit_code=28, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (101, 'process-n4-span100'): [
        "ProcessFault(kind='hang', at_record=6, at_drain=False, lives=(1,), exit_code=117, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='hang', at_record=36, at_drain=False, lives=(2,), exit_code=60, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='kill', at_record=71, at_drain=False, lives=(3,), exit_code=65, hang_seconds=60.0, delay_seconds=0.5)",
        "ProcessFault(kind='kill', at_record=94, at_drain=False, lives=(4,), exit_code=29, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (101, 'network'): [
        "NetworkFault(kind='partition', at_line=29, cut_fraction=0.22911259232522835, repeats=2, drop_acks=3)",
        "NetworkFault(kind='reorder', at_line=54, cut_fraction=0.7505198655509462, repeats=3, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=93, cut_fraction=0.3974224968453018, repeats=3, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=136, cut_fraction=0.31597197723865467, repeats=2, drop_acks=2)",
        "NetworkFault(kind='ack-drop', at_line=194, cut_fraction=0.41990898486202066, repeats=3, drop_acks=2)",
    ],
    (101, 'network-n5-span120'): [
        "NetworkFault(kind='partition', at_line=14, cut_fraction=0.22911259232522835, repeats=2, drop_acks=3)",
        "NetworkFault(kind='reorder', at_line=31, cut_fraction=0.7505198655509462, repeats=3, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=54, cut_fraction=0.3974224968453018, repeats=3, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=80, cut_fraction=0.31597197723865467, repeats=2, drop_acks=2)",
        "NetworkFault(kind='ack-drop', at_line=113, cut_fraction=0.41990898486202066, repeats=3, drop_acks=2)",
    ],
    (101, 'network-n5-span90'): [
        "NetworkFault(kind='partition', at_line=14, cut_fraction=0.22911259232522835, repeats=2, drop_acks=3)",
        "NetworkFault(kind='reorder', at_line=25, cut_fraction=0.7505198655509462, repeats=3, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=42, cut_fraction=0.3974224968453018, repeats=3, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=62, cut_fraction=0.31597197723865467, repeats=2, drop_acks=2)",
        "NetworkFault(kind='ack-drop', at_line=89, cut_fraction=0.41990898486202066, repeats=3, drop_acks=2)",
    ],
    (101, 'network-n5-span50'): [
        "NetworkFault(kind='partition', at_line=7, cut_fraction=0.22911259232522835, repeats=2, drop_acks=3)",
        "NetworkFault(kind='reorder', at_line=13, cut_fraction=0.7505198655509462, repeats=3, drop_acks=3)",
        "NetworkFault(kind='duplicate', at_line=23, cut_fraction=0.3974224968453018, repeats=3, drop_acks=1)",
        "NetworkFault(kind='half-close', at_line=34, cut_fraction=0.31597197723865467, repeats=2, drop_acks=2)",
        "NetworkFault(kind='ack-drop', at_line=48, cut_fraction=0.41990898486202066, repeats=3, drop_acks=2)",
    ],
    (101, 'storm-cli'): [
        "alpha: ProcessFault(kind='exit', at_record=54, at_drain=False, lives=(1,), exit_code=31, hang_seconds=60.0, delay_seconds=0.5)",
        "alpha: ProcessFault(kind='hang', at_record=185, at_drain=False, lives=(2,), exit_code=21, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (101, 'storm-abc'): [
        "a: ProcessFault(kind='exit', at_record=60, at_drain=False, lives=(1,), exit_code=81, hang_seconds=60.0, delay_seconds=0.5)",
        "a: ProcessFault(kind='hang', at_record=165, at_drain=False, lives=(2,), exit_code=31, hang_seconds=60.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=60, at_drain=False, lives=(1,), exit_code=12, hang_seconds=60.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=191, at_drain=False, lives=(2,), exit_code=106, hang_seconds=60.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='exit', at_record=1, at_drain=False, lives=(1,), exit_code=68, hang_seconds=60.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='exit', at_record=181, at_drain=False, lives=(2,), exit_code=61, hang_seconds=60.0, delay_seconds=0.5)",
    ],
    (101, 'storm-abc-span40'): [
        "a: ProcessFault(kind='exit', at_record=15, at_drain=False, lives=(1,), exit_code=81, hang_seconds=30.0, delay_seconds=0.5)",
        "a: ProcessFault(kind='hang', at_record=36, at_drain=False, lives=(2,), exit_code=31, hang_seconds=30.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=15, at_drain=False, lives=(1,), exit_code=12, hang_seconds=30.0, delay_seconds=0.5)",
        "b: ProcessFault(kind='kill', at_record=34, at_drain=False, lives=(2,), exit_code=122, hang_seconds=30.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='exit', at_record=0, at_drain=False, lives=(1,), exit_code=68, hang_seconds=30.0, delay_seconds=0.5)",
        "c: ProcessFault(kind='exit', at_record=35, at_drain=False, lives=(2,), exit_code=25, hang_seconds=30.0, delay_seconds=0.5)",
    ],
    (101, 'storm-alpha-beta-gamma'): [
        "alpha: ProcessFault(kind='exit', at_record=13, at_drain=False, lives=(1,), exit_code=31, hang_seconds=30.0, delay_seconds=0.5)",
        "alpha: ProcessFault(kind='hang', at_record=25, at_drain=False, lives=(2,), exit_code=65, hang_seconds=30.0, delay_seconds=0.5)",
        "beta: ProcessFault(kind='kill', at_record=2, at_drain=False, lives=(1,), exit_code=69, hang_seconds=30.0, delay_seconds=0.5)",
        "beta: ProcessFault(kind='kill', at_record=34, at_drain=False, lives=(2,), exit_code=31, hang_seconds=30.0, delay_seconds=0.5)",
        "gamma: ProcessFault(kind='kill', at_record=10, at_drain=False, lives=(1,), exit_code=71, hang_seconds=30.0, delay_seconds=0.5)",
        "gamma: ProcessFault(kind='kill', at_record=23, at_drain=False, lives=(2,), exit_code=50, hang_seconds=30.0, delay_seconds=0.5)",
    ],
}


def test_every_case_is_pinned_at_both_seeds():
    assert sorted(GOLDEN) == sorted(
        (seed, case) for seed in (7, 101) for case in CALLS
    )


@pytest.mark.parametrize("seed, case", sorted(GOLDEN))
def test_schedule_is_byte_identical(seed, case):
    assert _lines(CALLS[case](seed)) == GOLDEN[seed, case]
