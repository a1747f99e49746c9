"""Byte pins for the synthetic generators.

Every benchmark input, every Table I-III golden and every recovery
golden is a generator's output, so the generators' bytes are pinned
here: sha256 digests over ``(content, timestamp, session_id,
truth_event)`` of every record on a grid of datasets, seeds and sizes,
plus the HDFS sessions' labels and scenarios and the rendered headers.
A change to any draw the generators make changes these digests.

The draw-for-draw tests pin ``_randint``/``_choice`` to the running
interpreter's ``Random.randint``/``Random.choice``: both must consume
the Mersenne Twister state exactly as CPython does, so a CPython whose
``randint`` draws differently fails here by name instead of silently
changing every digest below.
"""

import datetime
import hashlib
import random

import pytest

from repro.datasets import (
    DATASET_NAMES,
    base,
    generator,
    generate_dataset,
    generate_hdfs_sessions,
    get_dataset_spec,
)
from repro.datasets.headers import HeaderFormat

SEEDS = (None, 0, 1, 2, 3, 7, 11, 42, 2016, 20160628)
SIZES = (1, 5, 57, 300, 2000)
#: One large size per dataset, at one seed, to reach late clock days.
LARGE = (20_000, 7)
SESSION_SEEDS = (None, 1, 7, 42, 2016)
SESSION_BLOCKS = (1, 10, 100)
#: The bench's ``batch_mine`` session count.
SESSION_LARGE = (3000, 7)

DATASET_DIGESTS = {
    "BGL": (
        "f0cef2e804fc45096e9f0850d5e24650"
        "2fe6aa86f6b3d5499a7d0c5991604542"
    ),
    "HPC": (
        "10c4ea877712d2cdd576ce2b91d19b7b"
        "18ff1aa04d0aba8f471d03b63abbeefe"
    ),
    "Proxifier": (
        "283500349fbc36493ad61310ec354831"
        "d8f1441c2dccb36dc37527db658978a5"
    ),
    "HDFS": (
        "c3465b6517601ed17f6ae16e2eeef214"
        "ac568cc2629d6e0052af5b38461bff22"
    ),
    "Zookeeper": (
        "476a451dbcd4fdcacafbd409ed711b4f"
        "cfbaeb90428d695f6f5bee5e9b60cb54"
    ),
}
HEADER_DIGESTS = {
    "BGL": (
        "d700703a4dfe8065e834f5abc3fa72fe"
        "a2fcb163876d42cf5e11205584fd4887"
    ),
    "HPC": (
        "088e9f95ba4ae2370876454423521db2"
        "e2c5df38efc340c023a184040df6e5b4"
    ),
    "Proxifier": (
        "cae951f2508c4a7cbec03938a9f38d8a"
        "e3995a61abf2bf2694ea47d117a902d8"
    ),
    "HDFS": (
        "483b297ca6b45448531c0d70fcf1b25b"
        "f083561f4044935e9248411f8090f36e"
    ),
    "Zookeeper": (
        "050349b7e7254adf3074bbde8631fba5"
        "e43ac6b7c891bdd3e7f17fbbfb9681dd"
    ),
}
SESSION_DIGEST = (
    "7cea191e52f256497c518316991e9b6a"
    "3cc7a14dde63c8af30e14e8dc4b170b0"
)


def _digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _record_rows(records):
    for record in records:
        yield (
            record.content,
            record.timestamp,
            record.session_id,
            record.truth_event,
        )


def _dataset_rows(name):
    spec = get_dataset_spec(name)
    grid = [(size, seed) for seed in SEEDS for size in SIZES] + [LARGE]
    for size, seed in grid:
        yield ("grid", size, seed)
        records = generate_dataset(spec, size, seed=seed).records
        yield from _record_rows(records)


def _session_rows():
    grid = [
        (blocks, seed) for seed in SESSION_SEEDS for blocks in SESSION_BLOCKS
    ] + [SESSION_LARGE]
    for blocks, seed in grid:
        sessions = generate_hdfs_sessions(blocks, seed=seed)
        yield ("grid", blocks, seed)
        yield from _record_rows(sessions.records)
        yield tuple(sessions.labels.items())
        yield tuple(sessions.scenarios.items())


def _header_rows(name):
    spec = get_dataset_spec(name)
    for seed in (1, 7):
        records = generate_dataset(spec, 300, seed=seed).records
        yield from HeaderFormat(name).add_headers(records, seed=seed)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_dataset_bytes_are_pinned(name):
    assert _digest(_dataset_rows(name)) == DATASET_DIGESTS[name]


def test_session_bytes_labels_and_scenarios_are_pinned():
    assert _digest(_session_rows()) == SESSION_DIGEST


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_header_bytes_are_pinned(name):
    assert _digest(_header_rows(name)) == HEADER_DIGESTS[name]


def test_timestamps_equal_datetime_arithmetic():
    # Every 7th second over nine days, crossing midnights and a month.
    for step in range(0, 9 * 86400, 7):
        moment = generator._EPOCH + datetime.timedelta(seconds=step)
        assert generator._timestamp(step) == moment.strftime(
            "%Y-%m-%d %H:%M:%S"
        )


#: Widths the generators use, plus the rejection-heavy powers of two
#: (``0..255`` has 256 values in 9 bits: about half the draws are
#: rejected), a 64-bit range and one-element ranges.
RANGES = [
    (0, 255),
    (1, 254),
    (0, 1),
    (0, 2),
    (0, 4095),
    (1024, 65535),
    (1, 67108863),
    (10**15, 10**19 - 1),
    (0, 0),
    (5, 5),
]
SEQUENCES = [
    ["only"],
    [1, 2],
    [0, 0, 1, 1, 2, 5],
    list(range(7)),
    list(range(203)),
    list(range(256)),
]


@pytest.mark.parametrize("low,high", RANGES)
def test_randint_draws_like_the_interpreter(low, high):
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [base._randint(ours, low, high) for _ in range(20)] == [
            theirs.randint(low, high) for _ in range(20)
        ]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("seq", SEQUENCES, ids=len)
def test_choice_draws_like_the_interpreter(seq):
    for seed in range(100):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [base._choice(ours, seq) for _ in range(20)] == [
            theirs.choice(seq) for _ in range(20)
        ]
        assert ours.getstate() == theirs.getstate()
