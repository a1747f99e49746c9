"""Shared fixtures: small corpora with known template structure."""

from __future__ import annotations

import pytest

from repro.common.types import LogRecord, records_from_contents


@pytest.fixture
def toy_contents() -> list[str]:
    """Three events: open (x3), close (x3), error (x2)."""
    return [
        "open file a.txt by root",
        "open file b.txt by root",
        "open file c.txt by alice",
        "close file d.txt status 0",
        "close file e.txt status 0",
        "close file f.txt status 1",
        "error reading sector 17 on disk sda",
        "error reading sector 99 on disk sdb",
    ]


@pytest.fixture
def toy_truth() -> list[str]:
    return ["open"] * 3 + ["close"] * 3 + ["error"] * 2


@pytest.fixture
def toy_records(toy_contents) -> list[LogRecord]:
    return records_from_contents(toy_contents)


@pytest.fixture
def session_records() -> list[LogRecord]:
    """Two sessions with distinct event mixes, for mining tests."""
    rows = [
        ("s1", "alloc", "alloc block 1"),
        ("s1", "write", "write block 1 bytes 100"),
        ("s1", "write", "write block 1 bytes 200"),
        ("s1", "close", "close block 1"),
        ("s2", "alloc", "alloc block 2"),
        ("s2", "error", "error on block 2 code 7"),
        ("s2", "close", "close block 2"),
    ]
    return [
        LogRecord(content=content, session_id=session, truth_event=event)
        for session, event, content in rows
    ]


@pytest.fixture(scope="session")
def calm_root(tmp_path_factory):
    """Where ``certify.calm_run`` caches calm references per session."""
    return tmp_path_factory.mktemp("calm")
