"""A resume decodes each framed log once, through the log's owner.

A tenant's checkpoint pins two framed logs: its record log and its
quarantine.  On resume, ``load_checkpoint`` decodes the record log's
pinned prefix (its only read: the first save cuts the log back to the
pin), and the quarantine sink's own writer recovers the quarantine
once and cuts it back to its pin.  A save decodes neither file.

So, per resuming process, one decode of each log: two on the thread
host.  The process host's parent decodes the record log once more,
for the load that backs a certified refusal before any worker runs.

The stream of the first life is 300 lines, 43 of them quarantined
(each carries a control character).  After its drain, each log gets a
record appended past its pin and then a torn frame, as if a crash had
struck after the checkpoint; the resumed life must roll both back and
drain to the bytes of an uninterrupted run.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import partial

import pytest

from certify import FAST
from repro.parsers import make_parser
from repro.resilience import checkpoint, durability, record_log_path
from repro.resilience.durability import diff_manifests, frame_record
from repro.service import IngestionService, replay_lines
from repro.service.shard import CHECKPOINT_NAME, MANIFEST_NAME, QUARANTINE_NAME

HOSTS = ("thread", "process")
LINES = [
    f"t\tconn from host{i % 3} port {i}" + ("\x01" if i % 7 == 0 else "")
    for i in range(320)
]
TORN = b"000000ff 00000000 {\"never-finished"


def _service(root, host: str) -> IngestionService:
    return IngestionService(
        str(root), partial(make_parser, "Drain"), parser_name="Drain",
        isolation=host,
        worker_kwargs=dict(FAST) if host == "process" else None,
    )


def _run(root, host: str, lines: list[str]) -> dict:
    service = _service(root, host)
    replay_lines(service, lines)
    return service.drain()["tenants"]["t"]


@pytest.mark.parametrize("host", HOSTS)
def test_a_resume_decodes_each_log_once(host, tmp_path, monkeypatch):
    root = tmp_path / "data"
    first = _run(root, host, LINES[:300])
    assert (first["seen"], first["quarantined"]) == (300, 43)
    tenant = root / "t"
    log = record_log_path(str(tenant / CHECKPOINT_NAME))
    extra = {log: ["late", None, None, None], tenant / QUARANTINE_NAME: {}}
    for path, payload in extra.items():
        with open(path, "ab") as handle:
            handle.write(frame_record(payload) + TORN)

    calls = tmp_path / "decodes"
    real_scan = durability.scan_framed

    def spy(data):
        records, valid = real_scan(data)
        kind = "other"
        if records and isinstance(records[0], list):
            kind = "log"
        elif records and "reason" in records[0]:
            kind = "quarantine"
        with open(calls, "a") as handle:
            handle.write(f"{os.getpid()} {kind}\n")
        return records, valid

    # Patched before the service exists, so forked workers inherit it.
    monkeypatch.setattr(durability, "scan_framed", spy)
    monkeypatch.setattr(checkpoint, "scan_framed", spy)
    resumed = _run(root, host, LINES)  # the first 300 answer ``replayed``
    monkeypatch.undo()
    decodes = Counter(
        tuple(line.split()) for line in calls.read_text().splitlines()
    )
    here = str(os.getpid())
    if host == "thread":
        assert decodes == {(here, "log"): 1, (here, "quarantine"): 1}
    else:
        [worker] = {pid for pid, _ in decodes if pid != here}
        assert decodes == {
            (here, "log"): 1, (worker, "log"): 1, (worker, "quarantine"): 1,
        }
    assert (resumed["seen"], resumed["quarantined"]) == (320, 3)

    calm = tmp_path / "calm"
    _run(calm, host, LINES)
    assert diff_manifests(
        str(tenant / MANIFEST_NAME), str(calm / "t" / MANIFEST_NAME),
        ignore=(CHECKPOINT_NAME,),
    ) == []


def test_a_resumed_quarantine_writer_holds_no_payloads(tmp_path):
    # Recovery decodes the quarantine to find its intact prefix, but
    # the sink never reads its records back: its writer keeps only the
    # offset, not the 43 decoded payloads.
    root = tmp_path / "data"
    first = _run(root, "thread", LINES[:300])
    assert (first["seen"], first["quarantined"]) == (300, 43)
    service = _service(root, "thread")
    replay_lines(service, LINES)  # the first 300 answer ``replayed``
    writer = service.shard("t").quarantine.writer
    assert writer.offset()[1] == 46
    held = [
        name for name, value in vars(writer).items()
        if isinstance(value, list) and value
    ]
    assert held == []
    assert service.drain()["tenants"]["t"]["quarantined"] == 3
