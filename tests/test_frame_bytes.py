"""Byte identity of the framed-JSONL records (hypothesis).

Every framed artifact — the ownership journal, the client spool, its
floor frames, quarantine and ``DurableJsonlWriter`` records — is one
``%08x %08x <json>\\n`` line whose JSON is ``json.dumps(payload,
sort_keys=True)``.  These properties pin those bytes, whichever way a
writer builds them, against that reference:

* ``frame_record`` of any JSON object;
* ``BatchJournal._frame`` against ``frame_record`` of the same
  payload, and an append → ``BatchJournal(recover=True)`` round trip;
* the spool bytes ``DurableSender.send`` writes (after a floor frame,
  so sequences reach 2**63) against ``frame_record``, and a recovered
  sender's unacked entries.

Strings cover any code point: quotes, backslashes, control
characters, lone surrogates and non-BMP text.
"""

import json
import os
import zlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.types import LogRecord
from repro.resilience.durability import frame_record
from repro.service import DurableSender
from repro.service.protocol import BatchJournal

SPECIALS = '"\\\x00\x08\x1f\x7f 𐏿\U0001F600'

any_text = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=()), st.sampled_from(SPECIALS)
    ),
    max_size=24,
)
big_int = st.integers(min_value=0, max_value=2**63)
maybe_text = st.none() | any_text
records = st.builds(
    LogRecord,
    content=any_text,
    timestamp=maybe_text,
    session_id=maybe_text,
    truth_event=maybe_text,
)
deliveries = st.none() | st.tuples(
    any_text, st.integers(min_value=1, max_value=2**63)
)
json_values = st.recursive(
    st.none() | st.booleans() | big_int | st.floats() | any_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(any_text, inner, max_size=3),
    max_leaves=8,
)

FILES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def reference(payload: dict) -> bytes:
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return b"%08x %08x " % (len(data), zlib.crc32(data)) + data + b"\n"


def journal_payload(index, record, delivery) -> dict:
    payload = {
        "index": index,
        "content": record.content,
        "timestamp": record.timestamp,
        "session_id": record.session_id,
        "truth_event": record.truth_event,
    }
    if delivery is not None:
        payload["client"], payload["seq"] = delivery
    return payload


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(any_text, json_values, max_size=6))
def test_frame_record_is_sorted_json_dumps(payload):
    assert frame_record(payload) == reference(payload)


@settings(max_examples=300, deadline=None)
@given(big_int, records, deliveries)
def test_journal_frame_matches_frame_record(index, record, delivery):
    frame = BatchJournal._frame(index, record, delivery)
    assert frame == frame_record(journal_payload(index, record, delivery))
    assert frame == reference(journal_payload(index, record, delivery))


@FILES
@given(st.lists(st.tuples(big_int, records, deliveries), max_size=4))
def test_journal_appends_recover(tmp_path_factory, entries):
    path = str(tmp_path_factory.mktemp("journal") / "out.journal.jsonl")
    journal = BatchJournal(path)
    for entry in entries:
        journal.append(*entry)
    journal.close()
    with open(path, "rb") as handle:
        assert handle.read() == b"".join(
            frame_record(journal_payload(*entry)) for entry in entries
        )
    recovered = BatchJournal(path, recover=True).recovered
    assert recovered == sorted(entries, key=lambda entry: entry[0])


@FILES
@given(
    st.lists(
        st.tuples(
            any_text.filter(lambda t: t and "\t" not in t),
            any_text.filter(lambda c: "\n" not in c),
        ),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=1, max_value=2**63),
)
def test_spool_frames_match_frame_record(tmp_path_factory, lines, floor):
    spool = str(tmp_path_factory.mktemp("spool") / "spool.jsonl")
    first = lines[0][0]
    with open(spool, "wb") as handle:
        handle.write(frame_record({"tenant": first, "floor": floor}))
    sender = DurableSender("127.0.0.1", 1, "prop-client", spool)
    sent = [
        (tenant, sender.send(tenant, content), content)
        for tenant, content in lines
    ]
    sender.close()
    assert sent[0][1] == floor
    with open(spool, "rb") as handle:
        assert handle.read() == frame_record(
            {"tenant": first, "floor": floor}
        ) + b"".join(
            frame_record({"tenant": tenant, "seq": seq, "content": content})
            for tenant, seq, content in sent
        )
    recovered = DurableSender("127.0.0.1", 1, "prop-client", spool)
    assert recovered.unacked() == sent
    recovered.close()
    os.unlink(spool)
