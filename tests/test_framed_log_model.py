"""One state machine for the one framed-log writer.

Every framed log — the ownership journal, the client spool, the
checkpoint record log, quarantine and the event log — appends through
:class:`~repro.resilience.durability.DurableJsonlWriter`, so its
contract is checked once, here, against a model that is nothing but
the list of committed records:

* an append batch either commits whole or, when it fails (``eio``,
  ``enospc`` or ``torn`` at a drawn byte) and no retry is left, leaves
  no byte behind and raises;
* ``rewrite`` compacts to the survivors, and ``cut`` rolls back to a
  record boundary (a checkpoint pin);
* a crash — handles dropped, possibly half a frame appended behind the
  flushed ones — and a reopen recover exactly the committed records.

After every step ``offset()`` equals the bytes on disk and the file
decodes to the model.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.common.errors import ArtifactWriteError
from repro.resilience.durability import (
    DurableJsonlWriter,
    RealIO,
    frame_record,
    scan_framed,
)
from repro.resilience.faults import (
    IO_EIO,
    IO_ENOSPC,
    IO_TORN,
    FaultyIO,
    IoFault,
)

payloads = st.fixed_dictionaries(
    {"i": st.integers(0, 10**6), "s": st.text(max_size=12)}
)
faults = st.none() | st.tuples(
    st.sampled_from([IO_EIO, IO_ENOSPC, IO_TORN]), st.floats(0, 0.999)
)


class FramedLogMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="framed-log-")
        self.path = os.path.join(self.dir, "log.jsonl")
        #: The committed records, in order.
        self.model: list[dict] = []

    @initialize(retries=st.sampled_from([0, 1]))
    def open_writer(self, retries: int) -> None:
        self.retries = retries
        self.writer = DurableJsonlWriter(self.path, retries=retries)

    @rule(batch=st.lists(payloads, min_size=1, max_size=4), fault=faults)
    def append(self, batch, fault) -> None:
        frames = [frame_record(payload) for payload in batch]
        self.writer.io = RealIO()
        if fault is not None:
            kind, where = fault
            at = int(where * sum(map(len, frames)))
            self.writer.io = FaultyIO([IoFault(kind, at_bytes=at)])
        try:
            self.writer.extend(frames)
        except ArtifactWriteError:
            assert fault is not None and self.retries == 0
            return
        finally:
            self.writer.io = RealIO()
        self.model += batch

    @rule(keep=st.integers(0, 4))
    def rewrite(self, keep: int) -> None:
        survivors = self.model[len(self.model) - keep:] if keep else []
        self.writer.rewrite([frame_record(p) for p in survivors])
        self.model = survivors

    @rule(data=st.data())
    def cut(self, data) -> None:
        records = data.draw(st.integers(0, len(self.model)))
        size = sum(len(frame_record(p)) for p in self.model[:records])
        self.writer.cut((size, records))
        self.model = self.model[:records]

    @rule(torn=st.integers(0, 30))
    def crash_and_reopen(self, torn: int) -> None:
        self.writer.close()  # SIGKILL: no more writes, no fsync
        if torn:
            with open(self.path, "ab") as handle:
                handle.write(frame_record({"torn": "x" * 40})[:torn])
        self.writer = DurableJsonlWriter(self.path, retries=self.retries)
        assert self.writer.recovered == self.model

    @invariant()
    def offset_is_the_bytes_on_disk(self) -> None:
        if not hasattr(self, "writer"):
            return
        on_disk = b""
        if os.path.exists(self.path):
            with open(self.path, "rb") as handle:
                on_disk = handle.read()
        assert self.writer.offset() == (len(on_disk), len(self.model))
        assert scan_framed(on_disk) == (self.model, len(on_disk))

    def teardown(self) -> None:
        if hasattr(self, "writer"):
            self.writer.close()
        shutil.rmtree(self.dir, ignore_errors=True)


FramedLogMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestFramedLog = FramedLogMachine.TestCase
