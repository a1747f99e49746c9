"""HDFS log dataset: the 29 block-operation event templates plus a
block-session simulator with ground-truth anomaly labels.

The paper's RQ3 case study reruns Xu et al.'s PCA anomaly detection over
HDFS logs from a 203-node Amazon EC2 cluster: 11,175,629 messages,
575,061 block operation requests, 29 event types, 16,838 labeled
anomalies (≈2.9% of blocks).  The 29 templates below are the published
HDFS block-event templates (they appear in the paper's Fig. 1 and in
Xu et al.); the session simulator reproduces the *structure* that the
detection pipeline depends on — normal allocate/replicate/serve/delete
block lifecycles and anomalous variants — with exact per-block labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random

from repro.common.errors import DatasetError
from repro.common.rng import spawn
from repro.common.types import LogRecord
from repro.datasets.base import DatasetSpec, Template, TemplateBank
from repro.datasets.base import _choice, _randint

#: The 29 HDFS block-operation event templates (Xu et al., SOSP 2009).
_HDFS_TEMPLATES = [
    Template("E1", "Receiving block <blk> src: /<ip>:<port> dest: /<ip>:<port>", weight=90),
    Template("E2", "BLOCK* NameSystem.allocateBlock: <path> <blk>", weight=30),
    Template("E3", "PacketResponder <rsp> for block <blk> terminating", weight=90),
    Template("E4", "Received block <blk> of size <size> from /<ip>", weight=60),
    Template("E5", "BLOCK* NameSystem.addStoredBlock: blockMap updated: <ip>:<port> is added to <blk> size <size>", weight=90),
    Template("E6", "Verification succeeded for <blk>", weight=12),
    Template("E7", "Adding an already existing block <blk>", weight=0.5),
    Template("E8", "Served block <blk> to /<ip>", weight=25),
    Template("E9", "Got exception while serving <blk> to /<ip>:", weight=0.8),
    Template("E10", "Receiving empty packet for block <blk>", weight=0.6),
    Template("E11", "Exception in receiveBlock for block <blk> java.io.IOException: Connection reset by peer", weight=0.7),
    Template("E12", "Changing block file offset of block <blk> from <num> to <num> meta file offset to <num>", weight=1.5),
    Template("E13", "<ip>:<port>:Transmitted block <blk> to /<ip>:<port>", weight=3),
    Template("E14", "<ip>:<port>:Failed to transfer <blk> to <ip>:<port> got java.io.IOException: Connection reset by peer", weight=0.7),
    Template("E15", "<ip>:<port> Starting thread to transfer block <blk> to <ip>:<port>", weight=3),
    Template("E16", "Reopen Block <blk>", weight=0.8),
    Template("E17", "Unexpected error trying to delete block <blk>. BlockInfo not found in volumeMap.", weight=0.5),
    Template("E18", "Deleting block <blk> file <path>", weight=10),
    Template("E19", "BLOCK* NameSystem.delete: <blk> is added to invalidSet of <ip>:<port>", weight=10),
    Template("E20", "BLOCK* Removing block <blk> from neededReplications as it does not belong to any file.", weight=0.5),
    Template("E21", "BLOCK* ask <ip>:<port> to replicate <blk> to datanode(s) <ip>:<port>", weight=1.2),
    Template("E22", "BLOCK* NameSystem.addStoredBlock: Redundant addStoredBlock request received for <blk> on <ip>:<port> size <size>", weight=0.8),
    Template("E23", "BLOCK* NameSystem.addStoredBlock: addStoredBlock request received for <blk> on <ip>:<port> size <size> But it does not belong to any file.", weight=0.5),
    Template("E24", "PendingReplicationMonitor timed out block <blk>", weight=0.6),
    Template("E25", "PacketResponder <blk> <rsp> Exception java.io.IOException: Broken pipe", weight=0.7),
    Template("E26", "PacketResponder <rsp> for block <blk> Interrupted.", weight=0.8),
    Template("E27", "writeBlock <blk> received exception java.io.IOException: Could not read from stream", weight=0.7),
    Template("E28", "<ip>:<port>:Got exception while serving <blk> to /<ip>: java.io.IOException: Connection reset by peer", weight=0.7),
    Template("E29", "Received block <blk> src: /<ip>:<port> dest: /<ip>:<port> of size <size>", weight=60),
]

HDFS_BANK = TemplateBank(name="HDFS", templates=tuple(_HDFS_TEMPLATES))

HDFS_SPEC = DatasetSpec(
    name="HDFS",
    description="Hadoop File System (203-node Amazon EC2 cluster)",
    bank=HDFS_BANK,
    reference_size=11_175_629,
    paper_events=29,
    paper_length_range=(8, 29),
)

#: Paper-scale session statistics for reference.
PAPER_TOTAL_BLOCKS = 575_061
PAPER_TOTAL_ANOMALIES = 16_838
#: Fraction of blocks that are anomalous at paper scale.
ANOMALY_RATE = PAPER_TOTAL_ANOMALIES / PAPER_TOTAL_BLOCKS


@dataclass
class HdfsSessionDataset:
    """HDFS records grouped into block sessions with anomaly labels."""

    records: list[LogRecord] = field(default_factory=list)
    #: block id → True if the session is an injected anomaly.
    labels: dict[str, bool] = field(default_factory=dict)
    #: block id → generating scenario name ("normal", "write_failure", …).
    scenarios: dict[str, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def block_ids(self) -> list[str]:
        return list(self.labels)

    @property
    def anomaly_blocks(self) -> set[str]:
        return {blk for blk, anomalous in self.labels.items() if anomalous}

    def contents(self) -> list[str]:
        return [record.content for record in self.records]

    def truth_assignments(self) -> list[str]:
        return [record.truth_event or "" for record in self.records]


#: The 203 datanodes of the paper's EC2 cluster: sessions draw their
#: IPs from this fixed pool (real logs repeat cluster-node addresses,
#: which is exactly what frequency-based parsers trip over).
CLUSTER_NODES = tuple(
    f"10.251.{index // 64}.{index % 64 + 1}" for index in range(203)
)

#: Re-replication traffic (balancer and NameNode-initiated transfers)
#: concentrates on the handful of under-loaded nodes being filled up —
#: realistic skew that frequency-based parsers mistake for constants.
REBALANCE_TARGETS = tuple(CLUSTER_NODES[200:203])

#: Fixed DataNode transfer port (dfs.datanode.address default).
DATANODE_PORT = 50010

_IP_PATTERN = re.compile(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}")
_IP_PORT_PATTERN = re.compile(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}:\d+")

#: One session's lines as ``(event_id, line)`` pairs, in emission order.
_Trace = list[tuple[str, str]]


def _emit(
    trace: _Trace,
    event_id: str,
    rng: Random,
    block_id: str,
    transfer_target: str | None = None,
) -> None:
    """Append ``(event_id, line)``, the line pinned to *block_id*.

    When *transfer_target* is given, the final ip:port of the message
    (the transfer destination) is pinned to that node on the standard
    DataNode port.
    """
    content = HDFS_BANK.by_id(event_id).render(rng)
    # Draw every IP from the fixed cluster pool.
    content = _IP_PATTERN.sub(
        lambda _match: _choice(rng, CLUSTER_NODES), content
    )
    if transfer_target is not None:
        matches = list(_IP_PORT_PATTERN.finditer(content))
        if matches:
            last = matches[-1]
            content = (
                content[: last.start()]
                + f"{transfer_target}:{DATANODE_PORT}"
                + content[last.end() :]
            )
    # Pin every blk_* token to this session's block id so that session
    # grouping by block id matches how the real pipeline correlates logs.
    tokens = [
        block_id if token.startswith("blk_") else token
        for token in content.split()
    ]
    trace.append((event_id, " ".join(tokens)))


def _normal_session(rng: Random, block_id: str) -> _Trace:
    """A healthy block lifecycle: allocate → 3 replicas → optional extras."""
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    replicas = 3
    for _ in range(replicas):
        _emit(trace, "E1", rng, block_id)
    for _ in range(replicas):
        if rng.random() < 0.5:
            _emit(trace, "E29", rng, block_id)
        else:
            _emit(trace, "E4", rng, block_id)
        _emit(trace, "E3", rng, block_id)
        _emit(trace, "E5", rng, block_id)
    if rng.random() < 0.30:
        for _ in range(_randint(rng, 1, 4)):
            _emit(trace, "E8", rng, block_id)
    if rng.random() < 0.15:
        _emit(trace, "E6", rng, block_id)
    if rng.random() < 0.10:
        _emit(trace, "E12", rng, block_id)
    if rng.random() < 0.20:
        # Deletion epilogue.
        _emit(trace, "E19", rng, block_id)
        _emit(trace, "E18", rng, block_id)
    if rng.random() < 0.025:
        # Routine re-replication (balancer) — still normal.  Transfers
        # target the currently under-loaded nodes.
        target = _choice(rng, REBALANCE_TARGETS)
        _emit(trace, "E15", rng, block_id, transfer_target=target)
        _emit(trace, "E13", rng, block_id, transfer_target=target)
    return trace


def _anomaly_write_failure(rng: Random, block_id: str) -> _Trace:
    """Write pipeline breaks: exceptions, interrupted responders, retry."""
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    _emit(trace, "E1", rng, block_id)
    for _ in range(_randint(rng, 2, 4)):
        _emit(trace, "E11", rng, block_id)
    if rng.random() < 0.5:
        _emit(trace, _choice(rng, ["E27", "E25"]), rng, block_id)
    _emit(trace, "E26", rng, block_id)
    if rng.random() < 0.5:
        _emit(trace, "E10", rng, block_id)
    # Retry reaches fewer replicas than required.
    _emit(trace, "E1", rng, block_id)
    _emit(trace, "E4", rng, block_id)
    _emit(trace, "E3", rng, block_id)
    _emit(trace, "E5", rng, block_id)
    return trace


def _anomaly_replication(rng: Random, block_id: str) -> _Trace:
    """Replication stalls: transfer failures and monitor timeouts."""
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    _emit(trace, "E1", rng, block_id)
    _emit(trace, "E4", rng, block_id)
    _emit(trace, "E3", rng, block_id)
    _emit(trace, "E5", rng, block_id)
    for _ in range(_randint(rng, 1, 3)):
        target = _choice(rng, REBALANCE_TARGETS)
        _emit(trace, "E15", rng, block_id, transfer_target=target)
        _emit(trace, "E14", rng, block_id, transfer_target=target)
    _emit(trace, "E24", rng, block_id)
    _emit(trace, "E21", rng, block_id)
    if rng.random() < 0.4:
        _emit(trace, "E16", rng, block_id)
    return trace


def _anomaly_metadata(rng: Random, block_id: str) -> _Trace:
    """Namespace inconsistencies: redundant/orphan addStoredBlock, bad delete."""
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    for _ in range(3):
        _emit(trace, "E1", rng, block_id)
        _emit(trace, "E4", rng, block_id)
        _emit(trace, "E3", rng, block_id)
        _emit(trace, "E5", rng, block_id)
    for _ in range(_randint(rng, 2, 4)):
        _emit(trace, "E22", rng, block_id)
    choice = rng.random()
    if choice < 0.35:
        _emit(trace, "E7", rng, block_id)
    elif choice < 0.70:
        _emit(trace, "E23", rng, block_id)
        _emit(trace, "E20", rng, block_id)
    else:
        _emit(trace, "E19", rng, block_id)
        _emit(trace, "E17", rng, block_id)
    return trace


def _anomaly_serving(rng: Random, block_id: str) -> _Trace:
    """Read-path failures: repeated exceptions while serving the block."""
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    for _ in range(3):
        _emit(trace, "E1", rng, block_id)
        _emit(trace, "E29", rng, block_id)
        _emit(trace, "E3", rng, block_id)
        _emit(trace, "E5", rng, block_id)
    for _ in range(_randint(rng, 2, 5)):
        _emit(trace, _choice(rng, ["E9", "E28"]), rng, block_id)
    _emit(trace, "E8", rng, block_id)
    return trace


def _anomaly_subtle(rng: Random, block_id: str) -> _Trace:
    """Under-replication with no error events: only the counts are off.

    These anomalies look like truncated normal sessions, which is why
    even the ground-truth parse cannot reach 100% detection (the paper's
    Table III detects 66% of true anomalies with perfect parsing).
    """
    trace: _Trace = []
    _emit(trace, "E2", rng, block_id)
    replicas = _choice(rng, [1, 2])
    for _ in range(replicas):
        _emit(trace, "E1", rng, block_id)
        _emit(trace, "E4", rng, block_id)
        _emit(trace, "E3", rng, block_id)
        _emit(trace, "E5", rng, block_id)
    if rng.random() < 0.3:
        _emit(trace, "E8", rng, block_id)
    return trace


_ANOMALY_SCENARIOS = [
    (_anomaly_write_failure, 0.22),
    (_anomaly_replication, 0.20),
    (_anomaly_metadata, 0.12),
    (_anomaly_serving, 0.12),
    (_anomaly_subtle, 0.34),
]


def generate_hdfs_sessions(
    n_blocks: int,
    seed: int | None = None,
    anomaly_rate: float = ANOMALY_RATE,
) -> HdfsSessionDataset:
    """Simulate *n_blocks* HDFS block sessions with anomaly labels.

    Each block gets a unique ``blk_<n>`` id; roughly *anomaly_rate* of
    the blocks follow one of five anomaly scenarios (weighted as in
    ``_ANOMALY_SCENARIOS``), the rest follow the normal lifecycle.  The
    emitted records interleave sessions in time like a real cluster log.
    """
    if n_blocks <= 0:
        raise DatasetError(f"n_blocks must be positive, got {n_blocks}")
    if not 0.0 <= anomaly_rate < 1.0:
        raise DatasetError(f"anomaly_rate out of range: {anomaly_rate}")
    rng = spawn(seed, f"hdfs-sessions:{n_blocks}")

    scenario_functions = [fn for fn, _w in _ANOMALY_SCENARIOS]
    scenario_weights = [w for _fn, w in _ANOMALY_SCENARIOS]

    labels: dict[str, bool] = {}
    scenarios: dict[str, str] = {}
    tagged: list[tuple[float, int, LogRecord]] = []
    for index in range(n_blocks):
        block_id = f"blk_{7000000000000000000 + index}"
        anomalous = rng.random() < anomaly_rate
        labels[block_id] = anomalous
        if anomalous:
            scenario = rng.choices(
                scenario_functions, weights=scenario_weights, k=1
            )[0]
            trace = scenario(rng, block_id)
            scenarios[block_id] = scenario.__name__.removeprefix("_anomaly_")
        else:
            trace = _normal_session(rng, block_id)
            scenarios[block_id] = "normal"
        # Interleave sessions: each session starts at a random global
        # offset and its events follow at small increments.
        start = rng.random() * n_blocks
        for step, (event_id, content) in enumerate(trace):
            tagged.append(
                (
                    start + step * rng.uniform(0.01, 0.5),
                    index,
                    LogRecord(
                        content=content,
                        timestamp="",
                        session_id=block_id,
                        truth_event=event_id,
                    ),
                )
            )

    tagged.sort(key=lambda item: (item[0], item[1]))
    return HdfsSessionDataset(
        records=[record for _t, _i, record in tagged],
        labels=labels,
        scenarios=scenarios,
    )

