"""Seeded inputs: the same seed gives the same records and lines.

All inputs come from ``repro.datasets``; the program under test only
ever sees the generated records or ``tenant<TAB>content`` lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.types import LogRecord
from repro.datasets import (
    generate_dataset,
    generate_hdfs_sessions,
    get_dataset_spec,
)

from bench.spec import TENANT_WEIGHTS, TENANTS


@dataclass
class TaggedStream:
    """Records with a seeded tenant per line and their ground truth."""

    tenants: list[str]
    records: list[LogRecord]

    def __len__(self) -> int:
        return len(self.records)

    def lines(self, start: int = 0, stop: int | None = None) -> list[str]:
        """``tenant<TAB>content`` wire/replay lines of a slice."""
        return [
            f"{tenant}\t{record.content}"
            for tenant, record in zip(
                self.tenants[start:stop], self.records[start:stop]
            )
        ]

    def pairs(self, start: int = 0, stop: int | None = None):
        return [
            (tenant, record.content)
            for tenant, record in zip(
                self.tenants[start:stop], self.records[start:stop]
            )
        ]

    def per_tenant(self, start: int = 0, stop: int | None = None):
        """Tenant -> its records, in stream order."""
        out: dict[str, list[LogRecord]] = {}
        for tenant, record in zip(
            self.tenants[start:stop], self.records[start:stop]
        ):
            out.setdefault(tenant, []).append(record)
        return out


def dataset_records(name: str, lines: int, seed: int) -> list[LogRecord]:
    return generate_dataset(get_dataset_spec(name), lines, seed=seed).records


def sessions(blocks: int, seed: int):
    """HDFS block sessions (records carry session ids and labels)."""
    return generate_hdfs_sessions(blocks, seed=seed)


def tag(records: list[LogRecord], seed: int) -> TaggedStream:
    """Assign each record a tenant by the seeded 4:2:1:1 weights."""
    rng = random.Random(seed)
    tenants = rng.choices(TENANTS, weights=TENANT_WEIGHTS, k=len(records))
    return TaggedStream(tenants, list(records))


def tagged_hdfs(lines: int, seed: int) -> TaggedStream:
    return tag(dataset_records("HDFS", lines, seed), seed)
