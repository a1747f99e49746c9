"""Generic synthetic log generation from a template bank.

:func:`generate_dataset` draws templates according to their weights and
renders each into a raw log message carrying its ground-truth event id.
Timestamps advance monotonically with small random steps so generated
files look like real logs and loaders can exercise header stripping.
"""

from __future__ import annotations

import datetime
import functools
from collections.abc import Iterator

from repro.common.errors import DatasetError
from repro.common.rng import spawn
from repro.common.types import LogRecord
from repro.datasets.base import DatasetSpec, SyntheticDataset, Template
from repro.datasets.base import _choice

#: Fixed origin for synthetic timestamps (date of the HDFS trace in Fig. 1).
_EPOCH = datetime.datetime(2008, 11, 9, 20, 35, 32)
_EPOCH_SECOND = _EPOCH.hour * 3600 + _EPOCH.minute * 60 + _EPOCH.second

#: Clock steps in seconds, drawn once per record.
_STEPS = (0, 0, 1, 1, 2, 5)


@functools.lru_cache(maxsize=8)
def _date_prefix(day: int) -> str:
    return f"{_EPOCH.date() + datetime.timedelta(days=day)} "


def _timestamp(step: int) -> str:
    """``_EPOCH + step`` seconds as ``%Y-%m-%d %H:%M:%S``, by arithmetic."""
    day, second = divmod(_EPOCH_SECOND + step, 86400)
    hour, second = divmod(second, 3600)
    minute, second = divmod(second, 60)
    return f"{_date_prefix(day)}{hour:02d}:{minute:02d}:{second:02d}"


def generate_dataset(
    spec: DatasetSpec,
    size: int,
    seed: int | None = None,
) -> SyntheticDataset:
    """Generate *size* log records from *spec*'s template bank.

    Sampling is weighted by each template's ``weight``; every template
    with positive weight can appear, and for sizes comfortably above the
    bank size the generator first deals one record per template (in a
    shuffled order) so that all of the paper's event types occur, then
    fills the remainder by weighted sampling.  This mirrors the real
    datasets, where every reported event type is present.
    """
    return SyntheticDataset(
        spec=spec, records=list(iter_dataset(spec, size, seed=seed))
    )


def iter_dataset(
    spec: DatasetSpec,
    size: int,
    seed: int | None = None,
) -> Iterator[LogRecord]:
    """Lazily yield the exact record sequence of :func:`generate_dataset`.

    Only the drawn template *references* are materialized up front
    (cheap — one pointer per line); each record's content is rendered
    as it is consumed, so arbitrarily large streams can be fed to the
    streaming parser without holding the rendered log in memory.
    """
    if size <= 0:
        raise DatasetError(f"size must be positive, got {size}")
    rng = spawn(seed, f"dataset:{spec.name}:{size}")
    templates = list(spec.bank)
    weights = [t.weight for t in templates]

    chosen: list[Template] = []
    if size >= 2 * len(templates):
        coverage = templates[:]
        rng.shuffle(coverage)
        chosen.extend(coverage)
    chosen.extend(
        rng.choices(templates, weights=weights, k=size - len(chosen))
    )
    rng.shuffle(chosen)

    clock = 0
    stamp = _timestamp(clock)
    for template in chosen:
        step = _choice(rng, _STEPS)
        if step:
            clock += step
            stamp = _timestamp(clock)
        yield LogRecord(
            content=template.render(rng),
            timestamp=stamp,
            truth_event=template.event_id,
        )
