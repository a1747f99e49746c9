"""Ablation A6 — which degradation steps the measurement supports.

Finding 3 ranks the parsers by cost and Table III / Finding 6 rank them
by mining damage; a degradation ladder built from either ranking alone
steps the wrong way.  This ablation streams every parser through one
engine shape — the ``stream`` defaults: delta policy, flush 512, cache
4096 — over 2k lines of HDFS, BGL and HPC at seeds 11 and 13, and
records per cell:

* µs per offered line (best of three runs, feed + finalize);
* traced peak MiB (:mod:`tracemalloc`, a separate run);
* the template count;
* lines handed to the flush parser per offered line;
* F-measure against the generator's truth.

It then checks :data:`~repro.degradation.ladder.FRONTIER` against the
table.  Every step must be strictly cheaper per offered line in every
cell, with no higher traced peak, and no parser strictly cheaper than
the step's target in every cell may be at least as accurate in every
cell.  The CLI parsers left as their own floor (Drain, IPLoM) must
have no parser below them that is strictly cheaper in every cell.  The
soak ladder's steps must be strictly cheaper per offered line too.
"""

import time
import tracemalloc

from repro.datasets import generate_dataset, get_dataset_spec
from repro.degradation import FRONTIER, soak_ladder
from repro.evaluation.fmeasure import f_measure
from repro.parsers import make_parser
from repro.streaming import StreamingParser

from .conftest import emit

LINES = 2_000
DATASETS = ("HDFS", "BGL", "HPC")
SEEDS = (11, 13)
REPEATS = 3

#: Each parser with the ``stream`` command's default flags.
PARAMS = {
    "LKE": {"seed": 1},
    "LogSig": {"groups": 50, "seed": 1},
    "SLCT": {"support": 0.005},
    "IPLoM": {},
    "Drain": {"sim_threshold": 0.4, "depth": 4},
    "Passthrough": {},
}


def _stream(name, records, *, traced):
    """One stream-shaped run; returns (seconds, peak bytes, engine, handed)."""
    handed = [0]

    def factory():
        parser = make_parser(name, **PARAMS[name])
        parse = parser.parse

        def counted(batch):
            handed[0] += len(batch)
            return parse(batch)

        parser.parse = counted
        return parser

    if traced:
        tracemalloc.start()
    started = time.perf_counter()
    engine = StreamingParser(factory)
    for record in records:
        engine.feed(record)
    engine.finalize()
    elapsed = time.perf_counter() - started
    peak = 0
    if traced:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return elapsed, peak, engine, handed[0]


def _run():
    cells = {}
    for dataset in DATASETS:
        for seed in SEEDS:
            data = generate_dataset(get_dataset_spec(dataset), LINES, seed=seed)
            for name in PARAMS:
                runs = [
                    _stream(name, data.records, traced=False)
                    for _ in range(REPEATS)
                ]
                _, peak, _, _ = _stream(name, data.records, traced=True)
                _, _, engine, handed = runs[0]
                result = engine.result()
                cells[name, dataset, seed] = {
                    "us": min(run[0] for run in runs) / LINES * 1e6,
                    "peak": peak / 2**20,
                    "templates": len(result.events),
                    "handed": handed / LINES,
                    "f": f_measure(result.assignments, data.truth_assignments),
                }
    return cells


def _everywhere(predicate):
    return all(
        predicate(dataset, seed) for dataset in DATASETS for seed in SEEDS
    )


def test_ablation_ladder_frontier(once):
    cells = once(_run)
    lines = [
        f"{'parser':12s} {'dataset':7s} {'seed':>4s} {'us/line':>9s} "
        f"{'peak MiB':>8s} {'templates':>9s} {'flush/line':>10s} "
        f"{'F':>6s}"
    ]
    for (name, dataset, seed), cell in cells.items():
        lines.append(
            f"{name:12s} {dataset:7s} {seed:4d} {cell['us']:9.1f} "
            f"{cell['peak']:8.2f} {cell['templates']:9d} "
            f"{cell['handed']:10.3f} {cell['f']:6.3f}"
        )
    emit("ablation_ladder", "\n".join(lines))

    def cost(name, dataset, seed):
        return cells[name, dataset, seed]["us"]

    def cheaper(lower, upper):
        return _everywhere(
            lambda d, s: cost(lower, d, s) < cost(upper, d, s)
        )

    for upper, lower in FRONTIER:
        assert cheaper(lower, upper), (upper, lower)
        assert _everywhere(
            lambda d, s: cells[lower, d, s]["peak"] <= cells[upper, d, s]["peak"]
        ), (upper, lower)
        for other in PARAMS:
            if other != lower and cheaper(other, lower):
                assert not _everywhere(
                    lambda d, s: cells[other, d, s]["f"]
                    >= cells[lower, d, s]["f"]
                ), (lower, other)
    floors = {"Drain", "IPLoM"}
    assert not floors & {upper for upper, _ in FRONTIER}
    for floor in floors:
        for other in PARAMS:
            assert other == floor or not cheaper(other, floor), (floor, other)
    rungs = [rung.parser for rung in soak_ladder().rungs]
    for upper, lower in zip(rungs, rungs[1:]):
        assert cheaper(lower, upper), (upper, lower)
