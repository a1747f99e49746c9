"""Throughput regression gate over one ``lines_per_second`` JSON result.

Not wired into CI: the artifact it used to read (``BENCH_stream.json``)
went with ``benchmarks/test_bench_stream.py`` in PR 23, and ``bench/``
carries its own noise model.  What remains is the policy:

* a JSONL **history** file (cached across CI runs) accumulates one
  entry per passing run;
* the **reference** throughput is the median ``lines_per_second`` of
  the most recent ``--window`` history entries — the median shrugs
  off a single noisy-runner outlier that a mean (or last-run-only
  comparison) would amplify;
* the gate **fails** (exit 1) when the current run falls more than
  ``--tolerance`` (default 15%) below the reference.

An empty history *seeds* instead of failing — the first run on a new
cache records itself and passes, so the gate never blocks a fresh
branch.  Failing runs are not recorded by default (a real regression
must not be able to drag the reference down by retrying); pass
``--record`` to accept a new, slower baseline deliberately.

Everything above the ``main`` entry point is a pure function over
plain data, so the policy is unit-testable without touching disk.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

DEFAULT_TOLERANCE = 0.15
DEFAULT_WINDOW = 5


def load_result(path: str) -> dict:
    """Read one benchmark artifact (a single JSON object)."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "lines_per_second" not in payload:
        raise ValueError(f"{path}: no lines_per_second field")
    return payload


def load_history(path: str) -> list[dict]:
    """Read the JSONL history; tolerant of a torn final line.

    The history lives in a CI cache — a runner killed mid-append must
    not brick every later run, so undecodable lines are skipped.
    """
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def reference_throughput(
    history: list[dict], window: int = DEFAULT_WINDOW
) -> float | None:
    """Median lines/s of the last *window* usable entries (None if none)."""
    values = [
        float(entry["lines_per_second"])
        for entry in history
        if isinstance(entry.get("lines_per_second"), (int, float))
        and entry["lines_per_second"] > 0
    ]
    if not values:
        return None
    return statistics.median(values[-window:])


def evaluate(
    lines_per_second: float,
    reference: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, float]:
    """Gate decision: ``(ok, floor)`` where floor = reference*(1-tolerance)."""
    floor = reference * (1.0 - tolerance)
    return lines_per_second >= floor, floor


def history_entry(result: dict) -> dict:
    """The subset of a benchmark artifact worth trending."""
    entry = {
        "lines_per_second": result["lines_per_second"],
        "lines": result.get("lines"),
        "elapsed_seconds": result.get("elapsed_seconds"),
        "cache_hit_rate": result.get("cache_hit_rate"),
    }
    commit = os.environ.get("GITHUB_SHA")
    if commit:
        entry["commit"] = commit
    return entry


def append_history(path: str, entry: dict) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "result",
        help="benchmark artifact (benchmarks/results/BENCH_stream.json)",
    )
    parser.add_argument(
        "history",
        help="JSONL throughput history (persisted via the CI cache)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below the reference median",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help="history entries the reference median is taken over",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="record this run even if it fails the gate (accept a new "
        "baseline deliberately)",
    )
    args = parser.parse_args(argv)

    result = load_result(args.result)
    current = float(result["lines_per_second"])
    history = load_history(args.history)
    reference = reference_throughput(history, window=args.window)

    if reference is None:
        append_history(args.history, history_entry(result))
        print(
            f"perf gate: seeded history with {current:,.0f} lines/s "
            f"({len(history)} unusable prior entr(y/ies))"
        )
        return 0

    ok, floor = evaluate(current, reference, tolerance=args.tolerance)
    verdict = "ok" if ok else "REGRESSION"
    print(
        f"perf gate: {verdict} — {current:,.0f} lines/s vs reference "
        f"median {reference:,.0f} over last {args.window} run(s) "
        f"(floor {floor:,.0f} at -{args.tolerance:.0%})"
    )
    if ok or args.record:
        append_history(args.history, history_entry(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
