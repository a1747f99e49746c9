"""The parent process: spawns repetitions, aggregates, reports.

Two ways in, one code path:

* ``python3 -m bench --seed S [--workload W]... [--trace] [--sets N]``
  — a full run: every selected workload, its table number of
  repetitions round-robin (so machine drift spreads evenly), every
  metric printed by name with unit, best, median, quartiles and n.
* ``python3 -m bench --workload W --seed S --seconds T --trace 0|1``
  — one driver invocation: repetitions until *T* seconds are used
  (``--trace 0``), or one traced repetition plus the ladder
  (``--trace 1``).

Either way the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero when any oracle failed.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from bench import ROOT, rep
from bench.ladder import run_ladder
from bench.spec import (
    BY_NAME,
    DEFAULT_SEED,
    DEMOTED,
    DRIVER_END_TO_END,
    E2E_BY_NAME,
    END_TO_END,
    PER_LAYER,
    PER_LAYER_BY_NAME,
    WORKLOAD_NAMES,
    benchmark_json,
)
from bench.stats import summarize, worse_by
from bench.trace import Tracer, by_name, write_chrome_trace
from bench.workloads import RUNNERS

#: Chunks a full run splits each workload's repetitions into.
ROUNDS = 3

#: An input is generated at least twice and, while that has taken less
#: than the budget, up to six times: small inputs need more samples.
PREPARE_PASSES = (2, 6)
PREPARE_BUDGET_S = 1.0


def prepare_input(workload: str, size: dict, seed: int):
    """(input, best seconds generating it took, spans of every pass)."""
    tracer = Tracer(f"{workload}/prepare")
    while len(tracer.spans) < PREPARE_PASSES[0] or (
        sum(span.duration for span in tracer.spans) < PREPARE_BUDGET_S
        and len(tracer.spans) < PREPARE_PASSES[1]
    ):
        with tracer.span("datasets.generate"):
            data = RUNNERS[workload][0](size, seed)
    best = min(span.duration for span in tracer.spans)
    return data, best, tracer.to_records()


def run_chunk(workload, size, seed, trace, label, workdir, *, reps, seconds):
    """Body of a workload process: generate the input once, then fork
    one child per repetition — *reps* of them, or, when *seconds* is
    given, for as long as that budget (generation included) lasts."""
    started = time.monotonic()
    data, prepare_s, spans = prepare_input(workload, size, seed)
    results = []
    while (
        len(results) < reps if seconds is None
        else not results or time.monotonic() - started < seconds
    ):
        name = f"{workload}/{label}{len(results)}"
        tracer = Tracer(name, enabled=trace)

        def call(rep_dir: str) -> dict:
            result = RUNNERS[workload][1](size, data, tracer, rep_dir)
            result["metrics"]["setup_s"] += prepare_s
            result["spans"] = tracer.to_records()
            return result

        results.append(
            rep.run_forked(
                name, call, os.path.join(workdir, f"rep{len(results)}"),
                leader=False,
            )
        )
    return {"reps": results, "spans": spans}


class Session:
    """One invocation's state: what has been measured so far.

    This (main) process only imports the program.  Inputs live in a
    *workload process* forked per chunk of repetitions, which in turn
    forks each repetition: a repetition's memory therefore never
    depends on which other workloads ran before it.
    """

    def __init__(self, seed: int, sizes: dict | None = None):
        self.seed = seed
        self.sizes = sizes or {}
        self.work_root = os.path.join(ROOT, ".bench_work", str(os.getpid()))
        self.spans: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._jobs = 0

    def _fork(self, label: str, call) -> dict:
        self._jobs += 1
        return rep.run_forked(
            label, call, os.path.join(self.work_root, f"job{self._jobs}")
        )

    def _account(self, workload: str, result: dict) -> dict:
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += [f"{workload}: {p}" for p in result["problems"]]
        self.spans += result.pop("spans")
        return result

    def chunk(self, workload: str, label: str, *, reps: int = 1,
              seconds: float | None = None, trace: bool = False) -> list[dict]:
        """Repetitions of one workload sharing one generated input."""
        size = {**BY_NAME[workload].size, **self.sizes.get(workload, {})}
        done = self._fork(
            f"{workload}/{label}",
            lambda workdir: run_chunk(
                workload, size, self.seed, trace, label, workdir,
                reps=reps, seconds=seconds,
            ),
        )
        self.spans += done["spans"]
        return [self._account(workload, result) for result in done["reps"]]

    def ladder(self, workload: str) -> dict:
        tracer = Tracer(f"{workload}/ladder")

        def call(workdir: str) -> dict:
            result = run_ladder(workload, self.seed, tracer, workdir)
            result["spans"] = tracer.to_records()
            return result

        return self._account(workload, self._fork(f"{workload}/ladder", call))

    def close(self) -> None:
        try:
            os.rmdir(self.work_root)
            os.rmdir(os.path.dirname(self.work_root))
        except OSError:
            pass  # another invocation is still using .bench_work

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure(session: Session, workloads, seconds: float | None, label: str):
    """Untraced repetitions; returns workload -> repetition results.

    A driver invocation is one chunk lasting *seconds*.  A full run
    splits each workload's table repetitions over ROUNDS chunks and
    goes round the workloads, so machine drift spreads evenly.
    """
    if seconds is not None:
        return {
            name: session.chunk(name, label, seconds=seconds)
            for name in workloads
        }
    results: dict[str, list[dict]] = {name: [] for name in workloads}
    for index in range(ROUNDS):
        for name in workloads:
            total = BY_NAME[name].reps
            share = total * (index + 1) // ROUNDS - total * index // ROUNDS
            if share:
                results[name] += session.chunk(
                    name, f"{label}round{index}.rep", reps=share
                )
    return results


def summaries(reps: list[dict]) -> dict[str, dict]:
    """Metric -> {best, median, q1, q3, n} over one workload's reps."""
    names = sorted({name for rep in reps for name in rep["metrics"]})
    return {
        name: summarize(
            [rep["metrics"][name] for rep in reps if name in rep["metrics"]],
            E2E_BY_NAME[name].better,
        )
        for name in names
    }


def _unit(name: str) -> str:
    if name in E2E_BY_NAME:
        return E2E_BY_NAME[name].unit
    if name in PER_LAYER_BY_NAME:
        return PER_LAYER_BY_NAME[name].unit
    return ""


def print_summary(title: str, table: dict[str, dict]) -> None:
    print(f"\n== {title}")
    for name, row in table.items():
        print(
            f"  {name:<14} best {row['best']:>12.4f} {_unit(name):<8} median "
            f"{row['median']:>12.4f} [q1 {row['q1']:.4f}, q3 {row['q3']:.4f}] "
            f"n={row['n']}"
        )


def print_info(reps: list[dict]) -> None:
    """Workload-specific layer numbers the repetitions saw (medians)."""
    names = sorted({name for rep in reps for name in rep["info"]})
    for name in names:
        values = [
            rep["info"][name] for rep in reps
            if rep["info"].get(name) is not None
        ]
        if values:
            row = summarize(values)
            print(
                f"  . {name:<38} {row['median']:>14.4f} {_unit(name):<8} "
                f"n={row['n']}"
            )


def traced(session: Session, workload: str, untraced: dict | None,
           reps: int = 1) -> dict:
    """Traced repetition(s) plus the ladder; returns the layer values."""
    runs = session.chunk(workload, "traced", reps=reps, trace=True)
    index, best = max(
        enumerate(runs), key=lambda run: run[1]["metrics"]["lines_per_s"]
    )
    label = f"traced{index}"
    ladder = session.ladder(workload)
    print(f"\n== {workload}: traced repetition {label}, bench-owned spans")
    own = [s for s in session.spans if s["run"] == f"{workload}/{label}"]
    for name, row in sorted(by_name(own).items()):
        print(
            f"  {name:<40} total {row['total_s']:>9.4f} s  self "
            f"{row['self_s']:>9.4f} s  calls {row['calls']}"
        )
    print_info([best])
    if untraced is not None:
        base = untraced["lines_per_s"]["best"]
        overhead = 1.0 - best["metrics"]["lines_per_s"] / base
        print(
            f"  trace_overhead on lines_per_s: {overhead:+.2%} (best of "
            f"{reps} traced {best['metrics']['lines_per_s']:.0f} vs best "
            f"untraced {base:.0f} lines/s)"
        )
    print(f"\n== {workload}: ladder on this workload's input")
    for metric in PER_LAYER:
        value = ladder["layers"].get(metric.name)
        shown = "absent" if value is None else f"{value:.4f}"
        print(
            f"  {metric.name:<40} {shown:>14} {metric.unit:<8} "
            f"-> {metric.moves}"
        )
    for name in sorted(set(ladder["layers"]) - PER_LAYER_BY_NAME.keys()):
        print(f"  . {name:<38} {ladder['layers'][name]:>14.4f}")
    return ladder["layers"]


def compare_sets(first: dict, second: dict) -> list[tuple]:
    """Per (metric, workload) present in both sets: how far the second
    set's reported value is from the first's, as a share of it."""
    rows = []
    for workload in first:
        for metric in END_TO_END:
            if not (metric.name in first[workload]
                    and metric.name in second[workload]):
                continue
            a = first[workload][metric.name]["best"]
            b = second[workload][metric.name]["best"]
            worse = abs(worse_by(a, b, metric.better))
            rows.append((metric.name, workload, a, b, worse, metric.bound))
    return rows


def run_sets(session: Session, workloads, seconds, n_sets: int) -> list[dict]:
    """*n_sets* full sets back to back; prints each and, with more than
    one, the repeatability of every (metric, workload) pair."""
    sets = []
    for index in range(n_sets):
        results = measure(session, workloads, seconds, f"set{index}.")
        sets.append({name: summaries(reps) for name, reps in results.items()})
        for name in workloads:
            print_summary(
                f"{name} (seed {session.seed}, set {index + 1}/{n_sets})",
                sets[-1][name],
            )
            print_info(results[name])
    if n_sets > 1:
        print("\n== repeatability: last set's best vs the first's")
        for name, workload, a, b, worse, bound in compare_sets(sets[0], sets[-1]):
            state = "ok" if worse <= bound else "MISSES BOUND"
            if (name, workload) in DEMOTED:
                state += " (demoted)"
            print(
                f"  {name:<14} {workload:<16} {a:>12.4f} -> {b:>12.4f}"
                f"  {worse:6.2%} of bound {bound:.0%}  {state}"
            )
    return sets


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all seven")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure one workload this long")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--sets", type=int, default=1,
                        help="full sets to run back to back (repeatability)")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="directory for the span file and results.json")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="regenerate BENCHMARK.json from bench/spec.py")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    workloads = args.workload or list(WORKLOAD_NAMES)
    driver = args.seconds is not None
    if driver and len(workloads) != 1:
        parser.error("--seconds measures exactly one --workload")

    session = Session(args.seed)
    os.makedirs(args.out, exist_ok=True)
    final: dict = {}
    try:
        if driver and args.trace:
            layers = traced(session, workloads[0], None)
            for metric in PER_LAYER:
                if layers.get(metric.name) is None:
                    session.problems.append(f"ladder did not report {metric.name}")
                else:
                    final[metric.name] = {
                        "value": layers[metric.name], "unit": metric.unit,
                    }
        else:
            sets = run_sets(session, workloads, args.seconds, args.sets)
            layers = {
                name: traced(
                    session, name, sets[0][name],
                    # as many traced as untraced repetitions, so that the
                    # two bests compare; a wire repetition costs ~20 s
                    reps=1 if name.startswith("wire_") else BY_NAME[name].reps,
                )
                for name in (workloads if args.trace else ())
            }
            for name in workloads:
                prefix = "" if len(workloads) == 1 else f"{name}."
                for metric in DRIVER_END_TO_END if driver else END_TO_END:
                    if metric.name in sets[-1][name]:
                        final[prefix + metric.name] = {
                            "value": sets[-1][name][metric.name]["best"],
                            "unit": metric.unit,
                        }
            with open(os.path.join(args.out, "results.json"), "w",
                      encoding="utf-8") as f:
                json.dump(
                    {"seed": args.seed, "sets": sets, "layers": layers,
                     "problems": session.problems},
                    f, indent=2,
                )
                f.write("\n")
        if args.trace:
            which = workloads[0] if len(workloads) == 1 else "all"
            trace_path = os.path.join(
                args.out, f"trace-seed{args.seed}-{which}.json"
            )
            write_chrome_trace(trace_path, session.spans)
            print(f"\nspans: {len(session.spans)} written to {trace_path}")
    finally:
        session.close()
    share = session.failed / max(1, session.attempted)
    print(f"\nfailed_share: {share:.6f} ({session.failed} of "
          f"{session.attempted} lines)")
    for problem in session.problems:
        print(f"ORACLE FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": session.correct,
                "attempted": max(1, session.attempted),
                "failed": session.failed,
                "metrics": final,
            }
        )
    )
    return 0 if session.correct else 1
