"""``BENCHMARK.json`` against the driver's contract and against
``bench/spec.py``, which it mirrors."""

import json
import os
import re

from bench import ROOT
from bench import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def _load():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_mirrors_the_spec_table():
    assert _load() == spec.benchmark_json()


def test_benchmark_json_meets_the_contract():
    data = _load()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 1 <= len(data["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in data["command"])
    assert not any(a.startswith("/") or ".." in a for a in data["command"])
    assert 1 <= len(data["paths"]) <= 16
    for path in data["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
        assert os.path.isdir(os.path.join(ROOT, path))
    assert isinstance(data["run_seconds"], int) and 1 <= data["run_seconds"] <= 60

    assert 2 <= len(data["workloads"]) <= 8
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]

    assert 1 <= len(data["end_to_end"]) <= 16
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in data["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert max(m["bound"] for m in data["end_to_end"]) == next(
        m["bound"] for m in data["end_to_end"] if m["name"] == "setup_s"
    )

    assert 1 <= len(data["per_layer"]) <= 128
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in data[key]
    ]
    assert len(names) == len(set(names)), "a name is used once"

    # 4 + 22 runs per workload must fit the driver's cap with room for
    # set-up: run_seconds alone may use at most half of it.
    runs = 4 + 22 * len(data["workloads"])
    assert runs * data["run_seconds"] <= 3420 / 2


def test_the_driver_runs_a_subset_and_the_package_runs_all_seven():
    gated = {w.name for w in spec.GATED_WORKLOADS}
    assert gated < set(spec.WORKLOAD_NAMES) and len(spec.WORKLOAD_NAMES) == 7
    # each pair the gate leaves out keeps its other half in
    assert {"replay_process", "wire_thread", "stream_hot", "stream_cold",
            "batch_mine"} == gated


def test_every_workload_reports_every_driver_metric():
    for metric in spec.DRIVER_END_TO_END:
        assert metric.workloads == spec.WORKLOAD_NAMES
    gated = {m.name for m in spec.DRIVER_END_TO_END}
    assert {"setup_s", "lines_per_s", "peak_rss_mb"} <= gated


def test_every_layer_of_the_program_has_a_metric():
    layers = {m.layer for m in spec.PER_LAYER}
    assert layers == {
        "datasets", "common", "parsers", "mining", "evaluation",
        "streaming", "resilience", "observability", "service.client",
        "service.protocol", "service.server", "service.shard",
        "service.workers", "service.isolation_tax", "service.engine_tax",
    }


def test_demoted_pairs_name_real_metrics_and_workloads():
    for (metric, workload), reason in spec.DEMOTED.items():
        assert workload in spec.E2E_BY_NAME[metric].workloads
        assert reason
