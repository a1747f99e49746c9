"""The public API surface: everything README advertises must exist."""

import ast
import glob
import importlib
import os

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_parsers_exported(self):
        for name in ("Slct", "Iplom", "Lke", "LogSig", "OracleParser",
                     "ChunkedParallelParser"):
            assert name in repro.__all__

    def test_quickstart_flow_from_readme(self):
        from repro import (
            Iplom,
            f_measure,
            generate_dataset,
            get_dataset_spec,
        )

        dataset = generate_dataset(get_dataset_spec("HDFS"), 200, seed=1)
        parsed = Iplom().parse(dataset.records)
        score = f_measure(parsed.assignments, dataset.truth_assignments)
        assert 0.0 <= score <= 1.0

    def test_mining_flow_from_readme(self):
        from repro import (
            OracleParser,
            detect_anomalies,
            generate_hdfs_sessions,
        )

        sessions = generate_hdfs_sessions(300, seed=1)
        parsed = OracleParser().parse(sessions.records)
        result = detect_anomalies(parsed)
        assert result.flagged_sessions <= set(sessions.labels)


SUBMODULES = [
    "repro.common.tokenize",
    "repro.common.types",
    "repro.common.textutil",
    "repro.common.rng",
    "repro.common.errors",
    "repro.datasets.base",
    "repro.datasets.generator",
    "repro.datasets.registry",
    "repro.datasets.loader",
    "repro.datasets.stats",
    "repro.datasets.hdfs",
    "repro.datasets.bgl",
    "repro.datasets.hpc",
    "repro.datasets.zookeeper",
    "repro.datasets.proxifier",
    "repro.parsers.base",
    "repro.parsers.preprocess",
    "repro.parsers.slct",
    "repro.parsers.iplom",
    "repro.parsers.lke",
    "repro.parsers.logsig",
    "repro.parsers.oracle",
    "repro.parsers.registry",
    "repro.parsers.parallel",
    "repro.parsers.tagged",
    "repro.mining.event_matrix",
    "repro.mining.tfidf",
    "repro.mining.pca",
    "repro.mining.anomaly",
    "repro.mining.verification",
    "repro.mining.model",
    "repro.mining.invariants",
    "repro.evaluation.fmeasure",
    "repro.evaluation.metrics",
    "repro.evaluation.accuracy",
    "repro.evaluation.efficiency",
    "repro.evaluation.mining_impact",
    "repro.evaluation.tuning",
    "repro.evaluation.reports",
    "repro.cli",
]


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_every_module_imports_and_is_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    assert len(module.__doc__.strip()) > 40


def _bench_imports():
    """``(file, module, name)`` for every ``from repro... import`` in
    the benchmark harness's modules."""
    bench = os.path.join(os.path.dirname(__file__), "..", "bench")
    for path in sorted(glob.glob(os.path.join(bench, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                for alias in node.names:
                    yield os.path.basename(path), node.module, alias.name


def test_every_name_the_benchmark_imports_resolves():
    # The benchmark runs the committed tree of two revisions: a name it
    # imports that a change removed fails the whole run, not one metric.
    found = list(_bench_imports())
    assert any(name == "ChunkedParallelParser" for _, _, name in found)
    missing = []
    for filename, module_name, name in found:
        module = importlib.import_module(module_name)
        if hasattr(module, name):
            continue
        try:
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"{filename}: from {module_name} import {name}")
    assert missing == []
