"""Smoke tests: the runnable examples must actually run.

Only the fast examples are executed here (the interactive comparison
script enumerates every parser × dataset and belongs to manual runs).
The instrumented examples (streaming_parse, degraded_stream) leave
telemetry artifacts in the working directory; those tests assert on
the structured files rather than scraping stdout.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"

FAST_EXAMPLES = [
    "quickstart.py",
    "fig1_overview.py",
    "tagged_logging.py",
    "streaming_parse.py",
    "degraded_stream.py",
    "multi_tenant_service.py",
]


def _env_with_src() -> dict:
    """Subprocess environment that can import repro from src/.

    The test runner's own PYTHONPATH is not inherited reliably (pytest
    may be launched with src/ on sys.path only), so build it explicitly.
    """
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{existing}" if existing else str(SRC_DIR)
    )
    return env


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs_cleanly(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,  # examples write their artifacts to the cwd
        env=_env_with_src(),
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()


def _run_example(script: str, cwd) -> subprocess.CompletedProcess:
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env=_env_with_src(),
    )
    assert completed.returncode == 0, completed.stderr
    return completed


def test_streaming_parse_leaves_structured_telemetry(tmp_path):
    _run_example("streaming_parse.py", tmp_path)
    samples = json.loads(
        (tmp_path / "streaming_parse.metrics.json").read_text()
    )["samples"]
    assert samples["repro_stream_lines_total"] == 20_000.0
    hits = (
        samples.get('repro_cache_hits_total{kind="exact"}', 0.0)
        + samples.get('repro_cache_hits_total{kind="template"}', 0.0)
    )
    lookups = hits + samples["repro_cache_misses_total"]
    assert hits / lookups > 0.5  # the cache warmed up
    spans = [
        json.loads(line)
        for line in (tmp_path / "streaming_parse.trace.jsonl")
        .read_text()
        .splitlines()
    ]
    names = {span["name"] for span in spans}
    assert {"parse_run", "chunk", "parser_call"} <= names


def test_degraded_stream_leaves_structured_timeline(tmp_path):
    _run_example("degraded_stream.py", tmp_path)
    from repro.observability.events import load_events

    events = load_events(str(tmp_path / "degraded_stream.events.jsonl"))
    steps = [event for event in events if event["kind"] == "ladder_step"]
    assert [step["from"] for step in steps] == ["LKE", "LogSig"]
    assert [step["to"] for step in steps] == ["LogSig", "Drain"]
    assert all(step["breaches"] for step in steps)
    samples = json.loads(
        (tmp_path / "degraded_stream.metrics.json").read_text()
    )["samples"]
    assert samples["repro_ladder_position"] == 2.0
    assert any(
        name.startswith("repro_budget_breaches_total") for name in samples
    )


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES_DIR.glob("*.py"))
    assert len(scripts) >= 8
    for script in scripts:
        text = script.read_text()
        assert text.startswith('"""'), script.name
        assert "Run:" in text, script.name


def test_fig1_output_matches_paper():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "fig1_overview.py")],
        capture_output=True,
        text=True,
        timeout=120,
        env=_env_with_src(),
    )
    out = completed.stdout
    # The six events of the paper's Fig. 1, verbatim.
    assert "Event2  Receiving block * src: * dest: *" in out
    assert "Event3  PacketResponder * for block * terminating" in out
    assert "Event6  Verification succeeded for *" in out
