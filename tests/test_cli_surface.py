"""Golden pins of the CLI's public surface.

Two things a refactor of :mod:`repro.cli` must not move:

* the argument table of every subcommand -- option strings (or the
  positional's name), dest, default, type, choices, nargs, required,
  and action class, as :func:`repro.cli.build_arg_parser` builds them
  (help text is deliberately not pinned);
* every configuration refusal the commands make themselves: the exact
  ``error: ...`` line on stderr, nothing on stdout, and exit code 2.
"""

import argparse

import pytest

from repro.cli import build_arg_parser, main


def _row(action) -> str:
    """One argument as a compact, order-stable description.

    ``dest`` is spelled out only where it differs from the name
    argparse would derive; ``None``/``False`` fields are omitted.
    """
    fields = ["/".join(action.option_strings) or action.dest]
    derived = (
        action.option_strings[0].lstrip("-").replace("-", "_")
        if action.option_strings
        else action.dest
    )
    if action.dest != derived:
        fields.append(f"dest={action.dest}")
    if action.default is not None:
        fields.append(f"default={action.default!r}")
    if action.type is not None:
        fields.append(f"type={action.type.__name__}")
    if action.choices is not None:
        fields.append("choices=" + "|".join(map(str, action.choices)))
    if action.nargs is not None:
        fields.append(f"nargs={action.nargs}")
    if action.required:
        fields.append("required")
    fields.append(type(action).__name__.strip("_").removesuffix("Action"))
    return " ".join(fields)


def _surface() -> dict[str, list[str]]:
    parser = build_arg_parser()
    (subparsers,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return {
        command: [
            _row(action)
            for action in cmd._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for command, cmd in subparsers.choices.items()
    }


SURFACE = {
    "generate": [
        "dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper required Store",
        "output required Store",
        "--size default=2000 type=int Store",
        "--seed type=int Store",
    ],
    "parse": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "input required Store",
        "--output-stem Store",
        "--preprocess-dataset Store",
        "--groups default=50 type=int Store",
        "--support default=0.005 type=float Store",
        "--sim-threshold default=0.4 type=float Store",
        "--depth default=4 type=int Store",
        "--seed type=int Store",
    ],
    "evaluate": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper required Store",
        "--sample-size default=2000 type=int Store",
        "--preprocess default=False nargs=0 StoreTrue",
        "--runs type=int Store",
        "--seed type=int Store",
    ],
    "metrics": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper required Store",
        "--sample-size default=2000 type=int Store",
        "--preprocess default=False nargs=0 StoreTrue",
        "--seed type=int Store",
    ],
    "score": [
        "--label-free default=False nargs=0 StoreTrue",
        "--parsers default='SLCT,IPLoM,LKE,LogSig,Drain' Store",
        "--datasets default='BGL,HPC,Proxifier,HDFS,Zookeeper' Store",
        "--sample-size default=1000 type=int Store",
        "--preprocess default=False nargs=0 StoreTrue",
        "--seed type=int Store",
    ],
    "tune": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper required Store",
        "--sample-size default=2000 type=int Store",
        "--seed type=int Store",
    ],
    "mine": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain|GroundTruth required Store",
        "--blocks default=2000 type=int Store",
        "--seed type=int Store",
        "--alpha default=0.001 type=float Store",
    ],
    "stream": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "input nargs=? Store",
        "--dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper Store",
        "--size default=100000 type=int Store",
        "--flush-policy default='delta' choices=delta|prefix Store",
        "--flush-size default=512 type=int Store",
        "--cache-capacity default=4096 type=int Store",
        "--max-retries default=3 type=int Store",
        "--report-every default=0 type=int Store",
        "--no-retain default=False nargs=0 StoreTrue",
        "--verify default=False nargs=0 StoreTrue",
        "--mine default=False nargs=0 StoreTrue",
        "--output-stem Store",
        "--preprocess-dataset Store",
        "--groups default=50 type=int Store",
        "--support default=0.005 type=float Store",
        "--sim-threshold default=0.4 type=float Store",
        "--depth default=4 type=int Store",
        "--seed type=int Store",
        "--max-pending type=int Store",
        "--overflow default='block' choices=block|shed|sample Store",
        "--budget-mem type=float Store",
        "--budget-wall type=float Store",
        "--budget-queue type=float Store",
        "--ladder Store",
        "--check-every default=500 type=int Store",
        "--error-policy choices=raise|skip|quarantine Store",
        "--quarantine-path Store",
        "--max-record-len type=int Store",
        "--faults type=int Store",
        "--fault-every default=20 type=int Store",
        "--io-faults type=int Store",
        "--metrics-out Store",
        "--trace-out Store",
        "--trace-format default='jsonl' choices=jsonl|chrome Store",
        "--events-out Store",
        "--manifest-out Store",
        "--telemetry-port type=int Store",
        "--checkpoint Store",
        "--checkpoint-every default=10000 type=int Store",
        "--resume default=False nargs=0 StoreTrue",
    ],
    "supervise": [
        "input nargs=? Store",
        "--dataset choices=BGL|HPC|Proxifier|HDFS|Zookeeper Store",
        "--size default=2000 type=int Store",
        "--chain default='IPLoM,SLCT' Store",
        "--timeout type=float Store",
        "--retries default=3 type=int Store",
        "--retry-delay default=0.01 type=float Store",
        "--error-policy choices=raise|skip|quarantine Store",
        "--quarantine-path Store",
        "--max-record-len type=int Store",
        "--faults type=int Store",
        "--fault-every default=20 type=int Store",
        "--io-faults type=int Store",
        "--metrics-out Store",
        "--trace-out Store",
        "--trace-format default='jsonl' choices=jsonl|chrome Store",
        "--events-out Store",
        "--manifest-out Store",
        "--fault-parser Store",
        "--fault-parser-fails default=2 type=int Store",
        "--fault-parser-hang default=0.0 type=float Store",
        "--output-stem Store",
        "--verify default=False nargs=0 StoreTrue",
        "--preprocess-dataset Store",
        "--groups default=50 type=int Store",
        "--support default=0.005 type=float Store",
        "--sim-threshold default=0.4 type=float Store",
        "--depth default=4 type=int Store",
        "--seed type=int Store",
    ],
    "soak": [
        "scenario choices=memory-pressure|slow-consumer|deadline-squeeze required Store",
        "--seed default=7 type=int Store",
        "--blocks default=40 type=int Store",
        "--check-every default=20 type=int Store",
        "--min-transitions default=2 type=int Store",
        "--metrics-out Store",
        "--trace-out Store",
        "--trace-format default='jsonl' choices=jsonl|chrome Store",
        "--events-out Store",
        "--manifest-out Store",
    ],
    "serve": [
        "parser choices=SLCT|IPLoM|LKE|LogSig|Drain required Store",
        "data_dir required Store",
        "--host default='127.0.0.1' Store",
        "--port default=0 type=int Store",
        "--replay Store",
        "--drain-after type=int Store",
        "--protocol default='v1' choices=v1|v2 Store",
        "--flush-size default=200 type=int Store",
        "--cache-capacity default=512 type=int Store",
        "--max-pending type=int Store",
        "--overflow default='block' choices=block|shed|sample Store",
        "--breaker-threshold default=5 type=int Store",
        "--rate type=float Store",
        "--burst type=float Store",
        "--budget-mem type=float Store",
        "--budget-queue type=float Store",
        "--admission-every default=64 type=int Store",
        "--sample-keep default=2 type=int Store",
        "--tenant-budget-mem type=float Store",
        "--tenant-budget-queue type=float Store",
        "--ladder Store",
        "--check-every default=100 type=int Store",
        "--isolation default='thread' choices=thread|process Store",
        "--watchdog default=5.0 type=float Store",
        "--checkpoint-every default=500 type=int Store",
        "--poison-threshold default=3 type=int Store",
        "--fence-threshold default=5 type=int Store",
        "--drain-timeout default=60.0 type=float Store",
        "--proc-faults type=int Store",
        "--status-interval type=float Store",
        "--groups default=50 type=int Store",
        "--support default=0.005 type=float Store",
        "--sim-threshold default=0.4 type=float Store",
        "--depth default=4 type=int Store",
        "--seed type=int Store",
        "--io-faults type=int Store",
        "--metrics-out Store",
        "--trace-out Store",
        "--trace-format default='jsonl' choices=jsonl|chrome Store",
        "--events-out Store",
        "--manifest-out Store",
        "--telemetry-port type=int Store",
        "--alerts-out Store",
        "--alert-interval default=1.0 type=float Store",
        "--slo-objective default=0.99 type=float Store",
    ],
    "send": [
        "host required Store",
        "port type=int required Store",
        "input nargs=? Store",
        "--client-id default='sender' Store",
        "--spool required Store",
        "--timeout default=30.0 type=float Store",
        "--net-faults type=int Store",
        "--metrics-out Store",
        "--trace-out Store",
        "--trace-format default='jsonl' choices=jsonl|chrome Store",
        "--events-out Store",
        "--manifest-out Store",
    ],
    "watch": [
        "url required Store",
        "--interval default=2.0 type=float Store",
        "--iterations type=int Store",
        "--once default=False nargs=0 StoreTrue",
    ],
    "report": [
        "--metrics Store",
        "--trace Store",
        "--events Store",
    ],
    "verify-run": [
        "manifest required Store",
        "--against Store",
        "--ignore default=[] Append",
    ],
}


def test_subcommands_in_order():
    assert list(_surface()) == list(SURFACE)


@pytest.mark.parametrize("command", list(SURFACE))
def test_argument_table(command):
    assert _surface()[command] == SURFACE[command]


def test_argument_count():
    assert sum(len(rows) for rows in _surface().values()) == 185


_STREAM = ["stream", "Drain", "--dataset", "HDFS", "--size", "10"]
_SUPERVISE = ["supervise", "--dataset", "HDFS", "--size", "10"]

REFUSALS = [
    (
        ["stream", "Drain"],
        "give exactly one of INPUT or --dataset",
    ),
    (
        [*_STREAM, "--no-retain", "--verify"],
        "--no-retain cannot be combined with --verify, --output-stem, "
        "or --flush-policy prefix",
    ),
    (
        [*_STREAM, "--resume"],
        "--resume requires --checkpoint",
    ),
    (
        [*_STREAM, "--budget-mem", "64", "--verify"],
        "resource budgets cannot be combined with "
        "--verify/--flush-policy prefix "
        "(the flush parser may change mid-stream)",
    ),
    (
        ["supervise"],
        "give exactly one of INPUT or --dataset",
    ),
    (
        [*_SUPERVISE, "--chain", ","],
        "--chain must name at least one parser",
    ),
    (
        [*_SUPERVISE, "--chain", "IPLoM,Nope"],
        "unknown parser 'Nope' in --chain "
        "(choose from SLCT, IPLoM, LKE, LogSig, Drain)",
    ),
    (
        [*_SUPERVISE, "--fault-parser", "Drain"],
        "--fault-parser 'Drain' is not in the chain",
    ),
    (
        ["serve", "Drain", "{tmp}", "--replay", "x.log", "--drain-after", "5"],
        "--drain-after only applies to the TCP front end",
    ),
    (
        ["serve", "Drain", "{tmp}", "--replay", "x.log", "--protocol", "v2"],
        "--protocol v2 only applies to the TCP front end "
        "(--replay has no connection to negotiate)",
    ),
]


@pytest.mark.parametrize(
    "argv, message", REFUSALS, ids=[str(i) for i in range(len(REFUSALS))]
)
def test_refusal_line_and_exit_code(argv, message, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path / "svc")) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
