"""repro — reproduction of "An Evaluation Study on Log Parsing and Its
Use in Log Mining" (He, Zhu, He, Li, Lyu — DSN 2016).

The package provides:

* the four log parsers the paper evaluates (SLCT, IPLoM, LKE, LogSig)
  behind one standard input/output contract (:mod:`repro.parsers`);
* synthetic reproductions of the five evaluation datasets with exact
  ground truth (:mod:`repro.datasets`);
* the log mining tasks of §III, foremost PCA anomaly detection
  (:mod:`repro.mining`);
* the evaluation harnesses behind every table and figure
  (:mod:`repro.evaluation`).

Quickstart::

    from repro import Iplom, generate_dataset, get_dataset_spec, f_measure

    dataset = generate_dataset(get_dataset_spec("HDFS"), 2000, seed=1)
    parsed = Iplom().parse(dataset.records)
    print(f_measure(parsed.assignments, dataset.truth_assignments))
"""

from repro.common import (
    EventTemplate,
    LogRecord,
    ParseResult,
    StructuredLog,
)
from repro.datasets import (
    DATASET_NAMES,
    generate_dataset,
    generate_hdfs_sessions,
    get_dataset_spec,
    iter_dataset,
    iter_dataset_specs,
    iter_raw_log,
)
from repro.evaluation import (
    LabelFreeScore,
    evaluate_accuracy,
    evaluate_label_free,
    evaluate_mining_impact,
    f_measure,
    measure_runtime,
    tuned_parser_factory,
)
from repro.mining import (
    build_event_matrix,
    build_system_model,
    compare_deployments,
    detect_anomalies,
    mine_invariants,
)
from repro.observability import (
    EventLog,
    MetricsRegistry,
    Telemetry,
    Tracer,
    export_metrics,
    render_prometheus,
    render_run_report,
    summary_from_registry,
)
from repro.parsers import (
    DrainParser,
    DrainTree,
    Iplom,
    Lke,
    LogSig,
    OracleParser,
    PARSER_NAMES,
    Slct,
    available_parsers,
    default_preprocessor,
    make_parser,
)
from repro.streaming import (
    ParseSession,
    StreamingParser,
    TemplateCache,
    compare_stream_to_batch,
)

__version__ = "1.0.0"

__all__ = [
    "EventTemplate",
    "LogRecord",
    "ParseResult",
    "StructuredLog",
    "DATASET_NAMES",
    "generate_dataset",
    "generate_hdfs_sessions",
    "get_dataset_spec",
    "iter_dataset_specs",
    "LabelFreeScore",
    "evaluate_accuracy",
    "evaluate_label_free",
    "evaluate_mining_impact",
    "f_measure",
    "measure_runtime",
    "tuned_parser_factory",
    "build_event_matrix",
    "build_system_model",
    "compare_deployments",
    "detect_anomalies",
    "mine_invariants",
    "EventLog",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "export_metrics",
    "render_prometheus",
    "render_run_report",
    "summary_from_registry",
    "ChunkedParallelParser",
    "DrainParser",
    "DrainTree",
    "Iplom",
    "Lke",
    "LogSig",
    "OracleParser",
    "PARSER_NAMES",
    "Slct",
    "available_parsers",
    "default_preprocessor",
    "make_parser",
    "ParseSession",
    "StreamingParser",
    "TemplateCache",
    "compare_stream_to_batch",
    "iter_dataset",
    "iter_raw_log",
    "__version__",
]


def __getattr__(name: str):
    # Lazy for the reason given in repro.parsers.__getattr__.
    if name == "ChunkedParallelParser":
        from repro.parsers.parallel import ChunkedParallelParser

        return ChunkedParallelParser
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
