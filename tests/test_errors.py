"""Tests for the exception hierarchy contract.

Beyond the class hierarchy itself, :func:`test_every_raise_site_uses_repro_errors`
audits the whole source tree with an AST walk: every ``raise`` of a
named exception class must use a :class:`ReproError` subclass (so the
CLI's top-level handler and its exit-code mapping see everything), with
a short allowlist for exception types that encode Python-level
contracts rather than runtime failures.
"""

import ast
import os

import pytest

from repro.common.errors import (
    CheckpointError,
    DatasetError,
    EvaluationError,
    FallbackExhaustedError,
    MiningError,
    ParserConfigurationError,
    ParserTimeoutError,
    ReproError,
    ValidationError,
)

ALL_ERRORS = [
    DatasetError,
    EvaluationError,
    MiningError,
    ParserConfigurationError,
    ValidationError,
    ParserTimeoutError,
    CheckpointError,
    FallbackExhaustedError,
]


@pytest.mark.parametrize("error_type", ALL_ERRORS)
def test_all_errors_derive_from_repro_error(error_type):
    assert issubclass(error_type, ReproError)
    assert issubclass(error_type, Exception)


def test_single_except_clause_catches_everything():
    for error_type in ALL_ERRORS:
        with pytest.raises(ReproError):
            raise error_type("boom")


def test_errors_are_distinguishable():
    with pytest.raises(DatasetError):
        try:
            raise DatasetError("data")
        except ParserConfigurationError:  # pragma: no cover
            pytest.fail("wrong branch")


def test_validation_error_is_also_a_value_error():
    # Callers that predate the hierarchy catch ValueError; both handles
    # must keep working.
    assert issubclass(ValidationError, ValueError)
    with pytest.raises(ValueError):
        raise ValidationError("bad value")
    with pytest.raises(ReproError):
        raise ValidationError("bad value")


def test_fallback_exhausted_carries_its_report():
    error = FallbackExhaustedError("all dead", report={"attempts": 3})
    assert error.report == {"attempts": 3}
    assert FallbackExhaustedError("no report").report is None


def test_library_raises_only_repro_errors_for_bad_config():
    from repro.parsers import make_parser

    with pytest.raises(ReproError):
        make_parser("SLCT", support=-1)
    with pytest.raises(ReproError):
        make_parser("definitely-not-a-parser")


# ----------------------------------------------------------------------
# Raise-site audit
# ----------------------------------------------------------------------

#: Exceptions that may be raised without being ReproError subclasses:
#: KeyError encodes the mapping contract (``parser.name -> factory``),
#: NotImplementedError marks abstract-method stubs, AssertionError
#: guards internal invariants that indicate bugs, not runtime faults,
#: and OSError is what the IO fault injector (FaultyIO) must raise —
#: recovery paths have to see the exact type (and errno) a real
#: syscall would produce; the durability layer re-classifies it into
#: ArtifactWriteError at the API boundary.  ShutdownRequested is a
#: control-flow signal (a graceful SIGINT/SIGTERM, akin to
#: KeyboardInterrupt), not a fault — handlers that catch ReproError to
#: classify failures must never swallow a shutdown request.
#: _ConnectionDone is the line server's private unwind signal (a dead
#: peer ends one connection's read loop); it is raised and caught
#: inside ``_serve_connection`` and never crosses an API boundary.
#: AttributeError is the PEP 562 contract of a module ``__getattr__``
#: (the packages export ChunkedParallelParser lazily); ``hasattr`` and
#: ``from ... import`` rely on exactly that type.
_ALLOWED_NON_REPRO = {
    "AttributeError",
    "KeyError",
    "NotImplementedError",
    "AssertionError",
    "OSError",
    "ShutdownRequested",
    "_ConnectionDone",
}

_SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def _raised_names(tree):
    """Names of exception classes raised with an explicit constructor."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            yield node.lineno, exc.id
        elif isinstance(exc, ast.Attribute):
            yield node.lineno, exc.attr
        # bare ``raise`` (re-raise) and ``raise variable`` are fine:
        # they propagate something already classified at its origin.


def _repro_error_names():
    import repro.common.errors as errors_module
    import repro.resilience.faults as faults_module

    names = set()
    for module in (errors_module, faults_module):
        for name in dir(module):
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, ReproError):
                names.add(name)
    return names


def test_every_raise_site_uses_repro_errors():
    allowed = _repro_error_names() | _ALLOWED_NON_REPRO
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(_SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            rel = os.path.relpath(path, _SRC_ROOT)
            for lineno, name in _raised_names(tree):
                if name not in allowed:
                    offenders.append(f"{rel}:{lineno} raises {name}")
    assert not offenders, (
        "public raise sites must use ReproError subclasses:\n"
        + "\n".join(offenders)
    )
