"""Crash-consistent artifact IO: atomic writes, framed JSONL, manifests.

Every artifact the runtime emits — quarantine JSONL, metrics/trace/
event exports, ``.events`` / ``.structured`` outputs, checkpoints —
used to be a plain ``open()`` write, so a crash, ``ENOSPC``, or torn
write could silently truncate it and poison the downstream mining the
paper shows is hypersensitive to small errors (Finding 6: a 4% parse
error rate degrades PCA detection by an order of magnitude).  This
module is the durability layer those writers now share:

* :class:`AtomicWriter` / :func:`atomic_write_text` — the classic
  crash-safe replacement sequence: write a sibling temp file, flush,
  ``fsync`` the file, ``os.replace`` over the target, then ``fsync``
  the parent directory so the rename itself survives power loss.
  Readers see either the complete old artifact or the complete new
  one, never a half-written hybrid.

* :class:`DurableJsonlWriter` — the one append-mode writer of JSONL
  with per-record length+CRC32 framing::

      0000002f c47ab1e9 {"kind": "quarantine", ...}

  and the only code that recovers or rolls one back.  A torn tail
  (the record a crashing writer got halfway through) fails the frame
  check, and recovery truncates the file back to the last complete
  record instead of letting garbage propagate; ``cut`` rolls it back
  to a checkpoint's pin.  The payload stays on the line in plain
  JSON, so ``grep`` keeps working.

* :class:`RunManifest` / :func:`verify_manifest` /
  :func:`diff_manifests` — a run-end integrity manifest recording
  SHA-256, byte size, and record count for every artifact the run
  emitted, committed atomically.  ``repro verify-run`` re-hashes the
  artifacts against it (a single flipped byte fails with the CLI's
  data-error exit code), and two manifests from different runs of the
  same seed can be diffed to certify that a crashed-and-resumed run
  reconverged byte-for-byte with a fault-free one.

All writers take an ``io`` seam (default :class:`RealIO`) so the
deterministic fault layer in :mod:`repro.resilience.faults` can inject
``EIO`` / ``ENOSPC`` / fsync failures / torn writes at scripted byte
offsets; the rewind/retry/fail behaviour under those faults is part of
each writer's contract and is certified by ``tests/test_durability.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as json_str

from repro.common.errors import ArtifactWriteError, IntegrityError

#: Bump when the manifest schema changes incompatibly.
MANIFEST_VERSION = 1

#: Artifact codecs a manifest entry may declare.  ``framed`` counts
#: records via the CRC32 frame check (and fails verification if any
#: frame is invalid), ``lines`` counts newline-terminated lines, and
#: ``opaque`` records only bytes + hash.
CODEC_FRAMED = "framed"
CODEC_LINES = "lines"
CODEC_OPAQUE = "opaque"
ARTIFACT_CODECS = (CODEC_FRAMED, CODEC_LINES, CODEC_OPAQUE)

#: Frame layout: 8 hex chars payload length, space, 8 hex chars CRC32,
#: space, payload, newline.
_FRAME_HEADER_LEN = 18


# ----------------------------------------------------------------------
# The IO seam
# ----------------------------------------------------------------------


class RealIO:
    """The pass-through IO layer every durable writer defaults to.

    The methods mirror the exact primitives the crash-consistency
    argument rests on (write, fsync, rename, directory fsync), so the
    fault layer can interpose on each one individually.
    """

    def open(self, path: str, mode: str):
        return open(path, mode)

    def write(self, handle, data: bytes) -> None:
        handle.write(data)

    def flush(self, handle) -> None:
        handle.flush()

    def fsync(self, handle) -> None:
        os.fsync(handle.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def fsync_dir(self, path: str) -> None:
        """Flush the directory entry so a completed rename survives
        power loss.  Directory fds are not a thing on some platforms
        (Windows); there the rename is as durable as the OS makes it."""
        directory = os.path.dirname(os.path.abspath(path)) or "."
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def truncate(self, path: str, length: int) -> None:
        with open(path, "r+b") as handle:
            handle.truncate(length)
            self.fsync(handle)


def _coerce_io(io: RealIO | None) -> RealIO:
    return io if io is not None else RealIO()


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _ends_frame(path: str, offset: int) -> bool:
    """Whether the byte before *offset* is a newline."""
    with open(path, "rb") as handle:
        handle.seek(offset - 1)
        return handle.read(1) == b"\n"


# ----------------------------------------------------------------------
# Atomic whole-file writes
# ----------------------------------------------------------------------


class AtomicWriter:
    """Write a whole artifact crash-safely: temp → fsync → rename.

    Used as a context manager yielding ``self``; stage text with
    :meth:`write` and the commit happens on a clean ``__exit__``::

        with AtomicWriter(path) as writer:
            for line in lines:
                writer.write(line + "\\n")

    On any exception — the caller's or an injected IO fault — the temp
    file is removed and the target is left exactly as it was, so a
    failed export can never shadow a previous run's good artifact with
    a half-written one.  IO failures surface as
    :class:`~repro.common.errors.ArtifactWriteError`.
    """

    def __init__(
        self,
        path: str,
        *,
        encoding: str = "utf-8",
        io: RealIO | None = None,
        fsync: bool = True,
    ) -> None:
        self.path = path
        self.encoding = encoding
        self.io = _coerce_io(io)
        self.fsync = fsync
        self._tmp_path = f"{path}.tmp"
        self._handle = None

    def write(self, text: str) -> None:
        if self._handle is None:
            raise ArtifactWriteError(
                f"AtomicWriter for {self.path} is not open"
            )
        try:
            self.io.write(self._handle, text.encode(self.encoding))
        except OSError as error:
            raise ArtifactWriteError(
                f"could not write {self.path}: {error}"
            ) from error

    def __enter__(self) -> "AtomicWriter":
        try:
            self._handle = self.io.open(self._tmp_path, "wb")
        except OSError as error:
            raise ArtifactWriteError(
                f"could not open temp file for {self.path}: {error}"
            ) from error
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._discard()
            return
        try:
            self.io.flush(self._handle)
            if self.fsync:
                self.io.fsync(self._handle)
            self._handle.close()
            self._handle = None
            self.io.replace(self._tmp_path, self.path)
            if self.fsync:
                self.io.fsync_dir(self.path)
        except OSError as error:
            self._discard()
            raise ArtifactWriteError(
                f"could not commit {self.path}: {error}"
            ) from error

    def _discard(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._handle = None
        try:
            os.unlink(self._tmp_path)
        except OSError:
            pass


def atomic_write_text(
    path: str,
    text: str,
    *,
    encoding: str = "utf-8",
    io: RealIO | None = None,
    fsync: bool = True,
    retries: int = 1,
    telemetry=None,
) -> None:
    """Commit *text* to *path* atomically, retrying transient faults.

    The whole temp-write-rename sequence is retried up to *retries*
    extra times, so a one-shot ``EIO`` / ``ENOSPC`` / fsync hiccup
    degrades to a successful (slightly slower) export instead of a
    missing artifact.  A persistent fault raises
    :class:`~repro.common.errors.ArtifactWriteError` with the target
    untouched.
    """
    attempts = max(0, retries) + 1
    last: ArtifactWriteError | None = None
    for attempt in range(attempts):
        try:
            with AtomicWriter(
                path, encoding=encoding, io=io, fsync=fsync
            ) as writer:
                writer.write(text)
            if telemetry is not None:
                outcome = "retried" if attempt else "committed"
                _note_artifact_write(telemetry, "atomic", outcome, path)
            return
        except ArtifactWriteError as error:
            last = error
    if telemetry is not None:
        _note_artifact_write(telemetry, "atomic", "failed", path)
    assert last is not None
    raise ArtifactWriteError(
        f"atomic write to {path} failed after {attempts} attempt(s): "
        f"{last}"
    ) from (last.__cause__ or last)


def ensure_artifact(path: str, *, io: RealIO | None = None) -> None:
    """Create an empty artifact at *path* without truncating one that
    already exists (append-mode open, immediately closed).

    The safe replacement for the ``open(path, "w").close()`` idiom: a
    crash between truncate and first write can no longer destroy a
    prior run's artifact, because there is no truncate.
    """
    io = _coerce_io(io)
    try:
        io.open(path, "ab").close()
    except OSError as error:
        raise ArtifactWriteError(
            f"could not create artifact {path}: {error}"
        ) from error


def _note_artifact_write(telemetry, kind: str, outcome: str, path: str) -> None:
    telemetry.metrics.get("repro_artifact_writes_total").labels(
        kind=kind, outcome=outcome
    ).inc()
    if outcome in ("retried", "failed"):
        telemetry.events.emit(
            "artifact_write", writer=kind, outcome=outcome, path=path
        )


# ----------------------------------------------------------------------
# Framed JSONL: frames, and the one writer that appends, recovers, cuts
# ----------------------------------------------------------------------


#: The encoder ``json.dumps(payload, sort_keys=True)`` builds per call.
_ENCODER = json.JSONEncoder(sort_keys=True)


def json_or_null(value: str | None) -> str:  # for one-pass framing
    return "null" if value is None else json_str(value)


def frame_bytes(data: bytes) -> bytes:
    """Put the length+CRC32 frame around one encoded JSON payload."""
    return b"%08x %08x %s\n" % (len(data), zlib.crc32(data), data)


def frame_record(payload: dict) -> bytes:
    """Encode one JSONL record with its length+CRC32 frame."""
    return frame_bytes(_ENCODER.encode(payload).encode("utf-8"))


def parse_frame(line: bytes) -> dict | list | None:
    """Decode one framed line; ``None`` when the frame check fails."""
    if line.endswith(b"\n"):
        line = line[:-1]
    if (
        len(line) < _FRAME_HEADER_LEN
        or line[8:9] != b" "
        or line[17:18] != b" "
    ):
        return None
    try:
        length = int(line[:8], 16)
        crc = int(line[9:17], 16)
    except ValueError:
        return None
    payload = line[_FRAME_HEADER_LEN:]
    if len(payload) != length or zlib.crc32(payload) != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, (dict, list)) else None


def scan_framed(data: bytes) -> tuple[list[dict], int]:
    """Decode the longest valid framed prefix of *data*.

    Returns ``(records, valid_bytes)``; scanning stops at the first
    line that fails the frame check (torn tail, flipped byte, appended
    garbage) or at trailing bytes without a newline.
    """
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline < 0:
            break
        record = parse_frame(data[pos:newline])
        if record is None:
            break
        records.append(record)
        pos = newline + 1
    return records, pos


class DurableJsonlWriter:
    """The one append handle on a framed JSONL file.

    Every framed log appends through one: the ownership journal, the
    client spool, the checkpoint record log, quarantine and the event
    log.  The file opens lazily: the first append (or a call of
    :meth:`recover` or :meth:`offset`) truncates a torn tail to the
    last complete record, so an untouched writer leaves no file.

    **One failure rule.**  :meth:`extend` writes a batch of frames with
    one write and one flush, all or nothing: a failed write or flush
    drops the handle and truncates the file, through the io seam, back
    to where the batch began.  The batch is then retried on a fresh
    handle up to *retries* times, and the last failure raises
    :class:`~repro.common.errors.ArtifactWriteError`.  A log whose
    caller already retries takes ``retries=0``.

    Nothing is fsynced except by :meth:`sync`; :meth:`close` only
    gives the handle back.  :meth:`rewrite` compacts atomically,
    :meth:`cut` rolls back to a pinned offset, :meth:`remove` deletes.
    The writer is its file's only appender: a reopen cuts the file to
    the offset the writer knows, which also finishes a failed rewind.
    """

    def __init__(
        self,
        path: str,
        *,
        retries: int = 1,
        io: RealIO | None = None,
        telemetry=None,
    ) -> None:
        self.path = path
        self.retries = max(0, retries)
        self.io = _coerce_io(io)
        self.telemetry = telemetry
        self._handle = None
        #: ``(bytes, records)`` the file holds; ``None`` until recovered.
        self._at: tuple[int, int] | None = None

    def _recover(self) -> list:
        """Read the file once, keep its intact prefix, cut the rest;
        return the prefix's records (none once recovered)."""
        if self._at is not None:
            return []
        if not os.path.exists(self.path):
            self._at = 0, 0
            return []
        with open(self.path, "rb") as handle:
            data = handle.read()
        records, valid = scan_framed(data)
        dropped = len(data) - valid
        if dropped:
            self._truncate(valid)
            if self.telemetry is not None:
                self.telemetry.metrics.get(
                    "repro_jsonl_recovered_bytes_total"
                ).inc(dropped)
                self.telemetry.events.emit(
                    "jsonl_recovery", path=self.path, dropped_bytes=dropped,
                    records=len(records),
                )
        self._at = valid, len(records)
        return records

    def _truncate(self, length: int) -> None:
        try:
            self.io.truncate(self.path, length)
        except OSError as error:
            raise ArtifactWriteError(
                f"could not truncate {self.path} to {length} bytes: {error}"
            ) from error

    def _open(self) -> None:
        """Hold the append handle on a file cut to the known offset."""
        if self._handle is not None:
            return
        self._recover()
        if _file_size(self.path) != self._at[0]:
            self._truncate(self._at[0])
        self._handle = self.io.open(self.path, "ab")

    def recover(self) -> list:
        """Recover the file and hand over the intact records it held.

        Only an owner that reads its log back (the journal, the client
        spool, :func:`~repro.observability.alerts.load_alerts`) calls
        this, first thing.  The writer keeps no copy: a writer already
        recovered, by an append, :meth:`offset` or :meth:`cut`, has
        none to hand over and returns ``[]``.
        """
        return self._recover()

    def offset(self) -> tuple[int, int]:
        """``(bytes, records)`` framed on disk: what a checkpoint pins."""
        self._recover()
        return self._at

    def append(self, payload: dict) -> None:
        """Frame and append one record: a batch of one."""
        self.extend([frame_record(payload)])

    def extend(self, frames: list[bytes]) -> None:
        """Append *frames* with one write and one flush, all or nothing."""
        if frames:
            data = b"".join(frames)
            self._retry(lambda: self._commit(data, len(frames)), "append to")

    def _commit(self, data: bytes, count: int) -> None:
        self._open()
        size, records = self._at
        try:
            self.io.write(self._handle, data)
            self.io.flush(self._handle)
        except OSError:
            self.close()
            self.io.truncate(self.path, size)
            raise
        self._at = size + len(data), records + count

    def sync(self) -> None:
        """Fsync the open handle, if any, retried like an append."""
        if self._handle is not None:
            self._retry(lambda: self.io.fsync(self._handle), "fsync")

    def _retry(self, op, what: str) -> None:
        for attempt in range(self.retries + 1):
            try:
                op()
            except OSError as error:  # ArtifactWriteError is one too
                last = error
                continue
            if attempt:
                self._note("retried")
            return
        self._note("failed")
        raise ArtifactWriteError(
            f"could not {what} {self.path}: {last}"
        ) from last

    def rewrite(self, frames: list[bytes]) -> None:
        """Atomically replace the file with exactly *frames*.

        The rename puts a new file in place, so the handle is dropped
        first: held across it, appends would land in the old inode.
        """
        self.close()
        atomic_write_text(
            self.path, b"".join(frames).decode("utf-8"), io=self.io
        )
        self._at = sum(map(len, frames)), len(frames)

    def cut(self, offset: tuple[int, int]) -> None:
        """Roll the file back to a pinned ``(bytes, records)`` *offset*
        and hold it open there (an empty file is created).  A pin past
        the valid bytes (the recovered offset, else the file's size) or
        off a frame boundary (only a newline ends a frame) raises
        :class:`~repro.common.errors.IntegrityError`, touching nothing.
        """
        self.close()
        pin = offset[0]
        valid = _file_size(self.path) if self._at is None else self._at[0]
        if pin > valid or (pin and not _ends_frame(self.path, pin)):
            raise IntegrityError(
                f"cannot cut {self.path} to {pin} of its {valid} valid "
                "bytes: the pin is past them or not a record boundary"
            )
        self._at = tuple(offset)
        self._open()
        if self.telemetry is not None and valid > pin:
            self.telemetry.events.emit(
                "jsonl_reconcile", path=self.path,
                dropped_bytes=valid - pin, records=offset[1],
            )

    def remove(self) -> None:
        """Delete the file; a later append starts a new one."""
        self.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)
        self._at = 0, 0

    def close(self) -> None:
        """Give the handle back (no fsync: call :meth:`sync` first)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            with contextlib.suppress(OSError):  # a failed write's buffer
                handle.close()

    def _note(self, outcome: str) -> None:
        if self.telemetry is not None:
            _note_artifact_write(self.telemetry, "jsonl", outcome, self.path)

    def __enter__(self) -> "DurableJsonlWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl_payloads(path: str) -> list[dict]:
    """Read a JSONL artifact, accepting framed and legacy plain lines.

    Framed lines must pass the CRC check; unframed lines fall back to
    plain ``json.loads`` so artifacts written before the durability
    layer (or by external tools) still load.  A line that is neither
    raises :class:`~repro.common.errors.IntegrityError`.
    """
    payloads: list[dict] = []
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle):
            line = raw.rstrip(b"\n")
            if not line:
                continue
            record = parse_frame(line)
            if record is None:
                try:
                    record = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as error:
                    raise IntegrityError(
                        f"{path}:{line_no}: line is neither a framed nor "
                        f"a plain JSONL record: {error}"
                    ) from error
            payloads.append(record)
    return payloads


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------


def _hash_file(path: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def _count_records(path: str, codec: str, size: int, pin) -> int | None:
    """Record count per the entry's codec (or its writer's *pin*)."""
    if codec == CODEC_OPAQUE:
        return None
    if pin is not None:
        if size != pin[0]:
            raise IntegrityError(f"artifact {path} holds {size} bytes, "
                                 f"not the {pin[0]} its writer pinned")
        return pin[1]
    with open(path, "rb") as handle:
        data = handle.read()
    if codec == CODEC_LINES:
        return data.count(b"\n")
    records, valid = scan_framed(data)
    if valid != len(data):
        raise IntegrityError(
            f"artifact {path} has {len(data) - valid} invalid trailing "
            f"bytes after {len(records)} framed records"
        )
    return len(records)


def artifact_entry(path: str, codec: str = CODEC_OPAQUE, pin=None) -> dict:
    """Measure one artifact: sha256 + bytes (+ records per codec)."""
    if codec not in ARTIFACT_CODECS:
        raise IntegrityError(
            f"unknown artifact codec {codec!r}; choose from "
            f"{ARTIFACT_CODECS}"
        )
    sha, size = _hash_file(path)
    entry = {"sha256": sha, "bytes": size, "codec": codec}
    records = _count_records(path, codec, size, pin)
    if records is not None:
        entry["records"] = records
    return entry


class RunManifest:
    """Integrity manifest of every artifact one run emitted.

    Built incrementally (:meth:`add` measures each artifact as it is
    registered), committed atomically at run end (:meth:`write`), and
    checked later by :func:`verify_manifest` / ``repro verify-run``.
    Artifact keys are paths; :meth:`write` relativizes them against
    the manifest's own directory so the artifact set can be archived
    and verified from anywhere.
    """

    def __init__(self, run: dict | None = None) -> None:
        self.run = dict(run or {})
        self.artifacts: dict[str, dict] = {}

    def add(self, path: str, *, codec: str = CODEC_OPAQUE, pin=None) -> dict:
        """Measure the artifact at *path* and record it."""
        entry = artifact_entry(path, codec, pin)
        self.artifacts[path] = entry
        return entry

    def to_dict(self, base_dir: str | None = None) -> dict:
        artifacts = {}
        for path, entry in sorted(self.artifacts.items()):
            key = (
                os.path.relpath(path, base_dir)
                if base_dir is not None
                else path
            )
            artifacts[key] = dict(entry)
        return {
            "version": MANIFEST_VERSION,
            "run": dict(self.run),
            "artifacts": artifacts,
        }

    def write(
        self,
        path: str,
        *,
        io: RealIO | None = None,
        telemetry=None,
    ) -> None:
        """Commit the manifest atomically next to its artifacts."""
        base_dir = os.path.dirname(os.path.abspath(path)) or "."
        text = json.dumps(
            self.to_dict(base_dir=base_dir), indent=2, sort_keys=True
        )
        atomic_write_text(path, text + "\n", io=io, telemetry=telemetry)


def load_manifest(path: str) -> dict:
    """Read a manifest file back, validating shape and version."""
    if not os.path.exists(path):
        raise IntegrityError(f"manifest not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise IntegrityError(
            f"could not read manifest {path}: {error}"
        ) from error
    if not isinstance(data, dict) or not isinstance(
        data.get("artifacts"), dict
    ):
        raise IntegrityError(f"manifest {path} is not a manifest object")
    version = data.get("version")
    if version != MANIFEST_VERSION:
        raise IntegrityError(
            f"manifest {path} has schema version {version!r}; this "
            f"runtime reads version {MANIFEST_VERSION}"
        )
    return data


@dataclass
class ManifestReport:
    """Outcome of verifying one manifest against the filesystem."""

    path: str
    checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> str:
        if self.ok:
            return (
                f"manifest {self.path}: {self.checked} artifact(s) verified"
            )
        lines = [
            f"manifest {self.path}: {len(self.problems)} problem(s) "
            f"across {self.checked} artifact(s)"
        ]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def verify_manifest(path: str) -> ManifestReport:
    """Re-hash every artifact a manifest covers.

    Any missing artifact, size drift, hash mismatch (a single flipped
    byte suffices), bad frame, or record-count change is reported as a
    problem; the report's :attr:`~ManifestReport.ok` drives the CLI's
    data-error exit code.
    """
    data = load_manifest(path)
    base_dir = os.path.dirname(os.path.abspath(path)) or "."
    report = ManifestReport(path=path)
    for name, expected in sorted(data["artifacts"].items()):
        report.checked += 1
        artifact_path = (
            name
            if os.path.isabs(name)
            else os.path.join(base_dir, name)
        )
        if not os.path.exists(artifact_path):
            report.problems.append(f"{name}: artifact missing")
            continue
        codec = expected.get("codec", CODEC_OPAQUE)
        try:
            actual = artifact_entry(artifact_path, codec)
        except IntegrityError as error:
            report.problems.append(f"{name}: {error}")
            continue
        for field_name in ("bytes", "sha256", "records"):
            if field_name not in expected and field_name not in actual:
                continue
            want = expected.get(field_name)
            got = actual.get(field_name)
            if want != got:
                report.problems.append(
                    f"{name}: {field_name} mismatch "
                    f"(manifest {want!r}, artifact {got!r})"
                )
    return report


def diff_manifests(
    path_a: str, path_b: str, *, ignore: tuple[str, ...] = ()
) -> list[str]:
    """Field-level differences between two manifests' artifact sets.

    Artifact keys whose basename is in *ignore* are skipped (used to
    exclude inherently run-varying artifacts like traces from the
    fault-free-equivalence check).  Returns an empty list when the
    surviving artifact entries agree on codec, bytes, sha256, and
    record counts — the certification that a crashed-and-resumed run
    reconverged with a fault-free one.
    """
    a = load_manifest(path_a)["artifacts"]
    b = load_manifest(path_b)["artifacts"]
    a = {k: v for k, v in a.items() if os.path.basename(k) not in ignore}
    b = {k: v for k, v in b.items() if os.path.basename(k) not in ignore}
    differences = []
    for name in sorted(set(a) - set(b)):
        differences.append(f"{name}: only in {path_a}")
    for name in sorted(set(b) - set(a)):
        differences.append(f"{name}: only in {path_b}")
    for name in sorted(set(a) & set(b)):
        for field_name in ("codec", "bytes", "sha256", "records"):
            want, got = a[name].get(field_name), b[name].get(field_name)
            if want != got:
                differences.append(
                    f"{name}: {field_name} differs ({want!r} vs {got!r})"
                )
    return differences
