"""Correctness oracles: every speed number travels with these checks.

Each oracle appends to a :class:`Verdict`: lines offered, lines that
failed (lost, duplicated, quarantined, never acked, or belonging to an
output that fails its check) and a human-readable problem per failure.
All floors and equalities are seed-independent.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

from repro.evaluation.fmeasure import f_measure, singletonize_outliers
from repro.resilience import verify_manifest
from repro.streaming import PENDING_EVENT_ID

ARTIFACT_SUFFIXES = (".events", ".structured")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def offer(self, lines: int) -> None:
        self.attempted += lines

    def fail(self, lines: int, problem: str) -> None:
        self.failed += max(1, lines)
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def accuracy(assignments, truth) -> float:
    """Pairwise F-measure with outliers scored as singletons (paper §IV)."""
    return f_measure(singletonize_outliers(assignments), truth)


def check_floor(verdict, what: str, value: float, floor: float, lines: int):
    if value < floor:
        verdict.fail(lines, f"{what}: F-measure {value:.4f} < floor {floor}")


def check_stream_result(verdict, result, counters, n: int) -> None:
    """Every line assigned: none pending, none dropped."""
    assignments = result.assignments
    pending = sum(1 for event in assignments if event == PENDING_EVENT_ID)
    if len(assignments) != n or counters.lines != n:
        verdict.fail(
            abs(n - len(assignments)),
            f"stream: {len(assignments)} assignments / {counters.lines} "
            f"counted for {n} lines",
        )
    if pending or counters.pending:
        verdict.fail(pending, f"stream: {pending} lines still PENDING")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(data_dir: str, tenants) -> dict[str, dict[str, str]]:
    """Tenant -> {suffix: sha256} of its ``out.events``/``out.structured``;
    a missing artifact hashes as ``"<missing>"``."""
    out: dict[str, dict[str, str]] = {}
    for tenant in tenants:
        out[tenant] = {}
        for suffix in ARTIFACT_SUFFIXES:
            path = os.path.join(data_dir, tenant, "out" + suffix)
            out[tenant][suffix] = (
                sha256_file(path) if os.path.exists(path) else "<missing>"
            )
    return out


def _count_lines(path: str) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


def check_service_outputs(verdict, data_dir: str, expected: dict[str, int]):
    """Exactly-once on disk: per-tenant ``out.structured`` holds exactly
    the lines offered, nothing was quarantined, every manifest verifies."""
    service_quarantine = os.path.join(data_dir, "service.quarantine.jsonl")
    rejects = _count_lines(service_quarantine)
    if rejects:
        verdict.fail(rejects, f"service quarantine holds {rejects} record(s)")
    on_disk = {
        name for name in os.listdir(data_dir)
        if os.path.isdir(os.path.join(data_dir, name))
    }
    for stray in sorted(on_disk - expected.keys()):
        verdict.fail(1, f"unexpected tenant directory {stray!r}")
    for tenant, want in sorted(expected.items()):
        base = os.path.join(data_dir, tenant)
        got = _count_lines(os.path.join(base, "out.structured"))
        if got != want:
            verdict.fail(
                abs(got - want),
                f"{tenant}: {got} structured lines for {want} offered "
                f"({'duplicated' if got > want else 'lost'})",
            )
        quarantined = _count_lines(os.path.join(base, "out.quarantine.jsonl"))
        if quarantined:
            verdict.fail(quarantined, f"{tenant}: {quarantined} quarantined")
        manifest = os.path.join(base, "out.manifest.json")
        if not os.path.exists(manifest):
            verdict.fail(want, f"{tenant}: no manifest")
            continue
        report = verify_manifest(manifest)
        if not report.ok:
            verdict.fail(
                want, f"{tenant}: manifest: " + "; ".join(report.problems[:3])
            )


def check_digests_equal(verdict, got, reference, expected: dict[str, int], what):
    """Artifacts byte-equal (by SHA-256) to the reference run's."""
    for tenant in sorted(reference):
        for suffix, want in reference[tenant].items():
            have = got.get(tenant, {}).get(suffix, "<missing>")
            if have != want or want == "<missing>":
                verdict.fail(
                    expected.get(tenant, 1),
                    f"{tenant}/out{suffix}: {what} digest {have[:12]} != "
                    f"reference {want[:12]}",
                )
