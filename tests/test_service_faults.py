"""Fault-injected certification of the multi-tenant service.

Three contracts from the service model:

* **Noisy-neighbor isolation** — a seeded network-fault storm plus a
  corrupt flood on tenant A must leave tenants B and C with artifacts
  *byte-identical* to a fault-free run that never saw A at all
  (certified through ``verify-run --against``), while A's garbage sits
  in A's own quarantine with provenance and the fragments A's torn
  lines leave sit in the service's ``protocol`` quarantine.
* **Graceful drain** — SIGTERM against a live ``serve`` subprocess
  finalizes every tenant's checkpoint and manifest and exits 0; a
  resumed service replaying the full stream continues with no
  duplicates and no loss.
* **Interrupted stream** — SIGTERM against a ``stream`` subprocess
  exits ``128+15`` with a finalized checkpoint and manifest, and a
  ``--resume`` run completes cleanly from it.

A's fault storm is seeded; CI sweeps ``REPRO_NET_SEED`` so different
partition/half-close/duplicate/reorder/ack-drop scripts all certify
the same invariants.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

from repro.cli import main
from repro.parsers import make_parser
from repro.resilience import (
    NET_KINDS,
    NetworkFault,
    ProcessFault,
    diff_manifests,
    fault_schedule,
    verify_manifest,
)
from repro.resilience.faults import PROC_KILL
from repro.resilience.durability import read_jsonl_payloads
from repro.service import (
    DurableSender,
    IngestionService,
    LineServer,
    replay_lines,
)

#: CI sweeps this; local runs use the default.
NET_SEED = int(os.environ.get("REPRO_NET_SEED", "7"))

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env_with_src() -> dict:
    env = os.environ.copy()
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _factory():
    return make_parser("Drain")


def _tenant_lines(tenant: str, n: int, start: int = 0) -> list[str]:
    return [
        f"{tenant}\tConnection from 10.0.{start + i}.{i % 7} "
        f"port {3000 + start + i} established"
        for i in range(n)
    ]


class TestNoisyNeighborIsolation:
    """Tenant A floods and faults; B and C must not notice."""

    B_LINES = 80
    C_LINES = 60

    def _clean_run(self, data_dir: str) -> dict:
        """Fault-free reference: only B and C, in-process."""
        service = IngestionService(str(data_dir), _factory)
        replay_lines(
            service,
            _tenant_lines("tenant-b", self.B_LINES)
            + _tenant_lines("tenant-c", self.C_LINES),
        )
        return service.drain()

    def _faulty_run(self, tmp_path) -> tuple[dict, list[NetworkFault]]:
        """B and C clean over raw v1 sockets; A floods through a
        seeded fault storm from an exactly-once v2 sender."""
        service = IngestionService(
            str(tmp_path / "faulty"), _factory, protocol="v2"
        )
        with LineServer(service) as server:
            addr = (server.host, server.port)
            # A: every third line carries control bytes the screen
            # rejects; n >= len(NET_KINDS), so every kind is scheduled.
            # A flushes line by line, so a cut line reaches the server
            # alone: a torn tail that shares a read with lines still
            # owed an ack is dropped with the ack when the peer resets.
            schedule = fault_schedule(
                NetworkFault, NET_SEED, n=len(NET_KINDS), span=90
            )
            with DurableSender(
                *addr, "tenant-a-client", str(tmp_path / "a.spool.jsonl"),
                faults=schedule, base_backoff=0.01, max_backoff=0.05,
            ) as sender:
                for i in range(90):
                    sender.send(
                        "tenant-a",
                        f"corrupt \x00\x01 blob {i}" if i % 3 == 0
                        else f"flood line {i} from attacker",
                    )
                    sender.flush(timeout=60.0)
                # Every line went out at least once: every fault fired.
                assert sender._tx_index > max(f.at_line for f in schedule)

            # B and C: ordinary well-behaved v1 clients.
            for tenant, count in (
                ("tenant-b", self.B_LINES), ("tenant-c", self.C_LINES),
            ):
                conn = socket.create_connection(addr, timeout=5)
                payload = "".join(
                    line + "\n" for line in _tenant_lines(tenant, count)
                )
                conn.sendall(payload.encode())
                conn.close()

            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                shards = service.tenants()
                if (
                    "tenant-b" in shards
                    and "tenant-c" in shards
                    and service.shard("tenant-b").seen >= self.B_LINES
                    and service.shard("tenant-c").seen >= self.C_LINES
                ):
                    break
                time.sleep(0.05)
        return service.drain(), schedule

    def test_b_and_c_byte_identical_to_fault_free_run(self, tmp_path):
        clean_dir = tmp_path / "clean"
        faulty_dir = tmp_path / "faulty"
        clean = self._clean_run(clean_dir)
        faulty, schedule = self._faulty_run(tmp_path)

        # The storm covered every kind, and A's stream landed exactly
        # once through it: 60 parseable lines, 30 quarantined.
        assert {fault.kind for fault in schedule} == set(NET_KINDS)
        assert faulty["tenants"]["tenant-a"]["lines"] == 60

        # B and C consumed their full streams in both runs.
        for summary in (clean, faulty):
            assert summary["tenants"]["tenant-b"]["lines"] == self.B_LINES
            assert summary["tenants"]["tenant-c"]["lines"] == self.C_LINES

        # Certification: manifests agree artifact-by-artifact.  The
        # checkpoint is excluded — it embeds the engine's template
        # cache, whose LRU order legitimately differs — but the parse
        # outputs (.events/.structured) must match to the byte.
        for tenant in ("tenant-b", "tenant-c"):
            code = main(
                [
                    "verify-run",
                    str(faulty_dir / tenant / "out.manifest.json"),
                    "--against",
                    str(clean_dir / tenant / "out.manifest.json"),
                    "--ignore", "out.checkpoint.json",
                ]
            )
            assert code == 0, f"{tenant} diverged from the fault-free run"

        # A's garbage is in A's own quarantine, with provenance.
        a_quarantine = faulty_dir / "tenant-a" / "out.quarantine.jsonl"
        assert a_quarantine.exists()
        payloads = read_jsonl_payloads(str(a_quarantine))
        assert len(payloads) == 30, "each corrupt line, exactly once"
        assert all(
            record["source"] == "tenant:tenant-a" for record in payloads
        )
        # The partition and half-close cuts left torn fragments; each
        # is a service-level protocol record, never a tenant record.
        fragments = [
            record
            for record in read_jsonl_payloads(
                str(faulty_dir / "service.quarantine.jsonl")
            )
            if record["reason"] == "protocol"
        ]
        assert fragments, "no torn fragment reached the protocol quarantine"
        assert all(
            record["source"].startswith("tcp:") for record in fragments
        )
        # Nothing of A's leaked into B's or C's space.
        for tenant in ("tenant-b", "tenant-c"):
            assert not (
                faulty_dir / tenant / "out.quarantine.jsonl"
            ).exists()
            structured = (faulty_dir / tenant / "out.structured").read_text()
            assert "attacker" not in structured
            assert "corrupt" not in structured


class TestGracefulDrainSubprocess:
    """Kill a real serve process; certify drain + resume."""

    def _serve(self, data_dir: str, *extra: str) -> subprocess.Popen:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                str(data_dir), *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )

    def _send(self, port: int, lines: list[str]) -> None:
        conn = socket.create_connection(("127.0.0.1", port), timeout=10)
        conn.sendall("".join(line + "\n" for line in lines).encode())
        conn.close()

    def test_sigterm_drains_and_resumed_serve_continues(self, tmp_path):
        data = tmp_path / "data"
        part1 = _tenant_lines("alpha", 40) + _tenant_lines("beta", 30)
        part2 = _tenant_lines("alpha", 20, start=40) + _tenant_lines(
            "beta", 25, start=30
        )

        proc = self._serve(data)
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on "), banner
            port = int(banner.rsplit(":", 1)[1])
            self._send(port, part1)
            time.sleep(1.0)  # let the reader threads consume
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "shutdown requested; draining" in out
        for tenant in ("alpha", "beta"):
            assert (data / tenant / "out.checkpoint.json").exists()
            assert (data / tenant / "out.manifest.json").exists()
            assert main(
                ["verify-run", str(data / tenant / "out.manifest.json")]
            ) == 0

        # Resume: the at-least-once source replays the FULL stream;
        # the adopted shards skip what their checkpoints already hold.
        replay = tmp_path / "full_stream.log"
        replay.write_text(
            "".join(line + "\n" for line in part1 + part2)
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                str(data), "--replay", str(replay),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stdout
        assert "adopted 2 tenant(s)" in completed.stdout
        assert "replayed=" in completed.stdout

        # No duplicates, no loss: exactly the full per-tenant streams.
        alpha = (data / "alpha" / "out.structured").read_text().splitlines()
        beta = (data / "beta" / "out.structured").read_text().splitlines()
        assert len(alpha) == 60
        assert len(beta) == 55

    def test_drain_after_exits_zero_without_signal(self, tmp_path):
        data = tmp_path / "data"
        lines = _tenant_lines("alpha", 25)
        proc = self._serve(data, "--drain-after", "25")
        try:
            banner = proc.stdout.readline()
            port = int(banner.rsplit(":", 1)[1])
            self._send(port, lines)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "shutdown requested" not in out
        assert (data / "alpha" / "out.manifest.json").exists()


class TestInterruptedStreamSubprocess:
    """SIGTERM against ``stream``: checkpoint + manifest, exit 143."""

    def test_sigterm_finalizes_and_resume_completes(self, tmp_path):
        checkpoint = tmp_path / "stream.ckpt"
        manifest = tmp_path / "run.manifest.json"
        argv = [
            sys.executable, "-m", "repro", "stream", "Drain",
            "--dataset", "HDFS", "--size", "120000", "--seed", "7",
            "--checkpoint", str(checkpoint),
            "--checkpoint-every", "2000",
            "--manifest-out", str(manifest),
        ]
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        try:
            time.sleep(2.0)  # mid-stream
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 128 + signal.SIGTERM, out
        assert "shutdown requested by SIGTERM" in out
        assert checkpoint.exists()
        # The finally-block exporter still committed the manifest, and
        # it verifies: interrupted runs leave auditable artifacts.
        assert manifest.exists()
        assert main(["verify-run", str(manifest)]) == 0
        consumed = json.loads(checkpoint.read_text())["records_consumed"]
        assert 0 < consumed < 120000

        # The interrupted run's checkpoint resumes to completion.
        completed = subprocess.run(
            argv + ["--resume"],
            capture_output=True,
            text=True,
            timeout=300,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stdout
        final = json.loads(checkpoint.read_text())["records_consumed"]
        assert final == 120000


class TestSigkillDuringDrain:
    """SIGKILL while draining: restart, resume, identical manifests.

    Process mode kills the *worker* exactly when it receives the drain
    request (the supervisor restarts it, careful-replays, and
    re-drains); thread mode SIGKILLs the whole serve process — no
    drain runs at all — and a resumed serve finalizes from the
    checkpoints.  Both must converge on artifacts whose manifests
    match a fault-free run (`verify_manifest` + `diff_manifests`).
    """

    def _manifests_match(self, got: str, want: str) -> None:
        assert verify_manifest(got).ok
        assert verify_manifest(want).ok
        differences = diff_manifests(
            got, want, ignore=("out.checkpoint.json",)
        )
        assert differences == [], differences

    def test_process_mode_worker_killed_mid_drain(self, tmp_path):
        lines = _tenant_lines("alpha", 40) + _tenant_lines("beta", 30)

        calm_dir = tmp_path / "calm"
        calm = IngestionService(
            str(calm_dir), _factory, parser_name="Drain"
        )
        replay_lines(calm, lines)
        calm.drain()

        faulty_dir = tmp_path / "faulty"
        service = IngestionService(
            str(faulty_dir), _factory, parser_name="Drain",
            isolation="process",
            worker_kwargs=dict(
                faults={
                    "alpha": (ProcessFault(PROC_KILL, at_drain=True),)
                },
                checkpoint_every=8,
                heartbeat_interval=0.02,
                watchdog=0.4,
            ),
        )
        replay_lines(service, lines)
        summary = service.drain()
        assert summary["tenants"]["alpha"]["restarts"] == 1
        assert summary["tenants"]["beta"]["restarts"] == 0
        for tenant in ("alpha", "beta"):
            self._manifests_match(
                str(faulty_dir / tenant / "out.manifest.json"),
                str(calm_dir / tenant / "out.manifest.json"),
            )

    def test_thread_mode_serve_killed_then_resumed(self, tmp_path):
        lines = _tenant_lines("alpha", 40) + _tenant_lines("beta", 30)

        calm_dir = tmp_path / "calm"
        calm = IngestionService(
            str(calm_dir), _factory, parser_name="Drain"
        )
        replay_lines(calm, lines)
        calm.drain()

        data = tmp_path / "data"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                str(data),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on "), banner
            port = int(banner.rsplit(":", 1)[1])
            conn = socket.create_connection(("127.0.0.1", port), timeout=10)
            conn.sendall(
                "".join(line + "\n" for line in lines).encode()
            )
            conn.close()
            time.sleep(1.0)  # let the shards consume
            proc.send_signal(signal.SIGKILL)
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL

        # No drain ran; the at-least-once source replays the full
        # stream and the adopted shards skip what checkpoints cover.
        replay = tmp_path / "full_stream.log"
        replay.write_text("".join(line + "\n" for line in lines))
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                str(data), "--replay", str(replay),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stdout
        for tenant in ("alpha", "beta"):
            self._manifests_match(
                str(data / tenant / "out.manifest.json"),
                str(calm_dir / tenant / "out.manifest.json"),
            )

    def test_process_mode_subprocess_sigterm_drains_workers(self, tmp_path):
        """The serve subprocess path: SIGTERM with --isolation process
        joins every worker and finalizes every manifest."""
        data = tmp_path / "data"
        lines = _tenant_lines("alpha", 30) + _tenant_lines("beta", 20)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "Drain",
                str(data), "--isolation", "process",
                "--checkpoint-every", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env_with_src(),
            cwd=REPO_ROOT,
        )
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving on "), banner
            port = int(banner.rsplit(":", 1)[1])
            conn = socket.create_connection(("127.0.0.1", port), timeout=10)
            conn.sendall("".join(line + "\n" for line in lines).encode())
            conn.close()
            time.sleep(1.5)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, out
        assert "shutdown requested; draining" in out
        for tenant in ("alpha", "beta"):
            manifest = data / tenant / "out.manifest.json"
            assert manifest.exists(), out
            assert verify_manifest(str(manifest)).ok
        structured = (data / "alpha" / "out.structured").read_text()
        assert len(structured.splitlines()) == 30
