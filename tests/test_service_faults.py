"""Fault-injected certification of the multi-tenant service.

* **Noisy-neighbor isolation** — a seeded network-fault storm plus a
  corrupt flood on tenant A must leave tenants B and C with artifacts
  whose manifests match a fault-free run that never saw A at all,
  while A's garbage sits in A's own quarantine with provenance and
  the fragments A's torn lines leave sit in the service's
  ``protocol`` quarantine.
* **Graceful drain and SIGKILL** — rows of the certification matrix
  (``tests/certify.py``) run here under the ids they had before it:
  a SIGTERMed or SIGKILLed ``serve`` resumes to a calm run's
  manifests, and a worker killed mid-drain restarts and finalizes.
* **Interrupted stream** — SIGTERM against a ``stream`` subprocess
  exits ``128+15`` with a finalized checkpoint and manifest, and a
  ``--resume`` run completes cleanly from it.

A's fault storm is seeded; CI sweeps ``REPRO_NET_SEED`` so different
partition/half-close/duplicate/reorder/ack-drop scripts all certify
the same invariants.
"""

import json
import signal
import subprocess
import sys
import time

import certify
from certify import NET_SEED, factory, send_v1, tagged, tenant_lines
from repro.cli import main
from repro.resilience import NET_KINDS, NetworkFault, fault_schedule
from repro.resilience.durability import read_jsonl_payloads
from repro.service import DurableSender, IngestionService, LineServer


class TestNoisyNeighborIsolation:
    """Tenant A floods and faults; B and C must not notice."""

    NEIGHBORS = tenant_lines("tenant-b", 80) + tenant_lines("tenant-c", 60)

    def _faulty_run(self, tmp_path) -> tuple[dict, list[NetworkFault]]:
        """B and C clean over raw v1 sockets; A floods through a
        seeded fault storm from an exactly-once v2 sender."""
        service = IngestionService(
            str(tmp_path / "faulty"), factory(), protocol="v2"
        )
        with LineServer(service) as server:
            # A: every third line carries control bytes the screen
            # rejects; n >= len(NET_KINDS), so every kind is scheduled.
            # A flushes line by line, so a cut line reaches the server
            # alone: a torn tail that shares a read with lines still
            # owed an ack is dropped with the ack when the peer resets.
            schedule = fault_schedule(
                NetworkFault, NET_SEED, n=len(NET_KINDS), span=90
            )
            with DurableSender(
                server.host, server.port, "tenant-a-client",
                str(tmp_path / "a.spool.jsonl"),
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
            for tenant in ("tenant-b", "tenant-c"):
                send_v1(server.port, tagged(
                    pair for pair in self.NEIGHBORS if pair[0] == tenant
                ))

            certify.wait_for(lambda: (
                {"tenant-b", "tenant-c"} <= set(service.tenants())
                and service.shard("tenant-b").seen >= 80
                and service.shard("tenant-c").seen >= 60
            ))
        return service.drain(), schedule

    def test_b_and_c_byte_identical_to_fault_free_run(self, tmp_path):
        faulty_dir = tmp_path / "faulty"
        faulty, schedule = self._faulty_run(tmp_path)

        # The storm covered every kind, and A's stream landed exactly
        # once through it: 60 parseable lines, 30 quarantined.
        assert {fault.kind for fault in schedule} == set(NET_KINDS)
        assert faulty["tenants"]["tenant-a"]["lines"] == 60
        assert faulty["tenants"]["tenant-b"]["lines"] == 80
        assert faulty["tenants"]["tenant-c"]["lines"] == 60

        # Certification: B's and C's manifests agree with a run that
        # never saw A, artifact by artifact.
        certify.compare(
            faulty_dir,
            certify.calm_run(tmp_path, self.NEIGHBORS),
            ["tenant-b", "tenant-c"],
        )

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
    def test_sigterm_drains_and_resumed_serve_continues(
        self, tmp_path, calm_root
    ):
        certify.certify("thread-v1-service-sigterm", tmp_path, calm_root)

    def test_drain_after_exits_zero_without_signal(self, tmp_path):
        data = tmp_path / "data"
        with certify.serving(data, "--drain-after", "25") as (proc, port):
            send_v1(port, tagged(tenant_lines("alpha", 25)))
            out, _ = proc.communicate(timeout=60)
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
            env=certify.env_with_src(),
            cwd=certify.REPO_ROOT,
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
        completed = certify.run_cli(*argv[3:], "--resume", timeout=300)
        assert completed.returncode == 0, completed.stdout
        final = json.loads(checkpoint.read_text())["records_consumed"]
        assert final == 120000


class TestSigkillDuringDrain:
    """SIGKILL while draining: restart, resume, identical manifests."""

    def test_process_mode_worker_killed_mid_drain(self, tmp_path, calm_root):
        certify.certify("process-v1-kill-at-drain", tmp_path, calm_root)

    def test_thread_mode_serve_killed_then_resumed(self, tmp_path, calm_root):
        certify.certify("thread-v1-service-sigkill", tmp_path, calm_root)

    def test_process_mode_subprocess_sigterm_drains_workers(
        self, tmp_path, calm_root
    ):
        certify.certify("process-v1-service-sigterm", tmp_path, calm_root)
