"""Tests for remaining edge branches across modules."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.common.errors import DatasetError
from repro.common.types import LogRecord
from repro.datasets.hdfs import HDFS_BANK, _event_id_of
from repro.datasets.base import Template
from repro.mining.pca import q_statistic_threshold
from repro.mining.verification import compare_deployments
from repro.parsers import OracleParser


class TestQStatisticDegenerateSpectra:
    def test_h0_nonpositive_falls_back(self):
        # theta3 huge relative to theta2 drives h0 <= 0.
        eigenvalues = np.array([10.0, 5.0, 0.001, 0.001, 5.0])
        # Construct residual with one dominant cube contribution.
        threshold = q_statistic_threshold(
            np.array([10.0, 4.0, 3.9999, 0.0001]), k=1
        )
        assert threshold > 0

    def test_all_zero_residual(self):
        assert q_statistic_threshold(
            np.array([5.0, 0.0, 0.0]), k=1
        ) == float("inf")

    def test_k_zero_uses_whole_spectrum(self):
        threshold = q_statistic_threshold(np.array([3.0, 2.0, 1.0]), k=0)
        assert np.isfinite(threshold)


    def test_default_quantile_is_the_double_scipy_returned(self):
        # statistics.NormalDist().inv_cdf(0.999) == scipy.stats.norm
        # .ppf(0.999) bit for bit, so Table III cannot move.
        residual = np.array([2.0, 1.0])
        t1, t2, t3 = residual.sum(), (residual**2).sum(), (residual**3).sum()
        h0 = 1.0 - 2.0 * t1 * t3 / (3.0 * t2**2)
        expected = t1 * (
            3.090232306167813 * np.sqrt(2.0 * t2 * h0**2) / t1
            + 1.0 + t2 * h0 * (h0 - 1.0) / t1**2
        ) ** (1.0 / h0)
        spectrum = np.array([3.0, 2.0, 1.0])
        assert q_statistic_threshold(spectrum, k=1) == expected

    def test_importing_the_program_does_not_import_scipy(self):
        # scipy.stats was ~45 MiB of heap in the CLI, the bench and
        # (by fork) every shard worker, for one normal quantile.
        code = "import sys, repro.cli; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", code], env=env)
        assert done.returncode == 0


class TestHdfsEventRecovery:
    def test_known_line_recovers_id(self):
        truth = HDFS_BANK.truth_templates()
        line = "Verification succeeded for blk_123"
        assert _event_id_of(line, truth) == "E6"

    def test_unknown_line_raises(self):
        truth = HDFS_BANK.truth_templates()
        with pytest.raises(DatasetError):
            _event_id_of("completely unknown line shape", truth)


class TestTemplateValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(DatasetError):
            Template("X", "some pattern", weight=0)

    def test_unknown_placeholder_rejected(self):
        with pytest.raises(DatasetError):
            Template("X", "value <nosuchkind> here")

    def test_truth_template_masks_embedded_placeholder(self):
        template = Template("X", "src: /<ip>:<port> ok")
        assert template.truth_template == "src: * ok"


class TestCliParserSpecificFlags:
    def test_parse_logsig_with_groups(self, tmp_path, capsys):
        raw = str(tmp_path / "x.log")
        main(["generate", "Proxifier", raw, "--size", "120", "--seed", "1"])
        assert main(
            ["parse", "LogSig", raw, "--groups", "8", "--seed", "1"]
        ) == 0
        assert "LogSig" in capsys.readouterr().out

    def test_parse_lke(self, tmp_path, capsys):
        raw = str(tmp_path / "x.log")
        main(["generate", "Proxifier", raw, "--size", "100", "--seed", "2"])
        assert main(["parse", "LKE", raw, "--seed", "1"]) == 0
        assert "LKE" in capsys.readouterr().out

    def test_parse_slct_support_flag(self, tmp_path, capsys):
        raw = str(tmp_path / "x.log")
        main(["generate", "Zookeeper", raw, "--size", "200", "--seed", "3"])
        assert main(["parse", "SLCT", raw, "--support", "0.02"]) == 0
        assert "SLCT" in capsys.readouterr().out


class TestVerificationSignatureValidation:
    def test_bad_signature_rejected(self):
        records = [
            LogRecord(content="a", session_id="s", truth_event="a"),
        ]
        parsed = OracleParser().parse(records)
        with pytest.raises(ValueError):
            compare_deployments(parsed, parsed, signature="bogus")


class TestStructuredFileLines:
    def test_fields_tab_separated(self):
        records = [
            LogRecord(
                content="x y", timestamp="t0", session_id="s0",
                truth_event="E1",
            )
        ]
        parsed = OracleParser().parse(records)
        line = parsed.structured_file_lines()[0]
        assert line.split("\t") == ["0", "t0", "s0", "E1"]
