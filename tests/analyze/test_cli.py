"""The ``python -m repro.analyze`` CLI and the harness ``check`` hook."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analyze.__main__ import main
from repro.exitcodes import EXIT_BROKEN_PIPE
from repro.harness.runner import EXPERIMENTS


class TestMain:
    def test_single_app_single_config_is_clean(self, capsys):
        assert main(["--app", "Sort", "--config", "ISRF4"]) == 0
        out = capsys.readouterr().out
        assert "Sort" in out
        assert "static analysis clean" in out

    def test_verbose_prints_notes(self, capsys):
        assert main(["--app", "Rijndael", "--config", "ISRF4", "-v"]) == 0
        out = capsys.readouterr().out
        assert "bounds-summary" in out

    def test_unknown_config_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--config", "NoSuchMachine"])
        assert excinfo.value.code == 2

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            main(["--app", "NoSuchApp"])


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analyze",
         "--app", "FFT 2D", "--config", "Base"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "static analysis clean" in proc.stdout


def test_closed_stdout_ends_without_traceback(tmp_path):
    """``python -m repro.analyze | head -1`` exits quietly."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.analyze"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )),
    )
    # Unbuffered, the first app x preset line arrives while the other
    # 47 are still being analysed, and their lines meet a closed pipe.
    assert proc.stdout.readline().startswith(b"[ok  ]")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=300)
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == EXIT_BROKEN_PIPE


def test_check_experiment_is_registered():
    assert "check" in EXPERIMENTS
