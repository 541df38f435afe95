"""The ``python -m repro.selfcheck`` CLI and the shared exit contract.

Both analysis CLIs (``repro.analyze``, ``repro.selfcheck``) follow the
convention in :mod:`repro.exitcodes`: 0 clean, 1 findings, 2 usage or
input error. CI scripts branch on these, so they are pinned here for
both tools.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.analyze.diagnostics import AnalysisReport, error
from repro.exitcodes import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE
from repro.selfcheck.__main__ import main

from tests.selfcheck.conftest import PACKAGE_ROOT, REPO_ROOT


def plant_bare_rename(tree):
    """Add an ``os.replace`` outside ``store/``: a writes-pass SC401."""
    tree.append("harness/figures.py", (
        "\n\ndef _swap(a, b):\n"
        "    os.replace(a, b)\n"
    ))


class TestSelfcheckCli:
    def test_clean_tree_exits_0(self, capsys):
        code = main([PACKAGE_ROOT, "--env-md", f"{REPO_ROOT}/ENV.md"])
        assert code == EXIT_CLEAN
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1(self, tree_copy, capsys):
        plant_bare_rename(tree_copy)
        code = main([tree_copy.root])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "SC401" in out

    def test_bad_root_exits_2(self, capsys):
        assert main(["/no/such/tree"]) == EXIT_USAGE
        assert "not a directory" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--frobnicate"])
        assert excinfo.value.code == EXIT_USAGE

    def test_json_report_shape(self, tree_copy, tmp_path, capsys):
        plant_bare_rename(tree_copy)
        out = tmp_path / "report.json"
        code = main([tree_copy.root, "--json", str(out)])
        assert code == EXIT_FINDINGS
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        # Every source file of the copied tree, whatever their number.
        assert payload["scanned"] == len(list(
            pathlib.Path(tree_copy.root).rglob("*.py")
        ))
        codes = {row["code"] for row in payload["active"]}
        assert "SC401" in codes
        row = payload["active"][0]
        assert set(row) == {
            "severity", "code", "path", "line", "context", "message"
        }

    def test_write_env_md_round_trips(self, tmp_path, capsys):
        target = tmp_path / "ENV.md"
        assert main([
            PACKAGE_ROOT, "--env-md", str(target), "--write-env-md",
        ]) == EXIT_CLEAN
        with open(f"{REPO_ROOT}/ENV.md", encoding="utf-8") as handle:
            assert target.read_text() == handle.read()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.selfcheck"],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


class TestSharedConvention:
    """repro.analyze honours the same exit codes (satellite contract)."""

    def test_analyze_findings_exit_1(self, monkeypatch, capsys):
        import repro.analyze.__main__ as analyze_main
        report = AnalysisReport(subject="fake")
        report.extend([error("fake-code", "synthetic failure")])
        monkeypatch.setattr(
            analyze_main, "check_app", lambda *a, **k: report
        )
        code = analyze_main.main(["--app", "Sort", "--config", "ISRF4"])
        assert code == EXIT_FINDINGS
        capsys.readouterr()

    def test_analyze_usage_exit_2(self):
        import repro.analyze.__main__ as analyze_main
        with pytest.raises(SystemExit) as excinfo:
            analyze_main.main(["--config", "NoSuchMachine"])
        assert excinfo.value.code == EXIT_USAGE
