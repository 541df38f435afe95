"""Framework behaviour: suppressions, contexts, run_selfcheck itself."""

from repro.selfcheck import run_selfcheck
from repro.selfcheck.core import SourceFile, SourceTree
from repro.selfcheck.driver import ALL_CODES

from tests.selfcheck.conftest import active_codes


def write(tmp_path, rel, text):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return str(tmp_path)


class TestSourceFile:
    def test_context_at_nested_scope(self, tmp_path):
        root = write(tmp_path, "mod.py", (
            "class Outer:\n"
            "    def method(self):\n"
            "        x = 1\n"
            "        return x\n"
            "\n"
            "def top():\n"
            "    pass\n"
        ))
        sf = SourceFile(root, "mod.py")
        assert sf.context_at(3) == "Outer.method"
        assert sf.context_at(7) == "top"
        assert sf.context_at(1) == "Outer"

    def test_suppression_in_string_is_ignored(self, tmp_path):
        root = write(tmp_path, "mod.py", (
            'DOC = "# selfcheck: disable=SC402"\n'
        ))
        sf = SourceFile(root, "mod.py")
        assert sf.suppressions == {}

    def test_suppression_comment_is_parsed(self, tmp_path):
        root = write(tmp_path, "mod.py", (
            "x = 1  # selfcheck: disable=SC301, SC302\n"
        ))
        sf = SourceFile(root, "mod.py")
        assert sf.suppressions == {1: {"SC301", "SC302"}}


class TestDriver:
    def test_parse_error_is_sc001(self, tmp_path):
        root = write(tmp_path, "broken.py", "def broken(:\n")
        report = run_selfcheck(root)
        assert active_codes(report) == {"SC001"}
        assert not report.ok

    def test_unknown_suppression_code_is_sc003(self, tmp_path):
        root = write(tmp_path, "mod.py", "x = 1  # selfcheck: disable=SC999\n")
        report = run_selfcheck(root)
        assert "SC003" in active_codes(report)

    def test_unused_suppression_is_sc002(self, tmp_path):
        root = write(tmp_path, "mod.py", "x = 1  # selfcheck: disable=SC301\n")
        report = run_selfcheck(root)
        assert "SC002" in active_codes(report)

    def test_suppression_absorbs_finding(self, tmp_path):
        # A bare write normally fires SC402 (outside store/); suppressed
        # it is silent, and the suppression itself counts as used.
        root = write(tmp_path, "mod.py", (
            "def dump(path, text):\n"
            '    with open(path, "w") as handle:'
            "  # selfcheck: disable=SC402\n"
            "        handle.write(text)\n"
        ))
        report = run_selfcheck(root)
        assert report.ok, [f.describe() for f in report.active]

    def test_every_emitted_code_is_declared(self, tmp_path):
        root = write(tmp_path, "mod.py", "import os\nos.rename('a', 'b')\n")
        report = run_selfcheck(root)
        for finding in report.active:
            assert finding.code in ALL_CODES


def test_tree_skips_pycache(tmp_path):
    write(tmp_path, "mod.py", "x = 1\n")
    write(tmp_path, "__pycache__/junk.py", "x = 1\n")
    tree = SourceTree(str(tmp_path))
    assert [sf.rel for sf in tree.files] == ["mod.py"]
