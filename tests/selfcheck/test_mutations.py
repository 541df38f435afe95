"""Mutation corpus: every selfcheck pass fires on the edit it exists for.

Each test copies the shipped ``src/repro`` tree, applies one plausible
bad edit, and asserts the expected code goes active. This is the
suite's proof that the passes test *real* contracts — a pass that
cannot catch its own mutation is decoration, not enforcement.
"""

from repro.selfcheck import run_selfcheck

from tests.selfcheck.conftest import REPO_ROOT, active_codes


def scan(tree, **kwargs):
    return run_selfcheck(tree.root, **kwargs)


class TestOverlayPass:
    def test_unregistered_env_read_is_sc201(self, tree_copy):
        tree_copy.append("harness/figures.py", (
            "\n\ndef secret_knob():\n"
            '    return os.environ.get("REPRO_SECRET_KNOB")\n'
        ))
        report = scan(tree_copy)
        assert any(
            f.code == "SC201" and "REPRO_SECRET_KNOB" in f.message
            for f in report.active
        )

    def test_unresolvable_env_name_is_sc202(self, tree_copy):
        tree_copy.append("harness/figures.py", (
            "\n\ndef dynamic_knob(suffix):\n"
            '    return os.environ.get("REPRO_" + suffix.upper())\n'
        ))
        assert "SC202" in active_codes(scan(tree_copy))

    def test_ghost_registry_entry_is_sc203(self, tree_copy):
        tree_copy.mutate("config/overlays.py",
                         'OVERLAYS: "tuple[EnvOverlay, ...]" = (', (
            'OVERLAYS: "tuple[EnvOverlay, ...]" = (\n'
            "    EnvOverlay(\n"
            '        name="REPRO_GHOST",\n'
            '        owner="repro.harness.figures",\n'
            '        doc="Registered but never read anywhere.",\n'
            '        example="REPRO_GHOST=1",\n'
            "        result_affecting=False,\n"
            "    ),"
        ))
        report = scan(tree_copy)
        assert any(
            f.code == "SC203" and "REPRO_GHOST" in f.message
            for f in report.active
        )

    def test_wrong_owner_is_sc203(self, tree_copy):
        tree_copy.mutate(
            "config/overlays.py",
            'owner="repro.harness.figures"',
            'owner="repro.kernel.interpreter"',
        )
        report = scan(tree_copy)
        assert any(
            f.code == "SC203" and "REPRO_SCALE" in f.message
            for f in report.active
        )

    def test_env_md_drift_is_sc204(self, tree_copy, tmp_path):
        env_md = tmp_path / "ENV.md"
        with open(f"{REPO_ROOT}/ENV.md", encoding="utf-8") as handle:
            env_md.write_text(handle.read() + "\nstray edit\n")
        report = scan(tree_copy, env_md_path=str(env_md))
        assert "SC204" in active_codes(report)

    def test_committed_env_md_matches_registry(self, tree_copy):
        report = scan(tree_copy, env_md_path=f"{REPO_ROOT}/ENV.md")
        assert "SC204" not in active_codes(report)

    def test_non_constant_registry_entry_is_sc205(self, tree_copy):
        tree_copy.mutate(
            "config/overlays.py",
            'name="REPRO_SCALE"',
            'name="REPRO_" + "SCALE"',
        )
        assert "SC205" in active_codes(scan(tree_copy))


class TestDeterminismPass:
    def test_wall_clock_is_sc301(self, tree_copy):
        tree_copy.append("machine/processor.py", (
            "\n\ndef _stamp():\n"
            "    import time\n"
            "    return time.time()\n"
        ))
        assert "SC301" in active_codes(scan(tree_copy))

    def test_global_rng_is_sc302(self, tree_copy):
        tree_copy.append("core/srf.py", (
            "\n\ndef _jitter():\n"
            "    import random\n"
            "    return random.random()\n"
        ))
        assert "SC302" in active_codes(scan(tree_copy))

    def test_unseeded_rng_construction_is_sc302(self, tree_copy):
        tree_copy.append("memory/dram.py", (
            "\n\ndef _rng():\n"
            "    import random\n"
            "    return random.Random()\n"
        ))
        assert "SC302" in active_codes(scan(tree_copy))

    def test_seeded_rng_is_allowed(self, tree_copy):
        tree_copy.append("memory/dram.py", (
            "\n\ndef _rng(seed):\n"
            "    import random\n"
            "    return random.Random(seed)\n"
        ))
        assert "SC302" not in active_codes(scan(tree_copy))

    def test_os_entropy_is_sc303(self, tree_copy):
        tree_copy.append("interconnect/crossbar.py", (
            "\n\ndef _token():\n"
            "    import os\n"
            "    return os.urandom(8)\n"
        ))
        assert "SC303" in active_codes(scan(tree_copy))

    def test_set_iteration_is_sc304(self, tree_copy):
        tree_copy.append("machine/executor.py", (
            "\n\ndef _drain(pending):\n"
            "    for item in set(pending):\n"
            "        yield item\n"
        ))
        assert "SC304" in active_codes(scan(tree_copy))

    def test_sorted_set_iteration_is_allowed(self, tree_copy):
        tree_copy.append("machine/executor.py", (
            "\n\ndef _drain(pending):\n"
            "    for item in sorted(set(pending)):\n"
            "        yield item\n"
        ))
        assert "SC304" not in active_codes(scan(tree_copy))

    def test_harness_may_read_clock(self, tree_copy):
        # The determinism scope is the simulated machine; wall-time in
        # the harness (provenance stamps, watchdogs) is legitimate.
        tree_copy.append("harness/figures.py", (
            "\n\ndef _stamp():\n"
            "    import time\n"
            "    return time.time()\n"
        ))
        assert "SC301" not in active_codes(scan(tree_copy))


class TestWritesPass:
    def test_rename_outside_store_is_sc401(self, tree_copy):
        tree_copy.append("harness/figures.py", (
            "\n\ndef _swap(a, b):\n"
            "    os.replace(a, b)\n"
        ))
        assert "SC401" in active_codes(scan(tree_copy))

    def test_bare_write_open_is_sc402(self, tree_copy):
        tree_copy.append("observe/export.py", (
            "\n\ndef _dump(path, text):\n"
            '    with open(path, "w") as handle:\n'
            "        handle.write(text)\n"
        ))
        assert "SC402" in active_codes(scan(tree_copy))

    def test_read_open_is_allowed(self, tree_copy):
        tree_copy.append("observe/export.py", (
            "\n\ndef _slurp(path):\n"
            "    with open(path, encoding='utf-8') as handle:\n"
            "        return handle.read()\n"
        ))
        assert "SC402" not in active_codes(scan(tree_copy))

    def test_bare_fsync_is_sc403(self, tree_copy):
        tree_copy.append("harness/figures.py", (
            "\n\ndef _sync(fd):\n"
            "    os.fsync(fd)\n"
        ))
        assert "SC403" in active_codes(scan(tree_copy))

    def test_store_is_exempt(self, tree_copy):
        tree_copy.append("store/atomic.py", (
            "\n\ndef _extra(a, b):\n"
            "    os.replace(a, b)\n"
        ))
        assert "SC401" not in active_codes(scan(tree_copy))


def test_shipped_tree_is_clean():
    """The zero-false-positive gate: the real tree scans clean."""
    import repro
    import os
    report = run_selfcheck(
        os.path.dirname(os.path.abspath(repro.__file__)),
        env_md_path=f"{REPO_ROOT}/ENV.md",
    )
    assert report.ok, [f.describe() for f in report.active]
