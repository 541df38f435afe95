"""Chaos tests: SIGKILLed sweeps converge, corrupt traces degrade.

The in-repo counterpart of ``tools/chaos_sweep.py``: a sweep of
deterministic experiments is SIGKILLed mid-run several times and
rerun on the same cache directory; the merged results must be
bit-identical to an uninterrupted run, and a further rerun must serve
every experiment without executing any. The trace-bundle test pins
the end-to-end corruption story for the replay store: a garbage bundle
is quarantined and the run falls back to fresh execution with
bit-identical stats.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

from repro.config.presets import isrf4_config
from repro.machine import replay
from repro.machine.replay import TraceStore
from repro.store.chaos import CHAOS_ENV
from tests.machine.test_golden_stats import fingerprint
from tests.machine.workloads import RUNNERS

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")

#: A sweep of deterministic fakes, each slow enough for kills to land
#: mid-run. Every run shares one cache directory, so a rerun serves
#: what earlier runs finished.
SWEEP_SCRIPT = textwrap.dedent("""
    import json, sys, time
    sys.path.insert(0, sys.argv[1])
    from repro.harness import runner

    cache_dir, out, exec_log = sys.argv[2], sys.argv[3], sys.argv[4]

    def make(name, duration):
        def fake():
            with open(exec_log, "a") as handle:
                handle.write(name + "\\n")
            time.sleep(duration)
            return {"text": f"{name} finished",
                    "value": sum(ord(c) for c in name)}
        return fake

    runner.EXPERIMENTS = {
        name: make(name, 0.4)
        for name in ("chaosa", "chaosb", "chaosc", "chaosd")
    }
    print("ready", flush=True)
    results, timings = runner.run_many(
        list(runner.EXPERIMENTS), jobs=2, cache_dir=cache_dir,
    )
    with open(out, "w") as handle:
        json.dump(results, handle, sort_keys=True)
""")


def run_sweep(cache_dir, out, exec_log, kill_after=None):
    """One sweep process; optionally SIGKILL it ``kill_after`` seconds
    after it reports ready. Returns (returncode_or_None, killed)."""
    proc = subprocess.Popen(
        [sys.executable, "-c", SWEEP_SCRIPT, SRC, cache_dir, out,
         exec_log],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        if kill_after is None:
            proc.wait(timeout=120)
            return proc.returncode, False
        try:
            proc.wait(timeout=kill_after)
            return proc.returncode, False
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, True
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


class TestKilledSweepConverges:
    def test_sigkilled_and_resumed_matches_uninterrupted(self, tmp_path):
        names = ["chaosa", "chaosb", "chaosc", "chaosd"]
        # Ground truth: one uninterrupted run.
        code, killed = run_sweep(
            str(tmp_path / "ref-cache"), str(tmp_path / "ref.json"),
            str(tmp_path / "ref.log"),
        )
        assert code == 0 and not killed
        with open(tmp_path / "ref.json") as handle:
            reference = json.load(handle)

        # Chaos: SIGKILL the sweep at several points, then finish it.
        cache_dir = str(tmp_path / "chaos-cache")
        out = str(tmp_path / "chaos.json")
        log = str(tmp_path / "chaos.log")
        kills = 0
        for delay in (0.5, 0.9, 0.7):
            _, killed = run_sweep(cache_dir, out, log, kill_after=delay)
            if not killed:
                break
            kills += 1
        code, killed = run_sweep(cache_dir, out, log)
        assert code == 0 and not killed
        with open(out) as handle:
            resumed = json.load(handle)

        # Bit-identical merged results, no experiment lost.
        assert resumed == reference
        assert set(resumed) == set(names)

        # Interrupted attempts may re-run (their completion was never
        # stored), but each name needs at most kills+1 executions.
        with open(log) as handle:
            ran = [line.strip() for line in handle if line.strip()]
        for name in names:
            assert 1 <= ran.count(name) <= kills + 1

        # One more run serves everything: it executes nothing and
        # returns the reference.
        code, killed = run_sweep(cache_dir, out, log)
        assert code == 0 and not killed
        with open(out) as handle:
            assert json.load(handle) == reference
        with open(log) as handle:
            assert [line.strip() for line in handle
                    if line.strip()] == ran

    def test_sigterm_drained_sweep_rerun_serves_stored(self, tmp_path):
        """The parent stores each result before launching the next
        experiment, so once the fourth has started (jobs=2), two are
        stored: the rerun after a SIGTERM drain serves them."""
        names = ["chaosa", "chaosb", "chaosc", "chaosd"]
        cache_dir = str(tmp_path / "cache")
        out = str(tmp_path / "out.json")
        log = tmp_path / "exec.log"
        proc = subprocess.Popen(
            [sys.executable, "-c", SWEEP_SCRIPT, SRC, cache_dir, out,
             str(log)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and (
                    not log.exists()
                    or len(log.read_text().split()) < len(names)):
                time.sleep(0.02)
            proc.terminate()  # SIGTERM: drained, not finished
            proc.wait(timeout=30)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        ran = log.read_text().split()
        assert sorted(ran) == names

        code, killed = run_sweep(cache_dir, out, str(log))
        assert code == 0 and not killed
        rerun = log.read_text().split()[len(ran):]
        assert len(rerun) <= len(names) - 2
        with open(out) as handle:
            assert set(json.load(handle)) == set(names)


class TestCorruptTraceBundle:
    """Satellite: a torn replay trace degrades to fresh execution."""

    def record(self, store, config):
        with replay.session(store, "fft", config, "test") as sess:
            result = RUNNERS["fft"](config).require_verified()
            assert sess.mode == "record"
        return result

    def test_quarantined_then_reexecuted_bit_identically(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = isrf4_config(timing_source="replay")
        recorded = self.record(store, config)
        key = store.key("fft", config, "test")
        bundle_path = store._store.path(key)
        assert os.path.exists(bundle_path)

        # Tear the bundle: garbage bytes where gzip pickle should be.
        with open(bundle_path, "wb") as handle:
            handle.write(b"\x1f\x8b garbage, not a bundle")

        # The next session must fall back to fresh execution (record
        # mode), quarantine the torn bundle, and produce stats
        # bit-identical to the original run.
        with replay.session(store, "fft", config, "test") as sess:
            reexecuted = RUNNERS["fft"](config).require_verified()
            assert sess.mode == "record"
        assert fingerprint(reexecuted.stats) == \
            fingerprint(recorded.stats)
        assert store.stats()["quarantined"] >= 1

        # The re-recorded bundle is good again: replay mode resumes.
        with replay.session(store, "fft", config, "test") as sess:
            replayed = RUNNERS["fft"](config).require_verified()
            assert sess.mode == "replay"
        assert fingerprint(replayed.stats) == \
            fingerprint(recorded.stats)

    def test_wrong_pickle_with_valid_checksum_quarantined(self,
                                                          tmp_path):
        """Corruption below the checksum layer: a validly stored entry
        whose payload is not a TraceBundle."""
        import gzip
        import pickle

        store = TraceStore(str(tmp_path))
        config = isrf4_config(timing_source="replay")
        key = store.key("fft", config, "test")
        store._store.put_bytes(
            key, gzip.compress(pickle.dumps({"not": "a bundle"}))
        )
        assert store.load("fft", config, "test") is None
        assert store.stats()["quarantined"] == 1


class TestStoreChaosThroughResultCache:
    """Fault injection composes with the pickle codec layer."""

    def test_torn_cache_entry_recomputed_not_served(self, tmp_path,
                                                    monkeypatch):
        from repro.harness.resultcache import ResultCache

        monkeypatch.setenv(CHAOS_ENV, "seed=3,torn=1.0")
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("fft", config, "small", {"stats": [1, 2, 3]})
        # Torn commit: detected on read, never served.
        assert cache.get("fft", config, "small") is None
        assert cache.quarantine_count() == 1

    def test_enospc_cache_put_is_nonfatal(self, tmp_path, monkeypatch):
        from repro.harness.resultcache import ResultCache

        monkeypatch.setenv(CHAOS_ENV, "seed=3,enospc=1.0")
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("fft", config, "small", {"stats": [1, 2, 3]})
        assert cache.get("fft", config, "small") is None
        assert cache.stats()["tmp"] == 0  # staging cleaned up
