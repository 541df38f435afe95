"""Durable store: self-verifying entries, quarantine, staging sweep."""

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from repro.store.chaos import CHAOS_ENV
from repro.store.durable import DurableStore, pid_alive


def make(tmp_path, **kwargs):
    kwargs.setdefault("fsync", False)
    return DurableStore(str(tmp_path), **kwargs)


def dead_pid():
    """A pid value that belonged to a real — now reaped — process."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestPidAlive:
    def test_own_pid(self):
        assert pid_alive(os.getpid())

    def test_nonpositive(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)

    def test_reaped_child(self):
        assert not pid_alive(dead_pid())


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        store = make(tmp_path)
        assert store.put_bytes("alpha", b"payload")
        assert store.get_bytes("alpha") == b"payload"

    def test_missing_key_is_a_miss(self, tmp_path):
        store = make(tmp_path)
        assert store.get_bytes("ghost") is None
        assert store.quarantine_count() == 0

    def test_overwrite(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"old")
        store.put_bytes("key", b"new")
        assert store.get_bytes("key") == b"new"

    def test_fresh_instance_reads_previous_writes(self, tmp_path):
        make(tmp_path).put_bytes("key", b"persisted")
        assert make(tmp_path).get_bytes("key") == b"persisted"

    def test_suffix_namespacing(self, tmp_path):
        store = make(tmp_path, suffix=".trace.gz")
        store.put_bytes("key", b"data")
        assert os.path.exists(tmp_path / "key.trace.gz")


class TestWriteAheadOrdering:
    def test_entry_file_is_header_then_payload(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"data")
        with open(store.path("key"), "rb") as handle:
            header, _, payload = handle.read().partition(b"\n")
        tag, digest = header.split(b" ")
        assert tag == b"repro-store/1"
        assert digest == hashlib.sha256(b"data").hexdigest().encode()
        assert payload == b"data"

    def test_no_tmp_left_after_put(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"data")
        assert store.stats()["tmp"] == 0

    def test_foreign_entry_quarantined_on_read(self, tmp_path):
        """A file the store did not write (no header) is untrusted."""
        store = make(tmp_path)
        store.put_bytes("real", b"data")  # directory now exists
        with open(tmp_path / "foreign.pkl", "wb") as handle:
            handle.write(b"who wrote this?")
        assert store.get_bytes("foreign") is None
        assert not os.path.exists(tmp_path / "foreign.pkl")
        assert os.path.exists(tmp_path / "foreign.pkl.bad")


class TestVerification:
    def test_corrupt_entry_quarantined(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"good data")
        with open(store.path("key"), "wb") as handle:
            handle.write(b"bit rot")
        assert store.get_bytes("key") is None
        assert store.quarantine_count() == 1
        assert store.get_bytes("key") is None  # stays a miss

    def test_truncated_entry_quarantined(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"x" * 100)
        with open(store.path("key"), "r+b") as handle:
            handle.truncate(10)
        assert store.get_bytes("key") is None
        assert store.quarantine_count() == 1

    @pytest.mark.parametrize("damage", ["headerless", "truncated",
                                        "flipped"])
    def test_damaged_entry_is_a_quarantined_miss(self, tmp_path, damage):
        store = make(tmp_path)
        store.put_bytes("key", b"payload " * 16)
        with open(store.path("key"), "rb") as handle:
            data = bytearray(handle.read())
        if damage == "headerless":
            data = data.partition(b"\n")[2]
        elif damage == "truncated":
            data = data[:-5]
        else:
            data[-1] ^= 0x01  # one flipped payload bit
        with open(store.path("key"), "wb") as handle:
            handle.write(data)
        assert store.get_bytes("key") is None
        assert sorted(os.listdir(tmp_path)) == ["key.pkl.bad"]

    def test_good_entries_unaffected_by_bad_neighbours(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("good", b"fine")
        store.put_bytes("bad", b"doomed")
        with open(store.path("bad"), "wb") as handle:
            handle.write(b"garbage")
        assert store.get_bytes("bad") is None
        assert store.get_bytes("good") == b"fine"


class TestQuarantineCap:
    def test_cap_bounds_bad_files(self, tmp_path):
        store = make(tmp_path, quarantine_cap=3)
        for i in range(6):
            store.put_bytes(f"key{i}", b"data")
            with open(store.path(f"key{i}"), "wb") as handle:
                handle.write(b"corrupt")
            assert store.get_bytes(f"key{i}") is None
        assert store.quarantine_count() <= 3


class TestClear:
    def test_counts_only_real_entries(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("a", b"1")
        store.put_bytes("b", b"2")
        with open(tmp_path / ".c.12345.tmp", "wb") as handle:
            handle.write(b"staging")
        with open(tmp_path / "d.pkl.bad", "wb") as handle:
            handle.write(b"quarantined")
        assert store.clear() == 2
        assert os.listdir(tmp_path) == []


class TestRecovery:
    """Opening a store sweeps staging files whose writer died."""

    def test_dead_writer_tmp_swept(self, tmp_path):
        make(tmp_path).put_bytes("real", b"data")
        stale = tmp_path / f".victim.{dead_pid()}.tmp"
        with open(stale, "wb") as handle:
            handle.write(b"half-written")
        store = make(tmp_path)
        assert not os.path.exists(stale)
        assert store.get_bytes("real") == b"data"

    def test_live_writer_tmp_kept(self, tmp_path):
        make(tmp_path).put_bytes("real", b"data")
        live = tmp_path / f".inflight.{os.getpid()}.tmp"
        with open(live, "wb") as handle:
            handle.write(b"still being written")
        store = make(tmp_path)
        assert os.path.exists(live)
        assert store.stats()["tmp"] == 1


class TestFsck:
    def test_clean_store(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("a", b"1")
        store.put_bytes("b", b"2")
        report = store.fsck()
        assert report["entries"] == 2
        assert report["checksum_failures"] == 0
        assert report["tmp"] == 0
        assert report["quarantined"] == 0

    def test_detects_corruption_without_repairing(self, tmp_path):
        store = make(tmp_path)
        store.put_bytes("key", b"data")
        with open(store.path("key"), "wb") as handle:
            handle.write(b"flip")
        report = store.fsck()
        assert report["checksum_failures"] == 1
        assert os.path.exists(store.path("key"))  # fsck is read-only


class TestChaosInjection:
    def test_enospc_put_fails_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "seed=1,enospc=1.0")
        store = make(tmp_path)
        assert not store.put_bytes("key", b"data")
        assert store.get_bytes("key") is None
        assert store.stats() == {"entries": 0, "quarantined": 0,
                                 "tmp": 0}

    def test_torn_commit_detected_on_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "seed=1,torn=1.0")
        store = make(tmp_path)
        assert store.put_bytes("key", b"x" * 64)  # commit "succeeds"
        assert store.get_bytes("key") is None  # ...but never served
        assert store.quarantine_count() == 1

    def test_chaos_disabled_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        store = make(tmp_path)
        assert store._chaos is None


#: One writer of the shared key: put its own payload, read the key back
#: and check the bytes are some writer's complete payload, 200 times.
WRITER = textwrap.dedent("""
    import sys
    sys.path.insert(0, sys.argv[1])
    from repro.store.durable import DurableStore

    directory, index, writers = sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    payloads = [(b"writer %d " % i) * 4096 for i in range(writers)]
    store = DurableStore(directory, fsync=False)
    print("ready", flush=True)
    sys.stdin.readline()  # start together
    for _ in range(200):
        assert store.put_bytes("shared", payloads[index])
        data = store.get_bytes("shared")
        if data not in payloads:
            print("bad read", None if data is None else len(data))
            sys.exit(1)
    print("ok")
""")

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


class TestConcurrentWriters:
    def test_four_processes_share_one_key(self, tmp_path, monkeypatch):
        """Without a lock, concurrent puts of one key still publish
        whole files: every get sees one writer's complete payload."""
        monkeypatch.delenv(CHAOS_ENV, raising=False)
        store = make(tmp_path)  # opened first: its sweep cannot hide debris
        writers = 4
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", WRITER, SRC, str(tmp_path),
                 str(index), str(writers)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for index in range(writers)
        ]
        try:
            for proc in procs:
                assert proc.stdout.readline().strip() == "ready"
            for proc in procs:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            outputs = [proc.communicate(timeout=120)[0] for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert [proc.returncode for proc in procs] == [0] * writers, outputs
        assert all(out.strip() == "ok" for out in outputs), outputs
        report = store.fsck()
        assert report == {"entries": 1, "checksum_failures": 0, "tmp": 0,
                          "quarantined": 0}
