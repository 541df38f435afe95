"""Atomic file writes: staging file, fsync, rename, cleanup on failure."""

import errno
import os

import pytest

from repro.store import atomic
from repro.store.atomic import _staging_pid, atomic_write_bytes, staging_path


class TestAtomicWriteBytes:
    def test_write_leaves_data_and_no_staging_file(self, tmp_path):
        target = tmp_path / "out.bin"
        assert atomic_write_bytes(str(target), b"payload") == str(target)
        assert target.read_bytes() == b"payload"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_enospc_keeps_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous")

        def full_disk(_fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(atomic.os, "fsync", full_disk)
        with pytest.raises(OSError) as info:
            atomic_write_bytes(str(target), b"replacement")
        assert info.value.errno == errno.ENOSPC
        assert target.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["out.bin"]


class TestStagingPath:
    def test_names_writer_pid_next_to_target(self, tmp_path):
        target = str(tmp_path / "out.json")
        assert staging_path(target, 42) == str(tmp_path / ".out.json.42.tmp")
        assert staging_path(target) == staging_path(target, os.getpid())
        assert _staging_pid(os.path.basename(staging_path(target, 42))) == 42
        assert _staging_pid("out.json") is None
