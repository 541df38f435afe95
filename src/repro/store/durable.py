"""Crash-consistent content-verified key/value store.

One store = one directory holding:

``<key><suffix>``
    Entry files. Each is self-verifying: a header line
    ``repro-store/1 <sha256 of payload>``, then the payload (opaque
    bytes; callers bring their own codec).
``.<key>.<pid>.tmp``
    In-flight staging files; swept when a store is opened if their
    writer pid is dead.
``<key><suffix>.bad``
    Quarantined entries (checksum mismatch, missing header,
    undecodable payload). Bounded: the oldest are evicted beyond
    :data:`DEFAULT_QUARANTINE_CAP`, so silent corruption cannot grow
    the directory without bound.

A put writes the complete entry file to a private staging file,
fsyncs it, ``os.replace``\\ s it over the entry and fsyncs the
directory, so ``kill -9`` at any instruction leaves either the old
entry or the new one. Concurrent writers of one key need no lock: each
publishes one complete file with one rename, and readers open one
inode, never a mixture. Every read verifies the payload against the
entry's own header, so a torn or bit-flipped entry is detected,
quarantined, and reported as a miss — callers recompute, they never
consume garbage. Write failures (including injected ``ENOSPC``, see
:mod:`repro.store.chaos`) are non-fatal: the staging file is removed
and the store is untouched.
"""

from __future__ import annotations

import errno
import hashlib
import os

from repro.store.atomic import _fsync_directory
from repro.store.chaos import chaos_from_env

#: Bound on quarantined (``.bad``) files per store directory.
DEFAULT_QUARANTINE_CAP = 32

#: Start of every entry file's header line; the payload's SHA-256
#: (hex) and a newline follow.
HEADER_TAG = b"repro-store/1 "


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (permission-safe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    except OSError:
        return False
    return True


def _frame(payload: bytes) -> bytes:
    """Entry file bytes: header line, then ``payload``."""
    digest = hashlib.sha256(payload).hexdigest().encode()
    return HEADER_TAG + digest + b"\n" + payload


def _unframe(data: bytes) -> "bytes | None":
    """The payload of entry file bytes, or None if they fail the header."""
    header, newline, payload = data.partition(b"\n")
    if not newline or header != (
            HEADER_TAG + hashlib.sha256(payload).hexdigest().encode()):
        return None
    return payload


def _staging_pid(filename: str) -> "int | None":
    """The writer pid of a ``.<name>.<pid>.tmp`` staging file, else None."""
    if not (filename.startswith(".") and filename.endswith(".tmp")):
        return None
    pid = filename[: -len(".tmp")].rpartition(".")[2]
    return int(pid) if pid.isdigit() else None


class DurableStore:
    """Directory-backed byte store of self-verifying entry files.

    ``suffix`` namespaces the entry files (``.pkl`` for the result
    cache, ``.trace.gz`` for the trace store) so existing directory
    layouts — and the tools that glob them — stay recognizable.
    Opening a store deletes the staging files of writers that died.
    """

    def __init__(self, directory: str, suffix: str = ".pkl",
                 fsync: bool = True,
                 quarantine_cap: int = DEFAULT_QUARANTINE_CAP):
        self.directory = directory
        self.suffix = suffix
        self.quarantine_cap = quarantine_cap
        self.fsync = fsync
        self._chaos = chaos_from_env()
        self._sweep_staging()

    # ------------------------------------------------------------------
    # Paths and naming
    # ------------------------------------------------------------------
    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}{self.suffix}")

    def _temp_path(self, key: str) -> str:
        return os.path.join(
            self.directory, f".{key}.{os.getpid()}.tmp"
        )

    def _kind(self, filename: str) -> "str | None":
        """Which :meth:`stats` count ``filename`` falls in, if any."""
        if filename.endswith(".tmp"):
            return "tmp"
        if filename.endswith(".bad"):
            return "quarantined"
        if filename.endswith(self.suffix) and not filename.startswith("."):
            return "entries"
        return None

    def _listdir(self) -> list:
        try:
            return os.listdir(self.directory)
        except OSError:
            return []

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------
    def get_bytes(self, key: str) -> "bytes | None":
        """Verified payload bytes of ``key``, or None on miss.

        A present entry that fails its own header — torn, truncated,
        bit-flipped or foreign — is quarantined and reported as a miss.
        """
        try:
            with open(self.path(key), "rb") as handle:
                payload = _unframe(handle.read())
        except OSError:
            return None  # plain miss
        if payload is None:
            self.quarantine(key)
        return payload

    def put_bytes(self, key: str, data: bytes) -> bool:
        """Durably store ``data`` under ``key``; False on any failure.

        The entry is written whole to a private staging file, fsync'd,
        then renamed into place, so readers see the old entry or the
        new one, never a partial write.
        """
        entry = _frame(data)
        if self._chaos is not None:
            torn = self._chaos.torn_length(key, len(entry))
            if torn is not None:
                # Injected torn commit: the rename publishes a
                # truncated file, as a reordering crash would.
                entry = entry[:torn]
        temp_path = self._temp_path(key)
        try:
            os.makedirs(self.directory, exist_ok=True)
            self._write_staging(key, temp_path, entry)
            os.replace(temp_path, self.path(key))
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False
        if self.fsync:
            _fsync_directory(self.directory)
        return True

    def _write_staging(self, key: str, temp_path: str,
                       entry: bytes) -> None:
        with open(temp_path, "wb") as handle:
            if self._chaos is not None and self._chaos.should_fail_enospc(
                    key):
                handle.write(entry[: len(entry) // 2])
                raise OSError(errno.ENOSPC, "injected ENOSPC (chaos)")
            handle.write(entry)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key: str) -> None:
        """Move ``key``'s entry aside as ``.bad`` (bounded).

        Public because callers own the codec: a payload that passes the
        checksum but fails to decode (stale class layout) is just as
        quarantinable as a torn write. Never raises: at worst the
        corrupt entry stays and is re-detected on the next read.
        """
        path = self.path(key)
        try:
            os.replace(path, path + ".bad")
        except OSError:
            return
        bad = []
        for filename in self._listdir():
            if filename.endswith(".bad"):
                full = os.path.join(self.directory, filename)
                try:
                    bad.append((os.path.getmtime(full), full))
                except OSError:
                    continue
        bad.sort()
        for _mtime, full in bad[:max(0, len(bad) - self.quarantine_cap)]:
            try:
                os.unlink(full)
            except OSError:
                pass

    def quarantine_count(self) -> int:
        return self.stats()["quarantined"]

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many real entries existed.

        Debris — staging files and quarantined entries — is removed
        too but not counted.
        """
        removed = 0
        for filename in self._listdir():
            kind = self._kind(filename)
            if kind is None:
                continue
            try:
                os.unlink(os.path.join(self.directory, filename))
            except OSError:
                continue
            removed += kind == "entries"
        return removed

    def _sweep_staging(self) -> None:
        """Delete staging files whose writer pid is dead."""
        for filename in self._listdir():
            pid = _staging_pid(filename)
            if pid is not None and not pid_alive(pid):
                try:
                    os.unlink(os.path.join(self.directory, filename))
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Entry/quarantine/debris counts for ``--json`` surfacing."""
        counts = {"entries": 0, "quarantined": 0, "tmp": 0}
        for filename in self._listdir():
            kind = self._kind(filename)
            if kind is not None:
                counts[kind] += 1
        return counts

    def fsck(self) -> dict:
        """Full offline verification (chaos-gate assertion surface).

        Checks every entry file against its own header; returns counts
        of ``entries`` (verified good), ``checksum_failures``, ``tmp``
        staging leftovers and ``quarantined`` files. Read-only: a
        failing entry is counted, not moved.
        """
        counts = {"entries": 0, "checksum_failures": 0, "tmp": 0,
                  "quarantined": 0}
        for filename in self._listdir():
            kind = self._kind(filename)
            if kind == "entries":
                try:
                    with open(os.path.join(self.directory, filename),
                              "rb") as handle:
                        if _unframe(handle.read()) is None:
                            kind = "checksum_failures"
                except OSError:
                    kind = "checksum_failures"
            if kind is not None:
                counts[kind] += 1
        return counts
