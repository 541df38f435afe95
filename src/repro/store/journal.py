"""Checksummed append-only journal: the sweep journal's record format.

The harness sweep journal (:mod:`repro.harness.sweep`) is an
append-only text file of one-line records. Each line is
``<sha256-prefix> <json>``: the checksum covers the exact JSON bytes,
so a torn final line (the only corruption an append-only file with one
writer can suffer from a crash) is detected and dropped rather than
misread. A bad line *before* the tail indicates real disk corruption;
readers stop there and report how many trailing records were
discarded, never raising on a readable prefix.

Appends are O_APPEND single-``write`` calls followed by ``fsync``, so
a record either exists completely or not at all — the write-ahead
contract resume builds on. ``fsync`` of appends can be disabled per
journal (the in-process tests don't need it) but defaults to on.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import StoreError
from repro.store.atomic import atomic_write_bytes

#: Hex digits of SHA-256 prefixed to each record line.
CHECKSUM_HEX = 16


def _checksum(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:CHECKSUM_HEX]


def encode_record(record: dict) -> bytes:
    """One journal line (checksum + compact JSON + newline) as bytes."""
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode()
    if b"\n" in payload:  # json.dumps never emits raw newlines
        raise StoreError("journal records must be single-line JSON")
    return _checksum(payload).encode() + b" " + payload + b"\n"


def decode_line(line: bytes) -> "dict | None":
    """The record a journal line holds, or None if torn/corrupt."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the newline is the commit marker
    body = line[:-1]
    if len(body) < CHECKSUM_HEX + 2 or body[CHECKSUM_HEX:CHECKSUM_HEX + 1] \
            != b" ":
        return None
    checksum, payload = body[:CHECKSUM_HEX], body[CHECKSUM_HEX + 1:]
    if _checksum(payload) != checksum.decode("ascii", "replace"):
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Journal:
    """Append-only file of checksummed JSON records.

    One writer (the sweep journal's is the parent runner process); any
    number of concurrent readers. ``append`` is write-ahead: it
    returns only after the record is on its way to disk (fsync'd by
    default), so a caller may then perform the action the record
    describes knowing recovery will see the record first.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self.fsync = fsync

    def exists(self) -> bool:
        return os.path.exists(self.path)

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Durably append one record (single write + fsync)."""
        line = encode_record(record)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        fd = os.open(self.path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def read(self) -> "tuple[list, int]":
        """``(records, dropped)``: every valid record, in append order.

        ``dropped`` counts trailing lines discarded as torn or corrupt.
        A missing journal reads as empty. Reading stops at the first
        bad line — records after a corrupt one cannot be trusted to be
        ordered correctly, and with one appender only the tail can
        legitimately be bad.
        """
        try:
            with open(self.path, "rb") as handle:
                lines = handle.readlines()
        except OSError:
            return [], 0
        records = []
        for index, line in enumerate(lines):
            record = decode_line(line)
            if record is None:
                return records, len(lines) - index
            records.append(record)
        return records, 0

    def records(self) -> list:
        """Just the valid records (torn tail silently dropped)."""
        return self.read()[0]

    # ------------------------------------------------------------------
    def rewrite(self, records) -> None:
        """Atomically replace the journal with ``records``.

        Goes through :func:`~repro.store.atomic.atomic_write_bytes`
        (staging file, fsync, rename), so a crash leaves either the old
        or the new journal, never a mixture.
        """
        atomic_write_bytes(
            self.path, b"".join(encode_record(record) for record in records)
        )
