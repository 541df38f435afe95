"""Keyed on-disk cache for benchmark results.

Running the full figure suite re-simulates the same (benchmark, config,
scale) triples many times across processes and invocations. The
:class:`ResultCache` persists each verified :class:`AppResult` to disk so
repeat runs — and the worker processes of the parallel runner — can skip
the simulation entirely.

Keys combine a *code fingerprint* (a hash over every ``repro`` source
file) with the benchmark name, a :func:`config_fingerprint` over EVERY
field of the machine configuration, and the workload scale, so any
source change or config tweak invalidates the cache automatically.
Deleting the cache directory (default ``.repro-cache``, overridable via
``REPRO_CACHE_DIR``) is always safe.

Durability is delegated wholesale to
:class:`repro.store.DurableStore`: each entry file carries the SHA-256
of its payload in a header line, is published by one atomic rename,
is verified against that header on every read, and is quarantined
(bounded) when torn or undecodable — the cache itself is just the
pickle codec and the key schema. Both fingerprints live in
:mod:`repro.fingerprint` (shared with the kernel trace store of
:mod:`repro.machine.replay`) and are re-exported here for
compatibility; the code fingerprint is memoized per process, so
constructing a second :class:`ResultCache` does no file I/O.
"""

from __future__ import annotations

import hashlib
import os
import pickle

from repro.fingerprint import code_fingerprint, config_fingerprint
from repro.store import DurableStore

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "ResultCache",
    "code_fingerprint",
    "config_fingerprint",
    "default_cache_dir",
]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultCache:
    """Pickle codec over a :class:`~repro.store.DurableStore`.

    Concurrent worker processes share one cache directory safely: each
    put publishes one complete file with one rename, readers verify
    checksums, and the worst case is two workers computing the same
    entry, last-write-wins with identical content.
    """

    def __init__(self, directory: "str | None" = None):
        self.directory = directory or default_cache_dir()
        self._fingerprint = code_fingerprint()
        self._store = DurableStore(self.directory, suffix=".pkl")

    # ------------------------------------------------------------------
    def key(self, benchmark: str, config, scale: str) -> str:
        """Stable key for one (benchmark, config, scale) triple."""
        payload = "\n".join(
            [self._fingerprint, benchmark, config_fingerprint(config),
             scale]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return self._store.path(key)

    # ------------------------------------------------------------------
    def get(self, benchmark: str, config, scale: str):
        """Cached result, or None on miss / unreadable entry.

        A present-but-unusable entry — torn write (checksum mismatch),
        missing header, stale class layout, garbage — is *quarantined*
        (renamed to ``<key>.pkl.bad``, bounded per directory) so it is
        not re-parsed on every subsequent run; a later :meth:`put`
        recreates the entry cleanly.
        """
        key = self.key(benchmark, config, scale)
        data = self._store.get_bytes(key)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception:
            # Checksum-valid bytes that no longer unpickle (e.g. a
            # result class changed shape without a source edit the
            # fingerprint could see): quarantine and recompute.
            self._store.quarantine(key)
            return None

    def put(self, benchmark: str, config, scale: str, result) -> None:
        """Store a result; failures to write are non-fatal.

        Serialization failures (an unpicklable result) and write
        failures (ENOSPC, permissions) leave the store untouched — no
        temp files, no entry.
        """
        try:
            data = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return
        self._store.put_bytes(self.key(benchmark, config, scale), data)

    # ------------------------------------------------------------------
    def clear(self) -> "int":
        """Delete all cache entries; returns how many were removed.

        Leftover temp files and quarantined (``.bad``) entries are
        deleted too but not counted — the return value is the number of
        actual cache entries, as the name promises.
        """
        return self._store.clear()

    def stats(self) -> dict:
        """Entry/quarantine counts (surfaced in harness ``--json``)."""
        return self._store.stats()

    def quarantine_count(self) -> int:
        return self._store.quarantine_count()
