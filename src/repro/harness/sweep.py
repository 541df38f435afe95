"""Sweep journal: crash-consistent bookkeeping for ``run_many``.

An interrupted sweep used to lose every completed experiment that had
not yet been printed. The runner now appends one record per event to a
:class:`~repro.store.journal.Journal` (checksummed one-line records, a
torn tail dropped on read). The parent runner process is its only
writer, so appends need no lock:

``sweep``
    Header: journal format version, code/environment fingerprint and
    scale. A journal whose header does not match the current process
    is *stale* — its results were computed by different code or under
    different env overlays — and is restarted, never served.
``launch``
    An attempt of one experiment started (name, attempt number).
``done``
    An experiment completed; carries the full pickled result (base64)
    and wall-clock, so ``--resume`` can serve it without re-executing.
``failed``
    An experiment failed terminally (error text, classification,
    attempts).
``resume``
    A resumed run started, listing the names served from the journal.
``interrupted``
    The sweep was drained on SIGINT/SIGTERM.
``complete``
    The sweep finished; a journal ending in ``complete`` resumes to a
    pure replay (every result served, nothing executed).

The journal lives next to the result cache (``<cache-dir>/
sweep.journal`` by default) and is self-contained: resuming needs no
store lookups, and the chaos harness can audit re-execution behaviour
from the record stream alone (a ``launch`` after a ``done`` for the
same name is the bug the whole design exists to prevent).
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
from dataclasses import dataclass, field

from repro.config.overlays import RESULT_AFFECTING
from repro.fingerprint import code_fingerprint
from repro.store.journal import Journal

#: Bump when record semantics change; mismatched journals restart.
SWEEP_JOURNAL_VERSION = 1

#: Default sweep journal filename inside the cache directory.
SWEEP_JOURNAL_NAME = "sweep.journal"

#: Environment variables that change experiment *results*; they are
#: folded into the journal fingerprint so a journal recorded under one
#: overlay is never served under another. Sourced from the central
#: overlay registry (:mod:`repro.config.overlays`) so a new
#: result-affecting variable can never be forgotten here.
RESULT_ENV_VARS = RESULT_AFFECTING


def default_sweep_journal(cache_dir: str) -> str:
    return os.path.join(cache_dir, SWEEP_JOURNAL_NAME)


def sweep_fingerprint() -> str:
    """Hash of everything that could change an experiment's result."""
    parts = [code_fingerprint()]
    for name in RESULT_ENV_VARS:
        parts.append(f"{name}={os.environ.get(name, '')}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _encode_result(result) -> str:
    return base64.b64encode(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _decode_result(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


@dataclass
class SweepState:
    """What a sweep journal says already happened."""

    header: "dict | None" = None
    #: name -> (result, elapsed seconds) for journaled completions.
    completed: dict = field(default_factory=dict)
    #: name -> failure record for journaled terminal failures.
    failed: dict = field(default_factory=dict)
    #: names with a launch but no terminal record (in-flight at crash).
    in_flight: set = field(default_factory=set)
    #: torn/corrupt trailing records dropped by the reader.
    dropped: int = 0
    #: the journal ended with a ``complete`` record.
    complete: bool = False

    def compatible(self) -> bool:
        """Whether journaled results may be served by this process."""
        return (self.header is not None
                and self.header.get("version") == SWEEP_JOURNAL_VERSION
                and self.header.get("fingerprint") == sweep_fingerprint())


class SweepJournal:
    """Typed append/replay interface over the raw journal."""

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self._journal = Journal(path, fsync=fsync)

    def exists(self) -> bool:
        return self._journal.exists()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def load(self) -> SweepState:
        """Parse the journal into a :class:`SweepState`.

        Records that fail to decode (a torn result payload inside a
        checksummed line cannot happen, but a schema drift could) are
        treated as absent — resuming then re-executes, which is always
        correct, just slower.
        """
        records, dropped = self._journal.read()
        state = SweepState(dropped=dropped)
        for record in records:
            event = record.get("event")
            if event == "sweep":
                # A later header restarts the story: earlier records
                # belong to a sweep superseded by a fresh begin().
                state = SweepState(header=record, dropped=dropped)
            elif event == "launch":
                state.in_flight.add(record.get("name"))
                state.complete = False
            elif event == "done":
                name = record.get("name")
                try:
                    result = _decode_result(record["result"])
                except Exception:
                    continue
                state.completed[name] = (
                    result, float(record.get("elapsed", 0.0))
                )
                state.failed.pop(name, None)
                state.in_flight.discard(name)
            elif event == "failed":
                name = record.get("name")
                state.failed[name] = {
                    "status": "failed",
                    "error": record.get("error", "unknown"),
                    "attempts": int(record.get("attempts", 1)),
                    "error_kind": record.get("error_kind", "transient"),
                }
                state.in_flight.discard(name)
            elif event == "complete":
                state.complete = True
        return state

    # ------------------------------------------------------------------
    # Appends (all non-fatal: journaling must never kill a sweep)
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        try:
            self._journal.append(record)
        except Exception:
            pass

    def begin(self, names) -> None:
        """Start a fresh sweep: truncate and write the header."""
        try:
            self._journal.rewrite([{
                "event": "sweep", "version": SWEEP_JOURNAL_VERSION,
                "fingerprint": sweep_fingerprint(),
                "scale": os.environ.get("REPRO_SCALE", "small"),
                "names": list(names),
            }])
        except Exception:
            pass

    def record_resume(self, served) -> None:
        self._append({"event": "resume", "served": sorted(served)})

    def record_launch(self, name: str, attempt: int) -> None:
        self._append({"event": "launch", "name": name,
                      "attempt": attempt})

    def record_done(self, name: str, result, elapsed: float) -> None:
        try:
            encoded = _encode_result(result)
        except Exception:
            return  # unpicklable result: resume will re-execute
        self._append({"event": "done", "name": name,
                      "elapsed": round(elapsed, 6), "result": encoded})

    def record_failed(self, name: str, error: str, attempts: int,
                      elapsed: float, error_kind: str) -> None:
        self._append({
            "event": "failed", "name": name, "error": error,
            "attempts": attempts, "elapsed": round(elapsed, 6),
            "error_kind": error_kind,
        })

    def record_interrupted(self, reason: str) -> None:
        self._append({"event": "interrupted", "reason": reason})

    def record_complete(self) -> None:
        self._append({"event": "complete"})
