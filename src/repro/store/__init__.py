"""Crash-consistent durable storage for caches, traces, and sweeps.

This package centralizes what used to be per-client durability tricks
(the result cache's temp-file dance, the trace store's quarantine
logic, the sweep runner's lost in-flight bookkeeping) into one audited
code path:

:mod:`repro.store.durable`
    :class:`DurableStore`: self-verifying entry files (a SHA-256
    header line, then the payload) published by one atomic rename,
    with bounded quarantine and a sweep of dead writers' staging files.
:mod:`repro.store.journal`
    Checksummed append-only journals with torn-tail tolerance — the
    sweep journal's record format.
:mod:`repro.store.atomic`
    Bare fsync+rename primitive for single-file artifacts (trace
    exports, harness JSON reports, journal rewrites).
:mod:`repro.store.chaos`
    Deterministic ENOSPC/torn-write injection for the chaos harness.

`harness.resultcache.ResultCache` and `machine.replay.TraceStore` are
both thin codecs over :class:`DurableStore`, so there is exactly one
entry write/verify path to audit — the same consolidation the paper's
indexed SRF performs on ad-hoc per-client access paths.
"""

from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.chaos import CHAOS_ENV, StoreChaos, chaos_from_env
from repro.store.durable import DEFAULT_QUARANTINE_CAP, DurableStore, pid_alive
from repro.store.journal import Journal, decode_line, encode_record

__all__ = [
    "CHAOS_ENV",
    "DEFAULT_QUARANTINE_CAP",
    "DurableStore",
    "Journal",
    "StoreChaos",
    "atomic_write_bytes",
    "atomic_write_text",
    "chaos_from_env",
    "decode_line",
    "encode_record",
    "pid_alive",
]
