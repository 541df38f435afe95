"""Crash-consistent durable storage for results and traces.

This package centralizes what used to be per-client durability tricks
(the result cache's temp-file dance, the trace store's quarantine
logic) into one audited code path:

:mod:`repro.store.durable`
    :class:`DurableStore`: self-verifying entry files (a SHA-256
    header line, then the payload) published by one atomic rename,
    with bounded quarantine and a sweep of dead writers' staging files.
:mod:`repro.store.atomic`
    Bare fsync+rename primitive for single-file artifacts (trace
    exports, harness JSON reports), and ``staging_path``, which names
    every staging file next to its target.
:mod:`repro.store.chaos`
    Deterministic ENOSPC/torn-write injection for the chaos harness.

`harness.resultcache.ResultCache` (benchmark results and finished
harness experiments) and `machine.replay.TraceStore` are both thin
codecs over :class:`DurableStore`, so there is exactly one entry
write/verify path to audit — the same consolidation the paper's
indexed SRF performs on ad-hoc per-client access paths.
"""

from repro.store.atomic import atomic_write_bytes, atomic_write_text
from repro.store.chaos import CHAOS_ENV, StoreChaos, chaos_from_env
from repro.store.durable import DEFAULT_QUARANTINE_CAP, DurableStore, pid_alive

__all__ = [
    "CHAOS_ENV",
    "DEFAULT_QUARANTINE_CAP",
    "DurableStore",
    "StoreChaos",
    "atomic_write_bytes",
    "atomic_write_text",
    "chaos_from_env",
    "pid_alive",
]
