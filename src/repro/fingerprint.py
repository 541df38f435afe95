"""Source-tree and configuration fingerprints for on-disk caches.

Both the benchmark :class:`~repro.harness.resultcache.ResultCache` and
the kernel trace store of :mod:`repro.machine.replay` key their entries
on (a) a hash over every ``repro`` source file, so any simulator edit
invalidates stale entries, and (b) a deterministic text form of the
:class:`~repro.config.machine.MachineConfig` under test. This module is
the single home of both fingerprints so the two caches can never drift
apart — and it lives outside the harness package so the machine layer
can use it without a circular import. The trace store narrows (b) to
the fields that change kernel data: that fingerprint lives in
:mod:`repro.machine.replay`, next to ``TIMING_ONLY_FIELDS``, the one
list of fields it leaves out.

The code fingerprint is memoized per process: the source tree cannot
change underneath a running simulation, and every forked harness worker
used to pay a full-tree SHA256 walk just to construct its cache handle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

_code_fingerprint: "str | None" = None


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file, for cache invalidation.

    Any edit to the simulator invalidates all cached results; stale
    results can never be served after a code change. Computed once per
    process (sources are immutable while running); forked workers
    inherit the memo from the parent for free.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        _code_fingerprint = _compute_code_fingerprint()
    return _code_fingerprint


def _compute_code_fingerprint() -> str:
    import repro

    package_root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(package_root)):
        subdirs.sort()
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, package_root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def config_fingerprint(config) -> str:
    """Deterministic text form of EVERY config field, for cache keys.

    Built from :func:`dataclasses.asdict` rather than ``repr(config)``:
    a repr silently omits any field declared with ``repr=False``, so two
    configs differing only in such a field would alias each other's
    cache entries — the bug class this function exists to close. New
    fields are picked up automatically; no hand-maintained tuple to
    forget to extend. ``tests/config/test_field_partition.py`` changes
    each field in turn and checks that the fingerprint changes with it.
    """
    fields = dataclasses.asdict(config)
    return repr(sorted(fields.items()))

