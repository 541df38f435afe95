"""Bare atomic-file-write primitive: staging file, fsync, rename.

:class:`~repro.store.durable.DurableStore` covers keyed,
self-verifying entries; this module covers the simpler case of a
single self-contained artifact (a trace export, a harness ``--json``
report, a sweep journal rewrite) that must appear *atomically and
durably* at its final path — readers either see the complete new file
or the previous state, never a torn write, even across power loss.

The discipline is the same one the store's entry path uses: write to a
staging file in the destination directory, flush and ``fsync`` it,
``os.replace`` it over the target, then best-effort ``fsync`` the
directory so the rename itself is durable. The ``repro.selfcheck``
write-discipline pass (codes ``SC401``/``SC402``) forbids hand-rolled
``open(..., "w")`` + ``rename`` sequences outside ``repro.store`` —
this primitive is what call sites use instead.
"""

from __future__ import annotations

import os


def atomic_write_bytes(path: str, data: bytes,
                       staging: "str | None" = None) -> str:
    """Atomically and durably write ``data`` to ``path``; returns it.

    ``staging`` overrides the temp-file path (it must live on the same
    filesystem as ``path``); callers with crash-sweep naming schemes —
    the trace exporter's per-experiment ``*.trace.tmp`` files — pass
    their own so orphans stay attributable. The staging file never
    survives this call: it is renamed into place on success and
    unlinked on failure.
    """
    target = os.path.abspath(path)
    if staging is None:
        staging = os.path.join(
            os.path.dirname(target),
            f".{os.path.basename(target)}.{os.getpid()}.tmp",
        )
    directory = os.path.dirname(os.path.abspath(staging))
    os.makedirs(directory, exist_ok=True)
    try:
        with open(staging, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(staging, target)
    finally:
        if os.path.exists(staging):
            try:
                os.unlink(staging)
            except OSError:
                pass
    _fsync_directory(os.path.dirname(target))
    return path


def atomic_write_text(path: str, text: str,
                      staging: "str | None" = None) -> str:
    """UTF-8 text form of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), staging=staging)


def _fsync_directory(directory: str) -> None:
    """Best-effort directory fsync, making a completed rename durable.

    Some filesystems refuse ``O_RDONLY`` directory fds or directory
    fsync outright; the rename has already happened, so failure here
    only weakens power-loss durability, never atomicity.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)
