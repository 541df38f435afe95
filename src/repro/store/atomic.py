"""Bare atomic-file-write primitive: staging file, fsync, rename.

:class:`~repro.store.durable.DurableStore` covers keyed,
self-verifying entries; this module covers the simpler case of a
single self-contained artifact (a trace export, a harness ``--json``
report) that must appear *atomically and durably* at its final path — readers either see the complete new file
or the previous state, never a torn write, even across power loss.

The discipline is the same one the store's entry path uses: write to a
staging file in the destination directory, flush and ``fsync`` it,
``os.replace`` it over the target, then best-effort ``fsync`` the
directory so the rename itself is durable. :func:`staging_path` names
every staging file, the store's included. The ``repro.selfcheck``
write-discipline pass (codes ``SC401``/``SC402``) forbids hand-rolled
``open(..., "w")`` + ``rename`` sequences outside ``repro.store`` —
this primitive is what call sites use instead.
"""

from __future__ import annotations

import os


def staging_path(path: str, pid: "int | None" = None) -> str:
    """The staging file a write of ``path`` goes through.

    ``.<name>.<pid>.tmp`` in ``path``'s own directory: the rename never
    crosses a filesystem, and the writer pid (default: this process)
    tells a dead writer's leftover from a live writer's file.
    """
    directory, name = os.path.split(path)
    if pid is None:
        pid = os.getpid()
    return os.path.join(directory, f".{name}.{pid}.tmp")


def _staging_pid(filename: str) -> "int | None":
    """The writer pid of a :func:`staging_path` file name, else None."""
    if not (filename.startswith(".") and filename.endswith(".tmp")):
        return None
    pid = filename[: -len(".tmp")].rpartition(".")[2]
    return int(pid) if pid.isdigit() else None


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Atomically and durably write ``data`` to ``path``; returns it.

    The data is staged in the file :func:`staging_path` names, which
    never survives this call: it is renamed into place on success and
    unlinked on failure.
    """
    target = os.path.abspath(path)
    staging = staging_path(target)
    os.makedirs(os.path.dirname(target), exist_ok=True)
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


def atomic_write_text(path: str, text: str) -> str:
    """UTF-8 text form of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"))


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
