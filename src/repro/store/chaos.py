"""Deterministic fault injection for the durable store's write path.

The chaos harness (``tools/chaos_sweep.py`` and
``tests/harness/test_chaos.py``) must prove that torn entry writes and
out-of-space conditions cannot corrupt results — only cost a recompute.
Real torn writes need a kernel crash to produce; instead the store's
write path consults this module and, when the ``REPRO_STORE_CHAOS``
environment variable is set, deterministically injects the two
failure shapes that matter:

``enospc``
    The entry write raises ``OSError(ENOSPC)`` mid-stream, exercising
    the non-fatal put path (temp file cleaned up, store untouched).

``torn``
    The entry is *committed truncated* — a prefix of the entry file is
    renamed into place as if the filesystem reordered a crash —
    exercising checksum verification and quarantine on read.

Syntax: ``REPRO_STORE_CHAOS="seed=7,enospc=0.05,torn=0.05"``.
Decisions are drawn per (seed, entry key, operation) through SHA-256,
not a shared RNG, so every process — including forked harness workers
— makes identical, replayable decisions for the same key.
"""

from __future__ import annotations

import hashlib
import os

from repro.errors import ConfigurationError

#: Environment variable enabling store fault injection.
CHAOS_ENV = "REPRO_STORE_CHAOS"

_FIELDS = ("seed", "enospc", "torn")


def chaos_from_env() -> "StoreChaos | None":
    """The configured :class:`StoreChaos`, or None when disabled."""
    return parse_chaos(os.environ.get(CHAOS_ENV))


def parse_chaos(value: "str | None") -> "StoreChaos | None":
    """The :class:`StoreChaos` a ``REPRO_STORE_CHAOS`` value asks for."""
    if not value:
        return None
    settings = {"seed": 0, "enospc": 0.0, "torn": 0.0}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, raw = part.partition("=")
        if name not in _FIELDS:
            raise ConfigurationError(
                f"{CHAOS_ENV}: unknown field {name!r} "
                f"(known: {', '.join(_FIELDS)})"
            )
        try:
            settings[name] = int(raw) if name == "seed" else float(raw)
        except ValueError:
            raise ConfigurationError(
                f"{CHAOS_ENV}: {name} needs a number, got {raw!r}"
            ) from None
    for name in ("enospc", "torn"):
        if not 0.0 <= settings[name] <= 1.0:
            raise ConfigurationError(
                f"{CHAOS_ENV}: {name} must be a probability in [0, 1]"
            )
    return StoreChaos(**settings)


class StoreChaos:
    """Key-deterministic fault decisions for store writes."""

    def __init__(self, seed: int = 0, enospc: float = 0.0,
                 torn: float = 0.0):
        self.seed = seed
        self.enospc = enospc
        self.torn = torn

    def _draw(self, key: str, operation: str) -> float:
        payload = f"{self.seed}\n{key}\n{operation}".encode()
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should_fail_enospc(self, key: str) -> bool:
        return self._draw(key, "enospc") < self.enospc

    def torn_length(self, key: str, size: int) -> "int | None":
        """Bytes to keep for a torn commit of ``key``, or None."""
        if self._draw(key, "torn") >= self.torn:
            return None
        fraction = self._draw(key, "torn-length")
        return max(0, min(size - 1, int(size * fraction)))
