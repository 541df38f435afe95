"""Central registry of every ``REPRO_*`` environment overlay.

The simulator is steered by environment variables in exactly one
pattern: a harness CLI flag (or an operator) exports ``REPRO_<NAME>``,
and one owner module parses it into :class:`~repro.config.machine.
MachineConfig` overrides or behaviour switches. Before this registry,
the set of live variables existed only as grep output — a new overlay
could ship undocumented, and the list of result-affecting variables
had to be maintained by hand.

This module is the single source of truth. Every entry carries the
variable's name, the module that parses it, its scope (``src`` for the
simulator, ``tests``/``tools`` for the suites around it), whether it
changes experiment *results* (and therefore must key the stored
experiment results), one documentation line, and an example value. ``ENV.md`` at
the repository root is generated from this table
(``python -m repro.selfcheck --write-env-md``) and CI fails when it
drifts.

The ``repro.selfcheck`` overlay pass statically enforces the contract:
any ``os.environ``/``os.getenv`` read of a ``REPRO_*`` name anywhere in
``src/`` must resolve to an entry here (code ``SC201``), and every
``src``-scoped entry must actually be read by its owner module
(``SC203``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EnvOverlay:
    """One registered ``REPRO_*`` environment variable."""

    #: Variable name, e.g. ``"REPRO_SCALE"``.
    name: str
    #: Dotted module that owns (parses) the variable.
    owner: str
    #: One-line description for ``ENV.md``.
    doc: str
    #: Example value, shown verbatim in ``ENV.md``.
    example: str
    #: ``"src"``, ``"tests"`` or ``"tools"`` — where the variable is
    #: read. Only ``src``-scoped entries are enforced by the selfcheck
    #: overlay pass (the others are documented here so ``ENV.md`` is
    #: complete).
    scope: str = "src"
    #: True when the variable changes experiment *results* (not just
    #: speed or diagnostics). These names key the harness's stored
    #: experiment results, so a result stored under one overlay is
    #: never served under another.
    result_affecting: bool = False


#: Every known ``REPRO_*`` variable. Keep alphabetical by name within
#: each scope block; ``ENV.md`` and the selfcheck pass both key on this
#: tuple.
OVERLAYS: "tuple[EnvOverlay, ...]" = (
    # --- src: simulator and harness ----------------------------------
    EnvOverlay(
        name="REPRO_CACHE_DIR",
        owner="repro.harness.resultcache",
        doc="Directory of the harness result cache (and the trace store "
            "under <dir>/traces). Default .repro-cache.",
        example="REPRO_CACHE_DIR=/tmp/repro-cache",
    ),
    EnvOverlay(
        name="REPRO_FAIL_EXPERIMENT",
        owner="repro.harness.runner",
        doc="Test hook: the named harness experiment raises on entry, "
            "for graceful-degradation checks.",
        example="REPRO_FAIL_EXPERIMENT=table4",
    ),
    EnvOverlay(
        name="REPRO_SCALE",
        owner="repro.harness.figures",
        doc="Workload scale for every harness experiment: small, "
            "medium or paper.",
        example="REPRO_SCALE=paper",
        result_affecting=True,
    ),
    EnvOverlay(
        name="REPRO_STORE_CHAOS",
        owner="repro.store.chaos",
        doc="Deterministic ENOSPC/torn-commit injection into durable "
            "store writes (chaos gate only).",
        example='REPRO_STORE_CHAOS="seed=7,enospc=0.05,torn=0.05"',
    ),
    EnvOverlay(
        name="REPRO_TRACE",
        owner="repro.observe.observer",
        doc="Observability overlay for every preset: tracing, metrics "
            "level, trace buffer size; path= sets the trace "
            "experiment's output file.",
        example='REPRO_TRACE="trace=1,metrics=2,path=out.json"',
        result_affecting=True,
    ),
    # --- tests -------------------------------------------------------
    EnvOverlay(
        name="REPRO_FUZZ_EXAMPLES",
        owner="tests.fuzz.conftest",
        doc="Hypothesis example budget for the fuzz suite (scale up "
            "for soak runs).",
        example="REPRO_FUZZ_EXAMPLES=1000",
        scope="tests",
    ),
    # --- tools -------------------------------------------------------
    EnvOverlay(
        name="REPRO_CHAOS_MARK",
        owner="tools.chaos_sweep",
        doc="Marker the chaos gate plants in worker environments to "
            "find orphaned processes via /proc scans.",
        example="REPRO_CHAOS_MARK=chaos-4711",
        scope="tools",
    ),
)

#: Registered names, for membership tests.
REGISTERED: "frozenset[str]" = frozenset(entry.name for entry in OVERLAYS)

#: Names that change experiment results — every stored experiment's
#: key folds these in (see
#: :meth:`repro.harness.resultcache.ResultCache.experiment_key`).
RESULT_AFFECTING: "tuple[str, ...]" = tuple(
    entry.name for entry in OVERLAYS if entry.result_affecting
)


def overlay(name: str) -> EnvOverlay:
    """Look up one registry entry by variable name."""
    for entry in OVERLAYS:
        if entry.name == name:
            return entry
    raise KeyError(f"unregistered environment overlay {name!r}")


_SCOPE_TITLES = (
    ("src", "Simulator and harness"),
    ("tests", "Test suite"),
    ("tools", "Tools"),
)

_HEADER = (
    "# Environment variables",
    "",
    "<!-- Generated from repro.config.overlays by"
    " `python -m repro.selfcheck --write-env-md`."
    " Do not edit by hand: CI fails when this file drifts from the"
    " registry (selfcheck code SC204). -->",
    "",
    "Every `REPRO_*` variable the repository reads, from the central",
    "registry in `src/repro/config/overlays.py`. *Result-affecting*",
    "variables change experiment results (not just speed or",
    "diagnostics); they key the stored experiment results, so two",
    "runs under different values never share a finished experiment.",
)


def render_env_md(entries: "tuple[EnvOverlay, ...]" = OVERLAYS) -> str:
    """Render ``ENV.md`` from ``entries`` (deterministic text).

    Takes the entry tuple as a parameter so the selfcheck drift pass
    can render a *scanned* (possibly mutated fixture) registry with the
    same template the shipped registry uses.
    """
    lines = list(_HEADER)
    for scope, title in _SCOPE_TITLES:
        scoped = [entry for entry in entries if entry.scope == scope]
        if not scoped:
            continue
        lines.append("")
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| Variable | Owner | Results? | Description | Example |")
        lines.append("| --- | --- | --- | --- | --- |")
        for entry in sorted(scoped, key=lambda item: item.name):
            lines.append(
                f"| `{entry.name}` | `{entry.owner}` "
                f"| {'yes' if entry.result_affecting else 'no'} "
                f"| {entry.doc} | `{entry.example}` |"
            )
    lines.append("")
    return "\n".join(lines)
