"""Write-discipline pass: durable writes go through ``repro.store``.

The crash-consistency work (PR 7) proved that a bare
``open(path, "w")`` — or a write-then-rename without an fsync — can
surface as an empty or truncated file after power loss, silently
corrupting sweep results. The durable-write recipe (staging file →
flush → fsync → ``os.replace`` → directory fsync) lives in
``repro.store`` (``atomic_write_text`` / ``atomic_write_bytes`` and
``DurableStore``'s entry writes); everything else in the package must
call those rather than re-deriving the recipe badly.

Codes (all scoped to files *outside* ``store/``):

* ``SC401`` — ``os.rename`` / ``os.replace`` / ``shutil.move``: a
  rename outside the store is almost always the second half of a
  hand-rolled atomic write, missing the fsync;
* ``SC402`` — opening a file for writing (``open(..., "w")``,
  ``Path.write_text`` …): route through the store primitives;
* ``SC403`` — a bare ``os.fsync``: if you need durability semantics,
  you need the whole recipe, not one syscall of it.

Read-mode opens are untouched. Code with a genuine reason (e.g. a
debug dump that may be torn) suppresses the line with
``# selfcheck: disable=SC402`` and says why.
"""

from __future__ import annotations

import ast

from repro.selfcheck.core import LintContext, resolve_call_target

NAME = "writes"

CODES = {
    "SC401": "rename/replace outside repro.store (hand-rolled atomic "
             "write?)",
    "SC402": "file opened for writing outside repro.store primitives",
    "SC403": "bare os.fsync outside repro.store",
}

#: The package that owns the durable-write recipe.
STORE_PREFIX = "store/"

_RENAMES = {"os.rename", "os.replace", "shutil.move"}

_OPENERS = {"open", "io.open", "gzip.open", "bz2.open", "lzma.open",
            "os.fdopen"}

_PATH_WRITERS = {"write_text", "write_bytes"}

_WRITE_MODE_CHARS = set("wax+")


def _mode_argument(node: ast.Call) -> "ast.expr | None":
    if len(node.args) >= 2:
        return node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_write_mode(node: ast.Call) -> "bool | None":
    """True/False when the open mode is statically known, else None."""
    mode = _mode_argument(node)
    if mode is None:
        return False  # default mode "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return None


def run(ctx: LintContext) -> None:
    for sf in ctx.tree.files:
        if sf.rel.startswith(STORE_PREFIX) or sf.tree is None:
            continue
        imports = sf.import_map()
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            if origin in _RENAMES:
                ctx.emit(
                    "SC401",
                    f"{origin} outside repro.store — a rename is the "
                    f"unsafe half of an atomic write; use "
                    f"repro.store.atomic_write_text/bytes, which fsyncs "
                    f"before and after the replace",
                    sf=sf, line=node.lineno,
                )
            elif origin == "os.fsync":
                ctx.emit(
                    "SC403",
                    "bare os.fsync outside repro.store — durability "
                    "needs the whole staging/fsync/replace recipe; call "
                    "the store primitives",
                    sf=sf, line=node.lineno,
                )
            elif origin in _OPENERS:
                write = _is_write_mode(node)
                if write or write is None:
                    ctx.emit(
                        "SC402",
                        "file opened for writing outside repro.store — "
                        "a bare write can be torn by a crash; use "
                        "repro.store.atomic_write_text/bytes (or "
                        "suppress with a reason if tearing is "
                        "acceptable)"
                        if write else
                        "file opened with a non-constant mode — make "
                        "the mode a literal so the write-discipline "
                        "pass can classify it",
                        sf=sf, line=node.lineno,
                    )
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _PATH_WRITERS:
                ctx.emit(
                    "SC402",
                    f".{node.func.attr}() writes without the durable-"
                    f"write recipe — use repro.store.atomic_write_text/"
                    f"bytes",
                    sf=sf, line=node.lineno,
                )
