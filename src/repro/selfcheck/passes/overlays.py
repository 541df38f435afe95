"""Overlay-registry pass: every ``REPRO_*`` env read is registered.

Environment overlays are how CLI flags reach forked workers and how
operators steer sweeps; an undocumented one is a reproducibility hole
(two "identical" runs differing through a variable nobody recorded).
This pass statically resolves every ``os.environ`` / ``os.getenv`` /
``environ.get`` access in the tree and requires:

* every resolved ``REPRO_*`` name appears in the central registry
  (``config/overlays.py``) — ``SC201``;
* every access's variable *name* is statically resolvable at all —
  a literal, a module-level constant, a loop over a constant tuple, or
  a value imported from the registry itself — ``SC202`` otherwise;
* every ``src``-scoped registry entry is actually read, and read by
  its declared owner module — ``SC203``;
* the committed ``ENV.md`` matches what the registry renders —
  ``SC204`` (the golden-fixture pattern: regenerate with
  ``python -m repro.selfcheck --write-env-md``).

The registry is parsed from the *scanned* tree (so mutation fixtures
work), but rendered through the installed
:func:`repro.config.overlays.render_env_md`, keeping exactly one
template.
"""

from __future__ import annotations

import ast
import os
import re

from repro.config.overlays import EnvOverlay, render_env_md
from repro.selfcheck.core import LintContext, SourceFile, literal_strings

NAME = "overlays"

CODES = {
    "SC201": "REPRO_* environment read of an unregistered variable",
    "SC202": "environment read with statically unresolvable name",
    "SC203": "stale overlay-registry entry (never read, or not read by "
             "its owner)",
    "SC204": "ENV.md drifted from the overlay registry",
    "SC205": "overlay registry is malformed (non-constant entry)",
}

REGISTRY_FILE = "config/overlays.py"

_REPRO_NAME = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: Names importable from the registry module; a read whose variable
#: name comes from one of these is registered by construction.
_REGISTRY_EXPORTS = ("OVERLAYS", "REGISTERED", "RESULT_AFFECTING")

#: Sentinel resolution for registry-derived names.
_FROM_REGISTRY = object()


def parse_registry(sf: SourceFile,
                   ctx: LintContext) -> "list[EnvOverlay] | None":
    """The ``OVERLAYS`` tuple of the scanned registry, or None."""
    if sf.tree is None:
        return None
    for node in sf.tree.body:
        targets: "list[ast.expr]" = []
        value: "ast.expr | None" = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not any(
            isinstance(target, ast.Name) and target.id == "OVERLAYS"
            for target in targets
        ):
            continue
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        entries: "list[EnvOverlay]" = []
        for element in value.elts:
            if not isinstance(element, ast.Call) or element.args:
                ctx.emit(
                    "SC205",
                    "registry entries must be keyword-only EnvOverlay "
                    "calls with constant values",
                    sf=sf, line=element.lineno,
                )
                return None
            kwargs: "dict[str, object]" = {}
            ok = True
            for keyword in element.keywords:
                if keyword.arg is None \
                        or not isinstance(keyword.value, ast.Constant):
                    ctx.emit(
                        "SC205",
                        "registry entry has a non-constant or starred "
                        "argument — the selfcheck pass (and ENV.md) "
                        "cannot evaluate it",
                        sf=sf, line=element.lineno,
                    )
                    ok = False
                    break
                kwargs[keyword.arg] = keyword.value.value
            if not ok:
                return None
            try:
                entries.append(EnvOverlay(**kwargs))  # type: ignore[arg-type]
            except TypeError:
                ctx.emit(
                    "SC205",
                    "registry entry does not match the EnvOverlay schema",
                    sf=sf, line=element.lineno,
                )
                return None
        return entries
    return None


def _is_environ_base(node: ast.expr) -> bool:
    """True for ``os.environ`` or a bare name ``environ``."""
    if isinstance(node, ast.Attribute) and node.attr == "environ" \
            and isinstance(node.value, ast.Name) and node.value.id == "os":
        return True
    return isinstance(node, ast.Name) and node.id == "environ"


def _loop_iter(sf: SourceFile, name: str) -> "ast.expr | None":
    """The iterable expression of a for loop whose target is ``name``."""
    if sf.tree is None:
        return None
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and node.target.id == name:
            return node.iter
    return None


def _resolve_constant(name: str,
                      constants: "dict[str, object]") -> "object | None":
    seen = set()
    while name not in seen:
        seen.add(name)
        value = constants.get(name)
        if isinstance(value, tuple) and len(value) == 2 \
                and value[0] == "alias":
            name = value[1]  # type: ignore[assignment]
            continue
        return value
    return None


def env_accesses(
    sf: SourceFile,
    lookup: "object | None" = None,
) -> "list[tuple[int, object]]":
    """Every environment access in ``sf`` with its resolved name(s).

    Returns ``(line, resolution)`` where resolution is a tuple of
    variable names, the ``_FROM_REGISTRY`` sentinel, or None when the
    name cannot be statically determined. ``lookup`` is an optional
    ``(module, name) -> value`` callable resolving constants imported
    from other files in the scanned tree (``from repro.observe.observer
    import TRACE_ENV``).
    """
    if sf.tree is None:
        return []
    constants = sf.module_constants()
    imports = sf.import_map()
    registry_names = {
        local for local, origin in imports.items()
        if origin.startswith("repro.config.overlays.")
        and origin.rsplit(".", 1)[-1] in _REGISTRY_EXPORTS
    }

    def resolve_name(name: str) -> "object":
        if name in registry_names:
            return _FROM_REGISTRY
        value = _resolve_constant(name, constants)
        if value is None and lookup is not None and name in imports:
            origin = imports[name]
            if "." in origin:
                module, attr = origin.rsplit(".", 1)
                value = lookup(module, attr)  # type: ignore[operator]
        if isinstance(value, str):
            return (value,)
        if isinstance(value, tuple) \
                and all(isinstance(item, str) for item in value):
            return value
        return None

    def resolve(expr: ast.expr) -> "object":
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return (expr.value,)
        if not isinstance(expr, ast.Name):
            return None
        direct = resolve_name(expr.id)
        if direct is not None:
            return direct
        # A loop variable: resolve what it iterates over.
        iterable = _loop_iter(sf, expr.id)
        if isinstance(iterable, ast.Name):
            return resolve_name(iterable.id)
        if isinstance(iterable, (ast.Tuple, ast.List)):
            values = literal_strings(iterable)
            if isinstance(values, tuple):
                return values
        return None

    accesses: "list[tuple[int, object]]" = []
    for node in ast.walk(sf.tree):
        key: "ast.expr | None" = None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in ("get", "pop", "setdefault") \
                    and _is_environ_base(func.value) and node.args:
                key = node.args[0]
            elif isinstance(func, ast.Attribute) and func.attr == "getenv" \
                    and isinstance(func.value, ast.Name) \
                    and func.value.id == "os" and node.args:
                key = node.args[0]
        elif isinstance(node, ast.Subscript) \
                and _is_environ_base(node.value):
            key = node.slice if isinstance(node.slice, ast.expr) else None
        if key is None:
            continue
        accesses.append((node.lineno, resolve(key)))
    return accesses


def _loop_iter_registry(sf: SourceFile, resolution: object) -> bool:
    return resolution is _FROM_REGISTRY


def run(ctx: LintContext) -> None:
    registry_sf = ctx.tree.file(REGISTRY_FILE)
    if registry_sf is None:
        return
    entries = parse_registry(registry_sf, ctx)
    if entries is None:
        ctx.emit(
            "SC205",
            "OVERLAYS tuple literal not found in the registry",
            sf=registry_sf,
        )
        return
    registered = {entry.name for entry in entries}

    def lookup(module: str, name: str) -> "object | None":
        """Constant ``name`` defined in ``module`` within the tree."""
        if module == "repro":
            rel = "__init__.py"
        elif module.startswith("repro."):
            rel = module[len("repro."):].replace(".", "/") + ".py"
        else:
            return None
        other = ctx.tree.file(rel)
        if other is None:
            other = ctx.tree.file(rel[:-len(".py")] + "/__init__.py")
        if other is None:
            return None
        value = other.module_constants().get(name)
        if isinstance(value, (str, tuple)) and not (
            isinstance(value, tuple) and len(value) == 2
            and value[0] == "alias"
        ):
            return value
        return None

    #: name -> set of rel paths that read it (resolved accesses only).
    readers: "dict[str, set[str]]" = {}
    for sf in ctx.tree.files:
        for line, resolution in env_accesses(sf, lookup):
            if resolution is None:
                ctx.emit(
                    "SC202",
                    "environment access whose variable name cannot be "
                    "statically resolved — use a string literal or a "
                    "module-level constant so the overlay registry can "
                    "be enforced",
                    sf=sf, line=line,
                )
                continue
            if _loop_iter_registry(sf, resolution):
                continue  # names drawn from the registry itself
            assert isinstance(resolution, tuple)
            for name in resolution:
                if not _REPRO_NAME.match(name):
                    continue
                readers.setdefault(name, set()).add(sf.rel)
                if name not in registered:
                    ctx.emit(
                        "SC201",
                        f"read of unregistered environment variable "
                        f"{name!r} — add an EnvOverlay entry to "
                        f"repro/config/overlays.py (and regenerate "
                        f"ENV.md)",
                        sf=sf, line=line,
                    )

    for entry in entries:
        if entry.scope != "src":
            continue
        owner_rel = entry.owner
        if owner_rel.startswith("repro."):
            owner_rel = owner_rel[len("repro."):]
        owner_rel = owner_rel.replace(".", "/") + ".py"
        if entry.name not in readers:
            ctx.emit(
                "SC203",
                f"registry entry {entry.name!r} is never read anywhere "
                f"in the tree — delete it (and regenerate ENV.md) or "
                f"wire it up",
                sf=registry_sf,
            )
        elif owner_rel not in readers[entry.name] \
                and ctx.tree.file(owner_rel) is not None:
            ctx.emit(
                "SC203",
                f"registry entry {entry.name!r} declares owner "
                f"{entry.owner!r} but that module never reads it "
                f"(read by: {', '.join(sorted(readers[entry.name]))})",
                sf=registry_sf,
            )

    _check_env_md(ctx, entries)


def _check_env_md(ctx: LintContext, entries: "list[EnvOverlay]") -> None:
    if ctx.env_md_path is None or not os.path.exists(ctx.env_md_path):
        return
    with open(ctx.env_md_path, encoding="utf-8") as handle:
        committed = handle.read()
    expected = render_env_md(tuple(entries))
    if committed != expected:
        ctx.emit(
            "SC204",
            "ENV.md drifted from the overlay registry — regenerate with "
            "`python -m repro.selfcheck --write-env-md`",
            path=os.path.basename(ctx.env_md_path), context="<env-md>",
        )
