"""Lint framework for the simulator's own source: tree, files, findings.

``repro.selfcheck`` is to the *simulator source* what ``repro.analyze``
is to stream programs: a set of passes over a parsed representation,
producing findings with stable machine-readable codes that a mutation
corpus pins. The representation here is the Python AST of every file
under one package root (:class:`SourceTree` / :class:`SourceFile`);
findings reuse the :class:`~repro.analyze.diagnostics.Diagnostic`
severity model, extended with file/line/context provenance
(:class:`Finding`).

Suppression: a finding is silenced by a ``# selfcheck: disable=SC301``
comment on the reported line (comma-separated codes). Suppressions are
themselves checked — an unused one is an error (``SC002``), as is one
naming an unknown code (``SC003``) — so stale escapes cannot linger.
They are the only escape hatch: there is no baseline of tolerated
findings.

Contexts: each finding carries the qualified name of the enclosing
function/class (``ColumnarExecutor.stall_window`` or ``<module>``), so
a report names the code it flags, not just a line number.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass

from repro.analyze.diagnostics import Diagnostic, Severity

#: Framework-level codes (passes declare their own SC2xx–SC4xx).
FRAMEWORK_CODES = {
    "SC001": "source file does not parse",
    "SC002": "unused selfcheck suppression comment",
    "SC003": "suppression names an unknown selfcheck code",
}

_SUPPRESS_RE = re.compile(r"#\s*selfcheck:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding(Diagnostic):
    """One selfcheck finding: a Diagnostic anchored to source."""

    #: Path relative to the scanned tree root (POSIX separators), or a
    #: repository-level artifact name (``ENV.md``) for tree-external
    #: findings.
    path: str = ""
    #: 1-based line, 0 for file- or tree-level findings.
    line: int = 0
    #: Qualified name of the enclosing def/class, ``<module>`` at top
    #: level, empty for tree-level findings.
    context: str = ""

    def describe(self) -> str:
        where = f"{self.path}:{self.line}" if self.path else "<tree>"
        suffix = f" [{self.context}]" if self.context else ""
        return (
            f"{where}: [{self.severity.value}] {self.code}: "
            f"{self.message}{suffix}"
        )


class SourceFile:
    """One parsed source file plus its suppression and scope tables."""

    def __init__(self, root: str, rel: str) -> None:
        self.rel = rel
        self.path = os.path.join(root, rel.replace("/", os.sep))
        with open(self.path, encoding="utf-8") as handle:
            self.text = handle.read()
        self.lines = self.text.splitlines()
        self.parse_error: "SyntaxError | None" = None
        try:
            self.tree: "ast.Module | None" = ast.parse(self.text)
        except SyntaxError as error:
            self.tree = None
            self.parse_error = error
        #: line -> set of codes disabled on that line. Built from real
        #: COMMENT tokens, so the disable syntax can be *mentioned* in
        #: strings and docstrings (as this file does) without effect.
        self.suppressions: "dict[int, set[str]]" = {}
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.text).readline
            ))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match:
                codes = {
                    code.strip() for code in match.group(1).split(",")
                    if code.strip()
                }
                if codes:
                    self.suppressions[token.start[0]] = codes
        #: (line, code) suppressions that absorbed a finding.
        self.used_suppressions: "set[tuple[int, str]]" = set()
        self._scopes: "list[tuple[int, int, str]] | None" = None

    # -- scopes ---------------------------------------------------------
    def _build_scopes(self) -> "list[tuple[int, int, str]]":
        scopes: "list[tuple[int, int, str]]" = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualname = f"{prefix}{child.name}"
                    end = getattr(child, "end_lineno", child.lineno)
                    scopes.append((child.lineno, end or child.lineno,
                                   qualname))
                    visit(child, f"{qualname}.")
                else:
                    visit(child, prefix)

        if self.tree is not None:
            visit(self.tree, "")
        return scopes

    def context_at(self, line: int) -> str:
        """Qualified name of the innermost def/class enclosing ``line``."""
        if self._scopes is None:
            self._scopes = self._build_scopes()
        best = "<module>"
        best_span = None
        for start, end, qualname in self._scopes:
            if start <= line <= end:
                span = end - start
                if best_span is None or span <= best_span:
                    best, best_span = qualname, span
        return best

    # -- constants ------------------------------------------------------
    def module_constants(self) -> "dict[str, object]":
        """Module-level string / string-tuple constants and aliases.

        Maps name -> ``str`` (string constant), ``tuple[str, ...]``
        (tuple/list of string constants), or ``("alias", name)`` for a
        plain ``X = Y`` rebinding. Used by passes to resolve, e.g.,
        ``os.environ.get(TRACE_ENV)``.
        """
        constants: "dict[str, object]" = {}
        if self.tree is None:
            return constants
        for node in self.tree.body:
            targets: "list[ast.expr]" = []
            value: "ast.expr | None" = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            resolved = literal_strings(value)
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if resolved is not None:
                    constants[target.id] = resolved
                elif isinstance(value, ast.Name):
                    constants[target.id] = ("alias", value.id)
        return constants

    def import_map(self) -> "dict[str, str]":
        """Local name -> dotted origin for imports in this file.

        ``import numpy as np`` yields ``{"np": "numpy"}``;
        ``from os import environ`` yields ``{"environ": "os.environ"}``.
        """
        imports: "dict[str, str]" = {}
        if self.tree is None:
            return imports
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        return imports


def literal_strings(value: ast.expr) -> "object | None":
    """``value`` as a string or tuple-of-strings literal, else None."""
    if isinstance(value, ast.Constant) and isinstance(value.value, str):
        return value.value
    if isinstance(value, (ast.Tuple, ast.List)):
        items = []
        for element in value.elts:
            if (isinstance(element, ast.Constant)
                    and isinstance(element.value, str)):
                items.append(element.value)
            else:
                return None
        return tuple(items)
    return None


class SourceTree:
    """Every ``*.py`` file under one package root, parsed once."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        rels: "list[str]" = []
        for directory, subdirs, files in os.walk(self.root):
            # In-place pruning only works on a live walk iterator —
            # wrapping os.walk in sorted() would exhaust it first.
            subdirs[:] = sorted(
                name for name in subdirs if name != "__pycache__"
            )
            for filename in sorted(files):
                if filename.endswith(".py"):
                    full = os.path.join(directory, filename)
                    rels.append(
                        os.path.relpath(full, self.root).replace(os.sep, "/")
                    )
        self.files = [SourceFile(self.root, rel) for rel in sorted(rels)]
        self._by_rel = {sf.rel: sf for sf in self.files}

    def file(self, rel: str) -> "SourceFile | None":
        return self._by_rel.get(rel)


class LintContext:
    """Shared state for one selfcheck run: the tree plus the findings.

    Passes report through :meth:`emit`, which applies per-line
    suppressions; the driver turns leftover (unused) suppressions into
    ``SC002`` findings afterwards.
    """

    def __init__(self, tree: SourceTree,
                 env_md_path: "str | None" = None) -> None:
        self.tree = tree
        self.env_md_path = env_md_path
        self.findings: "list[Finding]" = []

    def emit(self, code: str, message: str,
             sf: "SourceFile | None" = None, line: int = 0,
             severity: Severity = Severity.ERROR,
             path: "str | None" = None, context: "str | None" = None) -> None:
        if sf is not None:
            disabled = sf.suppressions.get(line, set())
            if code in disabled or "all" in disabled:
                sf.used_suppressions.add(
                    (line, code if code in disabled else "all")
                )
                return
        self.findings.append(Finding(
            severity=severity, code=code, message=message,
            path=(sf.rel if sf is not None else (path or "")),
            line=line,
            context=(
                context if context is not None
                else (sf.context_at(line) if sf is not None and line else "")
            ),
        ))


def resolve_call_target(func: ast.expr,
                        imports: "dict[str, str]") -> "str | None":
    """Dotted origin of a call's callee, e.g. ``os.replace``.

    Resolves through the file's import aliases: with ``import numpy as
    np``, ``np.random.rand`` resolves to ``numpy.random.rand``; with
    ``from time import time as now``, ``now`` resolves to
    ``time.time``. Bare builtins resolve to their own name (``open``).
    Returns None for callees that are not name/attribute chains
    (lambdas, subscripts, call results).
    """
    parts: "list[str]" = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head, rest = parts[0], parts[1:]
    origin = imports.get(head, head)
    return ".".join([origin] + rest)
