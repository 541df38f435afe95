"""Determinism pass: no ambient entropy inside the simulated machine.

The simulator's core promise is bit-identical replay: the same config
and kernel must produce the same cycle counts and fingerprints on every
run. That promise dies the moment simulation code reads
a wall clock, an unseeded RNG, or iterates a set in hash order. This
pass forbids those inside the *simulated-machine* packages
(``core/``, ``machine/``, ``kernel/``, ``memory/``,
``interconnect/``); the harness, store, and observability layers may
legitimately read clocks (wall-time provenance stamps) and are out of
scope.

Codes:

* ``SC301`` — wall-clock reads (``time.time``, ``datetime.now`` …);
* ``SC302`` — unseeded or process-global RNG (``random.random``,
  ``random.Random()`` with no seed, ``numpy.random.rand`` …);
* ``SC303`` — OS entropy (``os.urandom``, ``uuid.uuid4``,
  ``secrets.*``);
* ``SC304`` — iteration over a set literal/comprehension or
  ``set()``/``frozenset()`` call result, whose order is
  hash-randomized across processes.

Seeded constructions (``random.Random(seed)``,
``numpy.random.default_rng(seed)``) are allowed — determinism comes
from the seed being carried by the config or the caller.
"""

from __future__ import annotations

import ast

from repro.selfcheck.core import LintContext, SourceFile, resolve_call_target

NAME = "determinism"

CODES = {
    "SC301": "wall-clock read inside simulated-machine code",
    "SC302": "unseeded or process-global RNG inside simulated-machine "
             "code",
    "SC303": "OS entropy source inside simulated-machine code",
    "SC304": "iteration over hash-ordered set inside simulated-machine "
             "code",
}

#: Subtrees that must stay deterministic (prefix match on rel path).
SCOPES = ("core/", "machine/", "kernel/", "memory/", "interconnect/")

#: Call targets that read the wall clock.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
}

#: Module-level RNG functions on Python's global (process-seeded) state.
_GLOBAL_RANDOM = {
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle", "random.sample",
    "random.uniform", "random.gauss", "random.betavariate",
    "random.expovariate", "random.getrandbits", "random.seed",
}

#: numpy's legacy global-state functions (np.random.rand etc.).
_NUMPY_GLOBAL_PREFIX = "numpy.random."

#: numpy.random constructions that are fine when given an explicit seed.
_NUMPY_SEEDED_OK = {
    "numpy.random.default_rng", "numpy.random.RandomState",
    "numpy.random.Generator", "numpy.random.SeedSequence",
}

#: OS / cryptographic entropy.
_OS_ENTROPY_EXACT = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
_OS_ENTROPY_PREFIX = "secrets."

#: Constructs whose argument's iteration order we inspect.
_ITER_WRAPPERS = {"list", "tuple", "sorted", "enumerate", "iter",
                  "reversed", "max", "min", "sum"}


def _is_set_expr(node: ast.expr) -> bool:
    """True for expressions that evaluate to a set with hash order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) \
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub,
                                     ast.BitXor)):
        # set algebra (a | b, a - b) yields a set when either side does.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _ordered_set_iterations(sf: SourceFile) -> "list[int]":
    """Lines where a set's hash order leaks into program order."""
    if sf.tree is None:
        return []
    lines: "list[int]" = []
    for node in ast.walk(sf.tree):
        target: "ast.expr | None" = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            target = node.iter
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            target = node.generators[0].iter
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) \
                    and func.id in _ITER_WRAPPERS and node.args:
                if func.id == "sorted":
                    continue  # sorted() erases hash order — that's the fix
                target = node.args[0]
            elif isinstance(func, ast.Attribute) and func.attr == "join" \
                    and node.args:
                target = node.args[0]
        if target is not None and _is_set_expr(target):
            lines.append(target.lineno)
    return lines


def _unseeded_random_construction(node: ast.Call, origin: str) -> bool:
    """``random.Random()`` / ``default_rng()`` with no seed argument."""
    if origin == "random.Random" or origin in _NUMPY_SEEDED_OK:
        return not node.args and not node.keywords
    return False


def run(ctx: LintContext) -> None:
    for sf in ctx.tree.files:
        if not sf.rel.startswith(SCOPES) or sf.tree is None:
            continue
        imports = sf.import_map()
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_target(node.func, imports)
            if origin is None:
                continue
            if origin in _WALL_CLOCK:
                ctx.emit(
                    "SC301",
                    f"wall-clock read ({origin}) — simulated time must "
                    f"come from the machine's cycle counter, not the "
                    f"host clock",
                    sf=sf, line=node.lineno,
                )
            elif origin in _GLOBAL_RANDOM or (
                origin.startswith(_NUMPY_GLOBAL_PREFIX)
                and origin not in _NUMPY_SEEDED_OK
            ):
                ctx.emit(
                    "SC302",
                    f"process-global RNG ({origin}) — construct a seeded "
                    f"random.Random(seed) carried by the config",
                    sf=sf, line=node.lineno,
                )
            elif _unseeded_random_construction(node, origin):
                ctx.emit(
                    "SC302",
                    f"unseeded RNG construction ({origin}()) — pass an "
                    f"explicit config-carried seed",
                    sf=sf, line=node.lineno,
                )
            elif origin in _OS_ENTROPY_EXACT \
                    or origin.startswith(_OS_ENTROPY_PREFIX):
                ctx.emit(
                    "SC303",
                    f"OS entropy source ({origin}) — nothing inside the "
                    f"simulated machine may consume non-reproducible "
                    f"randomness",
                    sf=sf, line=node.lineno,
                )
        for line in _ordered_set_iterations(sf):
            ctx.emit(
                "SC304",
                "iteration order of a set is hash-randomized across "
                "processes — iterate sorted(...) or use a list/dict "
                "to make the order part of the program",
                sf=sf, line=line,
            )
