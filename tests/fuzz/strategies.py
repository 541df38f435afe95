"""Hypothesis strategies generating random well-formed stream programs.

A drawn *spec* is a plain dict of primitives (so Hypothesis shrinks it
well); :func:`build_kernel` deterministically turns it into a kernel,
and :func:`make_context`/:func:`program_data` produce matching input
data. The generated programs deliberately cover the machine's hard
cases:

* random iteration extents;
* out-of-order and duplicate in-lane indices, cross-lane (global)
  indices, and predicated (conditional) indexed reads and writes;
* loop carries mixed with independent dataflow and explicit comms;
* tagged algebra next to opaque Python payloads, float constants,
  bools, division, and constants beyond the int64 range.
"""

import os
import random as pyrandom

from hypothesis import strategies as st

#: Example budget; the CI fuzz job raises this to 1000.
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))

from repro.kernel import KernelBuilder
from repro.kernel.contexts import ListContext

LANES = 8
MOD = 1 << 16
LUT_RECORDS = 16  # in-lane table, records per lane
XLUT_RECORDS = 32  # cross-lane table, global records
WTAB_RECORDS = 16  # in-lane write table, records per lane

#: Op vocabulary. Each drawn op is ``(tag, a, b, extra)`` with ``a``/
#: ``b`` picking operands (mod the live-value count) and ``extra``
#: parameterising the op. ``clamp`` lowers to the min/max algebra the
#: sparse apps use as a range guard; ``gather`` is their whole access
#: idiom (validity predicate + clamped in-lane indexed read) in one op.
TAGS = (
    "add", "sub", "mul", "xor", "mod", "select", "opaque", "float",
    "bigconst", "div", "pred", "lut", "lut_pred", "xlut", "wtab",
    "wtab_pred", "comm", "clamp", "gather",
)

#: Sparse index distributions (ISSUE 10): the shapes CSR column-index
#: streams actually take. ``empty_rows`` interleaves ``-1`` sentinel
#: runs — padding slots of rows with no nonzeros — which only a
#: predicated gather may skip.
SPARSE_DISTRIBUTIONS = (
    "sorted", "uniform", "clustered", "duplicate", "empty_rows",
)

_ops = st.lists(
    st.tuples(
        st.sampled_from(TAGS),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=6),
    ),
    min_size=1, max_size=14,
)


@st.composite
def kernel_specs(draw, max_iterations=80):
    """A random stream-program spec (kernel shape + data seed)."""
    return {
        "iterations": draw(st.integers(min_value=1,
                                       max_value=max_iterations)),
        "ops": draw(_ops),
        "use_carry": draw(st.booleans()),
        "carry_init": draw(st.integers(min_value=-4, max_value=100)),
        "data_seed": draw(st.integers(min_value=0, max_value=10**6)),
    }


@st.composite
def sparse_kernel_specs(draw, max_iterations=80):
    """A spec whose input stream is a sparse CSR-shaped index stream.

    The input words are drawn from one of the
    :data:`SPARSE_DISTRIBUTIONS` instead of uniform noise, and the op
    list always ends with a ``gather`` consuming the raw index stream —
    so every example drives the indexed SRF with exactly the index
    locality patterns the sparse apps produce, on top of whatever other
    random ops the base strategy drew.
    """
    spec = draw(kernel_specs(max_iterations=max_iterations))
    spec["index_distribution"] = draw(st.sampled_from(SPARSE_DISTRIBUTIONS))
    # Operand pick 0 is always the input-stream read (see build_kernel).
    spec["ops"] = list(spec["ops"]) + [
        ("gather", 0, 0, draw(st.integers(min_value=0, max_value=6))),
    ]
    return spec


def sparse_lane_indices(rng, count, records, distribution):
    """One lane's index stream under one sparse distribution."""
    if distribution == "sorted":
        return sorted(rng.randrange(records) for _ in range(count))
    if distribution == "uniform":
        return [rng.randrange(records) for _ in range(count)]
    if distribution == "clustered":
        # Power-law concentration: most indices hit a few records.
        return [int(records * rng.random() ** 4) for _ in range(count)]
    if distribution == "duplicate":
        pool = [rng.randrange(records)
                for _ in range(max(1, records // 8))]
        return [rng.choice(pool) for _ in range(count)]
    if distribution == "empty_rows":
        # CSR rows of 0-3 sorted entries; empty rows surface as -1
        # sentinel padding the gather predicate must mask off.
        indices = []
        while len(indices) < count:
            row_nnz = rng.randrange(4)
            if row_nnz == 0:
                indices.append(-1)
            else:
                indices.extend(sorted(
                    rng.randrange(records) for _ in range(row_nnz)
                ))
        return indices[:count]
    raise AssertionError(distribution)


# Deliberately opaque payloads (no ``algebra`` tag): the engines must
# evaluate these by calling them.
def _wrap_int(x):
    return x % MOD


def _as_int(x):
    return int(x) % MOD


def _mix(x, y):
    return (x * 3 + y) % MOD


def _divisor(x):
    return (int(x) % 13) + 1


def _nonneg(x):
    return x >= 0


def build_kernel(spec):
    """Build the kernel a spec describes; returns (kernel, streams)."""
    used = {tag for tag, _a, _b, _extra in spec["ops"]}
    b = KernelBuilder("fuzzed")
    in_s = b.istream("in")
    out_s = b.ostream("out")
    lut = (b.idxl_istream("lut")
           if used & {"lut", "lut_pred", "gather"} else None)
    xlut = b.idx_istream("xlut") if "xlut" in used else None
    wtab = (b.idxl_ostream("wtab")
            if used & {"wtab", "wtab_pred"} else None)

    values = [b.read(in_s)]
    carry = None
    if spec["use_carry"]:
        carry = b.carry(spec["carry_init"], "acc")
        values.append(carry)
    values.append(b.laneid())
    pred = None  # most recent boolean, for predicated accesses

    for tag, a_pick, b_pick, extra in spec["ops"]:
        a = values[a_pick % len(values)]
        c = values[b_pick % len(values)]
        if tag == "add":
            values.append(b.add(a, c))
        elif tag == "sub":
            values.append(b.sub(a, c))
        elif tag == "mul":
            values.append(b.logic(_wrap_int, b.mul(a, c)))
        elif tag == "xor":
            # xor is int-only in Python; coerce float/bool operands.
            values.append(b.xor(b.logic(_as_int, a),
                                b.logic(_as_int, c)))
        elif tag == "mod":
            values.append(b.mod(a, b.const(LUT_RECORDS + extra)))
        elif tag == "select":
            cond = pred if pred is not None and extra % 2 else a
            values.append(b.select(cond, a, c))
        elif tag == "opaque":
            values.append(b.logic(_mix, a, c))
        elif tag == "float":
            values.append(b.add(a, b.const(0.5 + extra * 0.125)))
        elif tag == "bigconst":
            # 2**59..2**65: values beyond the int64 range must survive
            # SRF storage as exact Python ints.
            values.append(b.add(a, b.const(1 << (59 + extra))))
        elif tag == "div":
            values.append(b.div(a, b.arith(_divisor, c)))
        elif tag == "pred":
            pred = b.lt(a, b.const(extra * (MOD // 8)))
            values.append(pred)
        elif tag in ("lut", "lut_pred"):
            idx = b.mod(a, b.const(LUT_RECORDS))
            p = pred if tag == "lut_pred" and pred is not None else None
            values.append(b.idx_read(lut, idx, predicate=p))
        elif tag == "xlut":
            idx = b.mod(a, b.const(XLUT_RECORDS))
            values.append(b.idx_read(xlut, idx))
        elif tag in ("wtab", "wtab_pred"):
            idx = b.mod(a, b.const(WTAB_RECORDS))
            p = (pred if tag == "wtab_pred" and pred is not None
                 else None)
            b.idx_write(wtab, idx, b.logic(_wrap_int, c), predicate=p)
        elif tag == "clamp":
            values.append(b.clamp(a, b.const(-extra),
                                  b.const(extra * 7 + 1)))
        elif tag == "gather":
            # The sparse apps' access idiom end to end: sentinel
            # predicate + clamped index + predicated in-lane read.
            valid = b.logic(_nonneg, a)
            idx = b.clamp(b.logic(_as_int, a), b.const(0),
                          b.const(LUT_RECORDS - 1))
            values.append(b.idx_read(lut, idx, predicate=valid))
        elif tag == "comm":
            values.append(b.comm(a, b.mod(c, b.const(LANES))))
        else:  # pragma: no cover - exhaustive over TAGS
            raise AssertionError(tag)

    result = values[-1]
    if carry is not None:
        b.update(carry, b.logic(_wrap_int, b.add(carry, result)))
    b.write(out_s, result)
    kernel = b.build()
    return kernel, {"in": in_s, "out": out_s, "lut": lut,
                    "xlut": xlut, "wtab": wtab}


def program_data(spec):
    """Deterministic input/table data for a spec's kernel."""
    rng = pyrandom.Random(spec["data_seed"])
    iterations = spec["iterations"]
    distribution = spec.get("index_distribution")
    if distribution:
        inputs = [
            sparse_lane_indices(rng, iterations, LUT_RECORDS,
                                distribution)
            for _ in range(LANES)
        ]
    else:
        inputs = [
            [rng.randrange(-MOD, MOD) for _ in range(iterations)]
            for _ in range(LANES)
        ]
    return {
        "inputs": inputs,
        "lut": [rng.randrange(MOD) for _ in range(LUT_RECORDS)],
        "xlut": [rng.randrange(MOD) for _ in range(XLUT_RECORDS)],
        "wtab": [
            [rng.randrange(MOD) for _ in range(WTAB_RECORDS)]
            for _ in range(LANES)
        ],
    }


def make_context(spec, streams) -> ListContext:
    """A ListContext with the spec's data bound to the spec's streams."""
    data = program_data(spec)
    ctx = ListContext(LANES)
    ctx.bind_input(streams["in"], data["inputs"])
    if streams["lut"] is not None:
        ctx.bind_table(streams["lut"], [list(data["lut"])] * LANES)
    if streams["xlut"] is not None:
        ctx.bind_global(streams["xlut"], data["xlut"])
    if streams["wtab"] is not None:
        ctx.bind_table(streams["wtab"],
                       [list(t) for t in data["wtab"]])
    return ctx


def assert_same_typed(a, b, where=""):
    """Equality that also requires identical Python types, recursively.

    ``2 == 2.0 == True`` in Python, so plain ``==`` would let a data
    path silently turn ints into floats (or bools into ints);
    architectural state must match *bit for bit*, types included.
    """
    assert type(a) is type(b), f"{where}: {type(a)} != {type(b)}"
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{where}: len {len(a)} != {len(b)}"
        for position, (x, y) in enumerate(zip(a, b)):
            assert_same_typed(x, y, f"{where}[{position}]")
    else:
        assert a == b, f"{where}: {a!r} != {b!r}"
