"""Kernel intermediate representation.

A kernel is the dataflow graph of ONE iteration of its (software
pipelined) inner loop, exactly the granularity the paper's scheduler
works at: the graph's operations are placed into a modulo schedule, and
successive iterations are overlapped II cycles apart.

The IR is deliberately small:

* :class:`Op` — one operation; operands are other ops (SSA-style), so
  construction order is automatically a topological order of the acyclic
  part of the graph;
* :class:`Carry` — a loop-carried register: reading it inside the graph
  is an :data:`OpKind.CARRY` op, and :meth:`KernelStream`-independent
  back edges are formed by assigning its ``update`` op, which creates a
  distance-1 dependence (the recurrences that make Rijndael and Sort
  schedule lengths grow with address-data separation in Figure 14);
* :class:`KernelStream` — a formal stream parameter (Table 1 kind),
  bound to a concrete SRF stream only at execution time.

Functional payloads are plain Python callables stored on ARITH/MUL/DIV
ops, so the same graph that the scheduler times is the one the
interpreter executes on real data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.core.descriptors import StreamKind
from repro.errors import KernelBuildError
from repro.kernel.ops import OpKind, OpSpec, spec_of

_op_ids = itertools.count()


@dataclass(frozen=True)
class KernelStream:
    """A formal stream parameter of a kernel (paper Table 1 types)."""

    name: str
    kind: StreamKind
    record_words: int = 1

    def __post_init__(self) -> None:
        if self.record_words <= 0:
            raise KernelBuildError(f"{self.name}: record_words must be >= 1")


class Op:
    """One IR operation (also usable as an SSA value)."""

    def __init__(self, kind: OpKind, operands=(), payload=None,
                 stream: "KernelStream | None" = None, name: str = "",
                 value=None, algebra: "str | None" = None):
        self.op_id = next(_op_ids)
        self.kind = kind
        self.operands = list(operands)
        self.payload = payload  # functional callable for ARITH/MUL/DIV
        self.stream = stream  # for stream ops
        self.name = name or f"{kind.value}_{self.op_id}"
        self.value = value  # for CONST
        self.carry: "Carry | None" = None  # for CARRY reads
        #: Known algebraic semantics of the payload ("add", "sub", "mul",
        #: ...), set by the builder helpers whose payloads it describes.
        #: ``None`` means the payload is an opaque callable; the static
        #: index analysis (repro.analyze) treats such values as
        #: unbounded rather than guessing.
        self.algebra = algebra

    @property
    def spec(self) -> OpSpec:
        return spec_of(self.kind)

    def __repr__(self) -> str:
        return f"<Op {self.name}>"


class Carry:
    """A loop-carried register (initialised once, updated each iteration)."""

    def __init__(self, init_value, name: str):
        self.init_value = init_value
        self.name = name
        self.read_op: "Op | None" = None
        self.update_op: "Op | None" = None

    def __repr__(self) -> str:
        return f"<Carry {self.name}>"


@dataclass
class DependenceEdge:
    """A scheduling dependence: ``sink`` at least ``latency`` cycles after
    ``source``, ``distance`` iterations later."""

    source: Op
    sink: Op
    latency: int
    distance: int = 0


@dataclass(eq=False)
class Kernel:
    """A complete kernel: streams, ops in topological order, carries.

    Kernels compare (and hash) by identity: a kernel's ops carry
    process-unique ``op_id``s, so two structurally identical kernels are
    still distinct schedulable entities — and identity hashing lets
    machine-level caches key on the kernel object itself instead of the
    recyclable ``id()`` of a possibly-collected object.
    """

    name: str
    ops: list = field(default_factory=list)
    streams: dict = field(default_factory=dict)  # name -> KernelStream
    carries: list = field(default_factory=list)

    def stream_ops(self, *kinds) -> list:
        """All ops of the given stream-related kinds, in program order."""
        wanted = set(kinds)
        return [op for op in self.ops if op.kind in wanted]

    def validate(self) -> None:
        """Check structural invariants; raises KernelBuildError."""
        ids = {op.op_id for op in self.ops}
        seen = set()
        for op in self.ops:
            for operand in op.operands:
                if operand.op_id not in ids:
                    raise KernelBuildError(
                        f"{self.name}: {op.name} uses {operand.name} which "
                        "is not part of this kernel"
                    )
                if operand.op_id not in seen and operand.kind is not OpKind.CARRY:
                    raise KernelBuildError(
                        f"{self.name}: {op.name} uses {operand.name} before "
                        "definition (graph must be built in order)"
                    )
            seen.add(op.op_id)
        carry_set = set(map(id, self.carries))
        for carry in self.carries:
            if carry.update_op is None:
                raise KernelBuildError(
                    f"{self.name}: carry {carry.name} never updated"
                )
            if carry.update_op.op_id not in ids:
                raise KernelBuildError(
                    f"{self.name}: carry {carry.name} updated by "
                    f"{carry.update_op.name}, which is not part of this "
                    "kernel"
                )
        registered = set(map(id, self.streams.values()))
        for op in self.ops:
            if op.kind in (OpKind.SEQ_READ, OpKind.SEQ_WRITE, OpKind.IDX_ISSUE,
                           OpKind.IDX_DATA, OpKind.IDX_WRITE):
                if op.stream is None:
                    raise KernelBuildError(
                        f"{self.name}: {op.name} has no stream"
                    )
                if id(op.stream) not in registered:
                    raise KernelBuildError(
                        f"{self.name}: {op.name} accesses stream "
                        f"{op.stream.name!r} which is not declared on this "
                        "kernel"
                    )
            elif op.kind is OpKind.CARRY:
                if op.carry is None or id(op.carry) not in carry_set:
                    raise KernelBuildError(
                        f"{self.name}: {op.name} reads a carry that is not "
                        "declared on this kernel"
                    )

    # ------------------------------------------------------------------
    def dependence_edges(self, inlane_separation: int,
                         crosslane_separation: int,
                         stream_capacity_words: int = 8) -> list:
        """All scheduling dependences, including loop-carried back edges.

        ``*_separation`` set the issue->data latency of indexed reads —
        the Section 5.4 knob. Cross-lane streams use the larger value.

        ``stream_capacity_words`` bounds each indexed read stream's
        outstanding accesses: an access can only be issued once the
        access ``capacity`` records before it has been consumed (the
        reorder buffer holds ``stream_buffer_words`` words per lane per
        stream). Without these capacity back-edges a schedule could
        demand more in-flight data than the buffer holds, which on the
        lock-stepped machine is a deadlock, not a stall.
        """
        edges = []
        for op in self.ops:
            for operand in op.operands:
                if operand.kind is OpKind.CARRY:
                    # Carry reads are register reads: available at cycle 0
                    # of the iteration; the true dependence is the back
                    # edge from the update (added below).
                    continue
                latency = operand.spec.latency
                if op.kind is OpKind.IDX_DATA and operand.kind is OpKind.IDX_ISSUE:
                    latency = (
                        crosslane_separation
                        if operand.stream.kind is StreamKind.CROSSLANE_INDEXED_READ
                        else inlane_separation
                    )
                edges.append(DependenceEdge(operand, op, latency, 0))
        for carry in self.carries:
            update = carry.update_op
            for op in self.ops:
                if any(
                    operand.kind is OpKind.CARRY and operand.carry is carry
                    for operand in op.operands
                ):
                    edges.append(
                        DependenceEdge(update, op, update.spec.latency, 1)
                    )
        edges.extend(self._capacity_edges(stream_capacity_words))
        return edges

    def _capacity_edges(self, capacity_words: int) -> list:
        """Reorder-buffer capacity constraints per indexed read stream."""
        edges = []
        per_stream = {}
        for op in self.ops:
            if op.kind in (OpKind.IDX_ISSUE, OpKind.IDX_DATA):
                issues, datas = per_stream.setdefault(
                    op.stream.name, ([], [])
                )
                (issues if op.kind is OpKind.IDX_ISSUE else datas).append(op)
        for issues, datas in per_stream.values():
            count = len(issues)
            if count != len(datas) or count == 0:
                continue
            record_words = issues[0].stream.record_words
            capacity = max(1, capacity_words // record_words)
            for r in range(count):
                target = r + capacity
                distance, index = divmod(target, count)
                # data_r must be consumed before issue_{r+capacity}
                # (distance iterations later) can enter the FIFO.
                edges.append(
                    DependenceEdge(datas[r], issues[index], 0, distance)
                )
        return edges
