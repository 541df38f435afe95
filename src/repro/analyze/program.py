"""Stream-program static analysis: bindings, bounds, extents, hazards.

Where the kernel verifier looks at one dataflow graph in isolation,
this pass sees the whole :class:`~repro.machine.program.StreamProgram`
— concrete stream descriptors bound to formal parameters, trip counts,
and the task dependence graph — and checks what only that view can:

* **binding discipline** — every binding's kind/record-width matches
  the formal parameter, indexed streams only appear on machines whose
  SRF supports indexing, and no stream's footprint falls outside the
  SRF;
* **bounds proofs** — each indexed access's record index is evaluated
  over the :mod:`~repro.analyze.intervals` domain against the *bound*
  stream's length. Indices proven inside are counted; an exact affine
  index that escapes the bound is a hard error (the access provably
  faults); everything else is a cannot-prove note, never an error;
* **stream extents** — a kernel popping more sequential words per lane
  than the bound stream holds will starve its port and deadlock the
  lock-stepped machine; that is decidable from op counts × trip count;
* **hazards** — unordered tasks whose SRF footprints overlap with at
  least one writer race in the simulator. Memory transfers genuinely
  run concurrently, so those overlaps are errors (``srf-race``); kernel
  pairs serialise on the single microcontroller (order may still be
  timing-dependent), so those are warnings. Main memory is a second
  address space: unordered memory transfers whose address spans
  overlap with at least one writer race too (``mem-race``).

Footprints are block-aligned: the allocator hands out whole N×m
blocks, so block granularity is conservative *within* an allocation
but can never merge two distinct allocations — which is what keeps the
hazard check free of false positives. A main-memory span likewise
never leaves its transfer's region.
"""

from __future__ import annotations

import itertools

from repro.analyze.banks import bank_estimates
from repro.analyze.diagnostics import AnalysisReport, error, info, warning
from repro.analyze.intervals import IndexEvaluator
from repro.analyze.verifier import verify_kernel
from repro.config.machine import MachineConfig
from repro.core.descriptors import IndexSpace, StreamDescriptor
from repro.core.geometry import SrfGeometry
from repro.kernel.ops import OpKind
from repro.machine.program import StreamProgram


def _geometry(config: MachineConfig) -> SrfGeometry:
    return SrfGeometry(
        lanes=config.lanes,
        bank_words=config.bank_words,
        words_per_lane_access=config.words_per_lane_access,
        subarrays_per_bank=config.subarrays_per_bank,
    )


def footprint(descriptor: StreamDescriptor,
              geometry: SrfGeometry) -> tuple:
    """Block-aligned global word range ``[start, end)`` of a stream.

    ``PER_LANE`` streams hold ``length_words`` words in *every* bank, so
    their global footprint spans one block per ``m`` per-lane words;
    sequential and ``GLOBAL`` streams span their word range directly.
    """
    block = geometry.block_words
    m = geometry.words_per_lane_access
    first = (descriptor.base // block) * block
    if descriptor.kind.is_indexed and \
            descriptor.index_space is IndexSpace.PER_LANE:
        blocks = -(-descriptor.length_words // m)
    else:
        span = descriptor.base + descriptor.length_words - first
        blocks = -(-span // block)
    return first, first + max(1, blocks) * block


def analyze_program(program: StreamProgram, config: MachineConfig,
                    bank_pressure: bool = True) -> AnalysisReport:
    """Run every program-level check; returns the aggregate report."""
    report = AnalysisReport(subject=f"{program.name} on {config.name}")
    geometry = _geometry(config)
    report.extend(_check_dependencies(program))
    verified = set()
    analyzed = set()
    for task in program.tasks:
        if not task.is_kernel:
            continue
        invocation = task.work
        kernel = invocation.kernel
        if id(kernel) not in verified:
            verified.add(id(kernel))
            report.extend(verify_kernel(kernel))
        report.extend(_check_bindings(task, config, geometry))
        # Identical invocations recur per strip of a steady-state chain;
        # the index analysis depends only on this signature.
        signature = (
            id(kernel), invocation.iterations,
            tuple(sorted(
                (name, d.kind.value, d.length_records, d.record_words)
                for name, d in invocation.bindings.items()
            )),
        )
        if signature in analyzed:
            continue
        analyzed.add(signature)
        evaluator = IndexEvaluator(
            kernel, invocation.iterations, config.lanes
        )
        report.extend(_check_bounds(task, evaluator))
        report.extend(_check_extents(task, geometry))
        if bank_pressure and config.supports_indexing:
            report.extend(bank_estimates(task, evaluator, geometry))
    report.extend(_check_hazards(program, geometry))
    return report


# ----------------------------------------------------------------------
def _check_dependencies(program: StreamProgram):
    """Every dependency must name an earlier task of this program."""
    seen = set()
    for task in program.tasks:
        for dep in task.deps:
            if dep not in seen:
                yield error(
                    "dangling-dependency",
                    f"task {task.task_id} '{task.name}' depends on task "
                    f"{dep}, which is not an earlier task of this program",
                    task=task.name,
                )
        seen.add(task.task_id)


def _check_bindings(task, config: MachineConfig, geometry: SrfGeometry):
    """Formal/actual agreement and machine capability per binding."""
    invocation = task.work
    for name, formal in invocation.kernel.streams.items():
        descriptor = invocation.bindings.get(name)
        if descriptor is None:
            yield error(
                "missing-binding",
                f"stream {name!r} is not bound",
                kernel=invocation.kernel.name, stream=name, task=task.name,
            )
            continue
        if descriptor.kind is not formal.kind:
            yield error(
                "binding-kind-mismatch",
                f"formal {name!r} is {formal.kind.value} but is bound to a "
                f"{descriptor.kind.value} descriptor",
                kernel=invocation.kernel.name, stream=name, task=task.name,
            )
            continue
        if descriptor.record_words != formal.record_words:
            yield error(
                "binding-record-words",
                f"formal {name!r} has {formal.record_words}-word records "
                f"but its binding has {descriptor.record_words}-word records",
                kernel=invocation.kernel.name, stream=name, task=task.name,
            )
        if descriptor.kind.is_indexed and not config.supports_indexing:
            yield error(
                "indexing-unsupported",
                f"stream {name!r} needs indexed SRF access but machine "
                f"{config.name!r} is sequential-only",
                kernel=invocation.kernel.name, stream=name, task=task.name,
            )
            continue
        start, end = footprint(descriptor, geometry)
        if end > config.srf_words:
            yield error(
                "srf-overflow",
                f"stream {name!r} spans SRF words [{start}, {end}) but the "
                f"SRF holds {config.srf_words} words",
                kernel=invocation.kernel.name, stream=name, task=task.name,
            )


def _check_bounds(task, evaluator: IndexEvaluator):
    """Per indexed access: prove in-bounds, prove out-of-bounds, or note."""
    invocation = task.work
    kernel = invocation.kernel
    if invocation.iterations <= 0:
        return
    proven = total = 0
    for op in kernel.stream_ops(OpKind.IDX_ISSUE, OpKind.IDX_WRITE):
        descriptor = invocation.bindings.get(op.stream.name)
        if descriptor is None or not op.operands:
            continue
        total += 1
        predicated = len(op.operands) == (
            2 if op.kind is OpKind.IDX_ISSUE else 3
        )
        value = evaluator.value_of(op.operands[0])
        limit = descriptor.length_records - 1
        if value.interval.within(0, limit):
            proven += 1
        elif value.is_exact and not predicated:
            yield error(
                "index-out-of-bounds",
                f"{op.name} indexes {op.stream.name!r} with "
                f"{value.describe()}, reaching "
                f"{value.interval.describe()} outside records [0, {limit}]",
                kernel=kernel.name, op=op.name, stream=op.stream.name,
                task=task.name,
            )
        else:
            yield info(
                "bounds-unproven",
                f"{op.name} indexes {op.stream.name!r} with "
                f"{value.describe()}; cannot prove it stays in "
                f"[0, {limit}]",
                kernel=kernel.name, op=op.name, stream=op.stream.name,
                task=task.name,
            )
    if total:
        yield info(
            "bounds-summary",
            f"{proven} of {total} indexed accesses proven in bounds",
            kernel=kernel.name, task=task.name,
        )


def _check_extents(task, geometry: SrfGeometry):
    """Sequential pops/pushes per lane must fit the bound stream."""
    invocation = task.work
    kernel = invocation.kernel
    if invocation.iterations <= 0:
        return
    per_stream = {}
    for op in kernel.stream_ops(OpKind.SEQ_READ, OpKind.SEQ_WRITE):
        per_stream[op.stream.name] = per_stream.get(op.stream.name, 0) + 1
    for name, ops_per_iter in sorted(per_stream.items()):
        descriptor = invocation.bindings.get(name)
        if descriptor is None or descriptor.length_words <= 0:
            continue
        # Same block arithmetic as footprint() — pure, so a descriptor
        # that escapes the SRF still gets its srf-overflow diagnostic
        # from _check_bindings instead of crashing the analysis here.
        start, end = footprint(descriptor, geometry)
        blocks = (end - start) // geometry.block_words
        capacity = blocks * geometry.words_per_lane_access
        needed = ops_per_iter * invocation.iterations
        if needed > capacity:
            yield error(
                "stream-overrun",
                f"kernel moves {needed} words/lane on stream {name!r} "
                f"({ops_per_iter}/iteration x {invocation.iterations}) but "
                f"its binding holds {capacity} words/lane — the port "
                "exhausts and the machine deadlocks",
                kernel=kernel.name, stream=name, task=task.name,
            )


# ----------------------------------------------------------------------
def _access_ranges(task, geometry: SrfGeometry):
    """(space, start, end, writes, name) footprints of one task.

    A memory op also spans ``[min, max + 1)`` of its main-memory
    addresses, which is conservative for a gather or scatter.
    """
    if task.is_kernel:
        for name, descriptor in sorted(task.work.bindings.items()):
            start, end = footprint(descriptor, geometry)
            if descriptor.kind.is_read:
                yield "SRF", start, end, False, name
            if descriptor.kind.is_write:
                yield "SRF", start, end, True, name
    else:
        op = task.work
        start, end = footprint(op.srf, geometry)
        yield "SRF", start, end, op.into_srf, op.srf.name
        yield ("main-memory", min(op.mem_addrs), max(op.mem_addrs) + 1,
               not op.into_srf, op.describe())


def _check_hazards(program: StreamProgram, geometry: SrfGeometry):
    """Unordered overlapping accesses to one address space (the SRF or
    main memory) with at least one writer."""
    tasks = program.tasks
    ancestors = {}
    for task in tasks:
        reach = set()
        for dep in task.deps:
            reach.add(dep)
            reach |= ancestors.get(dep, frozenset())
        ancestors[task.task_id] = frozenset(reach)
    accesses = [
        (task, list(_access_ranges(task, geometry))) for task in tasks
    ]
    for i, (first, first_ranges) in enumerate(accesses):
        for second, second_ranges in accesses[i + 1:]:
            if (first.task_id in ancestors[second.task_id]
                    or second.task_id in ancestors.get(
                        first.task_id, frozenset())):
                continue
            conflicts = sorted({
                (space, name_a, name_b)
                for (space, a0, a1, wr_a, name_a) in first_ranges
                for (space_b, b0, b1, wr_b, name_b) in second_ranges
                if space == space_b and (wr_a or wr_b)
                and a0 < b1 and b0 < a1
            })
            for space, group in itertools.groupby(
                conflicts, key=lambda conflict: conflict[0]
            ):
                pairs = ", ".join(f"{a!r}/{b!r}" for _, a, b in group)
                if space == "SRF" and first.is_kernel and second.is_kernel:
                    yield warning(
                        "kernel-overlap-unordered",
                        f"kernels '{first.name}' (task {first.task_id}) and "
                        f"'{second.name}' (task {second.task_id}) touch "
                        f"overlapping SRF streams ({pairs}) with no ordering "
                        "dependency; they serialise on the microcontroller "
                        "but their order is timing-dependent",
                        task=first.name,
                    )
                else:
                    yield error(
                        "srf-race" if space == "SRF" else "mem-race",
                        f"tasks '{first.name}' (task {first.task_id}) and "
                        f"'{second.name}' (task {second.task_id}) access "
                        f"overlapping {space} words ({pairs}) with at least "
                        "one writer and no ordering dependency — they can "
                        "run concurrently and race",
                        task=first.name,
                    )
