"""Modulo scheduler: MII bounds, legality, Figure 14 behaviour."""

import pytest

from repro.errors import ScheduleError
from repro.kernel import (
    ClusterResources,
    KernelBuilder,
    ModuloScheduler,
    OpKind,
    min_ii_recurrence,
    min_ii_resources,
)
from repro.kernel.resources import resource_key


def verify_schedule(schedule, resources=None):
    """Assert every dependence and resource constraint holds."""
    resources = resources or ClusterResources()
    kernel = schedule.kernel
    edges = kernel.dependence_edges(
        schedule.inlane_separation, schedule.crosslane_separation,
        schedule.stream_capacity_words,
    )
    for edge in edges:
        gap = schedule.slots[edge.sink.op_id] - schedule.slots[edge.source.op_id]
        assert gap >= edge.latency - schedule.ii * edge.distance, (
            f"{edge.source.name}->{edge.sink.name} violated"
        )
    usage = {}
    for op in kernel.ops:
        key = resource_key(op)
        if key is None:
            continue
        slot = schedule.slots[op.op_id]
        for k in range(op.spec.reserved_cycles):
            cell = (key, (slot + k) % schedule.ii)
            usage[cell] = usage.get(cell, 0) + 1
    for (key, _slot), used in usage.items():
        assert used <= resources.count(key), f"resource {key} oversubscribed"


def pipelinable_lookup_kernel(lookups=1):
    """No loop-carried deps: schedules flat with separation."""
    b = KernelBuilder("pipelinable")
    in_s = b.istream("in")
    out = b.ostream("out")
    x = b.read(in_s)
    acc = x
    for i in range(lookups):
        lut = b.idxl_istream(f"lut{i}")
        v = b.idx_read(lut, acc if i == 0 else x)
        acc = b.add(acc, v)
    b.write(out, acc)
    return b.build()


def loop_carried_kernel():
    """Index computation depends on previous iteration's fetched data."""
    b = KernelBuilder("carried")
    lut = b.idxl_istream("T")
    out = b.ostream("o")
    ptr = b.carry(0, "ptr")
    v = b.idx_read(lut, ptr)
    nxt = b.arith(lambda x: int(x) % 8, v, name="next_ptr")
    b.update(ptr, nxt)
    b.write(out, v)
    return b.build()


class TestMiiBounds:
    def test_resmii_counts_alu_pressure(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        acc = b.const(0)
        for _ in range(8):  # 8 ALU ops on 4 ALUs -> ResMII 2
            acc = b.add(acc, b.const(1))
        b.write(out, acc)
        k = b.build()
        assert min_ii_resources(k, ClusterResources()) == 2

    def test_unpipelined_divider_dominates_resmii(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.div(b.const(1.0), b.const(2.0)))
        k = b.build()
        # One 16-cycle unpipelined divide blocks the divider for 16 cycles.
        assert min_ii_resources(k, ClusterResources()) == 16

    def test_recmii_for_simple_accumulator(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        acc = b.carry(0, "acc")
        nxt = b.add(acc, b.const(1))  # ARITH latency 2, distance 1
        b.update(acc, nxt)
        b.write(out, nxt)
        k = b.build()
        assert min_ii_recurrence(k, 6, 20) == 2

    def test_recmii_grows_with_separation_on_index_recurrence(self):
        k = loop_carried_kernel()
        r2 = min_ii_recurrence(k, 2, 20)
        r10 = min_ii_recurrence(k, 10, 20)
        assert r10 == r2 + 8  # cycle contains exactly one separation edge

    def test_acyclic_kernel_recmii_bounded_by_buffer_capacity(self):
        # No true recurrences, but the reorder buffer (8 words) bounds
        # outstanding accesses: II >= ceil(separation / capacity).
        assert min_ii_recurrence(pipelinable_lookup_kernel(), 10, 24) == 2
        assert min_ii_recurrence(pipelinable_lookup_kernel(), 6, 24) == 1

    def test_larger_buffers_relax_the_capacity_bound(self):
        k = pipelinable_lookup_kernel()
        assert min_ii_recurrence(k, 10, 24, stream_capacity_words=16) == 1


class TestScheduleLegality:
    @pytest.mark.parametrize("sep", [2, 4, 6, 8, 10])
    def test_pipelinable_kernel_all_separations(self, sep):
        k = pipelinable_lookup_kernel(lookups=2)
        s = ModuloScheduler().schedule(k, inlane_separation=sep)
        verify_schedule(s)

    @pytest.mark.parametrize("sep", [2, 4, 6, 8, 10])
    def test_loop_carried_kernel_all_separations(self, sep):
        s = ModuloScheduler().schedule(
            loop_carried_kernel(), inlane_separation=sep
        )
        verify_schedule(s)

    def test_divider_kernel_schedules(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        out = b.ostream("o")
        x = b.read(in_s)
        b.write(out, b.div(b.const(1.0), x))
        s = ModuloScheduler().schedule(b.build())
        verify_schedule(s)
        assert s.ii >= 16

    def test_heavy_alu_kernel_respects_units(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(16):
            acc = b.mul(acc, x)
        b.write(out, acc)
        s = ModuloScheduler().schedule(b.build())
        verify_schedule(s)
        assert s.ii >= 4  # 16 muls on 4 ALUs

    def test_index_port_limit_one_issue_per_stream_per_cycle(self):
        # Section 5.3's single-access-per-stream-per-cycle limit: 4
        # lookups into ONE stream force II >= 4.
        b = KernelBuilder("k")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(4):
            acc = b.add(acc, b.idx_read(lut, x))
        b.write(out, acc)
        s = ModuloScheduler().schedule(b.build())
        verify_schedule(s)
        assert s.ii >= 4

    def test_lookups_across_streams_can_overlap(self):
        # The same 4 lookups spread over 4 streams do not force II 4.
        k = pipelinable_lookup_kernel(lookups=4)
        s = ModuloScheduler().schedule(k)
        assert s.ii < 4 + 1


class TestFigure14Behaviour:
    def test_pipelinable_ii_flat_with_separation(self):
        # Software-pipelinable kernels keep a flat II as separation grows
        # (Figure 14); only the buffer-capacity bound (sep/8, at most 2
        # here) can nudge the II at the largest separations.
        iis = [
            ModuloScheduler().schedule(
                pipelinable_lookup_kernel(2), inlane_separation=sep
            ).ii
            for sep in (2, 6, 10)
        ]
        assert iis[0] == iis[1]
        assert iis[2] <= iis[1] + 1

    def test_pipelinable_depth_grows_with_separation(self):
        depths = [
            ModuloScheduler().schedule(
                pipelinable_lookup_kernel(2), inlane_separation=sep
            ).depth
            for sep in (2, 6, 10)
        ]
        assert depths[0] < depths[1] < depths[2]

    def test_loop_carried_ii_grows_with_separation(self):
        iis = [
            ModuloScheduler().schedule(
                loop_carried_kernel(), inlane_separation=sep
            ).ii
            for sep in (2, 6, 10)
        ]
        assert iis[0] < iis[1] < iis[2]

    def test_stages_counted_from_depth(self):
        s = ModuloScheduler().schedule(
            pipelinable_lookup_kernel(2), inlane_separation=10
        )
        assert s.stages == -(-s.depth // s.ii)


class TestScheduleApi:
    def test_timed_stream_ops_sorted_by_slot(self):
        s = ModuloScheduler().schedule(pipelinable_lookup_kernel(2))
        slots = [s.slots[op.op_id] for op in s.timed_stream_ops()]
        assert slots == sorted(slots)
        kinds = {op.kind for op in s.timed_stream_ops()}
        assert OpKind.ARITH not in kinds

    def test_total_cycles(self):
        s = ModuloScheduler().schedule(pipelinable_lookup_kernel())
        assert s.total_cycles(0) == 0
        assert s.total_cycles(1) == s.depth
        assert s.total_cycles(10) == s.depth + 9 * s.ii

    def test_comm_slots_recorded(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.comm(b.const(1), b.const(0)))
        s = ModuloScheduler().schedule(b.build())
        assert len(s.comm_slots) == 1

    def test_describe_mentions_all_ops(self):
        k = pipelinable_lookup_kernel()
        s = ModuloScheduler().schedule(k)
        text = s.describe()
        for op in k.ops:
            assert op.name in text

    def test_slot_of_unknown_op_raises(self):
        s = ModuloScheduler().schedule(pipelinable_lookup_kernel())
        other = pipelinable_lookup_kernel()
        with pytest.raises(ScheduleError):
            s.slot_of(other.ops[0])
