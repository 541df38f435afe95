"""The modulo scheduler as it stood before its speed rewrite: a test oracle.

The functions and the class below are the previous
``repro.kernel.scheduler`` verbatim: RecMII by binary search over a
Bellman–Ford check that runs until a distance exceeds the sum of the
positive weights (or ``node_count`` rounds), and placement that rebuilds
its predecessor map and reservation dicts on every II attempt. Tests
compare the current scheduler against it for identical RecMII bounds,
schedules and error messages. It is slow on purpose; do not optimise it.
"""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.kernel.ir import Kernel
from repro.kernel.ops import OpKind
from repro.kernel.resources import (
    ClusterResources,
    min_ii_resources,
    resource_key,
)
from repro.kernel.schedule import StaticSchedule
from repro.kernel.scheduler import MAX_II


def min_ii_recurrence(kernel: Kernel, inlane_separation: int,
                      crosslane_separation: int,
                      stream_capacity_words: int = 8) -> int:
    """RecMII: smallest II compatible with every dependence cycle."""
    edges = kernel.dependence_edges(
        inlane_separation, crosslane_separation, stream_capacity_words
    )
    if not any(e.distance > 0 for e in edges):
        return 1
    # Dependence cycles live entirely within strongly connected
    # components, so the Bellman–Ford checks only need the intra-SCC
    # subgraph — usually a small fraction of a mostly-acyclic kernel.
    node_count, compact = _cycle_subgraph(edges)
    if node_count == 0:
        return 1  # distance>0 edges exist but close no cycle
    # Any dependence cycle with distance >= 1 needs at most
    # II = sum of positive latencies, so the search can start well below
    # MAX_II; a positive cycle surviving that bound has zero distance and
    # would survive MAX_II too (it is unsatisfiable at any II).
    latency_cap = sum(
        latency for _, _, latency, _ in compact if latency > 0
    )
    low, high = 1, min(MAX_II, max(1, latency_cap))
    if _positive_cycle(node_count, compact, high):
        raise ScheduleError(
            f"{kernel.name}: recurrence cannot be satisfied below II={MAX_II}"
        )
    while low < high:
        mid = (low + high) // 2
        if _positive_cycle(node_count, compact, mid):
            low = mid + 1
        else:
            high = mid
    return low


def _cycle_subgraph(edges) -> tuple:
    """Intra-SCC subgraph of the dependence graph, densely renumbered.

    Returns ``(node_count, [(source, sink, latency, distance), ...])``
    keeping only edges whose endpoints share a strongly connected
    component (including self-loops) — exactly the edges that can lie on
    a dependence cycle.
    """
    adjacency = {}
    for edge in edges:
        adjacency.setdefault(edge.source.op_id, []).append(edge.sink.op_id)
        adjacency.setdefault(edge.sink.op_id, [])
    scc_of = _strongly_connected(adjacency)
    kept = [
        e for e in edges
        if scc_of[e.source.op_id] == scc_of[e.sink.op_id]
    ]
    nodes = sorted(
        {e.source.op_id for e in kept} | {e.sink.op_id for e in kept}
    )
    renumber = {op_id: i for i, op_id in enumerate(nodes)}
    compact = [
        (renumber[e.source.op_id], renumber[e.sink.op_id],
         e.latency, e.distance)
        for e in kept
    ]
    return len(nodes), compact


def _strongly_connected(adjacency: dict) -> dict:
    """Iterative Tarjan SCC; returns node -> component id."""
    index = {}
    lowlink = {}
    on_stack = {}
    stack = []
    scc_of = {}
    next_index = 0
    next_scc = 0
    for root in adjacency:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pointer = work.pop()
            if pointer == 0:
                index[node] = lowlink[node] = next_index
                next_index += 1
                stack.append(node)
                on_stack[node] = True
            descended = False
            neighbors = adjacency[node]
            while pointer < len(neighbors):
                succ = neighbors[pointer]
                pointer += 1
                if succ not in index:
                    work.append((node, pointer))
                    work.append((succ, 0))
                    descended = True
                    break
                if on_stack.get(succ) and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            if descended:
                continue
            if lowlink[node] == index[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc_of[member] = next_scc
                    if member == node:
                        break
                next_scc += 1
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
    return scc_of


def _positive_cycle(node_count: int, compact, ii: int) -> bool:
    """Bellman–Ford check: does any cycle have latency > II * distance?"""
    weighted = [
        (source, sink, latency - ii * distance)
        for source, sink, latency, distance in compact
    ]
    # A walk whose accumulated weight exceeds the sum of all positive
    # edge weights must traverse a positive cycle (any acyclic walk is
    # bounded by that sum), so growth past the bound ends the search
    # early instead of running all node_count relaxation rounds.
    bound = sum(weight for _, _, weight in weighted if weight > 0)
    distance = [0.0] * node_count
    for _iteration in range(node_count):
        changed = False
        for source, sink, weight in weighted:
            candidate = distance[source] + weight
            if candidate > distance[sink] + 1e-9:
                distance[sink] = candidate
                changed = True
        if not changed:
            return False
        if max(distance) > bound:
            return True
    return True


class ModuloScheduler:
    """Schedules kernels onto one cluster's resources."""

    def __init__(self, resources: "ClusterResources | None" = None):
        self.resources = resources or ClusterResources()

    def schedule(self, kernel: Kernel, inlane_separation: int = 6,
                 crosslane_separation: int = 20,
                 stream_capacity_words: int = 8) -> StaticSchedule:
        """Produce a legal modulo schedule for ``kernel``."""
        kernel.validate()
        edges = kernel.dependence_edges(
            inlane_separation, crosslane_separation, stream_capacity_words
        )
        ii = max(
            min_ii_resources(kernel, self.resources),
            min_ii_recurrence(kernel, inlane_separation,
                              crosslane_separation, stream_capacity_words),
        )
        while ii <= MAX_II:
            slots = self._try_place(kernel, edges, ii)
            if slots is not None:
                return self._finish(
                    kernel, ii, slots, inlane_separation, crosslane_separation
                )
            ii += 1
        raise ScheduleError(
            f"{kernel.name}: no schedule found up to II={MAX_II}"
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _stream_group(op) -> "tuple | None":
        """Ordering-group key for per-stream FIFO semantics.

        Sequential stream buffers and address FIFOs deliver strictly in
        access order, so all ops of a group must be placed monotonically
        and span at most one II: otherwise a software-pipelined
        iteration's late access would interleave with the next
        iteration's early access and scramble the stream. IDX_ISSUE and
        IDX_WRITE share a group because they share the address FIFO.
        """
        if op.kind in (OpKind.SEQ_READ, OpKind.SEQ_WRITE, OpKind.IDX_DATA):
            return (op.kind, op.stream.name)
        if op.kind in (OpKind.IDX_ISSUE, OpKind.IDX_WRITE):
            return ("fifo", op.stream.name)
        return None

    def _try_place(self, kernel: Kernel, edges, ii: int) -> "dict | None":
        """One placement attempt at a fixed II; None on failure."""
        forward = {}  # sink_id -> list of (source_id, latency, distance)
        for edge in edges:
            forward.setdefault(edge.sink.op_id, []).append(
                (edge.source.op_id, edge.latency, edge.distance)
            )

        def earliest_from_deps(op, placed_slots):
            earliest = 0
            for source_id, latency, distance in forward.get(op.op_id, ()):
                if source_id in placed_slots:
                    earliest = max(
                        earliest,
                        placed_slots[source_id] + latency - ii * distance,
                    )
            return earliest

        # ASAP pre-pass (no resources): group floors ensure a stream
        # group's last member can still be within II of its first.
        asap = {}
        for op in kernel.ops:
            asap[op.op_id] = earliest_from_deps(op, asap)
        group_floor = {}
        for op in kernel.ops:
            group = self._stream_group(op)
            if group is not None:
                floor = max(0, asap[op.op_id] - ii)
                group_floor[group] = max(group_floor.get(group, 0), floor)

        reservations = {}  # key -> occupied slots mod ii
        slots = {}
        group_first = {}
        group_last = {}
        for op in kernel.ops:  # program order is topological (fwd edges)
            earliest = earliest_from_deps(op, slots)
            group = self._stream_group(op)
            if group is not None:
                earliest = max(earliest, group_floor.get(group, 0))
                if group in group_last:
                    earliest = max(earliest, group_last[group])
            placed = self._place_in_window(op, earliest, ii, reservations)
            if placed is None:
                return None
            if group is not None:
                first = group_first.setdefault(group, placed)
                if placed - first > ii:
                    return None  # stream span exceeds one iteration
                group_last[group] = placed
            slots[op.op_id] = placed
        # Verify loop-carried constraints (sources placed after sinks).
        for edge in edges:
            lhs = slots[edge.sink.op_id] - slots[edge.source.op_id]
            if lhs < edge.latency - ii * edge.distance:
                return None
        return slots

    def _place_in_window(self, op, earliest: int, ii: int,
                         reservations: dict) -> "int | None":
        key = resource_key(op)
        if key is None:
            return max(earliest, 0)
        units = self.resources.count(key)
        occupied = reservations.setdefault(key, {})
        hold = op.spec.reserved_cycles
        for offset in range(ii):
            slot = max(earliest, 0) + offset
            cells = [(slot + k) % ii for k in range(min(hold, ii))]
            if hold > ii:
                return None  # unpipelined op cannot fit this II
            if all(occupied.get(cell, 0) < units for cell in cells):
                for cell in cells:
                    occupied[cell] = occupied.get(cell, 0) + 1
                return slot
        return None

    @staticmethod
    def _finish(kernel, ii, slots, inlane_separation, crosslane_separation):
        depth = 0
        comm_slots = set()
        for op in kernel.ops:
            slot = slots[op.op_id]
            depth = max(depth, slot + max(op.spec.latency, 1))
            if op.kind is OpKind.COMM:
                comm_slots.add(slot % ii)
        return StaticSchedule(
            kernel=kernel,
            ii=ii,
            slots=slots,
            depth=depth,
            inlane_separation=inlane_separation,
            crosslane_separation=crosslane_separation,
            comm_slots=frozenset(comm_slots),
        )
