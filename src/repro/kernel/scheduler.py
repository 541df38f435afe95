"""Iterative modulo scheduler.

Stand-in for the Imagine communication scheduler ([19] Mattson) used by
the paper (§5.1). The algorithm is classic modulo scheduling:

1. **ResMII** — resource-constrained lower bound: for each functional
   unit class, reserved cycles per iteration divided by unit count.
2. **RecMII** — recurrence-constrained lower bound: the smallest II such
   that every dependence cycle satisfies ``latency_sum <= II *
   distance_sum``. Found by binary search with Bellman–Ford positive-
   cycle detection over edges weighted ``latency - II * distance``.
3. Starting at ``max(ResMII, RecMII)``, ops are placed in topological
   (program) order at their earliest feasible slot, searching one full
   II window in the modulo reservation table; loop-carried (back-edge)
   constraints are verified after placement, and the II is increased on
   failure.

The positive-cycle test is exact in at most ``k + 2`` rounds, where
``k`` is the number of back edges (distance > 0) on the graph's cycles.
Each round relaxes the distance-0 edges in a topological order of the
distance-0 subgraph, then the back edges, so after round ``r`` every
walk that crosses at most ``r - 1`` back edges has fully propagated.
Without a positive cycle the longest walk to each node is a simple
path, which crosses each back edge at most once, so round ``k + 2``
changes nothing; with one, no round is ever quiet (a quiet round is a
feasible potential). Plain Bellman–Ford needs up to one round per node:
Rijndael's recurrence has 640 nodes but 44 back edges. If the
distance-0 edges close a cycle they have no topological order, and the
test keeps the one-round-per-node bound.

Placement retries the same kernel at successive IIs, so what every
attempt needs — each op's predecessors by program position, its stream
group, its reservation-table row, unit count and hold cycles — is
computed once per :meth:`ModuloScheduler.schedule` call as a
:class:`_PlacementPlan`.

Because indexed reads contribute their address-data *separation* as the
issue->data edge latency, kernels with loop-carried dependences through
index computation (Rijndael, Sort) see their II — the static loop
length of Figure 14 — grow with separation, while software-pipelinable
kernels (FFT, Filter, IGraph) keep a flat II and only grow in pipeline
depth. That is precisely the behaviour Section 5.4 measures.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import ScheduleError
from repro.kernel.ir import DependenceEdge, Kernel
from repro.kernel.ops import OpKind
from repro.kernel.resources import (
    ClusterResources,
    min_ii_resources,
    resource_key,
)
from repro.kernel.schedule import StaticSchedule

#: Hard cap on the II search to guarantee termination.
MAX_II = 4096

#: ``(source, sink, latency, distance)`` between dense node numbers.
_Edge = tuple[int, int, int, int]
#: ``(source, sink, weight)`` as relaxed by :func:`_positive_cycle`.
_WeightedEdge = tuple[int, int, int]


def min_ii_recurrence(kernel: Kernel, inlane_separation: int,
                      crosslane_separation: int,
                      stream_capacity_words: int = 8) -> int:
    """RecMII: smallest II compatible with every dependence cycle."""
    edges = kernel.dependence_edges(
        inlane_separation, crosslane_separation, stream_capacity_words
    )
    return _recurrence_ii(kernel.name, edges)


def _recurrence_ii(name: str, edges: list[DependenceEdge]) -> int:
    """RecMII of the kernel called ``name`` with these dependences."""
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
    forward, back, rounds = _relaxation_order(node_count, compact)
    low, high = 1, min(MAX_II, max(1, latency_cap))
    if _positive_cycle(node_count, forward, back, rounds, high):
        raise ScheduleError(
            f"{name}: recurrence cannot be satisfied below II={MAX_II}"
        )
    while low < high:
        mid = (low + high) // 2
        if _positive_cycle(node_count, forward, back, rounds, mid):
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


def _relaxation_order(node_count: int, compact: list[_Edge]
                      ) -> tuple[list[_WeightedEdge], list[_Edge], int]:
    """Edge lists and round count that make :func:`_positive_cycle` exact.

    Returns the distance-0 edges as ``(source, sink, latency)``, sorted
    by their source's place in a topological order of the distance-0
    subgraph; the back edges (distance > 0); and ``k + 2`` rounds for
    ``k`` back edges. If the distance-0 edges close a cycle, they stay
    unsorted and the round count is ``node_count``, as for plain
    Bellman–Ford.
    """
    forward = [
        (source, sink, latency)
        for source, sink, latency, distance in compact if distance == 0
    ]
    back = [edge for edge in compact if edge[3] > 0]
    successors: list[list[int]] = [[] for _ in range(node_count)]
    indegree = [0] * node_count
    for source, sink, _ in forward:
        successors[source].append(sink)
        indegree[sink] += 1
    # Kahn's algorithm; the loop visits the nodes it appends.
    order = [node for node in range(node_count) if indegree[node] == 0]
    for node in order:
        for sink in successors[node]:
            indegree[sink] -= 1
            if indegree[sink] == 0:
                order.append(sink)
    if len(order) < node_count:
        return forward, back, node_count
    rank = [0] * node_count
    for place, node in enumerate(order):
        rank[node] = place
    forward.sort(key=lambda edge: rank[edge[0]])
    return forward, back, len(back) + 2


def _positive_cycle(node_count: int, forward: list[_WeightedEdge],
                    back: list[_Edge], rounds: int, ii: int) -> bool:
    """Bellman–Ford check: does any cycle have latency > II * distance?

    ``forward``, ``back`` and ``rounds`` come from
    :func:`_relaxation_order`; the module docstring shows why a change
    in the last of ``rounds`` rounds means a positive cycle.
    """
    weighted = forward + [
        (source, sink, latency - ii * distance)
        for source, sink, latency, distance in back
    ]
    distance = [0] * node_count
    for _round in range(rounds):
        changed = False
        for source, sink, weight in weighted:
            candidate = distance[source] + weight
            if candidate > distance[sink]:
                distance[sink] = candidate
                changed = True
        if not changed:
            return False
    return True


class _PlacementPlan(NamedTuple):
    """What every placement attempt needs about one kernel.

    ``ops`` has one entry per op in program order: its predecessors
    earlier in program order as ``(source position, latency,
    distance)``, its stream-group index, its reservation-table row (both
    -1 for none), the row's unit count and the op's hold cycles.
    ``edges`` holds every dependence as ``(source position, sink
    position, latency, distance)`` for the check after placement.
    """

    ops: list[tuple[list[tuple[int, int, int]], int, int, int, int]]
    edges: list[_Edge]
    group_count: int
    row_count: int


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
            _recurrence_ii(kernel.name, edges),
        )
        plan = self._plan(kernel, edges)
        while ii <= MAX_II:
            slots = _try_place(plan, ii)
            if slots is not None:
                return self._finish(
                    kernel, ii, slots, inlane_separation,
                    crosslane_separation, stream_capacity_words,
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

    def _plan(self, kernel: Kernel,
              edges: list[DependenceEdge]) -> _PlacementPlan:
        """Dense per-op placement inputs, shared by every II attempt."""
        position = {op.op_id: place for place, op in enumerate(kernel.ops)}
        preds: list[list[tuple[int, int, int]]] = [[] for _ in kernel.ops]
        checks = []
        for edge in edges:
            source = position[edge.source.op_id]
            sink = position[edge.sink.op_id]
            if source < sink:
                preds[sink].append((source, edge.latency, edge.distance))
            checks.append((source, sink, edge.latency, edge.distance))
        groups: dict = {}
        rows: dict = {}
        ops = []
        for op, op_preds in zip(kernel.ops, preds):
            group = self._stream_group(op)
            key = resource_key(op)
            ops.append((
                op_preds,
                -1 if group is None else groups.setdefault(group, len(groups)),
                -1 if key is None else rows.setdefault(key, len(rows)),
                0 if key is None else self.resources.count(key),
                op.spec.reserved_cycles,
            ))
        return _PlacementPlan(ops, checks, len(groups), len(rows))

    @staticmethod
    def _finish(kernel: Kernel, ii: int, placed: list[int],
                inlane_separation: int, crosslane_separation: int,
                stream_capacity_words: int) -> StaticSchedule:
        slots = {}
        depth = 0
        comm_slots = set()
        for op, slot in zip(kernel.ops, placed):
            slots[op.op_id] = slot
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
            stream_capacity_words=stream_capacity_words,
            comm_slots=frozenset(comm_slots),
        )


def _try_place(plan: _PlacementPlan, ii: int) -> "list[int] | None":
    """One placement attempt at a fixed II.

    Returns each op's slot in program order, or None on failure.
    """
    # ASAP pre-pass (no resources): group floors ensure a stream
    # group's last member can still be within II of its first.
    asap: list[int] = []
    group_floor = [0] * plan.group_count
    for preds, group, _row, _units, _hold in plan.ops:
        earliest = 0
        for source, latency, distance in preds:
            candidate = asap[source] + latency - ii * distance
            if candidate > earliest:
                earliest = candidate
        asap.append(earliest)
        if group >= 0 and earliest - ii > group_floor[group]:
            group_floor[group] = earliest - ii

    tables = [[0] * ii for _ in range(plan.row_count)]
    slots: list[int] = []
    group_first = [-1] * plan.group_count
    group_last = [-1] * plan.group_count
    for preds, group, row, units, hold in plan.ops:
        # Program order is topological over the forward edges.
        earliest = 0
        for source, latency, distance in preds:
            candidate = slots[source] + latency - ii * distance
            if candidate > earliest:
                earliest = candidate
        if group >= 0:
            earliest = max(earliest, group_floor[group], group_last[group])
        if row < 0:
            placed = earliest
        else:
            if hold > ii:
                return None  # unpipelined op cannot fit this II
            found = _reserve(tables[row], earliest, ii, units, hold)
            if found is None:
                return None
            placed = found
        if group >= 0:
            if group_first[group] < 0:
                group_first[group] = placed
            if placed - group_first[group] > ii:
                return None  # stream span exceeds one iteration
            group_last[group] = placed
        slots.append(placed)
    # Verify loop-carried constraints (sources placed after sinks).
    for source, sink, latency, distance in plan.edges:
        if slots[sink] - slots[source] < latency - ii * distance:
            return None
    return slots


def _reserve(table: list[int], earliest: int, ii: int, units: int,
             hold: int) -> "int | None":
    """Reserve ``hold`` cycles at the first slot of ``earliest ..
    earliest + ii - 1`` whose cells all have a free unit."""
    if hold == 1:
        for slot in range(earliest, earliest + ii):
            cell = slot % ii
            if table[cell] < units:
                table[cell] += 1
                return slot
        return None
    for slot in range(earliest, earliest + ii):
        cells = [(slot + k) % ii for k in range(hold)]
        if all(table[cell] < units for cell in cells):
            for cell in cells:
                table[cell] += 1
            return slot
    return None
