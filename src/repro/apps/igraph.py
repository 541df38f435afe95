"""Irregular Graph (IG) synthetic benchmark (paper §5.2, Table 4).

Simulates neighbour interactions in a static irregular graph: "For each
node in the graph, all of its neighbors are accessed, and the node value
is updated based on the neighbors' values." The graph is much larger
than the SRF, so it is processed in strips of whole nodes.

* **Base/Cache**: every neighbour access becomes a replicated record in
  a sequential stream, gathered from memory per strip (Figure 5a) — a
  node referenced by k strip edges is fetched k times. Cacheable on the
  Cache machine, which also captures *inter-strip* reuse.
* **ISRF**: the strip's referenced node values are loaded once
  (de-duplicated) into a node array striped across all banks, and each
  neighbour access is a cross-lane indexed read of that single copy
  (Figure 5b). "No data is replicated across lanes, and therefore, all
  indexed SRF accesses are cross-lane." Eliminating replication lets
  strips be about twice as long for the same SRF footprint (Table 4),
  amortising kernel startup/pipeline overheads and inter-lane load
  imbalance over more useful work.

Three Table 4 parameters span the application space: floating-point ops
per neighbour (16 = memory-limited, 51 = compute-limited on Base),
average graph degree (4 sparse / 16 dense), and strip length.

The per-neighbour computation is a deterministic mul/add chain; node
updates are verified against an identical-order Python reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.common import (
    AppResult,
    accumulator,
    make_processor,
    steady_state_run,
)
from repro.config.machine import MachineConfig
from repro.core.arrays import SrfArray
from repro.kernel.builder import KernelBuilder
from repro.kernel.ir import Kernel
from repro.machine.program import KernelInvocation, StreamProgram
from repro.memory.ops import gather_op, load_op, store_op

#: Weight of the accumulated neighbour term in the node update.
UPDATE_SCALE = 0.1

#: Chain constants for the per-neighbour computation (cycled).
CHAIN_CONSTANTS = (1.0000931, 0.9999271, 1.0001173, 0.9998659)


@dataclass(frozen=True)
class IgDataset:
    """One Table 4 dataset configuration."""

    name: str
    flops_per_neighbor: int
    avg_degree: int
    base_strip_edges: int
    isrf_strip_edges: int

    def strip_edges(self, indexed: bool) -> int:
        return self.isrf_strip_edges if indexed else self.base_strip_edges


#: The four Table 4 datasets.
TABLE4 = {
    "IG_SML": IgDataset("IG_SML", 16, 4, 1163, 2316),
    "IG_SCL": IgDataset("IG_SCL", 51, 4, 1163, 2316),
    "IG_DMS": IgDataset("IG_DMS", 16, 16, 265, 528),
    "IG_DCS": IgDataset("IG_DCS", 51, 16, 265, 528),
}


def chain_value(value: float, flops: int) -> float:
    """Reference per-neighbour computation (mirrors the kernel exactly)."""
    x = value
    for k in range(flops):
        c = CHAIN_CONSTANTS[k % len(CHAIN_CONSTANTS)]
        if k % 2 == 0:
            x = x * c
        else:
            x = x + c
    return x


class IrregularGraph:
    """A random graph with spatial locality, in adjacency-list form."""

    def __init__(self, nodes: int, avg_degree: int, seed: int = 11,
                 locality_window: int = 96):
        if nodes <= locality_window:
            locality_window = max(4, nodes // 4)
        rng = random.Random(seed)
        self.nodes = nodes
        self.values = [rng.uniform(0.5, 1.5) for _ in range(nodes)]
        self.neighbors = []
        for v in range(nodes):
            degree = max(1, round(rng.gauss(avg_degree, avg_degree / 4)))
            adj = []
            for _ in range(degree):
                offset = rng.randint(-locality_window, locality_window) or 1
                adj.append(min(nodes - 1, max(0, v + offset)))
            self.neighbors.append(adj)
        self.edge_count = sum(len(a) for a in self.neighbors)

    def reference_updates(self, flops: int) -> list:
        """Golden node updates (single Jacobi sweep)."""
        out = []
        for v in range(self.nodes):
            acc = 0.0
            for u in self.neighbors[v]:
                acc += chain_value(self.values[u], flops)
            out.append(self.values[v] + UPDATE_SCALE * acc)
        return out

    def strips(self, target_edges: int) -> list:
        """Partition nodes into strips of ~``target_edges`` edges each."""
        strips = []
        current, count = [], 0
        for v in range(self.nodes):
            current.append(v)
            count += len(self.neighbors[v])
            if count >= target_edges:
                strips.append(current)
                current, count = [], 0
        if current:
            strips.append(current)
        return strips


class IgBenchmark:
    """Runs one IG dataset on one machine configuration."""

    def __init__(self, config: MachineConfig, dataset: IgDataset,
                 nodes: int = 1024, seed: int = 11):
        self.config = config
        self.dataset = dataset
        self.proc = make_processor(config)
        self.graph = IrregularGraph(nodes, dataset.avg_degree, seed)
        self._indexed = config.supports_indexing
        self.strip_edges = dataset.strip_edges(self._indexed)
        self.strips = self.graph.strips(self.strip_edges)
        self._acc = {}
        self._setup_memory()
        self._setup_arrays()
        self.edge_kernel = self._build_edge_kernel()
        self.update_kernel = self._build_update_kernel()
        self.update_regions = []
        self.update_slots = []
        self._guard = None

    # ------------------------------------------------------------------
    def _setup_memory(self) -> None:
        # Node records in main memory: 2 words each (value, node id),
        # plus one sentinel record (id -1) that padded lockstep edges
        # gather harmlessly.
        graph = self.graph
        self.node_region = self.proc.memory.allocate(
            2 * (graph.nodes + 1), f"ig_nodes_{self.config.name}"
        )
        image = []
        for v in range(graph.nodes):
            image.extend((graph.values[v], float(v)))
        image.extend((0.0, -1.0))
        self.proc.memory.load_region(self.node_region, image)
        self._sentinel_offset = 2 * graph.nodes
        # The condensed edge (index) arrays and per-strip streams are
        # materialised per strip in build-time regions.

    def _setup_arrays(self) -> None:
        lanes = self.config.lanes
        srf = self.proc.srf
        max_edges = max(self.strip_edges * 2, 512)
        per_lane_edges = -(-max_edges // lanes) + 8
        words = per_lane_edges * lanes
        if self._indexed:
            self.edge_arrays = [SrfArray(srf, words, f"ig_e{i}")
                                for i in (0, 1)]
            node_words = max(2 * self.strip_edges, 256)
            self.nodes_arrays = [SrfArray(srf, node_words, f"ig_n{i}")
                                 for i in (0, 1)]
        else:
            self.gather_arrays = [SrfArray(srf, 2 * words, f"ig_g{i}")
                                  for i in (0, 1)]
        update_words = max(words // 2, 256)
        self.node_in_arrays = [SrfArray(srf, update_words, f"ig_u{i}")
                               for i in (0, 1)]
        self.out_arrays = [SrfArray(srf, update_words, f"ig_o{i}")
                           for i in (0, 1)]

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _chain(self, b: KernelBuilder, x):
        flops = self.dataset.flops_per_neighbor
        for k in range(flops):
            c = b.const(CHAIN_CONSTANTS[k % len(CHAIN_CONSTANTS)])
            if k % 2 == 0:
                x = b.mul(x, c, name=f"chain_m{k}")
            else:
                x = b.add(x, c, name=f"chain_a{k}")
        return x

    def _build_edge_kernel(self) -> Kernel:
        """Phase A: one neighbour (edge) per lane per iteration.

        The ISRF variant reads a condensed 1-word edge record (owner
        node, neighbour slot) sequentially and the neighbour value with
        a cross-lane indexed read of the single de-duplicated copy. The
        Base variant consumes the replicated 2-word neighbour record
        (value, owner id) the per-strip gather produced.
        """
        b = KernelBuilder(
            f"igraph_{'isrf' if self._indexed else 'base'}_"
            f"f{self.dataset.flops_per_neighbor}"
        )
        if self._indexed:
            edges = b.istream("edges")
            edge = b.read(edges, name="edge")  # (node_id, nbr_index)
            node_id = b.logic(lambda e: e[0], edge, name="node_id")
            valid = b.logic(lambda e: e[0] >= 0, edge, name="valid")
            nodes = b.idx_istream("nodes")
            nbr_idx = b.logic(lambda e: e[1], edge, name="nbr_idx")
            value = b.idx_read(nodes, nbr_idx, predicate=valid,
                               name="nbr_value")
        else:
            gathered = b.istream("gathered")
            value = b.read(gathered, name="nbr_value")
            node_id = b.read(gathered, name="owner_id")
        contribution = self._chain(b, value)
        b.arith(accumulator(self._acc), node_id, contribution, name="accum")
        return b.build()

    def _build_update_kernel(self) -> Kernel:
        """Phase B: write one node update per lane per iteration."""
        b = KernelBuilder("igraph_update")
        nodes_in = b.istream("nodes_in")
        out = b.ostream("updates")
        rec = b.read(nodes_in, name="node_rec")  # (node_id, old_value)
        acc = self._acc
        new = b.arith(
            lambda r: (r[1] + UPDATE_SCALE * acc.get(int(r[0]), 0.0))
            if r[0] >= 0 else 0.0,
            rec, name="new_value",
        )
        b.write(out, new)
        return b.build()

    # ------------------------------------------------------------------
    # Per-strip data
    # ------------------------------------------------------------------
    def _strip_edge_lists(self, strip_nodes: list) -> tuple:
        """Deal nodes (with their edges) to lanes; returns per-lane edge
        tuple lists (padded) and per-lane useful edge counts."""
        lanes = self.config.lanes
        per_lane = [[] for _ in range(lanes)]
        for position, v in enumerate(strip_nodes):
            lane = position % lanes
            for u in self.graph.neighbors[v]:
                per_lane[lane].append((v, u))
        useful = [len(lst) for lst in per_lane]
        width = self._round_width(max(useful) if useful else 0)
        padded = [
            lst + [(-1, 0)] * (width - len(lst)) for lst in per_lane
        ]
        return padded, useful, width

    def _round_width(self, width: int) -> int:
        """Round per-lane stream lengths up to whole SRF access groups."""
        m = self.proc.srf.geometry.words_per_lane_access
        return max(m, -(-width // m) * m)

    def _strip_node_lists(self, strip_nodes: list) -> tuple:
        lanes = self.config.lanes
        per_lane = [[] for _ in range(lanes)]
        for position, v in enumerate(strip_nodes):
            per_lane[position % lanes].append((v, self.graph.values[v]))
        useful = [len(lst) for lst in per_lane]
        width = self._round_width(max(useful) if useful else 0)
        padded = [
            lst + [(-1, 0.0)] * (width - len(lst)) for lst in per_lane
        ]
        return padded, useful, width

    # ------------------------------------------------------------------
    def build_program(self, rep: int) -> StreamProgram:
        cfg = self.config
        strip_nodes = self.strips[rep % len(self.strips)]
        buf = rep % 2
        prog = StreamProgram(f"ig_{self.dataset.name}_{cfg.name}_{rep}")
        guard = [self._guard] if self._guard is not None else []

        edge_lists, useful_e, width_e = self._strip_edge_lists(strip_nodes)
        node_lists, useful_n, width_n = self._strip_node_lists(strip_nodes)
        lanes = cfg.lanes

        referenced = sorted({
            u for lst in edge_lists for (v, u) in lst if v >= 0
        })
        slot_of = {u: s for s, u in enumerate(referenced)}
        bindings = {}
        edge_deps = []
        if self._indexed:
            # --- condensed edge (index) stream ---------------------
            edge_arr = self.edge_arrays[buf]
            edge_words = [
                [(v, slot_of[u]) if v >= 0 else (-1, 0) for (v, u) in lst]
                for lst in edge_lists
            ]
            edge_region = self.proc.memory.allocate(
                max(1, width_e * lanes),
                f"ig_edges_{self.dataset.name}_{cfg.name}_{rep}",
            )
            self.proc.memory.load_region(
                edge_region, edge_arr.stream_image_per_lane(edge_words)
            )
            t_edges = prog.add_memory(
                load_op(edge_arr.seq_read(width_e * lanes), edge_region),
                deps=guard,
            )
            bindings["edges"] = edge_arr.seq_read(width_e * lanes)
            edge_deps.append(t_edges)
            nodes_arr = self.nodes_arrays[buf]
            node_vals_region = self.proc.memory.allocate(
                max(1, len(referenced)),
                f"ig_nvals_{self.dataset.name}_{cfg.name}_{rep}",
            )
            # De-duplicated node values: gather one copy per referenced
            # node from the memory-resident node records.
            t_nodes = prog.add_memory(gather_op(
                nodes_arr.seq_read(len(referenced)), self.node_region,
                [2 * u for u in referenced],
                name=f"ig_nodeload{rep}",
            ), deps=guard)
            bindings["nodes"] = nodes_arr.crosslane_read(len(referenced))
            edge_deps.append(t_nodes)
        else:
            # --- replicated neighbour records (value of u, id of v) --
            gather_arr = self.gather_arrays[buf]
            sentinel = self._sentinel_offset
            per_lane_offsets = [
                [
                    w
                    for (v, u) in lst
                    for w in (
                        (2 * u, 2 * v + 1) if v >= 0
                        else (sentinel, sentinel + 1)
                    )
                ]
                for lst in edge_lists
            ]
            offsets = gather_arr.stream_image_per_lane(per_lane_offsets)
            t_gather = prog.add_memory(gather_op(
                gather_arr.seq_read(2 * width_e * lanes), self.node_region,
                offsets, cacheable=cfg.has_cache,
                name=f"ig_gather{rep}",
            ), deps=guard)
            bindings["gathered"] = gather_arr.seq_read(2 * width_e * lanes)
            edge_deps.append(t_gather)

        def on_start():
            self._acc.clear()

        t_phase_a = prog.add_kernel(KernelInvocation(
            self.edge_kernel, bindings, iterations=width_e,
            useful_iterations=useful_e,
            name=f"{self.edge_kernel.name}_s{rep}", on_start=on_start,
        ), deps=edge_deps)

        # --- phase B: node updates -----------------------------------
        node_in_arr = self.node_in_arrays[buf]
        out_arr = self.out_arrays[buf]
        node_in_region = self.proc.memory.allocate(
            max(1, width_n * lanes),
            f"ig_nin_{self.dataset.name}_{cfg.name}_{rep}",
        )
        self.proc.memory.load_region(
            node_in_region, node_in_arr.stream_image_per_lane(node_lists)
        )
        t_nin = prog.add_memory(
            load_op(node_in_arr.seq_read(width_n * lanes), node_in_region),
            deps=guard,
        )
        update_region = self.proc.memory.allocate(
            max(1, width_n * lanes),
            f"ig_upd_{self.dataset.name}_{cfg.name}_{rep}",
        )
        t_phase_b = prog.add_kernel(KernelInvocation(
            self.update_kernel,
            {"nodes_in": node_in_arr.seq_read(width_n * lanes),
             "updates": out_arr.seq_write(width_n * lanes)},
            iterations=width_n, useful_iterations=useful_n,
            name=f"igraph_update_s{rep}",
        ), deps=[t_phase_a, t_nin])
        t_store = prog.add_memory(store_op(
            out_arr.seq_write(width_n * lanes, name=f"ig_st{rep}"),
            update_region,
        ), deps=[t_phase_b])
        self._guard = t_store
        self.update_regions.append(update_region)
        self.update_slots.append((strip_nodes, node_lists, width_n))
        return prog

    # ------------------------------------------------------------------
    def verify(self) -> bool:
        reference = self.graph.reference_updates(
            self.dataset.flops_per_neighbor
        )
        for region, (strip_nodes, node_lists, width_n) in zip(
            self.update_regions, self.update_slots
        ):
            words = self.proc.memory.dump_region(region)
            per_lane = self.out_arrays[0].per_lane_from_stream_image(
                words, width_n
            )
            for lane, lst in enumerate(node_lists):
                for position, (v, _old) in enumerate(lst):
                    if v < 0:
                        continue
                    got = per_lane[lane][position]
                    if abs(got - reference[v]) > 1e-9 * max(
                        1.0, abs(reference[v])
                    ):
                        return False
        return True


def run(config: MachineConfig, dataset: "IgDataset | str" = "IG_SML",
        nodes: int = 1024, strips_to_run: int = 3, warmup: int = 1,
        seed: int = 11) -> AppResult:
    """Run one IG dataset; returns verified steady-state stats.

    ``strips_to_run`` counts measured strips; edges processed differ
    between Base and ISRF (longer strips), so harness comparisons
    normalise per edge.
    """
    if isinstance(dataset, str):
        dataset = TABLE4[dataset]
    bench = IgBenchmark(config, dataset, nodes=nodes, seed=seed)
    stats = steady_state_run(bench.proc, bench.build_program,
                             repeats=strips_to_run, warmup=warmup)
    verified = bench.verify()
    edges = sum(
        sum(len(bench.graph.neighbors[v]) for v in
            bench.strips[rep % len(bench.strips)])
        for rep in range(warmup + strips_to_run)
    )
    return AppResult(
        benchmark=dataset.name,
        config_name=config.name,
        stats=stats,
        verified=verified,
        details={
            "edges_processed": edges,
            "strip_edges": bench.strip_edges,
            "strips": len(bench.strips),
            "flops_per_neighbor": dataset.flops_per_neighbor,
            "avg_degree": dataset.avg_degree,
        },
    )
