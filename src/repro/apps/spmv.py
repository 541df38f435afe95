"""Sparse matrix-vector multiply over CSR and CSC (ROADMAP item 3).

The ISSR paper ("Indirection Stream Semantic Registers", 2011.08070)
routes SpMV's dense-vector gather through indirect register streams;
this app reproduces that access pattern on the indexed SRF:

* **Base/Cache**: every ``x[col]`` access becomes a replicated record in
  a sequential stream, gathered from memory per strip exactly like the
  IG benchmark's neighbour gather (Figure 5a). On the Cache machine the
  gather is cacheable, so column-index locality shows up as hit rate.
* **ISRF**: the dense vector ``x`` is loaded once, striped across all
  SRF banks, and every access is a cross-lane indexed read of that
  single copy (Figure 5b). Column-index locality shows up as
  bank-conflict pressure on the indexed crossbar instead of off-chip
  traffic — the contrast the locality sweep (2311.10378) measures.

Formats differ in where the accumulation lives:

* **CSR** deals rows round-robin to lanes; each lane walks its rows'
  entries in CSR order and accumulates row dot-products host-side
  (like IG's update accumulator), then a phase-B kernel emits ``y``.
  The accumulation order is exactly scipy's ``csr_matvec`` order, so
  verification is bit-identical equality.
* **CSC** gives each lane a contiguous block of rows and keeps its
  ``y`` slice resident in-lane, accumulated with read-modify-write
  through an ``idxl_iostream`` (the §7 read-write extension); entries
  stream in column-major ``(col, row, position)`` order — exactly the
  order scipy's ``tocsc()`` conversion produces — so the per-row
  addition sequence matches ``csc_matvec`` bit for bit.

Every data-dependent gather index goes through the kernel-level
``clamp`` range guard, which is what lets ``repro.analyze`` prove the
accesses in bounds (interval domain: ``clamp(TOP, 0, n-1) = [0, n-1]``)
without any suppressions.
"""

from __future__ import annotations

import random

import numpy as np

from repro.apps.common import (
    AppResult,
    accumulator,
    make_processor,
    steady_state_run,
)
from repro.config.machine import MachineConfig
from repro.core.arrays import SrfArray
from repro.errors import ExecutionError
from repro.kernel.builder import KernelBuilder
from repro.kernel.ir import Kernel
from repro.machine.program import KernelInvocation, StreamProgram
from repro.memory.ops import gather_op, load_op, store_op

#: Column-index locality regimes for the locality sweep (2311.10378).
ORDERINGS = ("sorted", "random", "clustered")

#: Supported compressed formats.
FORMATS = ("csr", "csc")


class SparseMatrix:
    """A CSR matrix (duplicates kept, rows possibly empty/unsorted)."""

    def __init__(self, rows: int, cols: int, indptr: list, indices: list,
                 data: list):
        self.rows = rows
        self.cols = cols
        self.indptr = indptr
        self.indices = indices
        self.data = data

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row_entries(self, r: int) -> list:
        """``(position, col, value)`` of row ``r`` in CSR order."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return [(k, self.indices[k], self.data[k]) for k in range(lo, hi)]

    def colmajor_entries(self) -> list:
        """``(col, row, position, value)`` sorted by (col, row, position).

        This is exactly the entry order scipy's ``tocsc()`` conversion
        produces (stable per column in row order, duplicates kept), so
        accumulating in this order reproduces ``csc_matvec`` bitwise.
        """
        entries = []
        for r in range(self.rows):
            for k in range(self.indptr[r], self.indptr[r + 1]):
                entries.append((self.indices[k], r, k, self.data[k]))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        return entries

    def to_dense(self) -> np.ndarray:
        """Dense copy (duplicates summed) — for differential tests."""
        dense = np.zeros((self.rows, self.cols))
        for r in range(self.rows):
            for k in range(self.indptr[r], self.indptr[r + 1]):
                dense[r, self.indices[k]] += self.data[k]
        return dense


def random_matrix(rows: int, cols: int, avg_nnz: int = 6,
                  ordering: str = "sorted", seed: int = 29,
                  empty_row_every: int = 7,
                  duplicate_rate: float = 0.15) -> SparseMatrix:
    """Seeded sparse matrix with controllable column-index locality.

    * ``sorted`` — per-row columns drawn from a diagonal band and sorted
      ascending (the best case for bank spread and cache reuse);
    * ``random`` — uniform over all columns, left in draw order;
    * ``clustered`` — power-law concentration on a hot column subset
      (the worst case for bank conflicts, the best for a cache).

    Every ``empty_row_every``-th row is empty and ``duplicate_rate``
    repeats the previous column in place of a fresh draw, so the CSR
    shapes the fuzz strategies stress (empty rows, duplicate-heavy
    rows) occur in every generated matrix.
    """
    if ordering not in ORDERINGS:
        raise ExecutionError(f"unknown ordering {ordering!r}")
    rng = random.Random(seed)
    indptr = [0]
    indices: list = []
    data: list = []
    window = max(2, cols // 8)
    for r in range(rows):
        if empty_row_every and (r + 1) % empty_row_every == 0:
            indptr.append(len(indices))
            continue
        degree = max(1, round(rng.gauss(avg_nnz, avg_nnz / 4)))
        row_cols = []
        for j in range(degree):
            if j and duplicate_rate and rng.random() < duplicate_rate:
                row_cols.append(row_cols[-1])
                continue
            if ordering == "clustered":
                c = min(cols - 1, int(cols * rng.random() ** 4))
            elif ordering == "sorted":
                center = r * cols // max(1, rows)
                c = min(cols - 1,
                        max(0, center + rng.randint(-window, window)))
            else:
                c = rng.randrange(cols)
            row_cols.append(c)
        if ordering == "sorted":
            row_cols.sort()
        for c in row_cols:
            indices.append(c)
            data.append(rng.uniform(0.5, 1.5))
        indptr.append(len(indices))
    return SparseMatrix(rows, cols, indptr, indices, data)


def dense_vector(cols: int, seed: int = 31) -> list:
    rng = random.Random(seed)
    return [rng.uniform(0.5, 1.5) for _ in range(cols)]


def reference_matvec_csr(matrix: SparseMatrix, x: list) -> list:
    """``A @ x`` accumulated per row in CSR entry order.

    This is the float-operation order of scipy's ``csr_matvec``, so the
    scipy differential can assert exact equality.
    """
    y = [0.0] * matrix.rows
    for r in range(matrix.rows):
        acc = 0.0
        for k in range(matrix.indptr[r], matrix.indptr[r + 1]):
            acc = acc + matrix.data[k] * x[matrix.indices[k]]
        y[r] = acc
    return y


def reference_matvec_csc(matrix: SparseMatrix, x: list) -> list:
    """``A @ x`` accumulated in column-major order (``csc_matvec``)."""
    y = [0.0] * matrix.rows
    for c, r, _k, a in matrix.colmajor_entries():
        y[r] = y[r] + a * x[c]
    return y


class SpmvBenchmark:
    """Runs SpMV in one format on one machine configuration."""

    def __init__(self, config: MachineConfig, matrix: SparseMatrix,
                 x: list, fmt: str = "csr",
                 strip_rows: "int | None" = None):
        if fmt not in FORMATS:
            raise ExecutionError(f"unknown SpMV format {fmt!r}")
        self.config = config
        self.matrix = matrix
        self.x = [float(v) for v in x]
        if len(self.x) != matrix.cols:
            raise ExecutionError("dense vector length != matrix cols")
        self.fmt = fmt
        self.proc = make_processor(config)
        self._indexed = config.supports_indexing
        lanes = config.lanes
        if strip_rows is None:
            strip_rows = max(lanes, -(-matrix.rows // 3))
        strip_rows = -(-strip_rows // lanes) * lanes
        self.strip_rows = strip_rows
        self.rows_per_lane = strip_rows // lanes
        self.strips = [
            (r0, min(r0 + strip_rows, matrix.rows))
            for r0 in range(0, matrix.rows, strip_rows)
        ]
        self._acc: dict = {}
        self._guard = None
        self._x_task = None
        self.result_slots: list = []
        self._inlane_y = self._indexed and fmt == "csc"
        colmajor = matrix.colmajor_entries() if fmt == "csc" else None
        self._layouts = [
            self._layout_strip(strip, colmajor) for strip in self.strips
        ]
        self._row_layouts = [
            self._layout_rows(strip) for strip in self.strips
        ]
        self._setup_memory()
        self._setup_arrays()
        self._build_kernels()

    # ------------------------------------------------------------------
    # Per-strip data layout
    # ------------------------------------------------------------------
    def _round_width(self, width: int) -> int:
        """Round per-lane stream lengths up to whole SRF access groups."""
        m = self.proc.srf.geometry.words_per_lane_access
        return max(m, -(-width // m) * m)

    def _layout_strip(self, strip: tuple, colmajor: "list | None") -> dict:
        """Per-lane ``(row, col, value)`` entry streams for one strip.

        CSR deals rows round-robin and keeps CSR entry order; CSC gives
        lane ``L`` the contiguous rows ``[row0 + L*rpl, row0 + (L+1)*rpl)``
        and keeps global column-major order within the lane.
        """
        row0, row1 = strip
        lanes = self.config.lanes
        per_lane: list = [[] for _ in range(lanes)]
        if self.fmt == "csr":
            for position, r in enumerate(range(row0, row1)):
                lane = position % lanes
                for _k, c, a in self.matrix.row_entries(r):
                    per_lane[lane].append((r, c, a))
        else:
            rpl = self.rows_per_lane
            for c, r, _k, a in colmajor or ():
                if row0 <= r < row1:
                    per_lane[(r - row0) // rpl].append((r, c, a))
        useful = [len(lst) for lst in per_lane]
        width = self._round_width(max(useful) if useful else 0)
        padded = [
            lst + [(-1, 0, 0.0)] * (width - len(lst)) for lst in per_lane
        ]
        return {"per_lane": padded, "useful": useful, "width": width}

    def _layout_rows(self, strip: tuple) -> dict:
        """Phase-B row streams: strip rows dealt round-robin to lanes."""
        row0, row1 = strip
        lanes = self.config.lanes
        per_lane: list = [[] for _ in range(lanes)]
        for position, r in enumerate(range(row0, row1)):
            per_lane[position % lanes].append(r)
        useful = [len(lst) for lst in per_lane]
        width = self._round_width(max(useful) if useful else 0)
        padded = [lst + [-1] * (width - len(lst)) for lst in per_lane]
        return {"per_lane": padded, "useful": useful, "width": width}

    # ------------------------------------------------------------------
    def _setup_memory(self) -> None:
        cfg = self.config
        matrix = self.matrix
        if self._indexed:
            self.x_region = self.proc.memory.allocate(
                matrix.cols, f"spmv_x_{self.fmt}_{cfg.name}"
            )
            self.proc.memory.load_region(self.x_region, list(self.x))
        else:
            # Combined gather source: x values, then float row ids, then
            # a (0.0, -1.0) sentinel pair for lockstep padding.
            image = list(self.x)
            image.extend(float(r) for r in range(matrix.rows))
            image.extend((0.0, -1.0))
            self.xrow_region = self.proc.memory.allocate(
                len(image), f"spmv_xrow_{self.fmt}_{cfg.name}"
            )
            self.proc.memory.load_region(self.xrow_region, image)
            self._rowid_base = matrix.cols
            self._sentinel = matrix.cols + matrix.rows
        if self._inlane_y:
            self.y_records = self._round_width(self.rows_per_lane)
            self.y_words = self.y_records * cfg.lanes
            self.zeros_region = self.proc.memory.allocate(
                self.y_words, f"spmv_zeros_{cfg.name}"
            )
            self.proc.memory.load_region(
                self.zeros_region, [0.0] * self.y_words
            )

    def _setup_arrays(self) -> None:
        lanes = self.config.lanes
        srf = self.proc.srf
        width_e = max(layout["width"] for layout in self._layouts)
        if self._indexed:
            self.x_arr = SrfArray(srf, self.matrix.cols, "spmv_x")
            self.key_arrays = [SrfArray(srf, width_e * lanes, f"spmv_k{i}")
                               for i in (0, 1)]
            self.col_arrays = [SrfArray(srf, width_e * lanes, f"spmv_c{i}")
                               for i in (0, 1)]
            if self._inlane_y:
                self.y_arrays = [SrfArray(srf, self.y_words, f"spmv_y{i}")
                                 for i in (0, 1)]
        else:
            self.gather_arrays = [
                SrfArray(srf, 2 * width_e * lanes, f"spmv_g{i}")
                for i in (0, 1)
            ]
        self.val_arrays = [SrfArray(srf, width_e * lanes, f"spmv_v{i}")
                           for i in (0, 1)]
        if not self._inlane_y:
            width_n = max(layout["width"] for layout in self._row_layouts)
            self.rows_in_arrays = [
                SrfArray(srf, width_n * lanes, f"spmv_r{i}") for i in (0, 1)
            ]
            self.y_out_arrays = [
                SrfArray(srf, width_n * lanes, f"spmv_o{i}") for i in (0, 1)
            ]

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _build_kernels(self) -> None:
        if self._inlane_y:
            self.main_kernel = self._build_isrf_csc_kernel()
        elif self._indexed:
            self.main_kernel = self._build_isrf_csr_kernel()
        else:
            self.main_kernel = self._build_gather_kernel()
        self.update_kernel = (
            None if self._inlane_y else self._build_update_kernel()
        )

    def _build_isrf_csr_kernel(self) -> Kernel:
        """One entry per lane per iteration; x via cross-lane gather."""
        b = KernelBuilder("spmv_csr_isrf")
        rows_s = b.istream("rows")
        cols_s = b.istream("cols")
        vals_s = b.istream("vals")
        x_s = b.idx_istream("x")
        r = b.read(rows_s, name="row")
        c = b.read(cols_s, name="col")
        a = b.read(vals_s, name="aval")
        valid = b.logic(lambda rr: rr >= 0, r, name="valid")
        idx = b.clamp(c, b.const(0), b.const(self.matrix.cols - 1),
                      name="xidx")
        xv = b.idx_read(x_s, idx, predicate=valid, name="xval")
        prod = b.mul(a, xv, name="prod")
        b.arith(accumulator(self._acc), r, prod, name="accum")
        return b.build()

    def _build_isrf_csc_kernel(self) -> Kernel:
        """Column-major entries; ``y`` accumulated in-lane via the
        read-write indexed stream (read, add, write back)."""
        b = KernelBuilder("spmv_csc_isrf")
        locs_s = b.istream("locs")
        cols_s = b.istream("cols")
        vals_s = b.istream("vals")
        x_s = b.idx_istream("x")
        y_s = b.idxl_iostream("y")
        loc = b.read(locs_s, name="loc")
        c = b.read(cols_s, name="col")
        a = b.read(vals_s, name="aval")
        valid = b.logic(lambda v: v >= 0, loc, name="valid")
        xidx = b.clamp(c, b.const(0), b.const(self.matrix.cols - 1),
                       name="xidx")
        xv = b.idx_read(x_s, xidx, predicate=valid, name="xval")
        prod = b.mul(a, xv, name="prod")
        yidx = b.clamp(loc, b.const(0), b.const(self.y_records - 1),
                       name="yidx")
        old = b.idx_read(y_s, yidx, predicate=valid, name="yold")
        new = b.add(old, prod, name="ynew")
        b.idx_write(y_s, yidx, new, predicate=valid, name="ywrite")
        return b.build()

    def _build_gather_kernel(self) -> Kernel:
        """Base/Cache: x values arrive replicated in a gathered stream."""
        b = KernelBuilder(f"spmv_{self.fmt}_gather")
        gathered = b.istream("gathered")
        vals_s = b.istream("vals")
        xv = b.read(gathered, name="xval")
        rid = b.read(gathered, name="rowid")
        a = b.read(vals_s, name="aval")
        prod = b.mul(a, xv, name="prod")
        b.arith(accumulator(self._acc), rid, prod, name="accum")
        return b.build()

    def _build_update_kernel(self) -> Kernel:
        """Phase B: one ``y`` element per lane per iteration."""
        b = KernelBuilder("spmv_update")
        rows_in = b.istream("rows_in")
        out = b.ostream("y")
        r = b.read(rows_in, name="row")
        acc = self._acc
        y = b.arith(
            lambda row_id: acc.get(int(row_id), 0.0) if row_id >= 0 else 0.0,
            r, name="yval",
        )
        b.write(out, y)
        return b.build()

    # ------------------------------------------------------------------
    def build_program(self, rep: int) -> StreamProgram:
        cfg = self.config
        lanes = cfg.lanes
        buf = rep % 2
        sidx = rep % len(self.strips)
        layout = self._layouts[sidx]
        width_e = layout["width"]
        per_lane = layout["per_lane"]
        prog = StreamProgram(f"spmv_{self.fmt}_{cfg.name}_{rep}")
        guard = [self._guard] if self._guard is not None else []
        deps_a: list = []
        bindings: dict = {}
        if self._indexed:
            if self._x_task is None:
                self._x_task = prog.add_memory(
                    load_op(self.x_arr.seq_read(self.matrix.cols),
                            self.x_region),
                    deps=guard,
                )
            deps_a.append(self._x_task)
            bindings["x"] = self.x_arr.crosslane_read(self.matrix.cols)
            if self.fmt == "csr":
                key_name = "rows"
                key_words = [[r for (r, _c, _a) in lst] for lst in per_lane]
            else:
                key_name = "locs"
                row0 = self.strips[sidx][0]
                rpl = self.rows_per_lane
                key_words = [
                    [(r - row0) % rpl if r >= 0 else -1
                     for (r, _c, _a) in lst]
                    for lst in per_lane
                ]
            col_words = [[c for (_r, c, _a) in lst] for lst in per_lane]
            streams = (
                (self.key_arrays[buf], key_name, key_words),
                (self.col_arrays[buf], "cols", col_words),
            )
            for arr, name, words in streams:
                region = self.proc.memory.allocate(
                    max(1, width_e * lanes),
                    f"spmv_{name}_{cfg.name}_{rep}",
                )
                self.proc.memory.load_region(
                    region, arr.stream_image_per_lane(words)
                )
                deps_a.append(prog.add_memory(
                    load_op(arr.seq_read(width_e * lanes), region),
                    deps=guard,
                ))
                bindings[name] = arr.seq_read(width_e * lanes)
            if self._inlane_y:
                y_arr = self.y_arrays[buf]
                deps_a.append(prog.add_memory(
                    load_op(y_arr.seq_read(self.y_words),
                            self.zeros_region),
                    deps=guard,
                ))
                bindings["y"] = y_arr.inlane_readwrite(self.y_records)
        else:
            gather_arr = self.gather_arrays[buf]
            rbase, sentinel = self._rowid_base, self._sentinel
            per_lane_offsets = [
                [
                    w
                    for (r, c, _a) in lst
                    for w in (
                        (c, rbase + r) if r >= 0
                        else (sentinel, sentinel + 1)
                    )
                ]
                for lst in per_lane
            ]
            offsets = gather_arr.stream_image_per_lane(per_lane_offsets)
            deps_a.append(prog.add_memory(gather_op(
                gather_arr.seq_read(2 * width_e * lanes), self.xrow_region,
                offsets, cacheable=cfg.has_cache,
                name=f"spmv_gather{rep}",
            ), deps=guard))
            bindings["gathered"] = gather_arr.seq_read(2 * width_e * lanes)
        val_arr = self.val_arrays[buf]
        val_words = [[a for (_r, _c, a) in lst] for lst in per_lane]
        val_region = self.proc.memory.allocate(
            max(1, width_e * lanes), f"spmv_vals_{cfg.name}_{rep}"
        )
        self.proc.memory.load_region(
            val_region, val_arr.stream_image_per_lane(val_words)
        )
        deps_a.append(prog.add_memory(
            load_op(val_arr.seq_read(width_e * lanes), val_region),
            deps=guard,
        ))
        bindings["vals"] = val_arr.seq_read(width_e * lanes)

        def on_start():
            self._acc.clear()

        t_main = prog.add_kernel(KernelInvocation(
            self.main_kernel, bindings, iterations=width_e,
            useful_iterations=layout["useful"],
            name=f"{self.main_kernel.name}_s{rep}",
            on_start=None if self._inlane_y else on_start,
        ), deps=deps_a)

        if self._inlane_y:
            y_arr = self.y_arrays[buf]
            y_region = self.proc.memory.allocate(
                self.y_words, f"spmv_y_{cfg.name}_{rep}"
            )
            t_store = prog.add_memory(store_op(
                y_arr.seq_write(self.y_words, name=f"spmv_st{rep}"),
                y_region,
            ), deps=[t_main])
            self.result_slots.append(("inlane", sidx, y_region, buf))
        else:
            row_layout = self._row_layouts[sidx]
            width_n = row_layout["width"]
            rows_in_arr = self.rows_in_arrays[buf]
            out_arr = self.y_out_arrays[buf]
            rows_region = self.proc.memory.allocate(
                max(1, width_n * lanes), f"spmv_rowsin_{cfg.name}_{rep}"
            )
            self.proc.memory.load_region(
                rows_region,
                rows_in_arr.stream_image_per_lane(row_layout["per_lane"]),
            )
            t_rows = prog.add_memory(
                load_op(rows_in_arr.seq_read(width_n * lanes), rows_region),
                deps=guard,
            )
            y_region = self.proc.memory.allocate(
                max(1, width_n * lanes), f"spmv_yout_{cfg.name}_{rep}"
            )
            t_update = prog.add_kernel(KernelInvocation(
                self.update_kernel,
                {"rows_in": rows_in_arr.seq_read(width_n * lanes),
                 "y": out_arr.seq_write(width_n * lanes)},
                iterations=width_n,
                useful_iterations=row_layout["useful"],
                name=f"spmv_update_s{rep}",
            ), deps=[t_main, t_rows])
            t_store = prog.add_memory(store_op(
                out_arr.seq_write(width_n * lanes, name=f"spmv_st{rep}"),
                y_region,
            ), deps=[t_update])
            self.result_slots.append(("update", sidx, y_region, buf))
        self._guard = t_store
        return prog

    # ------------------------------------------------------------------
    def reference(self) -> list:
        if self.fmt == "csr":
            return reference_matvec_csr(self.matrix, self.x)
        return reference_matvec_csc(self.matrix, self.x)

    def verify(self) -> bool:
        """Exact (bitwise) equality against the format's reference."""
        reference = self.reference()
        for kind, sidx, region, buf in self.result_slots:
            words = self.proc.memory.dump_region(region)
            if kind == "update":
                row_layout = self._row_layouts[sidx]
                per_lane = self.y_out_arrays[buf].per_lane_from_stream_image(
                    words, row_layout["width"]
                )
                for lane, lst in enumerate(row_layout["per_lane"]):
                    for position, r in enumerate(lst):
                        if r < 0:
                            continue
                        if per_lane[lane][position] != reference[r]:
                            return False
            else:
                per_lane = self.y_arrays[buf].per_lane_from_stream_image(
                    words, self.y_records
                )
                row0, row1 = self.strips[sidx]
                for lane in range(self.config.lanes):
                    for loc in range(self.rows_per_lane):
                        r = row0 + lane * self.rows_per_lane + loc
                        if r >= row1:
                            break
                        if per_lane[lane][loc] != reference[r]:
                            return False
        return True


def run(config: MachineConfig, fmt: str = "csr", rows: int = 96,
        cols: int = 96, avg_nnz: int = 6, ordering: str = "sorted",
        strips_to_run: int = 3, warmup: int = 1, seed: int = 29,
        strip_rows: "int | None" = None) -> AppResult:
    """Run SpMV in one format; returns verified steady-state stats.

    ``ordering`` selects the column-index locality regime the locality
    sweep compares; harness comparisons normalise per nonzero
    (``details["nnz_processed"]``).
    """
    matrix = random_matrix(rows, cols, avg_nnz=avg_nnz, ordering=ordering,
                           seed=seed)
    x = dense_vector(cols, seed=seed + 2)
    bench = SpmvBenchmark(config, matrix, x, fmt=fmt,
                          strip_rows=strip_rows)
    stats = steady_state_run(bench.proc, bench.build_program,
                             repeats=strips_to_run, warmup=warmup)
    verified = bench.verify()
    nnz_processed = sum(
        sum(bench._layouts[rep % len(bench.strips)]["useful"])
        for rep in range(warmup + strips_to_run)
    )
    return AppResult(
        benchmark=f"SpMV_{fmt.upper()}",
        config_name=config.name,
        stats=stats,
        verified=verified,
        details={
            "format": fmt,
            "rows": rows,
            "cols": cols,
            "nnz": matrix.nnz,
            "ordering": ordering,
            "nnz_processed": nnz_processed,
            "strips": len(bench.strips),
        },
    )
