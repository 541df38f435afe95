"""2D FFT benchmark (paper §5.2, Figures 1 and 3).

A 2-dimensional FFT on an ``n x n`` complex array that fits entirely in
the SRF. Both machine variants perform the first (row) dimension with
sequential streams, as 1D FFT stage kernels applied across all lanes:

* **Base/Cache**: the intermediate array is then "rotated 90 degrees
  through memory" — stored and re-gathered in transposed order — and
  the same row-stage kernels run again (Figure 3a). On the Cache
  machine the rotation traffic is cacheable.
* **ISRF**: the second dimension runs directly in the SRF with in-lane
  indexed accesses (Figure 3b): the natural block-striped layout places
  every column of the array wholly inside one lane's bank, so each
  cluster transforms the columns resident in its own bank.

The row kernels use the constant-geometry (Pease) stream formulation:
each stage reads butterfly input pairs as one sequential stream and
writes result pairs sequentially; the pair ordering between stages is a
compile-time-known layout that the per-stage ``on_start`` hook
materialises (zero simulated cost — hardware achieves it by reading two
streams at fixed offsets). The final DIF stage's pairs are adjacent, so
the row phase ends in row-major order automatically.

Functional output is verified against ``numpy.fft.fft2`` (up to the
DIF's deterministic bit-reversal permutation, and a transpose on
Base/Cache, both accounted for exactly).
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, make_processor, steady_state_run
from repro.config.machine import MachineConfig
from repro.core.arrays import SrfArray
from repro.errors import ExecutionError
from repro.kernel.builder import KernelBuilder
from repro.machine.program import KernelInvocation, StreamProgram
from repro.memory.ops import gather_op, load_op, store_op


def dif_butterflies(n: int, stage: int) -> list:
    """In-place DIF stage ``stage``: (i, j, twiddle) on slot indices."""
    span = n >> (stage + 1)
    if span < 1:
        raise ExecutionError(f"stage {stage} out of range for n={n}")
    out = []
    for block in range(0, n, 2 * span):
        for k in range(span):
            w = complex(np.exp(-2j * np.pi * k * (1 << stage) / n))
            out.append((block + k, block + k + span, w))
    return out


def bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class Fft2dBenchmark:
    """Runs the 2D FFT on one machine configuration."""

    def __init__(self, config: MachineConfig, n: int = 64, seed: int = 7):
        if n & (n - 1) or n < 16:
            raise ExecutionError("n must be a power of two >= 16")
        self.config = config
        self.n = n
        self.log2n = n.bit_length() - 1
        self.proc = make_processor(config)
        self.rng = np.random.default_rng(seed)
        self._indexed = config.supports_indexing
        words = 2 * n * n
        self.words = words
        srf = self.proc.srf
        # Two dataset (load) buffers + the A/B stage scratch pair.
        self.x_arrays = [SrfArray(srf, words, f"fft_x{i}") for i in (0, 1)]
        self.a_array = SrfArray(srf, words, "fft_a")
        self.b_array = SrfArray(srf, words, "fft_b")
        self.inputs = {}
        self.in_regions = {}
        self.out_regions = {}
        self._guards = {"store": None, "x0": None, "x1": None}
        # Mutable per-stage state read by kernel payload closures. The
        # closures hold this dict, never the benchmark, so the machine
        # is freed by reference counting once a run returns.
        self._stage = {"row_tw": [], "pairs": None, "tw": None}
        self._build_row_kernel()
        if self._indexed:
            self._build_column_maps()
            self._build_column_kernel()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _build_row_kernel(self) -> None:
        """Constant-geometry butterfly kernel over sequential pairs."""
        b = KernelBuilder("fft_row_stage")
        in_s = b.istream("in")
        out_s = b.ostream("out")
        it = b.carry(0, "it")
        lane = b.laneid()
        b.update(it, b.logic(lambda i: i + 1, it, name="it_next"))
        bidx = b.logic(lambda i, l: 8 * i + l, it, lane, name="bidx")
        stage = self._stage
        w_re = b.arith(lambda t: stage["row_tw"][int(t)].real, bidx,
                       name="w_re")
        w_im = b.arith(lambda t: stage["row_tw"][int(t)].imag, bidx,
                       name="w_im")
        a_re, a_im = b.read(in_s, "a_re"), b.read(in_s, "a_im")
        b_re, b_im = b.read(in_s, "b_re"), b.read(in_s, "b_im")
        u_re = b.add(a_re, b_re, "u_re")
        u_im = b.add(a_im, b_im, "u_im")
        t_re = b.sub(a_re, b_re, "t_re")
        t_im = b.sub(a_im, b_im, "t_im")
        v_re = b.sub(b.mul(t_re, w_re), b.mul(t_im, w_im), "v_re")
        v_im = b.add(b.mul(t_re, w_im), b.mul(t_im, w_re), "v_im")
        for value in (u_re, u_im, v_re, v_im):
            b.write(out_s, value)
        self.row_kernel = b.build()
        self._row_in = in_s
        self._row_out = out_s

    def _build_column_kernel(self) -> None:
        """In-lane indexed butterfly kernel for the second dimension."""
        b = KernelBuilder("fft_col_stage")
        data_in = b.idxl_istream("cols_in", record_words=2)
        data_out = b.idxl_ostream("cols_out", record_words=2)
        it = b.carry(0, "it")
        lane = b.laneid()
        b.update(it, b.logic(lambda i: i + 1, it, name="it_next"))
        stage = self._stage
        idx_i = b.arith(
            lambda l, t: stage["pairs"][int(l)][int(t)][0],
            lane, it, name="idx_i",
        )
        idx_j = b.arith(
            lambda l, t: stage["pairs"][int(l)][int(t)][1],
            lane, it, name="idx_j",
        )
        w_re = b.arith(
            lambda l, t: stage["tw"][int(l)][int(t)].real,
            lane, it, name="w_re",
        )
        w_im = b.arith(
            lambda l, t: stage["tw"][int(l)][int(t)].imag,
            lane, it, name="w_im",
        )
        a = b.idx_read(data_in, idx_i, name="rd_a")
        bb = b.idx_read(data_in, idx_j, name="rd_b")
        a_re = b.logic(lambda t: t[0], a, name="a_re")
        a_im = b.logic(lambda t: t[1], a, name="a_im")
        b_re = b.logic(lambda t: t[0], bb, name="b_re")
        b_im = b.logic(lambda t: t[1], bb, name="b_im")
        u_re = b.add(a_re, b_re, "u_re")
        u_im = b.add(a_im, b_im, "u_im")
        t_re = b.sub(a_re, b_re, "t_re")
        t_im = b.sub(a_im, b_im, "t_im")
        v_re = b.sub(b.mul(t_re, w_re), b.mul(t_im, w_im), "v_re")
        v_im = b.add(b.mul(t_re, w_im), b.mul(t_im, w_re), "v_im")
        u = b.logic(lambda re, im: (re, im), u_re, u_im, name="u")
        v = b.logic(lambda re, im: (re, im), v_re, v_im, name="v")
        b.idx_write(data_out, idx_i, u, name="wr_u")
        b.idx_write(data_out, idx_j, v, name="wr_v")
        self.col_kernel = b.build()

    # ------------------------------------------------------------------
    # Layout maps
    # ------------------------------------------------------------------
    def _record_of_element(self, array: SrfArray, element: int) -> tuple:
        """(lane, in-lane record index) of complex element ``element``."""
        geometry = self.proc.srf.geometry
        word = array.base + 2 * element
        lane, local = geometry.split(word)
        lane2, local2 = geometry.split(word + 1)
        if lane2 != lane:
            raise ExecutionError("complex element straddles lanes")
        local_base = (array.base // geometry.block_words) * \
            geometry.words_per_lane_access
        return lane, (local - local_base) // 2

    def _build_column_maps(self) -> None:
        """Per-lane butterfly (record pairs + twiddles) for each stage.

        In the block-striped layout every column of the n x n array
        lives wholly in one bank, so column butterflies are in-lane.
        """
        n = self.n
        lanes = self.config.lanes
        lane_of_col = {}
        record_of = {}
        for r in range(n):
            for c in range(n):
                lane, record = self._record_of_element(
                    self.a_array, n * r + c
                )
                record_of[(r, c)] = record
                if r == 0:
                    lane_of_col[c] = lane
                elif lane_of_col[c] != lane:
                    raise ExecutionError(
                        f"column {c} spans lanes; unsupported geometry"
                    )
        self._record_of = record_of
        self._col_stage_plans = []
        for stage in range(self.log2n):
            pairs = [[] for _ in range(lanes)]
            tw = [[] for _ in range(lanes)]
            for c in range(n):
                lane = lane_of_col[c]
                for i, j, w in dif_butterflies(n, stage):
                    pairs[lane].append(
                        (record_of[(i, c)], record_of[(j, c)])
                    )
                    tw[lane].append(w)
            counts = {len(p) for p in pairs}
            if len(counts) != 1:
                raise ExecutionError("unbalanced column distribution")
            self._col_stage_plans.append((pairs, tw))

    # ------------------------------------------------------------------
    # Per-stage on_start hooks
    # ------------------------------------------------------------------
    def _materialize_row_stage(self, stage: int, source: SrfArray) -> None:
        """Fill A with stage ``stage``'s butterfly pairs, in order.

        ``source`` holds the previous physical layout: row-major slots
        for stage 0, or stage-(s-1) pair order otherwise.
        """
        n = self.n
        total = n * n
        butterflies = []
        for row in range(n):
            for i, j, w in dif_butterflies(n, stage):
                butterflies.append((n * row + i, n * row + j, w))
        self._stage["row_tw"] = [w for _i, _j, w in butterflies]
        words = source.read_stream_order(2 * total)
        if stage == 0:
            slot_words = words
        else:
            prev = []
            for row in range(n):
                for i, j, _w in dif_butterflies(n, stage - 1):
                    prev.append(n * row + i)
                    prev.append(n * row + j)
            slot_words = [0.0] * (2 * total)
            for position, slot in enumerate(prev):
                slot_words[2 * slot] = words[2 * position]
                slot_words[2 * slot + 1] = words[2 * position + 1]
        image = []
        for i, j, _w in butterflies:
            image.extend((slot_words[2 * i], slot_words[2 * i + 1],
                          slot_words[2 * j], slot_words[2 * j + 1]))
        self.a_array.fill_stream_order(image)

    def _set_column_stage(self, stage: int) -> None:
        self._stage["pairs"], self._stage["tw"] = self._col_stage_plans[stage]

    # ------------------------------------------------------------------
    # Program construction
    # ------------------------------------------------------------------
    def _row_phase(self, prog: StreamProgram, source: SrfArray,
                   first_deps: list) -> int:
        """Append the log2(n) row-stage kernels; returns last task id."""
        iterations = (self.n * self.n // 2) // self.config.lanes
        last = None
        for stage in range(self.log2n):
            deps = first_deps if stage == 0 else [last]
            src = source if stage == 0 else self.b_array
            invocation = KernelInvocation(
                self.row_kernel,
                {"in": self.a_array.seq_read(),
                 "out": self.b_array.seq_write()},
                iterations=iterations,
                name=f"fft_row_s{stage}",
                on_start=(lambda s=stage, a=src:
                          self._materialize_row_stage(s, a)),
            )
            last = prog.add_kernel(invocation, deps=deps)
        return last

    def _column_phase_indexed(self, prog: StreamProgram, dep: int) -> int:
        iterations = len(self._col_stage_plans[0][0][0])
        last = dep
        src, dst = self.b_array, self.a_array
        for stage in range(self.log2n):
            invocation = KernelInvocation(
                self.col_kernel,
                {"cols_in": src.inlane_read(record_words=2),
                 "cols_out": dst.inlane_write(record_words=2)},
                iterations=iterations,
                name=f"fft_col_s{stage}",
                on_start=(lambda s=stage: self._set_column_stage(s)),
            )
            last = prog.add_kernel(invocation, deps=[last])
            src, dst = dst, src
        return last, src  # src now holds the final output

    def _column_phase_memory(self, prog: StreamProgram, dep: int,
                             rep: int) -> int:
        """Base/Cache: rotate through memory, then row kernels again."""
        n = self.n
        tmp = self.proc.memory.allocate(
            self.words, f"fft_tmp_{self.config.name}_{rep}"
        )
        t_store = prog.add_memory(
            store_op(self.b_array.seq_write(name=f"rot_st{rep}"), tmp,
                     cacheable=self.config.has_cache),
            deps=[dep],
        )
        offsets = []
        for rr in range(n):
            for cc in range(n):
                old = 2 * (n * cc + rr)  # transpose
                offsets.extend((old, old + 1))
        t_gather = prog.add_memory(
            gather_op(self.a_array.seq_read(name=f"rot_ld{rep}"), tmp,
                      offsets, cacheable=self.config.has_cache),
            deps=[t_store],
        )
        # Second dimension: identical row kernels on the rotated array,
        # sourcing stage 0 from the freshly gathered A array.
        return self._row_phase(prog, self.a_array, [t_gather])

    def build_program(self, rep: int) -> StreamProgram:
        n = self.n
        cfg = self.config
        buf = rep % 2
        x_arr = self.x_arrays[buf]
        data = (self.rng.normal(size=(n, n))
                + 1j * self.rng.normal(size=(n, n)))
        self.inputs[rep] = data
        in_region = self.proc.memory.allocate(
            self.words, f"fft_in_{cfg.name}_{rep}"
        )
        out_region = self.proc.memory.allocate(
            self.words, f"fft_out_{cfg.name}_{rep}"
        )
        self.in_regions[rep] = in_region
        self.out_regions[rep] = out_region
        image = []
        for r in range(n):
            for c in range(n):
                image.extend((float(data[r, c].real), float(data[r, c].imag)))
        self.proc.memory.load_region(in_region, image)

        prog = StreamProgram(f"fft2d_{cfg.name}_{rep}")
        x_guard = self._guards[f"x{buf}"]
        t_load = prog.add_memory(
            load_op(x_arr.seq_read(), in_region),
            deps=[x_guard] if x_guard is not None else [],
        )
        first_deps = [t_load]
        if self._guards["store"] is not None:
            first_deps.append(self._guards["store"])
        t_rows = self._row_phase(prog, x_arr, first_deps)
        self._guards[f"x{buf}"] = prog.tasks[1].task_id  # first row kernel
        if self._indexed:
            t_cols, final = self._column_phase_indexed(prog, t_rows)
        else:
            t_cols = self._column_phase_memory(prog, t_rows, rep)
            final = self.b_array
        t_store = prog.add_memory(
            store_op(final.seq_write(name=f"out_st{rep}"), out_region),
            deps=[t_cols],
        )
        self._guards["store"] = t_store
        self._final_array = final
        return prog

    # ------------------------------------------------------------------
    def verify(self, rep: int) -> bool:
        n = self.n
        words = self.proc.memory.dump_region(self.out_regions[rep])
        got = np.empty((n, n), dtype=complex)
        for r in range(n):
            for c in range(n):
                base = 2 * (n * r + c)
                got[r, c] = complex(words[base], words[base + 1])
        perm = [bit_reverse(k, self.log2n) for k in range(n)]
        expected = np.fft.fft2(self.inputs[rep])[np.ix_(perm, perm)]
        if not self._indexed:
            expected = expected.T
        return bool(np.allclose(got, expected, rtol=1e-9, atol=1e-9))


def run(config: MachineConfig, n: int = 64, repeats: int = 2,
        warmup: int = 1, seed: int = 7) -> AppResult:
    """Run the 2D FFT benchmark; returns verified steady-state stats."""
    bench = Fft2dBenchmark(config, n=n, seed=seed)
    stats = steady_state_run(bench.proc, bench.build_program,
                             repeats=repeats, warmup=warmup)
    verified = all(bench.verify(rep) for rep in range(warmup + repeats))
    return AppResult(
        benchmark="FFT 2D",
        config_name=config.name,
        stats=stats,
        verified=verified,
        details={"n": n},
    )
