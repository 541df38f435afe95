"""SARIS-style 2D stencils through indirect stream registers.

SARIS ("Stream Register Allocation for Iterative Stencils", 2404.05303)
drives stencil grids through indirect stream registers; this app
reproduces the access pattern on the indexed SRF with two classic
patterns over a 3x3 window: the 5-point **star** and the 9-point
**box**.

Layout is lane-banded with a halo exchange, like the Filter benchmark:
each lane holds a vertical band of the grid — its output columns plus a
``RADIUS``-column halo replicated from the neighbouring lanes (or
edge-padded at the grid boundary). Strips of rows are double-buffered
through the SRF, each strip carrying ``RADIUS`` halo rows above and
below.

* **ISRF**: the kernel scans every band position with an induction
  counter and reads each tap at ``base + dr*band_width + dc`` — a pure
  affine address, so ``repro.analyze``'s affine domain proves every
  indexed access in bounds *exactly* (contrast Filter, whose opaque
  address closures only get hull notes). The halo columns of each
  output row are computed and discarded; verification checks the
  interior columns.
* **Base/Cache**: the band streams through sequentially while the taps
  come from scratchpad closures, paying the paper's §3.2 state
  management cost (bookkeeping ops) like the Filter benchmark.

Both variants produce bit-identical output: the reference accumulates
taps in exactly the kernel's ``mac_chain`` order, so verification (and
the NumPy differential test) can assert exact equality.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import AppResult, make_processor, steady_state_run
from repro.config.machine import MachineConfig
from repro.core.arrays import SrfArray
from repro.errors import ExecutionError
from repro.kernel.builder import KernelBuilder
from repro.machine.program import KernelInvocation, StreamProgram
from repro.memory.ops import load_op, store_op

#: Window radius: a 3x3 window reaches 1 pixel in every direction.
RADIUS = 1

#: Tap patterns: ``((dr, dc), coefficient)`` with offsets relative to
#: the top-left of the (2*RADIUS+1)^2 window, in fixed mac_chain order.
PATTERNS = {
    "star": (
        ((0, 1), 0.125),
        ((1, 0), 0.125),
        ((1, 1), 0.5),
        ((1, 2), 0.125),
        ((2, 1), 0.125),
    ),
    "box": tuple(
        ((dr, dc), weight / 16.0)
        for dr, row in enumerate(((1.0, 2.0, 1.0),
                                  (2.0, 4.0, 2.0),
                                  (1.0, 2.0, 1.0)))
        for dc, weight in enumerate(row)
    ),
}


def reference_stencil(image: np.ndarray, pattern: str) -> np.ndarray:
    """Golden model: valid rows, edge-padded columns.

    Accumulates the taps in exactly the kernel's ``mac_chain`` order so
    the comparison is bit-identical, not approximate.
    """
    taps = PATTERNS[pattern]
    padded = np.pad(image, ((0, 0), (RADIUS, RADIUS)), mode="edge")
    height = image.shape[0] - 2 * RADIUS
    width = image.shape[1]
    (dr, dc), coeff = taps[0]
    out = padded[dr:dr + height, dc:dc + width] * coeff
    for (dr, dc), coeff in taps[1:]:
        out = out + padded[dr:dr + height, dc:dc + width] * coeff
    return out


class StencilBenchmark:
    """Runs one stencil pattern on one machine configuration."""

    def __init__(self, config: MachineConfig, pattern: str = "star",
                 height: int = 16, width: int = 32, seed: int = 37,
                 rows_per_strip: "int | None" = None):
        if pattern not in PATTERNS:
            raise ExecutionError(f"unknown stencil pattern {pattern!r}")
        lanes = config.lanes
        if width % lanes:
            raise ExecutionError("grid width must divide across lanes")
        self.config = config
        self.pattern = pattern
        self.taps = PATTERNS[pattern]
        self.height = height
        self.width = width
        self.cols_per_lane = width // lanes
        self.band_width = self.cols_per_lane + 2 * RADIUS
        self.out_rows = height - 2 * RADIUS
        if self.out_rows <= 0:
            raise ExecutionError("grid too short for the window")
        self.proc = make_processor(config)
        self.rng = np.random.default_rng(seed)
        self.image = self.rng.normal(size=(height, width))
        self._indexed = config.supports_indexing
        if rows_per_strip is None:
            rows_per_strip = max(1, -(-self.out_rows // 2))
        if not 1 <= rows_per_strip <= self.out_rows:
            raise ExecutionError("rows_per_strip out of range")
        self.rows_per_strip = rows_per_strip
        self.n_strips = -(-self.out_rows // rows_per_strip)
        self.out_regions: dict = {}
        self._guards = {"kernel": {0: None, 1: None},
                        "store": {0: None, 1: None}}
        #: The current strip's lane bands, which the Base/Cache kernel's
        #: scratchpad payloads read (set by each kernel's on_start hook).
        self._scratch: dict = {}
        self._setup_arrays()
        self._build_kernel()

    # ------------------------------------------------------------------
    def _round_width(self, width: int) -> int:
        """Round per-lane stream lengths up to whole SRF access groups."""
        m = self.proc.srf.geometry.words_per_lane_access
        return max(m, -(-width // m) * m)

    def _iterations(self, strip_rows: int) -> int:
        """Trip count for one strip: a full scan of the band (halo
        columns included), padded to whole access groups so every
        per-lane stream extent stays block-aligned."""
        return self._round_width(strip_rows * self.band_width)

    def _in_records(self, strip_rows: int) -> int:
        """Per-lane band words for one strip: one word per scan
        position plus the reach of the bottom-right tap."""
        return self._iterations(strip_rows) + 2 * RADIUS * self.band_width \
            + 2 * RADIUS

    def _setup_arrays(self) -> None:
        lanes = self.config.lanes
        srf = self.proc.srf
        in_words = self._round_width(
            self._in_records(self.rows_per_strip)
        ) * lanes
        out_words = self._iterations(self.rows_per_strip) * lanes
        self.in_arrays = [SrfArray(srf, in_words, f"stn_in{i}")
                          for i in (0, 1)]
        self.out_arrays = [SrfArray(srf, out_words, f"stn_out{i}")
                           for i in (0, 1)]

    # ------------------------------------------------------------------
    def _build_kernel(self) -> None:
        if self._indexed:
            self._build_isrf_kernel()
        else:
            self._build_scratchpad_kernel()

    def _build_isrf_kernel(self) -> None:
        """Affine tap addressing: ``base + dr*band_width + dc`` where
        ``base`` is the induction counter — exactly provable."""
        b = KernelBuilder(f"stencil_{self.pattern}_isrf")
        out_s = b.ostream("out")
        grid = b.idxl_istream("grid")
        it = b.carry(0, "it")
        b.update(it, b.add(it, b.const(1), name="it_next"))
        taps = []
        for (dr, dc), coeff in self.taps:
            addr = b.add(it, b.const(dr * self.band_width + dc),
                         name=f"tap{dr}_{dc}")
            value = b.idx_read(grid, addr, name=f"px{dr}_{dc}")
            taps.append((value, b.const(float(coeff))))
        acc = b.mac_chain(taps)
        b.write(out_s, acc)
        self.kernel = b.build()

    def _build_scratchpad_kernel(self) -> None:
        """Sequential scan with scratchpad taps and bookkeeping cost."""
        b = KernelBuilder(f"stencil_{self.pattern}_scratch")
        in_s = b.istream("in")
        out_s = b.ostream("out")
        it = b.carry(0, "it")
        lane = b.laneid()
        b.update(it, b.logic(lambda i: i + 1, it, name="it_next"))
        px_in = b.read(in_s, name="px_in")
        taps = []
        bands = self._scratch
        for (dr, dc), coeff in self.taps:
            offset = dr * self.band_width + dc
            scratch = b.logic(
                (lambda off: lambda ln, t:
                    bands["bands"][int(ln)][int(t) + off])(offset),
                lane, it, name=f"scr{dr}_{dc}",
            )
            taps.append((scratch, b.const(float(coeff))))
        # Window-shift / halo-seam bookkeeping ops plus the scratchpad
        # write-back of the streamed-in pixel (§3.2 state management).
        bookkeeping = b.logic(lambda _px: 0, px_in, name="book0")
        for k in range(1, 10):
            bookkeeping = b.logic(lambda v: v, bookkeeping, name=f"book{k}")
        acc = b.mac_chain(taps)
        acc = b.arith(lambda a, _bk: a, acc, bookkeeping, name="join")
        b.write(out_s, acc)
        self.kernel = b.build()

    # ------------------------------------------------------------------
    def _band(self, rows: np.ndarray, lane: int) -> np.ndarray:
        """Lane ``lane``'s vertical band including the halo columns."""
        padded = np.pad(rows, ((0, 0), (RADIUS, RADIUS)), mode="edge")
        start = lane * self.cols_per_lane
        return padded[:, start:start + self.band_width]

    def _strip_rows(self, rep: int) -> tuple:
        """(first output row, output rows) of strip ``rep``."""
        row0 = (rep % self.n_strips) * self.rows_per_strip
        rows = min(self.rows_per_strip, self.out_rows - row0)
        return row0, rows

    def build_program(self, rep: int) -> StreamProgram:
        cfg = self.config
        lanes = cfg.lanes
        buf = rep % 2
        row0, strip_rows = self._strip_rows(rep)
        strip_image = self.image[row0:row0 + strip_rows + 2 * RADIUS]
        in_arr, out_arr = self.in_arrays[buf], self.out_arrays[buf]
        iterations = self._iterations(strip_rows)
        in_records = self._in_records(strip_rows)
        in_alloc = self._round_width(in_records)
        out_words = iterations * lanes
        bands = [
            [float(v) for v in self._band(strip_image, lane).ravel()]
            for lane in range(lanes)
        ]
        for band in bands:
            band.extend([0.0] * (in_records - len(band)))
        in_region = self.proc.memory.allocate(
            in_alloc * lanes, f"stn_in_{cfg.name}_{rep}"
        )
        self.proc.memory.load_region(
            in_region, in_arr.stream_image_per_lane(bands)
        )
        out_region = self.proc.memory.allocate(
            out_words, f"stn_out_{cfg.name}_{rep}"
        )
        self.out_regions[rep] = out_region
        prog = StreamProgram(f"stencil_{self.pattern}_{cfg.name}_{rep}")
        guard_k = self._guards["kernel"][buf]
        guard_s = self._guards["store"][buf]
        t_load = prog.add_memory(
            load_op(in_arr.seq_read(in_alloc * lanes), in_region),
            deps=[guard_k] if guard_k is not None else [],
        )
        if self._indexed:
            bindings = {"grid": in_arr.inlane_read(in_records),
                        "out": out_arr.seq_write(out_words)}
            on_start = None
        else:
            bindings = {"in": in_arr.seq_read(out_words),
                        "out": out_arr.seq_write(out_words)}

            def on_start(bands=bands):
                self._scratch["bands"] = bands

        t_kernel = prog.add_kernel(
            KernelInvocation(self.kernel, bindings, iterations=iterations,
                             useful_iterations=[
                                 strip_rows * self.cols_per_lane
                             ] * lanes,
                             name=f"stencil_{rep}", on_start=on_start),
            deps=[t_load] + ([guard_s] if guard_s is not None else []),
        )
        t_store = prog.add_memory(
            store_op(out_arr.seq_write(out_words, name=f"stn_st{rep}"),
                     out_region),
            deps=[t_kernel],
        )
        self._guards["kernel"][buf] = t_kernel
        self._guards["store"][buf] = t_store
        return prog

    # ------------------------------------------------------------------
    def verify(self, rep: int) -> bool:
        """Exact (bitwise) equality on the interior output columns."""
        row0, strip_rows = self._strip_rows(rep)
        expected = reference_stencil(self.image, self.pattern)[
            row0:row0 + strip_rows
        ]
        words = self.proc.memory.dump_region(self.out_regions[rep])
        per_lane = self.out_arrays[rep % 2].per_lane_from_stream_image(
            words, self._iterations(strip_rows)
        )
        cpl = self.cols_per_lane
        for lane in range(self.config.lanes):
            band_out = np.array(
                per_lane[lane][:strip_rows * self.band_width]
            ).reshape(strip_rows, self.band_width)
            got = band_out[:, :cpl]
            if not np.array_equal(got, expected[:, lane * cpl:(lane + 1) * cpl]):
                return False
        return True


def run(config: MachineConfig, pattern: str = "star", height: int = 16,
        width: int = 32, repeats: "int | None" = None, warmup: int = 1,
        seed: int = 37,
        rows_per_strip: "int | None" = None) -> AppResult:
    """Run one stencil pattern; returns verified steady-state stats.

    ``repeats`` defaults to one full pass over the grid's strips;
    harness comparisons normalise per output pixel
    (``details["pixels_processed"]``).
    """
    bench = StencilBenchmark(config, pattern, height, width, seed,
                             rows_per_strip=rows_per_strip)
    if repeats is None:
        repeats = max(2, bench.n_strips)
    stats = steady_state_run(bench.proc, bench.build_program,
                             repeats=repeats, warmup=warmup)
    verified = all(bench.verify(rep) for rep in range(warmup + repeats))
    pixels = sum(
        bench._strip_rows(rep)[1] * width
        for rep in range(warmup + repeats)
    )
    return AppResult(
        benchmark=f"Stencil_{pattern.upper()}",
        config_name=config.name,
        stats=stats,
        verified=verified,
        details={
            "pattern": pattern,
            "height": height,
            "width": width,
            "pixels_processed": pixels,
            "strips": bench.n_strips,
        },
    )
