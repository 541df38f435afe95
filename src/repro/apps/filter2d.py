"""5x5 convolution Filter benchmark (paper §5.2, Figure 4).

Applies a 5x5 filter to a 2D image (256x256 in the paper).

* **Base/Cache**: the image streams through sequentially and the kernel
  maintains the 5x5 neighbourhood in scratchpad memory, paying the
  "complex state management" cost the paper describes (§3.2): per
  output pixel, scratchpad addressing, window-shift bookkeeping and
  edge handling occupy ALU issue slots alongside the 25-tap MAC.
* **ISRF**: each lane holds a vertical band of the image (its output
  columns plus a 2-pixel halo on each side) and reads the 25 neighbours
  directly with in-lane indexed accesses, split across five indexed
  streams — one per window row — which makes Filter the second
  benchmark (with Rijndael) where ISRF1's single indexed word per cycle
  per lane causes SRF stalls (§5.3). Each indexed read still pays its
  real address computation (one ALU add per tap).

Off-chip traffic is near-identical for both variants (Figure 11): the
only difference is the halo replication of the banded layout
(4 extra columns per lane, 12.5% at the paper's 256-wide image).

Output is verified against a direct correlation reference.
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

#: Window radius: a 5x5 filter reaches 2 pixels in every direction.
RADIUS = 2
TAPS = 2 * RADIUS + 1

#: The filter coefficients: a fixed, roughly Gaussian 5x5 kernel.
COEFFS = np.outer([1.0, 4.0, 6.0, 4.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0])
COEFFS = COEFFS / COEFFS.sum()


def reference_filter(image: np.ndarray) -> np.ndarray:
    """Direct correlation with :data:`COEFFS` (the golden model).

    Rows are 'valid' (the output loses 2*RADIUS rows); columns are
    edge-padded so every lane's output band has full width — the
    banded SRF layout replicates exactly that halo.
    """
    height, width = image.shape
    padded = np.pad(image, ((0, 0), (RADIUS, RADIUS)), mode="edge")
    out = np.zeros((height - 2 * RADIUS, width))
    for dr in range(TAPS):
        for dc in range(TAPS):
            out += COEFFS[dr, dc] * padded[
                dr : dr + out.shape[0], dc : dc + out.shape[1]
            ]
    return out


def _scratch_reader(scratch: dict, cols_per_lane: int, dr: int, dc: int):
    """Payload reading tap ``(dr, dc)`` of the current scratchpad.

    Lane ``lane`` computes, at ``iteration``, the pixel at (row, in-band
    column) ``divmod(iteration, cols_per_lane)`` of its output band
    (row-major scan).
    """
    def read(lane, iteration):
        lane, iteration = int(lane), int(iteration)
        row = iteration // cols_per_lane
        col = iteration % cols_per_lane
        return float(scratch["padded"][row + dr,
                                       lane * cols_per_lane + col + dc])
    return read


class FilterBenchmark:
    """Runs the 5x5 Filter on one machine configuration."""

    def __init__(self, config: MachineConfig, height: int = 64,
                 width: int = 64, seed: int = 99,
                 rows_per_strip: "int | None" = None):
        lanes = config.lanes
        if width % lanes:
            raise ExecutionError("image width must divide across lanes")
        self.config = config
        self.height = height
        self.width = width
        self.cols_per_lane = width // lanes
        self.band_width = self.cols_per_lane + 2 * RADIUS
        self.out_rows = height - 2 * RADIUS
        self.proc = make_processor(config)
        self.rng = np.random.default_rng(seed)
        self._indexed = config.supports_indexing
        self.rows_per_strip = self._choose_strip_rows(rows_per_strip)
        self.n_strips = -(-self.out_rows // self.rows_per_strip)
        self.image = self.rng.normal(size=(height, width))
        self.out_regions = {}
        self._guards = {"kernel": {0: None, 1: None},
                        "store": {0: None, 1: None}}
        #: The current strip's padded image, which the Base/Cache
        #: kernel's scratchpad payloads read (set by each kernel's
        #: on_start hook).
        self._scratch = {}
        self._setup_arrays()
        self._build_kernel()

    # ------------------------------------------------------------------
    def _choose_strip_rows(self, requested: "int | None") -> int:
        """Output rows per strip: the whole image when it fits the SRF,
        else the largest strip-mined slice (paper §2: applications are
        strip-mined so the working set fits)."""
        if requested is not None:
            if not 1 <= requested <= self.out_rows:
                raise ExecutionError("rows_per_strip out of range")
            return requested
        lanes = self.config.lanes
        in_row_words = (
            self.band_width * lanes if self._indexed else self.width
        )
        out_row_words = self.cols_per_lane * lanes
        budget = self.config.srf_words // 2 - 256  # double buffered
        rows = (budget - 2 * (2 * RADIUS) * in_row_words) // (
            2 * (in_row_words + out_row_words)
        )
        return max(1, min(self.out_rows, rows))

    def _setup_arrays(self) -> None:
        lanes = self.config.lanes
        srf = self.proc.srf
        in_rows = self.rows_per_strip + 2 * RADIUS
        if self._indexed:
            in_words = in_rows * self.band_width * lanes
        else:
            in_words = in_rows * self.width
        out_words = self.rows_per_strip * self.cols_per_lane * lanes
        self.in_arrays = [SrfArray(srf, in_words, f"flt_in{i}")
                          for i in (0, 1)]
        self.out_arrays = [SrfArray(srf, out_words, f"flt_out{i}")
                           for i in (0, 1)]
        self.in_words = in_words
        self.out_words = out_words

    def _build_kernel(self) -> None:
        if self._indexed:
            self._build_isrf_kernel()
        else:
            self._build_scratchpad_kernel()

    def _build_isrf_kernel(self) -> None:
        b = KernelBuilder("filter_isrf")
        out_s = b.ostream("out")
        rows = [b.idxl_istream(f"win{dr}") for dr in range(TAPS)]
        it = b.carry(0, "it")
        lane = b.laneid()
        b.update(it, b.logic(lambda i: i + 1, it, name="it_next"))
        # Window-centre address (top-left of the 5x5 window).
        cpl = self.cols_per_lane
        bw = self.band_width
        base_addr = b.arith(
            lambda l, t: (t // cpl) * bw + (t % cpl),
            lane, it, name="win_base",
        )
        taps = []
        for dr in range(TAPS):
            row_base = b.logic(
                (lambda d: lambda a: a + d * bw)(dr), base_addr,
                name=f"row_base{dr}",
            )
            for dc in range(TAPS):
                addr = b.logic(
                    (lambda d: lambda a: a + d)(dc), row_base,
                    name=f"addr{dr}_{dc}",
                )
                value = b.idx_read(rows[dr], addr, name=f"px{dr}_{dc}")
                taps.append((value, b.const(float(COEFFS[dr, dc]))))
        acc = b.mac_chain(taps)
        b.write(out_s, acc)
        self.kernel = b.build()

    def _build_scratchpad_kernel(self) -> None:
        """Sequential kernel with explicit scratchpad-management cost.

        The 25 neighbour values come from the scratchpad (modelled
        functionally by a closure over the current image); the paper's
        "complex state management" appears as real ALU issue pressure:
        one scratch-access op per tap plus window bookkeeping.
        """
        b = KernelBuilder("filter_scratchpad")
        in_s = b.istream("in")
        out_s = b.ostream("out")
        it = b.carry(0, "it")
        lane = b.laneid()
        b.update(it, b.logic(lambda i: i + 1, it, name="it_next"))
        # The streamed-in pixel keeps the scratchpad filled (1 word per
        # output pixel: input and output counts are near-identical).
        b.read(in_s, name="px_in")
        taps = []
        for dr in range(TAPS):
            for dc in range(TAPS):
                scratch = b.logic(
                    _scratch_reader(self._scratch, self.cols_per_lane,
                                    dr, dc),
                    lane, it, name=f"scr{dr}_{dc}",
                )
                taps.append((scratch, b.const(float(COEFFS[dr, dc]))))
        # Window-shift and edge bookkeeping ops (address updates, wrap
        # tests, row-boundary selects, scratchpad write-back of the
        # incoming pixel): scratchpad management overhead (§3.2).
        bookkeeping = b.logic(lambda t: t, it, name="book0")
        for k in range(1, 28):
            bookkeeping = b.logic(lambda v: v, bookkeeping, name=f"book{k}")
        acc = b.mac_chain(taps)
        acc = b.arith(lambda a, _bk: a, acc, bookkeeping, name="join")
        b.write(out_s, acc)
        self.kernel = b.build()

    # ------------------------------------------------------------------
    def _band(self, image: np.ndarray, lane: int) -> np.ndarray:
        """Lane ``lane``'s vertical band including the halo columns."""
        padded = np.pad(image, ((0, 0), (RADIUS, RADIUS)), mode="edge")
        start = lane * self.cols_per_lane
        return padded[:, start : start + self.band_width]

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
        # Input rows for this strip: its output rows plus the vertical
        # window reach (2*RADIUS halo rows).
        strip_image = self.image[row0 : row0 + strip_rows + 2 * RADIUS]
        in_arr, out_arr = self.in_arrays[buf], self.out_arrays[buf]
        in_words = (strip_rows + 2 * RADIUS) * (
            self.band_width * lanes if self._indexed else self.width
        )
        out_words = strip_rows * self.cols_per_lane * lanes
        in_region = self.proc.memory.allocate(
            self.in_words, f"flt_in_{cfg.name}_{rep}"
        )
        out_region = self.proc.memory.allocate(
            self.out_words, f"flt_out_{cfg.name}_{rep}"
        )
        self.out_regions[rep] = out_region
        if self._indexed:
            bands = [
                [float(v) for v in self._band(strip_image, lane).ravel()]
                for lane in range(lanes)
            ]
            self.proc.memory.load_region(
                in_region, in_arr.stream_image_per_lane(bands)
            )
        else:
            self.proc.memory.load_region(
                in_region, [float(v) for v in strip_image.ravel()]
            )
        prog = StreamProgram(f"filter_{cfg.name}_{rep}")
        guard_k = self._guards["kernel"][buf]
        guard_s = self._guards["store"][buf]
        t_load = prog.add_memory(
            load_op(in_arr.seq_read(in_words), in_region),
            deps=[guard_k] if guard_k is not None else [],
        )
        iterations = strip_rows * self.cols_per_lane
        if self._indexed:
            bindings = {"out": out_arr.seq_write(out_words)}
            records = (strip_rows + 2 * RADIUS) * self.band_width
            for dr in range(TAPS):
                bindings[f"win{dr}"] = in_arr.inlane_read(records)
        else:
            bindings = {"in": in_arr.seq_read(in_words),
                        "out": out_arr.seq_write(out_words)}

        padded = np.pad(strip_image, ((0, 0), (RADIUS, RADIUS)),
                        mode="edge")

        def on_start(padded=padded):
            self._scratch["padded"] = padded

        t_k = prog.add_kernel(
            KernelInvocation(self.kernel, bindings, iterations=iterations,
                             name=f"filter_{rep}", on_start=on_start),
            deps=[t_load] + ([guard_s] if guard_s is not None else []),
        )
        t_st = prog.add_memory(
            store_op(out_arr.seq_write(out_words, name=f"st{rep}"),
                     out_region),
            deps=[t_k],
        )
        self._guards["kernel"][buf] = t_k
        self._guards["store"][buf] = t_st
        return prog

    # ------------------------------------------------------------------
    def verify(self, rep: int) -> bool:
        row0, strip_rows = self._strip_rows(rep)
        expected = reference_filter(self.image)[row0 : row0 + strip_rows]
        words = self.proc.memory.dump_region(self.out_regions[rep])
        per_lane = self.out_arrays[rep % 2].per_lane_from_stream_image(
            words, strip_rows * self.cols_per_lane
        )
        got = np.zeros_like(expected)
        for lane in range(self.config.lanes):
            band = np.array(per_lane[lane]).reshape(
                strip_rows, self.cols_per_lane
            )
            start = lane * self.cols_per_lane
            got[:, start : start + self.cols_per_lane] = band
        return bool(np.allclose(got, expected, rtol=1e-9, atol=1e-12))


def run(config: MachineConfig, height: int = 64, width: int = 64,
        repeats: "int | None" = None, warmup: int = 1,
        seed: int = 99) -> AppResult:
    """Run the Filter benchmark; returns verified steady-state stats.

    ``repeats`` defaults to one full pass over the image (all of its
    strips, one when the image fits the SRF whole). Presets strip the
    image differently, so harness comparisons normalise per output pixel
    (``details["pixels_processed"]``), counted over every strip of the
    measured chain, the warmup strip included.
    """
    bench = FilterBenchmark(config, height, width, seed)
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
        benchmark="Filter",
        config_name=config.name,
        stats=stats,
        verified=verified,
        details={"height": height, "width": width,
                 "pixels_processed": pixels},
    )
