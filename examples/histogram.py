#!/usr/bin/env python
"""Scenario: in-SRF histogramming with read-write indexed streams.

Demonstrates the paper's §7 future-work extension, implemented here:
"read-write data structures allow even more flexibility for
application-specific tasks as well as system-level uses such as
spilling local registers to the SRF."

A histogram needs read-modify-write per input element — impossible with
the paper's read-xor-write streams inside one kernel (the Base machine
would need one pass per bin, or sort-based binning through memory).
With an ``idxl_iostream``, each lane increments its private bins in
place: the kernel executor moves every word in program order, so each
read sees the earlier increments, and reads and writes share the
stream's address FIFO, so their SRF accesses keep that order too.

Run:  python examples/histogram.py
"""

import random

from repro.config import isrf4_config
from repro.core import SrfArray
from repro.kernel import KernelBuilder
from repro.machine import KernelInvocation, StreamProcessor, StreamProgram
from repro.memory import load_op, store_op


def main():
    bins = 16
    samples_per_lane = 256
    config = isrf4_config()
    proc = StreamProcessor(config)
    lanes = config.lanes

    # Kernel: bins[v] += 1 for each input sample v.
    b = KernelBuilder("histogram")
    in_s = b.istream("in")
    table = b.idxl_iostream("bins")
    value = b.read(in_s)
    count = b.idx_read(table, value)
    b.idx_write(table, value, b.logic(lambda c: c + 1, count))
    kernel = b.build()

    rng = random.Random(42)
    data = [
        [min(bins - 1, int(abs(rng.gauss(bins / 2, bins / 5))))
         for _ in range(samples_per_lane)]
        for _ in range(lanes)
    ]
    in_arr = SrfArray(proc.srf, samples_per_lane * lanes, "in")
    bins_arr = SrfArray(proc.srf, bins * lanes, "bins")
    bins_arr.fill_replicated([0] * bins)
    src = proc.memory.allocate(samples_per_lane * lanes, "src")
    proc.memory.load_region(src, in_arr.stream_image_per_lane(data))

    prog = StreamProgram("histogram")
    t_load = prog.add_memory(load_op(in_arr.seq_read(), src))
    prog.add_kernel(KernelInvocation(kernel, {
        "in": in_arr.seq_read(),
        "bins": bins_arr.inlane_readwrite(bins),
    }, iterations=samples_per_lane), deps=[t_load])
    stats = proc.run_program(prog)

    # Merge per-lane histograms and verify against Python.
    totals = [0] * bins
    for lane in range(lanes):
        for v, count in enumerate(bins_arr.read_per_lane(lane, bins)):
            totals[v] += count
    expected = [0] * bins
    for lane_data in data:
        for v in lane_data:
            expected[v] += 1
    assert totals == expected, "histogram mismatch!"

    run = stats.kernel_runs[0]
    print(f"{lanes * samples_per_lane} samples histogrammed in "
          f"{stats.total_cycles} cycles "
          f"(II={run.ii}, SRF stalls={run.srf_stall_cycles})")
    peak = max(totals)
    for v, count in enumerate(totals):
        bar = "#" * round(40 * count / peak)
        print(f"  bin {v:2d} {count:5d} {bar}")
    print("verified against the Python reference.")


if __name__ == "__main__":
    main()
