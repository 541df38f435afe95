"""Randomised SRF stress tests: invariants under arbitrary traffic."""

import random

from hypothesis import given, settings, strategies as st

from repro.config import isrf1_config, isrf4_config
from repro.core import SrfArray, StreamRegisterFile


def drive_random_reads(srf, streams, records, cycles, seed,
                       tables):
    """Issue random reads on every stream/lane; pop eagerly.

    The SRF carries no words, so each read is checked by the word its
    queued address names in storage. Returns (per stream per lane, the
    named words of the reads popped, in pop order; the table entries of
    the reads issued, in issue order)."""
    rng = random.Random(seed)
    lanes = srf.geometry.lanes
    expected = [[[] for _ in range(lanes)] for _ in streams]
    named = [[[] for _ in range(lanes)] for _ in streams]
    got = [[[] for _ in range(lanes)] for _ in streams]

    def pop_ready(s, stream, lane):
        while stream.data_ready(lane):
            stream.pop_data(lane)
            got[s][lane].append(named[s][lane][len(got[s][lane])])

    for cycle in range(cycles):
        for s, stream in enumerate(streams):
            for lane in range(lanes):
                pop_ready(s, stream, lane)
                if rng.random() < 0.7 and stream.can_issue(lane):
                    record = rng.randrange(records)
                    stream.issue_read(lane, record)
                    target, addr, _ticket, _last = stream.fifos[lane]._words[-1]
                    named[s][lane].append(srf.storage.read_lane(target, addr))
                    expected[s][lane].append(tables[s][record])
        srf.tick(cycle)
    # Drain.
    for cycle in range(cycles, cycles + 64):
        srf.tick(cycle)
        for s, stream in enumerate(streams):
            for lane in range(lanes):
                pop_ready(s, stream, lane)
    return got, expected


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    stream_count=st.integers(min_value=1, max_value=4),
    make_config=st.sampled_from([isrf1_config, isrf4_config]),
)
def test_random_traffic_preserves_values_and_order(seed, stream_count,
                                                   make_config):
    """Every read's queued address names the table entry it was issued
    for, and every read returns, in issue order, for any random traffic
    mix on ISRF1 and ISRF4."""
    config = make_config()
    srf = StreamRegisterFile(config)
    records = 64
    tables = []
    streams = []
    for s in range(stream_count):
        arr = SrfArray(srf, records * config.lanes, f"t{s}")
        table = [1000 * s + k for k in range(records)]
        arr.fill_replicated(table)
        tables.append(table)
        streams.append(srf.open_indexed(arr.inlane_read(records)))
    got, expected = drive_random_reads(
        srf, streams, records, cycles=200, seed=seed, tables=tables
    )
    assert got == expected


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_grant_counts_respect_bandwidth_caps(seed):
    """ISRF4 never grants more than min(bandwidth, sub-arrays) in-lane
    words per lane per indexed cycle (checked via aggregate stats)."""
    config = isrf4_config()
    srf = StreamRegisterFile(config)
    records = 64
    tables, streams = [], []
    for s in range(4):
        arr = SrfArray(srf, records * config.lanes, f"t{s}")
        table = list(range(records))
        arr.fill_replicated(table)
        tables.append(table)
        streams.append(srf.open_indexed(arr.inlane_read(records)))
    drive_random_reads(srf, streams, records, cycles=150, seed=seed,
                       tables=tables)
    stats = srf.stats
    cap = config.inlane_indexed_bandwidth * config.lanes
    assert stats.inlane_grants <= stats.indexed_cycles * cap


def test_isrf1_grants_at_most_one_word_per_lane_per_cycle():
    config = isrf1_config()
    srf = StreamRegisterFile(config)
    records = 64
    tables, streams = [], []
    for s in range(4):
        arr = SrfArray(srf, records * config.lanes, f"t{s}")
        table = list(range(records))
        arr.fill_replicated(table)
        tables.append(table)
        streams.append(srf.open_indexed(arr.inlane_read(records)))
    drive_random_reads(srf, streams, records, cycles=150, seed=11,
                       tables=tables)
    stats = srf.stats
    assert stats.inlane_grants <= stats.indexed_cycles * config.lanes


def test_storage_corruption_is_caught_by_verification():
    """Failure injection: flipping a stored word breaks the Rijndael
    ciphertext check — i.e. verification really exercises the data
    path, not a shadow model."""
    from repro.apps.rijndael import RijndaelBenchmark
    from repro.config import isrf4_config as make

    bench = RijndaelBenchmark(make(), blocks_per_lane=2)
    prog = bench.build_program(0)
    bench.proc.run_program(prog)
    assert bench.verify(0)
    region = bench.ct_regions[0]
    original = bench.proc.memory.read(region.base)
    bench.proc.memory.write(region.base, original ^ 0x1)
    assert not bench.verify(0)
