"""Round-robin arbitration of the SRF port (paper §4.4).

Two stages share the port: the global stage alternates between one
sequential stream and all indexed streams, and each bank's local stage
serves its head word accesses in round-robin order. The values below
pin the grant orders, so each bank's pointer-and-slice scan is checked
directly, not only through the golden stats.
"""

import pytest

from repro.config import isrf1_config, isrf4_config
from repro.core.arbiter import RoundRobinArbiter
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.core.srf import PortDirection, StreamRegisterFile


class TestRoundRobinArbiter:
    def test_pick_over_a_changing_candidate_list(self):
        # The pointer is taken modulo the current count, so the list may
        # grow or shrink between calls.
        arbiter = RoundRobinArbiter()
        lists = (
            "abcd", "abcd", "abc", "ab", "abcde", "x", "abc", "abcd",
            "ab", "ab", "ab",
        )
        picks = "".join(arbiter.pick(candidates) for candidates in lists)
        assert picks == "abcbcxbcbab"

    def test_empty_candidate_list_picks_nothing(self):
        arbiter = RoundRobinArbiter()
        assert arbiter.pick("ab") == "a"
        assert arbiter.pick([]) is None
        assert arbiter.pick("abc") == "b"  # the pointer did not move


def _inlane_stream(srf, name, records=64):
    region = srf.allocator.allocate(records * srf.geometry.lanes, name)
    return srf.open_indexed(StreamDescriptor(
        name, StreamKind.INLANE_INDEXED_READ, region.base,
        length_records=records,
    ))


def test_global_stage_alternates_sequential_and_indexed_grants():
    # One always-requesting sequential read port (its buffer never
    # fills) and one indexed stream with words always queued: the global
    # stage gives them the port in turn.
    srf = StreamRegisterFile(isrf4_config())
    region = srf.allocator.allocate(4096, "seq")
    port = srf.open_sequential(
        StreamDescriptor("seq", StreamKind.SEQUENTIAL_READ, region.base,
                         length_records=4096),
        PortDirection.READ, buffer_words=64,
    )
    stream = _inlane_stream(srf, "idx")
    winners = []
    for cycle in range(16):
        while port.can_pop():
            port.pop_simd()
        while stream.data_ready(0):
            stream.pop_data(0)
        while stream.can_issue(0):
            stream.issue_read(0, cycle % 64)
        before = (srf.stats.sequential_grants, srf.stats.indexed_cycles)
        srf.tick(cycle)
        after = (srf.stats.sequential_grants, srf.stats.indexed_cycles)
        winners.append("S" if after[0] > before[0] else
                       "I" if after[1] > before[1] else "-")
    assert "".join(winners) == "SISISISISISISISI"


def _bank_grant_order(streams, cycles):
    """Which of ``streams`` (by position) ISRF1's bank 0 grants in each
    of ``cycles`` indexed cycles, every lane-0 FIFO kept full."""
    srf = StreamRegisterFile(isrf1_config())
    opened = [_inlane_stream(srf, f"s{k}") for k in range(streams)]
    order = []
    for cycle in range(cycles):
        for stream in opened:
            while stream.data_ready(0):
                stream.pop_data(0)
            while stream.can_issue(0):
                stream.issue_read(0, cycle % 64)
        before = [stream.pending_words for stream in opened]
        srf.tick(cycle)
        granted = [k for k, stream in enumerate(opened)
                   if stream.pending_words < before[k]]
        order.append("".join(str(k) for k in granted) or "-")
    return " ".join(order)


@pytest.mark.parametrize("streams, order", [
    (2, "0 1 0 1 0 1 0 1 0 1 0 1"),
    (3, "0 1 2 0 1 2 0 1 2 0 1 2"),
    (4, "0 1 2 3 0 1 2 3 0 1 2 3"),
])
def test_one_bank_grants_full_heads_in_turn(streams, order):
    assert _bank_grant_order(streams, 12) == order


def test_one_bank_pointer_is_taken_modulo_a_changing_head_count():
    # Heads come and go: each stream queues one word on the cycles its
    # digit is 1 and its FIFO is empty. The bank's pointer advances one
    # position per indexed cycle, modulo that cycle's head count, so with
    # heads [1, 2] after a grant to 0 of [0, 1, 2] it serves stream 2.
    srf = StreamRegisterFile(isrf1_config())
    opened = [_inlane_stream(srf, f"s{k}") for k in range(3)]
    pattern = ("110", "000", "011", "000", "101", "000", "111", "000",
               "010", "001", "100", "000", "111", "011", "000", "000")
    order = []
    for cycle, issuing in enumerate(pattern):
        for stream, digit in zip(opened, issuing):
            while stream.data_ready(0):
                stream.pop_data(0)
            if digit == "1" and not stream.pending_words:
                stream.issue_read(0, cycle)
        before = [stream.pending_words for stream in opened]
        srf.tick(cycle)
        granted = [k for k, stream in enumerate(opened)
                   if stream.pending_words < before[k]]
        order.append("".join(str(k) for k in granted) or "-")
    assert " ".join(order) == "0 1 1 2 0 2 0 2 1 2 0 - 0 2 1 -"
