"""Inter-lane networks for cross-lane indexed SRF access (paper §4.5).

Two fully connected crossbars link the lanes (Figure 8c):

* the **address network** carries indices from the issuing cluster to the
  target SRF bank — each source cluster injects at most
  ``crosslane_indexed_bandwidth`` (= 1) index per cycle, and each bank
  accepts at most ``crosslane_ports_per_bank`` accesses per cycle (the
  knob swept in Figure 18);
* the **data return network** carries the accessed words back from the
  bank to the requesting lane's indexed stream buffer. Returns share the
  inter-cluster network with explicit (statically scheduled) cluster
  communication, which has absolute priority: an explicit-comm cycle
  delivers no returns, so they wait in their bank's return queue, and
  a full queue holds back that bank's cross-lane grants.

Both networks time accesses only. A return entry names the reorder
slot it fills and carries no word: the kernel executor already moved
the data when it issued the access.

The paper's conclusion — that SRF-port contention, not inter-cluster
traffic, dominates cross-lane throughput loss — emerges from exactly
this structure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import SrfError


@dataclass
class CrossbarStats:
    """Traffic counters of the data return network."""

    words_delivered: int = 0
    deferred_word_cycles: int = 0
    comm_cycles: int = 0


class ReturnNetwork:
    """Bank -> lane data-return crossbar for cross-lane indexed reads.

    Completed accesses are enqueued per source bank as
    ``(destination_lane, ticket, fill)``; each cycle the network
    delivers up to ``slots_per_destination`` words to every destination
    lane, and none on an explicit-comm cycle. Banks whose return queue
    is full exert backpressure on local arbitration via
    :meth:`bank_has_space`. :attr:`queued` counts the words waiting, so
    the SRF ticks the network only on a comm cycle or while it holds
    returns.
    """

    def __init__(
        self,
        lanes: int,
        slots_per_destination: int = 2,
        bank_queue_depth: int = 4,
    ):
        if lanes <= 0:
            raise SrfError("ReturnNetwork needs at least one lane")
        if slots_per_destination <= 0 or bank_queue_depth <= 0:
            raise SrfError("network capacities must be positive")
        self.lanes = lanes
        self.slots_per_destination = slots_per_destination
        self.bank_queue_depth = bank_queue_depth
        self._queues = [deque() for _ in range(lanes)]
        self._reserved = [0] * lanes
        #: Words waiting across the bank return queues.
        self.queued = 0
        self.stats = CrossbarStats()

    def bank_has_space(self, bank: int) -> bool:
        """Whether bank ``bank`` may accept another cross-lane access.

        Counts both queued words and reservations for accesses still in
        the bank's access pipeline.
        """
        return (
            len(self._queues[bank]) + self._reserved[bank]
            < self.bank_queue_depth
        )

    def reserve(self, bank: int) -> None:
        """Claim a return slot at grant time (released by enqueue)."""
        if not self.bank_has_space(bank):
            raise SrfError(f"return queue of bank {bank} is full")
        self._reserved[bank] += 1

    def enqueue(self, bank: int, destination_lane: int, ticket: int,
                fill) -> None:
        """Queue a completed access at its bank for return delivery;
        delivery calls ``fill(ticket)``."""
        if self._reserved[bank] > 0:
            self._reserved[bank] -= 1
        elif not self.bank_has_space(bank):
            raise SrfError(f"return queue of bank {bank} is full")
        self._queues[bank].append((destination_lane, ticket, fill))
        self.queued += 1

    def pending(self) -> int:
        """Total words waiting in bank return queues."""
        return self.queued

    def tick(self, comm_busy: bool) -> int:
        """Deliver queued returns for one cycle; returns words delivered.

        Each destination lane receives at most ``slots_per_destination``
        words. Explicit (statically scheduled) inter-cluster
        communication has absolute network priority (§4.5), so a comm
        cycle delivers no returns — deferred words back up in the bank
        return queues and, when those fill, throttle cross-lane grants.
        """
        stats = self.stats
        if comm_busy:
            stats.comm_cycles += 1
            stats.deferred_word_cycles += self.queued
            return 0
        if not self.queued:
            return 0
        remaining = [self.slots_per_destination] * self.lanes
        delivered = 0
        for queue in self._queues:
            # One rotation: delivered words leave, the rest go back in
            # their order.
            for _ in range(len(queue)):
                item = queue.popleft()
                lane = item[0]
                if remaining[lane]:
                    remaining[lane] -= 1
                    item[2](item[1])
                    delivered += 1
                else:
                    queue.append(item)
        self.queued -= delivered
        stats.deferred_word_cycles += self.queued
        stats.words_delivered += delivered
        return delivered


class AddressNetwork:
    """Per-cycle accounting for the dedicated cross-lane index crossbar.

    The network itself is non-blocking; the limits are at its ports:
    each source cluster can inject ``source_bandwidth`` indices per
    cycle and each SRF bank exposes ``ports_per_bank`` access ports.
    :meth:`begin_cycle` resets the port budgets; local arbitration calls
    :meth:`try_route` for each candidate cross-lane access.
    """

    def __init__(self, lanes: int, ports_per_bank: int = 1, source_bandwidth: int = 1):
        if lanes <= 0:
            raise SrfError("AddressNetwork needs at least one lane")
        if ports_per_bank <= 0 or source_bandwidth <= 0:
            raise SrfError("network port counts must be positive")
        self.lanes = lanes
        self.ports_per_bank = ports_per_bank
        self.source_bandwidth = source_bandwidth
        self._source_budget = [0] * lanes
        self._bank_budget = [0] * lanes
        self._full_source = [source_bandwidth] * lanes
        self._full_bank = [ports_per_bank] * lanes

    def begin_cycle(self) -> None:
        """Reset per-cycle port budgets."""
        self._source_budget[:] = self._full_source
        self._bank_budget[:] = self._full_bank

    def can_route(self, source_lane: int, bank: int) -> bool:
        return (
            self._source_budget[source_lane] > 0
            and self._bank_budget[bank] > 0
        )

    def try_route(self, source_lane: int, bank: int) -> bool:
        """Consume one source slot and one bank port if both are free."""
        if not self.can_route(source_lane, bank):
            return False
        self._source_budget[source_lane] -= 1
        self._bank_budget[bank] -= 1
        return True


class RingAddressNetwork(AddressNetwork):
    """Sparse alternative to the full address crossbar (paper §7).

    "We also intend to evaluate the impact of sparse interconnects for
    the address and data networks used for cross-lane accesses." This
    ring routes each index over the shortest arc of a bidirectional
    ring of lanes; every directed link carries at most
    ``link_bandwidth`` indices per cycle. The wiring cost is O(N)
    instead of the crossbar's O(N^2), at the price of link contention
    under all-to-all traffic — quantified by
    ``benchmarks/bench_ablation_sparse_network.py``.
    """

    def __init__(self, lanes: int, ports_per_bank: int = 1,
                 source_bandwidth: int = 1, link_bandwidth: int = 1):
        super().__init__(lanes, ports_per_bank, source_bandwidth)
        if link_bandwidth <= 0:
            raise SrfError("link bandwidth must be positive")
        self.link_bandwidth = link_bandwidth
        # Directed links: (lane, direction) with direction +1 or -1.
        self._link_budget = {}

    def begin_cycle(self) -> None:
        super().begin_cycle()
        self._link_budget = {}

    def _path(self, source_lane: int, bank: int) -> list:
        """Directed links of the shortest arc from source to bank."""
        n = self.lanes
        forward = (bank - source_lane) % n
        backward = (source_lane - bank) % n
        direction = 1 if forward <= backward else -1
        hops = min(forward, backward)
        links = []
        lane = source_lane
        for _ in range(hops):
            links.append((lane, direction))
            lane = (lane + direction) % n
        return links

    def can_route(self, source_lane: int, bank: int) -> bool:
        if not super().can_route(source_lane, bank):
            return False
        return all(
            self._link_budget.get(link, 0) < self.link_bandwidth
            for link in self._path(source_lane, bank)
        )

    def try_route(self, source_lane: int, bank: int) -> bool:
        if not self.can_route(source_lane, bank):
            return False
        for link in self._path(source_lane, bank):
            self._link_budget[link] = self._link_budget.get(link, 0) + 1
        self._source_budget[source_lane] -= 1
        self._bank_budget[bank] -= 1
        return True
