"""Cross-lane address and data-return networks."""

import pytest

from repro.errors import SrfError
from repro.interconnect import AddressNetwork, ReturnNetwork


class TestAddressNetwork:
    def test_source_bandwidth_limits_injection(self):
        net = AddressNetwork(lanes=4, ports_per_bank=4, source_bandwidth=1)
        net.begin_cycle()
        assert net.try_route(0, 1)
        assert not net.try_route(0, 2)  # same source, second index
        assert net.try_route(1, 2)

    def test_bank_ports_limit_acceptance(self):
        net = AddressNetwork(lanes=4, ports_per_bank=1, source_bandwidth=1)
        net.begin_cycle()
        assert net.try_route(0, 3)
        assert not net.try_route(1, 3)  # bank 3 port exhausted
        assert net.try_route(1, 2)

    def test_budgets_reset_each_cycle(self):
        net = AddressNetwork(lanes=2, ports_per_bank=1)
        net.begin_cycle()
        assert net.try_route(0, 0)
        net.begin_cycle()
        assert net.try_route(0, 0)

    def test_invalid_construction(self):
        with pytest.raises(SrfError):
            AddressNetwork(lanes=0)
        with pytest.raises(SrfError):
            AddressNetwork(lanes=2, ports_per_bank=0)


class TestReturnNetwork:
    def collect(self):
        received = []
        return received, received.append

    def test_delivery_invokes_fill(self):
        net = ReturnNetwork(lanes=2)
        received, fill = self.collect()
        net.enqueue(bank=0, destination_lane=1, token=7, fill=fill)
        net.tick(comm_busy=False)
        assert received == [7]
        assert net.pending() == 0

    def test_destination_slot_cap(self):
        net = ReturnNetwork(lanes=2, slots_per_destination=2)
        received, fill = self.collect()
        for ticket in range(3):
            net.enqueue(0, 1, ticket, fill)
        net.tick(comm_busy=False)
        assert len(received) == 2
        net.tick(comm_busy=False)
        assert len(received) == 3

    def test_comm_cycles_preempt_returns(self):
        net = ReturnNetwork(lanes=2, slots_per_destination=2)
        received, fill = self.collect()
        for ticket in range(2):
            net.enqueue(0, 0, ticket, fill)
        net.tick(comm_busy=True)
        assert received == []  # explicit comms have absolute priority
        net.tick(comm_busy=False)
        assert len(received) == 2

    def test_bank_queue_backpressure(self):
        net = ReturnNetwork(lanes=2, bank_queue_depth=2)
        _, fill = self.collect()
        net.enqueue(0, 0, 0, fill)
        net.enqueue(0, 0, 1, fill)
        assert not net.bank_has_space(0)
        assert net.bank_has_space(1)
        with pytest.raises(SrfError):
            net.enqueue(0, 0, 2, fill)

    def test_fairness_across_banks(self):
        net = ReturnNetwork(lanes=4, slots_per_destination=1)
        received, fill = self.collect()
        net.enqueue(0, 2, 0, fill)
        net.enqueue(1, 2, 1, fill)
        net.tick(comm_busy=False)
        assert len(received) == 1  # one slot at destination 2
        net.tick(comm_busy=False)
        assert len(received) == 2
