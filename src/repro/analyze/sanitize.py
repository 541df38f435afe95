"""Cycle-level machine-state sanitizer (``MachineConfig.sanitize``).

The static passes prove what they can before a single cycle runs; this
module guards the rest *while* cycles run. With ``sanitize=True`` the
processor attaches a :class:`MachineSanitizer` to its SRF and calls
:meth:`MachineSanitizer.check` once per simulated cycle, after the SRF
tick. Every check is a read-only probe of existing state — the
sanitizer allocates nothing on the machine, mutates nothing, and a
machine built without it carries no sanitizer state at all, so stats
fingerprints are bit-identical either way (the same inertness contract
as the trace and fault layers).

Checked invariants, mirroring the machine's conservation laws:

* **allocator** — allocations are disjoint, ordered, block-aligned and
  inside the SRF;
* **sequential ports** — block progress within bounds, in-flight word
  credit non-negative, per-lane stream-buffer occupancy uniform (SIMD
  lockstep) and within capacity, and reads never over-commit buffer
  space (occupancy + in-flight ≤ capacity);
* **indexed streams** — the O(1) ``pending_words`` counter equals the
  words actually queued across lane FIFOs, write credits are
  non-negative, each address FIFO's record counter equals its queued
  record-end words and stays within capacity, a non-empty FIFO's tail
  word ends a record, reorder buffers stay within capacity;
* **crossbars** — address-network port budgets within configured
  bounds, return-network queues plus reservations within queue depth;
* **completion pipeline** — no in-flight completion is overdue after
  the cycle's completions drained, every calendar bucket's due lies in
  the ring's window and maps to that bucket, the in-flight count
  matches the queued events, and every pending indexed-read fill is
  due for a reserved, still-unfilled reorder-buffer slot.

On the first violated invariant a :class:`~repro.errors.SanitizerError`
carrying a :class:`SanitizerReport` (every violation found that cycle,
not just the first) aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stream_buffer import _UNFILLED
from repro.errors import SanitizerError


@dataclass
class SanitizerReport:
    """Forensics attached to a :class:`~repro.errors.SanitizerError`."""

    cycle: int
    violations: list = field(default_factory=list)  # of str

    def describe(self) -> str:
        lines = [
            f"sanitizer: {len(self.violations)} invariant violation(s) "
            f"at cycle {self.cycle}:"
        ]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class MachineSanitizer:
    """Per-cycle invariant checker over one machine's SRF complex."""

    def __init__(self, srf):
        self.srf = srf
        self.checks_run = 0

    # ------------------------------------------------------------------
    def check(self, cycle: int) -> None:
        """Assert every invariant; raises SanitizerError on violation."""
        self.checks_run += 1
        violations = list(self._scan(cycle))
        if violations:
            report = SanitizerReport(cycle=cycle, violations=violations)
            raise SanitizerError(
                "machine invariant violated", report=report
            )

    def _scan(self, cycle: int):
        yield from self._check_allocator()
        yield from self._check_sequential_ports()
        yield from self._check_indexed_streams()
        yield from self._check_networks()
        yield from self._check_pipeline(cycle)

    # ------------------------------------------------------------------
    def _check_allocator(self):
        geometry = self.srf.geometry
        block = geometry.block_words
        cursor = 0
        for region in self.srf.allocator._regions:
            if region.base % block or region.words % block:
                yield (
                    f"allocation '{region.name}' [{region.base}, "
                    f"{region.base + region.words}) is not block-aligned"
                )
            if region.base < cursor:
                yield (
                    f"allocation '{region.name}' at {region.base} overlaps "
                    f"or reorders against the previous region end {cursor}"
                )
            cursor = max(cursor, region.base + region.words)
        if cursor > geometry.total_words:
            yield (
                f"allocations extend to word {cursor} beyond the "
                f"{geometry.total_words}-word SRF"
            )

    def _check_sequential_ports(self):
        for port in self.srf._seq_ports:
            fifo = getattr(port, "fifo", None)
            if fifo is None:
                continue  # duck-typed memory-system port; no buffer here
            name = port.descriptor.name
            if not 0 <= port._blocks_done <= port.total_blocks:
                yield (
                    f"sequential port '{name}': {port._blocks_done} blocks "
                    f"done outside [0, {port.total_blocks}]"
                )
            if port._inflight_words < 0:
                yield (
                    f"sequential port '{name}': negative in-flight word "
                    f"credit ({port._inflight_words})"
                )
            depths = {len(lane) for lane in fifo._fifos}
            if len(depths) > 1:
                yield (
                    f"sequential port '{name}': stream-buffer occupancy "
                    f"not uniform across lanes ({sorted(depths)}) — SIMD "
                    "lockstep broken"
                )
            occupancy = fifo.occupancy
            if occupancy > fifo.capacity:
                yield (
                    f"sequential port '{name}': buffer occupancy "
                    f"{occupancy} exceeds capacity {fifo.capacity}"
                )
            if (port.direction.value == "read"
                    and occupancy + port._inflight_words > fifo.capacity):
                yield (
                    f"sequential port '{name}': occupancy {occupancy} + "
                    f"in-flight {port._inflight_words} over-commits the "
                    f"{fifo.capacity}-word buffer"
                )

    def _check_indexed_streams(self):
        for stream in self.srf._indexed_list:
            name = stream.descriptor.name
            queued = 0
            for fifo in stream.fifos:
                words = fifo._words
                queued += len(words)
                # A record leaves the FIFO with its ``last`` word, so the
                # record counter must equal the queued record ends.
                ends = sum(1 for word in words if word[4])
                if ends != fifo.records:
                    yield (
                        f"indexed stream '{name}' lane {fifo.lane}: record "
                        f"counter {fifo.records} != {ends} record-end "
                        "words queued"
                    )
                if ends > fifo.capacity:
                    yield (
                        f"indexed stream '{name}' lane {fifo.lane}: "
                        f"{ends} queued records exceed capacity "
                        f"{fifo.capacity}"
                    )
                if words and not words[-1][4]:
                    yield (
                        f"indexed stream '{name}' lane {fifo.lane}: tail "
                        "word does not end a record"
                    )
            if queued != stream.pending_words:
                yield (
                    f"indexed stream '{name}': pending_words counter "
                    f"{stream.pending_words} != {queued} words actually "
                    "queued across lane FIFOs"
                )
            if stream.outstanding_writes < 0:
                yield (
                    f"indexed stream '{name}': negative outstanding-write "
                    f"credit ({stream.outstanding_writes})"
                )
            if stream.robs is not None:
                for lane, rob in enumerate(stream.robs):
                    yield from self._check_rob(name, lane, rob)

    @staticmethod
    def _check_rob(name, lane, rob):
        slots = rob._slots
        if len(slots) > rob.capacity:
            yield (
                f"indexed stream '{name}' lane {lane}: reorder buffer "
                f"occupancy {len(slots)} exceeds capacity {rob.capacity}"
            )

    def _check_networks(self):
        address = self.srf.address_network
        for lane in range(address.lanes):
            if not 0 <= address._source_budget[lane] <= address.source_bandwidth:
                yield (
                    f"address network: source budget of lane {lane} is "
                    f"{address._source_budget[lane]}, outside "
                    f"[0, {address.source_bandwidth}]"
                )
            if not 0 <= address._bank_budget[lane] <= address.ports_per_bank:
                yield (
                    f"address network: port budget of bank {lane} is "
                    f"{address._bank_budget[lane]}, outside "
                    f"[0, {address.ports_per_bank}]"
                )
        returns = self.srf.return_network
        for bank in range(returns.lanes):
            reserved = returns._reserved[bank]
            if reserved < 0:
                yield (
                    f"return network: negative reservation count "
                    f"({reserved}) at bank {bank}"
                )
            depth = len(returns._queues[bank]) + reserved
            if depth > returns.bank_queue_depth:
                yield (
                    f"return network: bank {bank} holds {depth} words "
                    f"(queued + reserved) against a depth of "
                    f"{returns.bank_queue_depth}"
                )

    def _check_pipeline(self, cycle: int):
        srf = self.srf
        size = srf._cal_size
        queued = 0
        for slot, bucket in enumerate(srf._cal):
            if not bucket:
                continue
            queued += len(bucket)
            due = srf._cal_due[slot]
            if due <= cycle:
                yield (
                    f"completion pipeline: {len(bucket)} access(es) due at "
                    f"cycle {due} still in flight after cycle {cycle} "
                    "drained"
                )
            elif due % size != slot or due - cycle >= size:
                yield (
                    f"completion pipeline: bucket {slot} holds accesses "
                    f"due at cycle {due}, outside the {size}-cycle "
                    f"calendar window after cycle {cycle}"
                )
            for event in bucket:
                # In-lane fills are (1, rob, ticket, value); cross-lane
                # returns are (2, bank, src_lane, ticket, value, sid, rob).
                if event[0] == 1:
                    rob, ticket = event[1], event[2]
                elif event[0] == 2:
                    rob, ticket = event[6], event[3]
                else:
                    continue
                index = ticket - rob._head_ticket
                if not 0 <= index < len(rob._slots):
                    yield (
                        f"completion pipeline: fill due at cycle {due} "
                        f"for ticket {ticket}, which its reorder buffer "
                        "never reserved"
                    )
                elif rob._slots[index] is not _UNFILLED:
                    yield (
                        f"completion pipeline: fill due at cycle {due} "
                        f"for ticket {ticket}, not an unfilled slot of "
                        "its reorder buffer"
                    )
        if queued != srf._cal_count:
            yield (
                f"completion pipeline: {queued} queued completions but "
                f"the in-flight count says {srf._cal_count}"
            )
