"""Static (modulo) schedule representation.

The product of the scheduler: each op gets an issue slot relative to its
iteration's start; iterations are initiated ``ii`` cycles apart. The
kernel's *loop length* — what Figure 14 plots against address-data
separation — is the II; the *depth* (makespan of one iteration) sets
the software-pipeline fill/drain overhead that Figure 15 shows
penalising very long separations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.kernel.ir import Kernel
from repro.kernel.ops import OpKind


@dataclass
class StaticSchedule:
    """A legal modulo schedule for one kernel."""

    kernel: Kernel
    ii: int
    slots: dict  # op_id -> issue slot (cycle within the iteration)
    #: Makespan of a single iteration including the last op's latency.
    depth: int
    #: Address-data separations the schedule was built for.
    inlane_separation: int
    crosslane_separation: int
    #: Reorder-buffer words per indexed read stream it was built for.
    stream_capacity_words: int = 8
    #: Issue slots (mod ii) containing explicit inter-cluster comms.
    comm_slots: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.ii <= 0:
            raise ScheduleError("II must be positive")
        if self.depth < self.ii:
            # An iteration always spans at least one initiation interval.
            self.depth = self.ii

    @property
    def stages(self) -> int:
        """Software-pipeline depth in stages (fill/drain cost driver)."""
        return -(-self.depth // self.ii)

    @property
    def loop_length(self) -> int:
        """Static schedule length of the inner loop body (Figure 14)."""
        return self.ii

    def slot_of(self, op) -> int:
        try:
            return self.slots[op.op_id]
        except KeyError:
            raise ScheduleError(
                f"{op.name} is not part of this schedule"
            ) from None

    def timed_stream_ops(self) -> list:
        """Stream/comm ops with their slots, ordered by (slot, program order).

        This is the replay order the machine executor uses to turn each
        iteration's trace into timed SRF events.
        """
        interesting = (
            OpKind.SEQ_READ, OpKind.SEQ_WRITE, OpKind.IDX_ISSUE,
            OpKind.IDX_DATA, OpKind.IDX_WRITE, OpKind.COMM,
        )
        ops = [op for op in self.kernel.ops if op.kind in interesting]
        return sorted(ops, key=lambda op: (self.slots[op.op_id], op.op_id))

    def total_cycles(self, iterations: int) -> int:
        """Stall-free cycles to run ``iterations`` iterations.

        ``depth`` covers the first iteration (pipeline fill + drain); the
        remaining iterations retire one per II.
        """
        if iterations <= 0:
            return 0
        return self.depth + self.ii * (iterations - 1)

    def describe(self) -> str:
        lines = [
            f"kernel {self.kernel.name}: II={self.ii} depth={self.depth} "
            f"stages={self.stages} (sep in-lane={self.inlane_separation}, "
            f"cross-lane={self.crosslane_separation})"
        ]
        for op in sorted(self.kernel.ops, key=lambda o: self.slots[o.op_id]):
            lines.append(f"  [{self.slots[op.op_id]:4d}] {op.name}")
        return "\n".join(lines)
