"""The indexed stream register file — the paper's core contribution.

This package implements Sections 4.1–4.5 of the paper: SRF geometry with
banks and sub-arrays, sequential block access through stream buffers,
indexed access through address FIFOs and reorder buffers, two-stage
round-robin arbitration with sub-array conflict detection, and
cross-lane access over dedicated crossbars.
"""

from repro.core.address_fifo import AddressFifo
from repro.core.arbiter import RoundRobinArbiter
from repro.core.arrays import SrfArray
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.geometry import SrfGeometry
from repro.core.srf import (
    IndexedStream,
    PortDirection,
    SequentialPort,
    SrfStats,
    StreamRegisterFile,
)
from repro.core.storage import SrfAllocation, SrfAllocator, SrfStorage
from repro.core.stream_buffer import ReorderBuffer

__all__ = [
    "AddressFifo",
    "IndexSpace",
    "IndexedStream",
    "PortDirection",
    "ReorderBuffer",
    "RoundRobinArbiter",
    "SequentialPort",
    "SrfAllocation",
    "SrfAllocator",
    "SrfArray",
    "SrfGeometry",
    "SrfStats",
    "SrfStorage",
    "StreamDescriptor",
    "StreamKind",
    "StreamRegisterFile",
]
