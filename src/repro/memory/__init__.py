"""Off-chip memory system: DRAM model, main memory, stream memory ops."""

from repro.memory.controller import MemoryController, MemoryStats
from repro.memory.dram import DramModel, DramStats
from repro.memory.mainmem import MainMemory, MemoryRegion
from repro.memory.ops import (
    MemoryOpKind,
    StreamMemoryOp,
    gather_op,
    load_op,
    scatter_op,
    store_op,
)

__all__ = [
    "DramModel",
    "DramStats",
    "MainMemory",
    "MemoryController",
    "MemoryOpKind",
    "MemoryRegion",
    "MemoryStats",
    "StreamMemoryOp",
    "gather_op",
    "load_op",
    "scatter_op",
    "store_op",
]
