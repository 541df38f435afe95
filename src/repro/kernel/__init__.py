"""Kernel subsystem: KernelC-style DSL, interpreter, modulo scheduler."""

from repro.kernel.builder import KernelBuilder
from repro.kernel.interpreter import (
    DATA_OP_KINDS,
    ExecutionContext,
    KernelInterpreter,
)
from repro.kernel.ir import Carry, DependenceEdge, Kernel, KernelStream, Op
from repro.kernel.kernelc import KernelCError, compile_kernelc
from repro.kernel.ops import OP_SPECS, OpKind, OpSpec, ResourceClass, spec_of
from repro.kernel.resources import ClusterResources, min_ii_resources
from repro.kernel.schedule import StaticSchedule
from repro.kernel.scheduler import ModuloScheduler, min_ii_recurrence

__all__ = [
    "Carry",
    "ClusterResources",
    "DATA_OP_KINDS",
    "DependenceEdge",
    "ExecutionContext",
    "Kernel",
    "KernelBuilder",
    "KernelCError",
    "KernelInterpreter",
    "KernelStream",
    "ModuloScheduler",
    "OP_SPECS",
    "Op",
    "OpKind",
    "OpSpec",
    "ResourceClass",
    "StaticSchedule",
    "min_ii_recurrence",
    "min_ii_resources",
    "spec_of",
    "compile_kernelc",
]
