"""Trace-replay timing mode: record kernel data once, re-time it freely.

The paper is evaluated through *config sweeps* — the same benchmarks on
Base/ISRF/Cache machines and across timing parameter studies (address/
data separation, indexed bandwidth, network ports). Functional kernel
execution is identical at every sweep point that shares a *functional*
configuration; only the timing model (SRF arbitration, crossbar, DRAM)
differs. This module records, during one functional run, exactly the
per-iteration stream-access details the timing model consumes, and
replays them on later runs so the kernel interpreter never executes —
while the timing model still runs cycle-for-cycle, keeping replayed
:class:`~repro.machine.stats.ProgramStats` bit-identical to executed
ones.

What is recorded
----------------
:class:`~repro.machine.executor.KernelExecutor` turns each iteration's
:class:`~repro.kernel.interpreter.IterationTrace` into timed SRF events.
Only four op kinds carry data a replay needs (everything else —
``SEQ_READ`` pops, ``COMM`` slots — is data-free): ``SEQ_WRITE``
(per-lane values), ``IDX_ISSUE`` (per-lane record indices),
``IDX_DATA`` (per-lane word counts) and ``IDX_WRITE`` (per-lane
``(record_index, value)`` entries). The events time the indices and
counts; replay stores the written values into SRF storage at issue,
as execution does. A trace row is the tuple of those
details for one iteration, ordered by the ops' *program order* in
``kernel.ops`` — deliberately not by ``op_id`` (a process-global
counter) nor by schedule slot (timing-dependent), so a trace recorded
in one process under one schedule replays under any other.

Identity and invalidation
-------------------------
Traces are stored per ``(code fingerprint, benchmark, functional
config fingerprint, scale, format version)``. The functional
fingerprint (:func:`functional_fingerprint`) is the full
:func:`repro.fingerprint.config_fingerprint` minus an explicit
blacklist of *timing-only* fields (:data:`TIMING_ONLY_FIELDS`):
latencies, bandwidths, separations, network/arbitration policies,
simulation and observability knobs. The blacklist is the only
classification: every other field keys the trace, so a new field is
functional until someone lists it here — at worst a redundant
re-record, never a wrong replay. Any simulator source edit rotates the
code fingerprint and orphans every stored trace.

Usage
-----
::

    store = TraceStore(directory)
    config = isrf4_config()              # timing_source="replay"
    with replay.session(store, "FFT 2D", config, "small"):
        result = fft.run(config, n=16)   # records on miss, replays on hit

The first run under a given functional key records (full functional
execution; stats identical to execute mode) and saves the bundle on
clean, *verified* exit of the ``with`` block; later runs — including
under different timing-only parameters — replay. ``"replay"`` is the
default timing source, but it acts only inside a session: with no
session open, or with ``store=None``, every run executes. The harness
CLI always installs a store behind ``run_benchmark``: ``<cache-dir>/
traces``, or a temporary directory deleted after a ``--no-cache`` run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import hashlib
import io
import pickle
from dataclasses import dataclass, field

from repro.errors import ReplayError
from repro.fingerprint import code_fingerprint
from repro.kernel.ops import OpKind
from repro.store import DurableStore

#: Bump whenever the on-disk layout or row semantics change; bundles
#: with any other version are quarantined, never misread.
TRACE_FORMAT_VERSION = 2

#: Timed op kinds whose events carry functional data (see module doc).
REPLAY_DATA_KINDS = (
    OpKind.SEQ_WRITE, OpKind.IDX_ISSUE, OpKind.IDX_DATA, OpKind.IDX_WRITE,
)

#: MachineConfig fields that can never change functional kernel data —
#: everything else participates in the trace key. This is the one
#: classification of config fields: a field missing from it only keys
#: more traces, while a field listed here by mistake would let two
#: configs share a trace their kernels compute differently.
TIMING_ONLY_FIELDS = frozenset({
    # Labels and clocking (config.name only feeds report labels).
    "name", "clock_hz",
    # Cluster resources steer the modulo schedule, not the data; trace
    # rows are keyed by program order, which no schedule can reorder.
    "alus_per_cluster", "dividers_per_cluster",
    # SRF/indexed timing parameters.
    "subarrays_per_bank", "srf_sequential_latency", "stream_buffer_words",
    "address_fifo_words", "inlane_indexed_bandwidth",
    "crosslane_indexed_bandwidth", "inlane_indexed_latency",
    "crosslane_indexed_latency", "crosslane_ports_per_bank",
    "inlane_addr_data_separation", "crosslane_addr_data_separation",
    "crosslane_network", "shared_interlane_network", "indexed_arbitration",
    # Simulation knobs (all proven stats-inert elsewhere).
    "timing_source", "sanitize",
    # Observability (read-only probes by construction).
    "trace", "metrics",
    # Memory-system timing.
    "dram_bandwidth_bytes_per_s", "dram_latency_cycles", "dram_banks",
    "dram_row_words", "dram_row_miss_penalty",
    # Cache timing (has_cache itself is functional: apps branch on it).
    "cache_bytes", "cache_associativity", "cache_banks",
    "cache_bandwidth_bytes_per_s", "cache_line_words", "cache_hit_latency",
})


def functional_fingerprint(config) -> str:
    """Deterministic text form of the *functional* config fields.

    Two configs with equal functional fingerprints produce identical
    kernel data on every benchmark, so they can share one recorded
    trace (e.g. ISRF1 and ISRF4, which differ only in name and indexed
    bandwidths). Every field not in :data:`TIMING_ONLY_FIELDS` keys the
    result. A blacklist entry that names no config field raises: a
    renamed timing field would otherwise drop out of the blacklist
    unnoticed and key every trace on its new name.
    """
    fields = dataclasses.asdict(config)
    stale = TIMING_ONLY_FIELDS.difference(fields)
    if stale:
        raise ReplayError(
            "TIMING_ONLY_FIELDS names unknown config fields: "
            + ", ".join(sorted(stale))
        )
    return repr(sorted(
        (name, value) for name, value in fields.items()
        if name not in TIMING_ONLY_FIELDS
    ))


def invocation_signature(invocation) -> tuple:
    """Program-order data-bearing op kinds of an invocation's kernel."""
    return tuple(
        op.kind.value
        for op in invocation.kernel.stream_ops(*REPLAY_DATA_KINDS)
    )


# ----------------------------------------------------------------------
# Trace data model
# ----------------------------------------------------------------------
@dataclass
class InvocationTrace:
    """Recorded stream data of one kernel invocation.

    ``rows[i][j]`` is the detail of the ``j``-th data-bearing op (in
    ``kernel.ops`` program order, kinds in ``op_kinds``) on iteration
    ``i``. ``kernel_name``/``iterations``/``op_kinds`` double as the
    replay-time compatibility check.
    """

    kernel_name: str
    iterations: int
    op_kinds: tuple
    rows: list = field(default_factory=list)


@dataclass
class ProgramTrace:
    """Traces of one :class:`StreamProgram` run, keyed by task index.

    Task *index* (position in ``program.tasks``), not ``task_id``: ids
    come from a process-global counter and differ between the recording
    and the replaying process. Indexing by position is stable because a
    functionally identical run builds an identical task list.
    """

    name: str
    task_count: int
    invocations: dict = field(default_factory=dict)


@dataclass
class TraceBundle:
    """Everything one benchmark run recorded, in ``run_program`` order."""

    version: int
    benchmark: str
    scale: str
    programs: list = field(default_factory=list)


# ----------------------------------------------------------------------
# On-disk store
# ----------------------------------------------------------------------
class TraceStore:
    """Gzip-pickle codec over a :class:`~repro.store.DurableStore`.

    Same durability story as the result cache — entries published by
    one atomic rename, SHA-256-verified against their own header on
    read, quarantined (bounded, ``*.bad``) when torn or undecodable —
    because it *is* the same code path. Bundles are gzip-compressed:
    trace rows are highly repetitive.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._store = DurableStore(self.directory, suffix=".trace.gz")

    # ------------------------------------------------------------------
    def key(self, benchmark: str, config, scale: str) -> str:
        """Stable key for one (benchmark, functional config, scale)."""
        payload = "\n".join([
            code_fingerprint(), str(TRACE_FORMAT_VERSION), benchmark,
            functional_fingerprint(config), scale,
        ])
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return self._store.path(key)

    # ------------------------------------------------------------------
    def load(self, benchmark: str, config, scale: str):
        """Stored :class:`TraceBundle`, or None on miss / bad entry."""
        key = self.key(benchmark, config, scale)
        data = self._store.get_bytes(key)
        if data is None:
            return None  # plain miss (or quarantined torn entry)
        try:
            bundle = pickle.loads(gzip.decompress(data))
        except Exception:
            self._store.quarantine(key)
            return None  # undecodable despite valid checksum: re-record
        if (not isinstance(bundle, TraceBundle)
                or bundle.version != TRACE_FORMAT_VERSION):
            self._store.quarantine(key)
            return None  # foreign or stale format: re-record
        return bundle

    def save(self, key: str, bundle: TraceBundle) -> None:
        """Store a bundle; failures to write are non-fatal."""
        try:
            buffer = io.BytesIO()
            with gzip.GzipFile(
                fileobj=buffer, mode="wb", compresslevel=1, mtime=0,
            ) as handle:
                pickle.dump(
                    bundle, handle, protocol=pickle.HIGHEST_PROTOCOL
                )
            data = buffer.getvalue()
        except Exception:
            return
        self._store.put_bytes(key, data)

    def stats(self) -> dict:
        """Entry/quarantine counts (surfaced in harness ``--json``)."""
        return self._store.stats()


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
class ReplaySession:
    """One benchmark run's recording or replaying context.

    Mode is decided once, at construction: ``"replay"`` when the store
    already holds a bundle for the key, else ``"record"``. The
    processor consults the active session per ``run_program`` call;
    program order is the correlation axis (a functionally identical run
    issues the same programs in the same order).
    """

    def __init__(self, store: TraceStore, benchmark: str, config,
                 scale: str):
        self.store = store
        self.benchmark = benchmark
        self.scale = scale
        self.key = store.key(benchmark, config, scale)
        bundle = store.load(benchmark, config, scale)
        if bundle is not None:
            self.mode = "replay"
            self.bundle = bundle
        else:
            self.mode = "record"
            self.bundle = TraceBundle(
                version=TRACE_FORMAT_VERSION, benchmark=benchmark,
                scale=scale,
            )
        self._cursor = 0

    @property
    def replaying(self) -> bool:
        return self.mode == "replay"

    def begin_program(self, program) -> ProgramTrace:
        """The trace to record into / replay from for one program run."""
        if not self.replaying:
            trace = ProgramTrace(
                name=program.name, task_count=len(program.tasks),
            )
            self.bundle.programs.append(trace)
            return trace
        if self._cursor >= len(self.bundle.programs):
            raise ReplayError(
                f"{self.benchmark}: trace has {len(self.bundle.programs)} "
                f"recorded programs but the run asked for more"
            )
        trace = self.bundle.programs[self._cursor]
        self._cursor += 1
        # Names are not compared: apps embed the config label (a
        # timing-only field) in program names, and sharing one trace
        # across timing variants is the whole point. Shape and the
        # per-invocation kernel/iteration/signature checks guard
        # against genuine misalignment.
        if trace.task_count != len(program.tasks):
            raise ReplayError(
                f"{self.benchmark}: recorded program "
                f"{trace.name!r} has {trace.task_count} tasks; this run's "
                f"{program.name!r} has {len(program.tasks)}"
            )
        return trace

    def save(self) -> None:
        """Persist the recorded bundle (no-op when replaying)."""
        if not self.replaying:
            self.store.save(self.key, self.bundle)


def begin_invocation_record(program_trace: ProgramTrace, task_index: int,
                            invocation) -> InvocationTrace:
    """Open the recording slot for one kernel invocation."""
    trace = InvocationTrace(
        kernel_name=invocation.name,
        iterations=invocation.iterations,
        op_kinds=invocation_signature(invocation),
    )
    program_trace.invocations[task_index] = trace
    return trace


def invocation_replay(program_trace: ProgramTrace, task_index: int,
                      invocation) -> InvocationTrace:
    """The recorded trace for one kernel invocation, fully validated."""
    trace = program_trace.invocations.get(task_index)
    if trace is None:
        raise ReplayError(
            f"{invocation.name}: no recorded trace for task "
            f"{task_index} of program {program_trace.name!r}"
        )
    signature = invocation_signature(invocation)
    if (trace.kernel_name != invocation.name
            or trace.iterations != invocation.iterations
            or tuple(trace.op_kinds) != signature):
        raise ReplayError(
            f"{invocation.name}: recorded trace (kernel "
            f"{trace.kernel_name!r}, {trace.iterations} iterations, "
            f"{len(trace.op_kinds)} data ops) does not match this "
            f"invocation ({invocation.iterations} iterations, "
            f"{len(signature)} data ops)"
        )
    return trace


# ----------------------------------------------------------------------
# Active-session plumbing
# ----------------------------------------------------------------------
_active_session: "ReplaySession | None" = None


def active_session() -> "ReplaySession | None":
    """The session the current benchmark run records into / replays from."""
    return _active_session


@contextlib.contextmanager
def session(store: "TraceStore | None", benchmark: str, config,
            scale: str):
    """Scope one benchmark run's recording/replaying.

    On a trace miss the body runs in record mode and the bundle is
    saved only when the body exits cleanly — an unverified or crashed
    run never publishes a trace. Sessions do not nest: one session
    covers one benchmark run end to end. With ``store=None`` no session
    opens and the body executes (the context value is None).
    """
    global _active_session
    if store is None:
        yield None
        return
    if _active_session is not None:
        raise ReplayError("replay sessions do not nest")
    sess = ReplaySession(store, benchmark, config, scale)
    _active_session = sess
    try:
        yield sess
    finally:
        _active_session = None
    sess.save()
