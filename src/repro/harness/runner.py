"""Experiment registry and crash-isolated, resumable parallel execution.

The figure/table experiments are independent of one another, so the CLI
can fan them out across worker processes with :func:`run_many`. Workers
share results through the on-disk :class:`~repro.harness.resultcache.
ResultCache` rather than through memory: each worker installs the cache
behind ``run_benchmark``, so a (benchmark, config, scale) triple
simulated by one worker is a cache hit for every later experiment that
needs it — in this run or the next.

The runner degrades gracefully instead of dying: a crashing, raising or
hung experiment is recorded as a structured failure
(``{"status": "failed", "error": ..., "attempts": ...,
"error_kind": ...}``) while every other experiment's results are kept.
Failures are *classified*: transient ones (worker crashes, timeouts,
OS-level errors) are retried with jittered exponential backoff, while
deterministic ones (a ``ValueError``, a failed verification — anything
that would fail identically on a re-run) are recorded immediately.
Opt out of graceful degradation with ``fail_fast=True``, which aborts
on the first unrecoverable failure.

Sweeps are crash-consistent: with a ``sweep_journal`` configured (the
CLI wires ``<cache-dir>/sweep.journal``), every launch, completion and
failure is journaled write-ahead, so an interrupted run — SIGINT,
SIGTERM, or ``kill -9`` of the parent — can continue with
``resume=True`` (CLI ``--resume``), serving journaled completions
without re-executing them. SIGINT/SIGTERM trigger a graceful drain
that terminates each worker's *process group* (workers run in their
own groups, with ``PR_SET_PDEATHSIG`` as a backstop against parent
``kill -9``), journals the interruption, and raises
:class:`~repro.errors.SweepInterrupted` carrying everything completed.
A ``deadline`` bounds the sweep's total wall clock: when it passes,
in-flight workers are stopped and every unfinished experiment is
recorded as a structured failure instead of running (or retrying)
unbounded.

Workload scale is selected by the ``REPRO_SCALE`` environment variable
(as everywhere else in the harness); forked workers inherit it. They
also inherit the trace store the CLI installs
(:func:`~repro.harness.figures.set_trace_store`), so every worker
records into and replays from one directory of kernel traces.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import time

from repro.errors import ReproError, SweepInterrupted
from repro.harness import figures
from repro.harness.sweep import SweepJournal

#: Experiment name -> runner, in report order (the CLI preserves it).
EXPERIMENTS = {
    "check": figures.check,
    "table3": figures.table3,
    "table4": figures.table4,
    "area": figures.area_overheads,
    "energy": figures.energy_table,
    "energy_cmp": figures.energy_comparison,
    "fig11": figures.figure11,
    "fig12": figures.figure12,
    "fig13": figures.figure13,
    "fig14": figures.figure14,
    "fig15": figures.figure15,
    "fig16": figures.figure16,
    "fig17": figures.figure17,
    "fig18": figures.figure18,
    "reliability": figures.reliability,
    "sparse": figures.sparse,
    "locality": figures.locality,
    "headline": figures.headline,
    "trace": figures.trace,
}

#: Test/CI hooks: name an experiment in these variables to force it to
#: raise or hang, exercising the crash-isolation and timeout paths.
FAIL_EXPERIMENT_ENV = "REPRO_FAIL_EXPERIMENT"
HANG_EXPERIMENT_ENV = "REPRO_HANG_EXPERIMENT"

#: Base seconds before retrying a transient failure (exponential with
#: jitter: attempt n waits ~ base * 2^(n-1) * uniform(0.5, 1.5)).
RETRY_BACKOFF_S = 0.25

#: Ceiling on any single retry backoff.
RETRY_BACKOFF_MAX_S = 10.0

#: Total attempts per experiment (first run + retries of transients).
MAX_ATTEMPTS = 2

#: Seconds between SIGTERM and SIGKILL when stopping a worker group.
STOP_GRACE_S = 2.0

#: Exception types whose failures are deterministic: an identical rerun
#: fails identically, so retrying only wastes the retry budget. Any
#: *other* exception — and every crash, hang, or OS-level error — is
#: treated as transient and retried.
DETERMINISTIC_ERRORS = (
    ReproError, ValueError, TypeError, KeyError, IndexError,
    AttributeError, ArithmeticError, AssertionError, NotImplementedError,
)

#: Exceptions that are always transient even though they subclass a
#: deterministic base (OSError is not in the set above, listed for
#: clarity in classify_error's contract).
TRANSIENT_ERRORS = (OSError, MemoryError, TimeoutError)


class ExperimentError(ReproError):
    """An experiment failed and ``fail_fast`` was requested.

    ``results``/``timings`` carry everything completed before the
    abort, *including* the failing experiment's structured failure
    entry and wall-clock — the two dicts are always consistent with
    each other, exactly as :func:`run_many` would have returned them.
    """

    def __init__(self, name: str, error: str, results=None, timings=None):
        super().__init__(f"experiment {name!r} failed: {error}")
        self.experiment = name
        self.error = error
        self.results = dict(results) if results is not None else {}
        self.timings = dict(timings) if timings is not None else {}


def experiment_names() -> list:
    return list(EXPERIMENTS)


def _apply_test_hooks(name: str) -> None:
    if os.environ.get(FAIL_EXPERIMENT_ENV) == name:
        raise RuntimeError(
            f"{name}: forced failure ({FAIL_EXPERIMENT_ENV})"
        )
    if os.environ.get(HANG_EXPERIMENT_ENV) == name:
        while True:  # pragma: no cover - killed by the runner's timeout
            time.sleep(3600)


def run_experiment(name: str) -> dict:
    """Run one registered experiment; returns its result dict."""
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r} "
            f"(known: {', '.join(EXPERIMENTS)})"
        ) from None
    _apply_test_hooks(name)
    return runner()


def failed(result) -> bool:
    """Whether a run_many result entry is a structured failure record."""
    return isinstance(result, dict) and result.get("status") == "failed"


def classify_error(exc: BaseException) -> str:
    """``"deterministic"`` or ``"transient"`` for one exception.

    Transient wins for :data:`TRANSIENT_ERRORS` (resource exhaustion
    and I/O can succeed on retry); :data:`DETERMINISTIC_ERRORS` are
    never retried; everything unknown is conservatively transient —
    a wasted retry is cheaper than a lost result.
    """
    if isinstance(exc, TRANSIENT_ERRORS):
        return "transient"
    if isinstance(exc, DETERMINISTIC_ERRORS):
        return "deterministic"
    return "transient"


def _failure(error: str, attempts: int,
             error_kind: str = "transient") -> dict:
    return {"status": "failed", "error": error, "attempts": attempts,
            "error_kind": error_kind}


def _retry_delay(attempt: int) -> float:
    """Jittered exponential backoff before launching ``attempt``."""
    base = RETRY_BACKOFF_S * (2 ** max(0, attempt - 2))
    return min(RETRY_BACKOFF_MAX_S, base * random.uniform(0.5, 1.5))


# ----------------------------------------------------------------------
# Worker-side plumbing
# ----------------------------------------------------------------------
def _init_worker(cache_dir: "str | None") -> None:
    """Install the shared disk cache inside a worker process."""
    if cache_dir is not None:
        from repro.harness.resultcache import ResultCache

        figures.set_result_cache(ResultCache(cache_dir))


def _isolate_worker() -> None:
    """Detach into our own process group, tied to the parent's life.

    The group lets the parent stop the worker *and everything it
    spawned* with one ``killpg`` — no orphan grandchildren — and keeps
    terminal-generated SIGINT away from workers so the parent alone
    coordinates the drain. ``PR_SET_PDEATHSIG`` is the backstop for
    the one signal the parent cannot handle: ``kill -9`` of the parent
    delivers SIGKILL here, so even a hard parent death leaves no
    orphans.
    """
    try:
        os.setpgid(0, 0)
    except OSError:
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        # The fork inherited the parent's drain handlers; a worker must
        # just die quietly when its group is terminated.
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass
    try:  # Linux only; harmless no-op elsewhere
        import ctypes

        PR_SET_PDEATHSIG = 1
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL), 0, 0, 0)
    except Exception:
        pass
    if os.getppid() == 1:  # parent died before prctl took effect
        os._exit(1)


def _worker_entry(name: str, cache_dir: "str | None", conn) -> None:
    """Run one experiment in a forked worker, reporting over ``conn``."""
    _isolate_worker()
    try:
        _init_worker(cache_dir)
        result = run_experiment(name)
        conn.send((True, result))
    except Exception as exc:  # reported to the parent, not raised
        try:
            conn.send((False, {
                "error": f"{type(exc).__name__}: {exc}",
                "kind": classify_error(exc),
            }))
        except Exception:
            pass
    finally:
        conn.close()


class _Attempt:
    """One in-flight worker process (its own process group)."""

    def __init__(self, name: str, number: int, first_start: float,
                 context, cache_dir, timeout):
        self.name = name
        self.number = number
        self.first_start = first_start
        recv, send = multiprocessing.Pipe(duplex=False)
        self.conn = recv
        self.process = context.Process(
            target=_worker_entry, args=(name, cache_dir, send), daemon=True
        )
        self.process.start()
        send.close()  # parent keeps only the receiving end
        try:
            # Both sides race to create the group (standard idiom); the
            # loser's EACCES/EPERM is fine — the group then exists.
            os.setpgid(self.process.pid, self.process.pid)
        except OSError:
            pass
        self.deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )

    def _signal_group(self, signum) -> bool:
        pid = self.process.pid
        if pid is None:
            return False
        try:
            os.killpg(pid, signum)
            return True
        except (ProcessLookupError, PermissionError, OSError):
            return False

    def stop(self) -> None:
        """Terminate the whole worker group: TERM, grace, then KILL."""
        if self.process.is_alive():
            if not self._signal_group(signal.SIGTERM):
                self.process.terminate()
            self.process.join(STOP_GRACE_S)
        if self.process.is_alive():
            if not self._signal_group(signal.SIGKILL):
                self.process.kill()
        self.process.join()
        # Grandchildren may outlive the group leader; one final sweep
        # of the (now leaderless) group reaps them.
        self._signal_group(signal.SIGKILL)
        self.conn.close()


# ----------------------------------------------------------------------
# Sweep orchestration
# ----------------------------------------------------------------------
def run_many(names, jobs: int = 1, cache_dir: "str | None" = None,
             timeout: "float | None" = None,
             fail_fast: bool = False,
             deadline: "float | None" = None,
             sweep_journal: "str | None" = None,
             resume: bool = False) -> "tuple[dict, dict]":
    """Run experiments, optionally across ``jobs`` worker processes.

    Returns ``(results, timings)``: experiment name -> result dict and
    name -> wall-clock seconds, both in the order of ``names``. A failed
    experiment's entry is ``{"status": "failed", "error": ...,
    "attempts": ..., "error_kind": ...}`` (test with :func:`failed`);
    successful entries are the raw experiment result dicts.

    With ``jobs <= 1`` and no ``timeout`` everything runs in-process
    (sharing the in-memory benchmark cache), isolating failures per
    experiment. Otherwise each experiment runs in its own forked worker
    process — in its own *process group* — so a crash or hang cannot
    take the run down: a worker exceeding ``timeout`` seconds has its
    group terminated, and transient failures are retried with jittered
    exponential backoff (deterministic ones are not retried at all).
    ``fail_fast=True`` raises :class:`ExperimentError` at the first
    unrecoverable failure instead of degrading.

    ``deadline`` bounds the *total* sweep wall clock; past it, every
    unfinished experiment is recorded as a structured failure.
    ``sweep_journal`` names a journal file recording progress
    write-ahead; ``resume=True`` serves completions already journaled
    there (same code fingerprint and env overlays required) instead of
    re-executing them. SIGINT/SIGTERM drain the workers and raise
    :class:`~repro.errors.SweepInterrupted` with partial results.
    """
    names = list(names)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")
    if resume and sweep_journal is None:
        raise ValueError("resume=True requires a sweep_journal path")

    journal = None
    served: "dict[str, tuple]" = {}
    if sweep_journal is not None:
        journal = SweepJournal(sweep_journal)
        if resume and journal.exists():
            state = journal.load()
            if state.compatible():
                served = {
                    name: state.completed[name]
                    for name in names if name in state.completed
                }
                journal.record_resume(served)
            else:
                journal.begin(names)  # stale journal: start over
        else:
            journal.begin(names)

    pending = [name for name in names if name not in served]
    if jobs <= 1 and timeout is None:
        results, timings = _run_serial(
            pending, cache_dir, fail_fast, deadline, journal, served
        )
    else:
        results, timings = _run_isolated(
            pending, max(1, jobs), cache_dir, timeout, fail_fast,
            deadline, journal, served
        )
    if journal is not None:
        journal.record_complete()
    ordered = {name: results[name] for name in names}
    ordered_timings = {name: timings[name] for name in names}
    return ordered, ordered_timings


def _seed_served(results, timings, served) -> None:
    for name, (result, elapsed) in served.items():
        results[name] = result
        timings[name] = elapsed


@contextlib.contextmanager
def _sigterm_drains(received: dict):
    """Map SIGTERM onto the KeyboardInterrupt drain path.

    SIGINT already raises KeyboardInterrupt natively; SIGTERM (the
    polite kill every process supervisor sends first) must drain the
    same way instead of dying mid-bookkeeping. Restored on exit; a
    non-main-thread caller (tests) simply keeps default behaviour.
    """
    def _handler(signum, _frame):
        received["signal"] = "SIGTERM"
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except ValueError:  # not the main thread
        previous = None
    try:
        yield
    finally:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except ValueError:
                pass


def _interrupt_reason(received: dict) -> str:
    return received.get("signal", "SIGINT")


def _run_serial(names, cache_dir, fail_fast, deadline, journal,
                served) -> "tuple[dict, dict]":
    results = {}
    timings = {}
    _seed_served(results, timings, served)
    deadline_at = (time.monotonic() + deadline
                   if deadline is not None else None)
    previous = figures._result_cache
    _init_worker(cache_dir)
    received: dict = {}
    try:
        with _sigterm_drains(received):
            for index, name in enumerate(names):
                if deadline_at is not None \
                        and time.monotonic() >= deadline_at:
                    _record_deadline_failures(
                        names[index:], results, timings, deadline,
                        journal, {},
                    )
                    break
                if journal is not None:
                    journal.record_launch(name, attempt=1)
                start = time.perf_counter()
                try:
                    results[name] = run_experiment(name)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    kind = classify_error(exc)
                    # Record the failure entry AND its timing before
                    # raising: the dicts must stay consistent for
                    # callers that catch ExperimentError (which
                    # carries both).
                    results[name] = _failure(error, attempts=1,
                                             error_kind=kind)
                    timings[name] = time.perf_counter() - start
                    if journal is not None:
                        journal.record_failed(
                            name, error, 1, timings[name], kind
                        )
                    if fail_fast:
                        raise ExperimentError(
                            name, error, results=results, timings=timings
                        ) from exc
                else:
                    timings[name] = time.perf_counter() - start
                    if journal is not None:
                        journal.record_done(
                            name, results[name], timings[name]
                        )
    except KeyboardInterrupt:
        reason = _interrupt_reason(received)
        if journal is not None:
            journal.record_interrupted(reason)
        raise SweepInterrupted(
            f"sweep interrupted by {reason} "
            f"({len(results)} experiment(s) completed"
            f"{' — resumable with --resume' if journal else ''})",
            results=results, timings=timings,
        ) from None
    finally:
        figures.set_result_cache(previous)
    return results, timings


def _record_deadline_failures(unfinished, results, timings, deadline,
                              journal, attempts_of) -> None:
    """Mark every unfinished experiment as failed on the deadline."""
    error = f"sweep deadline of {deadline:g}s exceeded"
    for name in unfinished:
        if name in results:
            continue
        attempts = attempts_of.get(name, 0)
        results[name] = _failure(error, attempts=attempts,
                                 error_kind="deadline")
        timings[name] = timings.get(name, 0.0)
        if journal is not None:
            journal.record_failed(name, error, attempts, timings[name],
                                  "deadline")


def _run_isolated(names, jobs, cache_dir, timeout, fail_fast, deadline,
                  journal, served) -> "tuple[dict, dict]":
    """Process-group-per-experiment scheduler: timeouts, classified
    retries with jittered backoff, deadline, journaling, drain."""
    context = multiprocessing.get_context("fork")
    ready = list(names)  # (name, attempt=1) launches, FIFO
    attempts_of = {name: 1 for name in names}
    first_start = {}
    delayed = []  # (ready_at, name) retry launches
    active = []  # _Attempt objects
    results = {}
    timings = {}
    _seed_served(results, timings, served)
    deadline_at = (time.monotonic() + deadline
                   if deadline is not None else None)
    received: dict = {}

    def finish(attempt: _Attempt, success: bool, payload) -> None:
        elapsed = time.perf_counter() - attempt.first_start
        if success:
            results[attempt.name] = payload
            timings[attempt.name] = elapsed
            if journal is not None:
                journal.record_done(attempt.name, payload, elapsed)
            return
        if isinstance(payload, dict):
            error, kind = payload["error"], payload.get("kind",
                                                        "transient")
        else:  # crash/timeout paths pass a plain string
            error, kind = str(payload), "transient"
        # A worker killed mid-export (crash or timeout) leaks its
        # staged trace file; remove exactly the dead experiment's
        # leftovers so healthy workers' staging files survive. The
        # trace experiment stages in the cache directory when one is
        # installed but next to its output file under --no-cache, so
        # the output directory is swept regardless of caching.
        from repro.observe import cleanup_orphan_traces

        directories = {
            os.path.dirname(os.path.abspath(figures.trace_output_path()))
        }
        if cache_dir is not None:
            directories.add(os.path.abspath(cache_dir))
        for directory in sorted(directories):
            cleanup_orphan_traces(directory, experiment=attempt.name)
        out_of_time = (deadline_at is not None
                       and time.monotonic() >= deadline_at)
        if (attempt.number < MAX_ATTEMPTS and kind == "transient"
                and not out_of_time):
            # Retry transient failures (OOM-killed workers, contended
            # caches, flaky hangs) with jittered exponential backoff;
            # deterministic failures would fail identically and are
            # recorded at once.
            attempts_of[attempt.name] = attempt.number + 1
            delayed.append((
                time.monotonic() + _retry_delay(attempt.number + 1),
                attempt.name,
            ))
            return
        results[attempt.name] = _failure(error, attempts=attempt.number,
                                         error_kind=kind)
        timings[attempt.name] = elapsed
        if journal is not None:
            journal.record_failed(attempt.name, error, attempt.number,
                                  elapsed, kind)
        if fail_fast:
            raise ExperimentError(
                attempt.name, error, results=results, timings=timings
            )

    try:
        with _sigterm_drains(received):
            while ready or delayed or active:
                now = time.monotonic()
                if deadline_at is not None and now >= deadline_at:
                    for attempt in active:
                        attempt.stop()
                    active = []
                    _record_deadline_failures(
                        list(attempts_of), results, timings, deadline,
                        journal, attempts_of,
                    )
                    break
                # Promote retries whose backoff has elapsed.
                for entry in [e for e in delayed if e[0] <= now]:
                    delayed.remove(entry)
                    ready.append(entry[1])
                # Launch up to the job limit.
                while ready and len(active) < jobs:
                    name = ready.pop(0)
                    number = attempts_of[name]
                    start = first_start.setdefault(name,
                                                   time.perf_counter())
                    if journal is not None:
                        journal.record_launch(name, attempt=number)
                    active.append(_Attempt(
                        name, number, start, context, cache_dir, timeout
                    ))
                if not active:
                    if delayed:  # all slots idle: wait out the backoff
                        time.sleep(_bounded_wait(
                            min(e[0] for e in delayed) - now, deadline_at
                        ))
                    continue
                # Wait for a result, a timeout, a retry becoming ready,
                # or the deadline.
                wait = None
                deadlines = [a.deadline for a in active
                             if a.deadline is not None]
                if deadlines:
                    wait = max(0.0, min(deadlines) - time.monotonic())
                if delayed:
                    backoff = max(
                        0.0, min(e[0] for e in delayed) - time.monotonic()
                    )
                    wait = backoff if wait is None else min(wait, backoff)
                wait = _bounded_wait(wait, deadline_at)
                readable = multiprocessing.connection.wait(
                    [a.conn for a in active], timeout=wait
                )
                done = set()
                for attempt in [a for a in active if a.conn in readable]:
                    try:
                        success, payload = attempt.conn.recv()
                    except EOFError:
                        exit_code = attempt.process.exitcode
                        success, payload = False, (
                            f"worker crashed (exit code {exit_code})"
                        )
                    attempt.stop()
                    done.add(attempt)
                    finish(attempt, success, payload)
                now = time.monotonic()
                for attempt in [a for a in active if a not in done]:
                    if attempt.deadline is not None \
                            and now >= attempt.deadline:
                        attempt.stop()
                        done.add(attempt)
                        finish(attempt, False,
                               f"timed out after {timeout:g}s")
                active = [a for a in active if a not in done]
    except KeyboardInterrupt:
        reason = _interrupt_reason(received)
        for attempt in active:
            attempt.stop()
        active = []
        if journal is not None:
            journal.record_interrupted(reason)
        raise SweepInterrupted(
            f"sweep interrupted by {reason} "
            f"({len(results)} experiment(s) completed"
            f"{' — resumable with --resume' if journal else ''})",
            results=results, timings=timings,
        ) from None
    finally:
        # Reap every worker group no matter how we leave (fail_fast's
        # ExperimentError, an internal bug): no orphans, ever.
        for attempt in active:
            attempt.stop()
    return results, timings


def _bounded_wait(wait: "float | None",
                  deadline_at: "float | None") -> "float | None":
    """Cap a wait so the loop re-checks signals and the deadline."""
    bounds = [0.25]
    if wait is not None:
        bounds.append(max(0.0, wait))
    if deadline_at is not None:
        bounds.append(max(0.0, deadline_at - time.monotonic()))
    return min(bounds)
