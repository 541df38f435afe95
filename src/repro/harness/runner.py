"""Experiment registry and crash-isolated parallel execution.

The figure/table experiments are independent of one another, so the CLI
can fan them out across worker processes with :func:`run_many`. Workers
share results through the on-disk :class:`~repro.harness.resultcache.
ResultCache` rather than through memory: each worker installs the cache
behind ``run_benchmark``, so a (benchmark, config, scale) triple
simulated by one worker is a cache hit for every later experiment that
needs it — in this run or the next.

The runner degrades gracefully instead of dying: a crashing, raising or
hung experiment is recorded after one execution as a structured failure
(``{"status": "failed", "error": ...}``) while every other experiment's
results are kept. Nothing is retried within a run: failures are never
stored, so rerunning on the same cache directory executes exactly the
failed experiments.

The same cache keeps finished experiments: each successful result dict
is stored under a key over the code fingerprint, the experiment name
and every result-affecting overlay, and every run serves the stored
experiments (with a timing of 0.0) instead of executing them. A rerun
of an interrupted sweep — SIGINT, SIGTERM, or ``kill -9`` of the
parent — therefore continues where it stopped. The experiments in
:data:`ALWAYS_RUN` always execute.
SIGINT/SIGTERM trigger a graceful drain that terminates each worker's
*process group* (workers run in their own groups, with
``PR_SET_PDEATHSIG`` as a backstop against parent ``kill -9``) and
raises :class:`~repro.errors.SweepInterrupted` carrying everything
completed.

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
import signal
import time

from repro.errors import SweepInterrupted
from repro.harness import figures
from repro.harness.resultcache import ResultCache
from repro.store.atomic import staging_path

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
    "sparse": figures.sparse,
    "locality": figures.locality,
    "headline": figures.headline,
    "trace": figures.trace,
}

#: Experiments that are never stored in the cache, so every run
#: executes them: ``trace``'s product is the file it writes, not its
#: result dict.
ALWAYS_RUN = ("trace",)

#: Test/CI hook: name an experiment in this variable to force it to
#: raise, exercising the crash-isolation path.
FAIL_EXPERIMENT_ENV = "REPRO_FAIL_EXPERIMENT"

#: Seconds between SIGTERM and SIGKILL when stopping a worker group.
STOP_GRACE_S = 2.0


def experiment_names() -> list:
    return list(EXPERIMENTS)


def _apply_test_hooks(name: str) -> None:
    if os.environ.get(FAIL_EXPERIMENT_ENV) == name:
        raise RuntimeError(
            f"{name}: forced failure ({FAIL_EXPERIMENT_ENV})"
        )


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


def _failure(error: str) -> dict:
    return {"status": "failed", "error": error}


# ----------------------------------------------------------------------
# Worker-side plumbing
# ----------------------------------------------------------------------
def _init_worker(cache: "ResultCache | None") -> None:
    """Install the shared disk cache behind ``run_benchmark``."""
    if cache is not None:
        figures.set_result_cache(cache)


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


def _worker_entry(name: str, cache: "ResultCache | None", conn) -> None:
    """Run one experiment in a forked worker, reporting over ``conn``."""
    _isolate_worker()
    try:
        _init_worker(cache)
        result = run_experiment(name)
        conn.send((True, result))
    except Exception as exc:  # reported to the parent, not raised
        try:
            conn.send((False, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


class _Worker:
    """One in-flight worker process (its own process group)."""

    def __init__(self, name: str, context, cache, timeout):
        self.name = name
        self.start = time.perf_counter()
        recv, send = multiprocessing.Pipe(duplex=False)
        self.conn = recv
        self.process = context.Process(
            target=_worker_entry, args=(name, cache, send), daemon=True
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
             timeout: "float | None" = None) -> "tuple[dict, dict]":
    """Run experiments, optionally across ``jobs`` worker processes.

    Returns ``(results, timings)``: experiment name -> result dict and
    name -> wall-clock seconds, both in the order of ``names``. A failed
    experiment's entry is ``{"status": "failed", "error": ...}`` (test
    with :func:`failed`), recorded after its one execution; successful
    entries are the raw experiment result dicts.

    With ``jobs <= 1`` and no ``timeout`` everything runs in-process
    (sharing the in-memory benchmark cache), isolating failures per
    experiment. Otherwise each experiment runs in its own forked worker
    process — in its own *process group* — so a crash or hang cannot
    take the run down: a worker exceeding ``timeout`` seconds has its
    group terminated.

    With a ``cache_dir``, every completed experiment is stored in the
    :class:`~repro.harness.resultcache.ResultCache` there, and one
    already stored under this code and these result-affecting overlays
    is served with a timing of 0.0 instead of executing
    (:data:`ALWAYS_RUN` excepted). Failures are not stored, so the
    next run on ``cache_dir`` executes exactly them again.
    SIGINT/SIGTERM drain the workers and raise
    :class:`~repro.errors.SweepInterrupted` with partial results.
    """
    names = list(names)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments: {', '.join(unknown)}")

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: dict = {}
    timings: dict = {}
    if cache is not None:
        for name in names:
            stored = cache.get_experiment(name)
            if stored is not None:
                results[name] = stored
                timings[name] = 0.0
    pending = [name for name in names if name not in results]
    if jobs <= 1 and timeout is None:
        _run_serial(pending, cache, results, timings)
    else:
        _run_isolated(pending, max(1, jobs), cache, timeout, results,
                      timings)
    return ({name: results[name] for name in names},
            {name: timings[name] for name in names})


def _store(cache: "ResultCache | None", name: str, result) -> None:
    """Keep a completed experiment for later runs to serve."""
    if cache is not None and name not in ALWAYS_RUN:
        cache.put_experiment(name, result)


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


def _interrupted(received: dict, results: dict, timings: dict,
                 cache: "ResultCache | None") -> SweepInterrupted:
    rerun = "; rerun to continue" if cache is not None else ""
    return SweepInterrupted(
        f"sweep interrupted by {received.get('signal', 'SIGINT')} "
        f"({len(results)} experiment(s) completed{rerun})",
        results=results, timings=timings,
    )


def _run_serial(names, cache, results, timings) -> None:
    previous = figures._result_cache
    _init_worker(cache)
    received: dict = {}
    try:
        with _sigterm_drains(received):
            for name in names:
                start = time.perf_counter()
                try:
                    results[name] = run_experiment(name)
                except Exception as exc:
                    results[name] = _failure(f"{type(exc).__name__}: {exc}")
                    timings[name] = time.perf_counter() - start
                else:
                    timings[name] = time.perf_counter() - start
                    _store(cache, name, results[name])
    except KeyboardInterrupt:
        raise _interrupted(received, results, timings, cache) from None
    finally:
        figures.set_result_cache(previous)


def _run_isolated(names, jobs, cache, timeout, results, timings) -> None:
    """Process-group-per-experiment scheduler: timeouts and drain."""
    context = multiprocessing.get_context("fork")
    ready = list(names)
    active = []  # _Worker objects
    received: dict = {}

    def finish(worker: _Worker, success: bool, payload) -> None:
        results[worker.name] = payload if success else _failure(payload)
        timings[worker.name] = time.perf_counter() - worker.start
        if success:
            _store(cache, worker.name, payload)
            return
        # A worker killed mid-export (crash or timeout) leaks the
        # staging file of the trace it was writing; remove exactly that
        # worker's, so live workers' files survive.
        try:
            os.unlink(staging_path(figures.trace_output_path(),
                                   worker.process.pid))
        except OSError:
            pass

    try:
        with _sigterm_drains(received):
            while ready or active:
                while ready and len(active) < jobs:
                    active.append(_Worker(ready.pop(0), context, cache,
                                          timeout))
                readable = multiprocessing.connection.wait(
                    [w.conn for w in active],
                    timeout=_bounded_wait(
                        [w.deadline for w in active
                         if w.deadline is not None]
                    ),
                )
                done = set()
                for worker in [w for w in active if w.conn in readable]:
                    try:
                        success, payload = worker.conn.recv()
                    except EOFError:
                        exit_code = worker.process.exitcode
                        success, payload = False, (
                            f"worker crashed (exit code {exit_code})"
                        )
                    worker.stop()
                    done.add(worker)
                    finish(worker, success, payload)
                now = time.monotonic()
                for worker in [w for w in active if w not in done]:
                    if worker.deadline is not None \
                            and now >= worker.deadline:
                        worker.stop()
                        done.add(worker)
                        finish(worker, False,
                               f"timed out after {timeout:g}s")
                active = [w for w in active if w not in done]
    except KeyboardInterrupt:
        raise _interrupted(received, results, timings, cache) from None
    finally:
        # Reap every worker group no matter how we leave (a drain, an
        # internal bug): no orphans, ever.
        for worker in active:
            worker.stop()


def _bounded_wait(wakeups) -> float:
    """Seconds until the earliest monotonic time in ``wakeups``, capped
    so the loop re-checks signals."""
    now = time.monotonic()
    return min([0.25] + [max(0.0, at - now) for at in wakeups])
