"""Print every reproduced table and figure: ``python -m repro.harness``.

Pass experiment names (``fig11 fig17 area ...``) to run a subset, and
``--json PATH`` to additionally dump the structured results. Set
``REPRO_SCALE`` (small / medium / paper) to choose workload sizes.

``--jobs N`` fans independent experiments across N worker processes;
``--cache-dir DIR`` / ``--no-cache`` control the on-disk result cache
(default ``.repro-cache``, see :mod:`repro.harness.resultcache`).
The cache also keeps every finished experiment, so a rerun serves what
an earlier (possibly interrupted) run completed and executes only the
rest; ``trace`` always runs, and ``--no-cache`` forces execution.
Every run re-times repeats of a functional config from recorded kernel
traces (:mod:`repro.machine.replay`), kept in ``<cache-dir>/traces``,
or under ``--no-cache`` in a temporary directory the run deletes.

Bad input — an unknown option or experiment, a malformed value, an
unknown ``REPRO_SCALE``, a malformed ``REPRO_TRACE`` overlay — exits 2
with the usage text before anything runs.

The harness degrades gracefully: a raising, crashing, or (with
``--timeout``) hung experiment is reported after one execution as a
structured failure (``FAILED <name>: <error>``, exit code 1) while
every other experiment's results are still printed and exported.
Failures are never stored, so a rerun on the same cache directory
executes exactly the failed experiments.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

from repro.config.presets import base_config
from repro.errors import ConfigurationError, SweepInterrupted
from repro.exitcodes import run_cli
from repro.harness import figures, runner
from repro.harness.resultcache import default_cache_dir
from repro.store.atomic import atomic_write_text

USAGE = """\
usage: python -m repro.harness [EXPERIMENT ...] [options]

Runs every experiment when none is named. Known experiments:
  {experiments}

options:
  --jobs N         run experiments in N parallel worker processes
  --timeout S      per-experiment timeout in seconds (isolated workers)
  --json PATH      also dump structured results as JSON to PATH
                   (includes durable-store entry/quarantine counts)
  --cache-dir DIR  on-disk cache of benchmark and experiment results
                   and kernel traces (default {cache_dir}); experiments
                   finished by an earlier run are served, not rerun
  --no-cache       disable the on-disk cache for this run, executing
                   every experiment; kernel traces go to a temporary
                   directory it deletes
  --trace-path P   output file of the `trace` experiment
                   (default repro-trace.json; load in Perfetto)
  --list           list experiment names and exit

Workload scale is chosen by the REPRO_SCALE environment variable
(small / medium / paper; default small). REPRO_TRACE overlays
observability knobs on every machine config, and its path= entry
names the trace experiment's output
(e.g. REPRO_TRACE="trace=1,metrics=2,path=out.json").

Each benchmark's first run on a functional config records its kernel
data; later runs on a config that differs only in timing (the fig15/
fig16 separations, ISRF1 vs ISRF4) re-time that trace, with
bit-identical stats."""


def _usage() -> str:
    return USAGE.format(
        experiments=" ".join(runner.experiment_names()),
        cache_dir=default_cache_dir(),
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(_usage(), file=sys.stderr)
    return 2


def _store_stats(cache_dir: "str | None") -> dict:
    """Durable-store health (entries, quarantined, tmp) for --json.

    Quarantine counts make silent corruption visible: a torn or
    undecodable entry costs a recompute, but the operator should see
    that it happened.
    """
    if cache_dir is None:
        return {}
    from repro.harness.resultcache import ResultCache
    from repro.machine.replay import TraceStore

    stats = {"results": ResultCache(cache_dir).stats()}
    traces_dir = os.path.join(cache_dir, "traces")
    if os.path.isdir(traces_dir):
        stats["traces"] = TraceStore(traces_dir).stats()
    return stats


@contextlib.contextmanager
def _trace_store(cache_dir: "str | None"):
    """Install the kernel trace store for one run, then remove it.

    Traces live in ``<cache-dir>/traces``; under ``--no-cache`` they go
    to a temporary directory, deleted when the run ends, so that run
    leaves nothing on disk. Forked ``--jobs`` workers inherit the
    installed store and share its traces.
    """
    from repro.machine.replay import TraceStore

    temporary = (tempfile.mkdtemp(prefix="repro-traces-")
                 if cache_dir is None else None)
    figures.set_trace_store(
        TraceStore(temporary or os.path.join(cache_dir, "traces"))
    )
    try:
        yield
    finally:
        figures.set_trace_store(None)
        if temporary is not None:
            shutil.rmtree(temporary, ignore_errors=True)


def _parse_args(argv):
    """Split argv into (names, options) or raise ValueError."""
    options = {"json": None, "jobs": 1, "cache_dir": default_cache_dir(),
               "no_cache": False, "list": False, "timeout": None,
               "trace_path": None}
    names = []
    position = 0
    while position < len(argv):
        token = argv[position]
        if token in ("--json", "--jobs", "--cache-dir", "--timeout",
                     "--trace-path"):
            if position + 1 >= len(argv):
                raise ValueError(f"{token} requires a value")
            value = argv[position + 1]
            if token == "--json":
                options["json"] = value
            elif token == "--cache-dir":
                options["cache_dir"] = value
            elif token == "--trace-path":
                options["trace_path"] = value
            elif token == "--timeout":
                try:
                    options["timeout"] = float(value)
                except ValueError:
                    raise ValueError(
                        "--timeout needs a number of seconds, got "
                        f"{value!r}"
                    ) from None
                if options["timeout"] <= 0:
                    raise ValueError("--timeout must be positive")
            else:
                try:
                    options["jobs"] = int(value)
                except ValueError:
                    raise ValueError(
                        f"--jobs needs an integer, got {value!r}"
                    ) from None
                if options["jobs"] < 1:
                    raise ValueError("--jobs must be >= 1")
            position += 2
            continue
        if token == "--no-cache":
            options["no_cache"] = True
        elif token == "--list":
            options["list"] = True
        elif token in ("-h", "--help"):
            options["help"] = True
        elif token.startswith("-"):
            raise ValueError(f"unknown option {token}")
        else:
            names.append(token)
        position += 1
    return names, options


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        names, options = _parse_args(argv)
    except ValueError as exc:
        return _fail(str(exc))
    if options.get("help"):
        print(_usage())
        return 0
    if options["list"]:
        for name in runner.experiment_names():
            print(name)
        return 0
    known = runner.experiment_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        return _fail(f"unknown experiment(s): {', '.join(unknown)}")
    selected = [name for name in known if name in set(names)] if names \
        else known
    if options["json"] is not None:
        # Validate up front: discovering a bad path only after every
        # experiment ran would discard all their results.
        json_dir = os.path.dirname(os.path.abspath(options["json"]))
        if not os.path.isdir(json_dir):
            return _fail(
                f"--json: directory {json_dir!r} does not exist"
            )

    cache_dir = None if options["no_cache"] else options["cache_dir"]
    try:
        scale = figures.default_scale()
    except ValueError as exc:
        return _fail(str(exc))
    # Every preset applies the REPRO_TRACE overlay, so one config built
    # here rejects a malformed one once, instead of every experiment
    # failing on it separately.
    try:
        base_config()
    except ConfigurationError as exc:
        return _fail(str(exc))
    # Forked workers inherit the path, so isolated runs see it too.
    figures.set_trace_path(options["trace_path"])
    print(f"# repro harness (scale: {scale}, jobs: {options['jobs']})\n")
    try:
        with _trace_store(cache_dir):
            results, timings = runner.run_many(
                selected, jobs=options["jobs"], cache_dir=cache_dir,
                timeout=options["timeout"],
            )
    except SweepInterrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 130
    collected = {}
    failures = []
    for name in selected:
        result = results[name]
        if runner.failed(result):
            failures.append(name)
            print(f"FAILED {name}: {result['error']}")
            print(f"[{name}: {timings[name]:.1f}s]\n")
            collected[name] = _jsonable(result)
        else:
            print(result["text"])
            print(f"[{name}: {timings[name]:.1f}s]\n")
            collected[name] = {"status": "ok"}
            collected[name].update(
                _jsonable({k: v for k, v in result.items() if k != "text"})
            )
    store_stats = _store_stats(cache_dir)
    quarantined = sum(
        block.get("quarantined", 0) for block in store_stats.values()
    )
    if quarantined:
        # Silent corruption must be visible: quarantined entries mean
        # torn or undecodable store files were detected and recomputed.
        print(
            f"warning: {quarantined} quarantined store entr"
            f"{'y' if quarantined == 1 else 'ies'} under {cache_dir}",
            file=sys.stderr,
        )
    if options["json"] is not None:
        payload = {
            "scale": scale,
            "jobs": options["jobs"],
            "timings_s": {k: round(v, 3) for k, v in timings.items()},
            "experiments": collected,
        }
        if store_stats:
            payload["store"] = store_stats
        # Atomic + durable: a crash mid-dump must not leave a torn
        # report for a consumer to half-parse.
        atomic_write_text(options["json"], json.dumps(payload, indent=2))
        print(f"wrote {options['json']}")
    if failures:
        print(
            f"error: {len(failures)} experiment(s) failed: "
            f"{', '.join(failures)}", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    run_cli(main)
