"""``python -m repro.analyze`` — static analysis over apps × presets.

Builds every shipped benchmark's steady-state program on every machine
preset and runs the kernel verifier plus the program analyzer over it.
Exit status follows the shared CLI convention in :mod:`repro.exitcodes`
(0 clean / 1 error-level findings / 2 usage error) — the same contract
as ``python -m repro.selfcheck`` — which makes this invocation directly
usable as a CI gate (and it is one; see .github/workflows/ci.yml).

Usage::

    python -m repro.analyze                  # all apps, all presets
    python -m repro.analyze --app Sort       # one app, all presets
    python -m repro.analyze --config ISRF4   # all apps, one preset
    python -m repro.analyze -v               # show every diagnostic
"""

from __future__ import annotations

import argparse

from repro.analyze.diagnostics import Severity
from repro.analyze.driver import APP_NAMES, DEFAULT_REPS, check_app
from repro.config.presets import all_configs
from repro.exitcodes import EXIT_CLEAN, EXIT_FINDINGS, run_cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Static analysis of every benchmark stream program.",
    )
    parser.add_argument(
        "--app", action="append", choices=sorted(APP_NAMES), default=None,
        help="benchmark to analyze (repeatable; default: all)",
    )
    parser.add_argument(
        "--config", action="append", default=None,
        help="machine preset to analyze on (repeatable; default: all)",
    )
    parser.add_argument(
        "--reps", type=int, default=DEFAULT_REPS,
        help=f"steady-state strips to chain (default {DEFAULT_REPS})",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print every diagnostic, including notes",
    )
    args = parser.parse_args(argv)

    configs = all_configs()
    if args.config:
        unknown = [c for c in args.config if c not in configs]
        if unknown:
            parser.error(
                f"unknown config(s) {', '.join(unknown)} "
                f"(known: {', '.join(configs)})"
            )
        configs = {name: configs[name] for name in args.config}
    apps = tuple(args.app) if args.app else APP_NAMES

    failures = 0
    for config_name, config in configs.items():
        for app in apps:
            report = check_app(app, config, reps=args.reps)
            errors = report.errors
            warnings = report.warnings
            notes = report.by_severity(Severity.INFO)
            status = "FAIL" if errors else "ok"
            print(
                f"[{status:4}] {app:10} on {config_name:6} — "
                f"{len(errors)} error(s), {len(warnings)} warning(s), "
                f"{len(notes)} note(s)"
            )
            shown = report.diagnostics if args.verbose else (
                errors + warnings
            )
            for diagnostic in shown:
                print(f"        {diagnostic.describe()}")
            if errors:
                failures += 1
    if failures:
        print(f"{failures} app/preset combination(s) FAILED analysis")
        return EXIT_FINDINGS
    print("static analysis clean: no error-level findings")
    return EXIT_CLEAN


if __name__ == "__main__":
    run_cli(main)
