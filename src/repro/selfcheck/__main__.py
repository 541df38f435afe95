"""CLI for the selfcheck linter: ``python -m repro.selfcheck [ROOT]``.

Exit codes follow the shared convention in :mod:`repro.exitcodes`:
``0`` clean (no active findings), ``1`` active findings, ``2`` usage
error (bad flags, a root that is not a directory).

The tool scans the installed package root by default, and discovers the
generated overlay reference (``ENV.md``) at the repository root (two
levels above ``src/repro``), falling back to the current directory.
``--write-env-md`` regenerates it through the same durable-write
primitives the tool itself enforces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import repro
from repro.config.overlays import OVERLAYS, render_env_md
from repro.exitcodes import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, run_cli
from repro.selfcheck.driver import run_selfcheck
from repro.store.atomic import atomic_write_text

ENV_MD_NAME = "ENV.md"


def _default_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def _discover(root: str, filename: str) -> "str | None":
    """Find a repository-level artifact next to the scanned tree."""
    candidates = [
        os.path.abspath(os.path.join(root, os.pardir, os.pardir, filename)),
        os.path.abspath(filename),
    ]
    for candidate in candidates:
        if os.path.exists(candidate):
            return candidate
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.selfcheck",
        description="Lint the simulator source for cross-cutting "
                    "contract violations.",
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="package root to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write the full report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--env-md", metavar="PATH",
        help=f"generated overlay reference to check (default: "
             f"auto-discovered {ENV_MD_NAME})",
    )
    parser.add_argument(
        "--write-env-md", action="store_true",
        help="regenerate ENV.md from the overlay registry and exit",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    root = options.root or _default_root()
    if not os.path.isdir(root):
        print(f"{parser.prog}: error: not a directory: {root}",
              file=sys.stderr)
        return EXIT_USAGE

    env_md = options.env_md or _discover(root, ENV_MD_NAME)
    if options.write_env_md:
        target = env_md or os.path.abspath(
            os.path.join(root, os.pardir, os.pardir, ENV_MD_NAME)
        )
        atomic_write_text(target, render_env_md(OVERLAYS))
        print(f"wrote {target}")
        return EXIT_CLEAN

    report = run_selfcheck(root, env_md_path=env_md)

    if options.json:
        payload = json.dumps(report.to_payload(), indent=2) + "\n"
        if options.json == "-":
            sys.stdout.write(payload)
        else:
            atomic_write_text(options.json, payload)

    for finding in report.active:
        print(finding.describe())

    scanned = len(report.scanned)
    if report.ok:
        print(f"selfcheck: {scanned} file(s) clean")
        return EXIT_CLEAN
    print(
        f"selfcheck: {len(report.active)} active finding(s) across "
        f"{scanned} file(s)",
        file=sys.stderr,
    )
    return EXIT_FINDINGS


if __name__ == "__main__":
    run_cli(main)
