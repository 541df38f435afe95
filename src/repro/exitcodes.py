"""Shared exit-code convention for the repo's checker CLIs.

``python -m repro.analyze`` (stream-program static analysis) and
``python -m repro.selfcheck`` (simulator-source self-check) gate CI and
are scripted against; both follow one documented convention:

``EXIT_CLEAN`` (0)
    The checker ran to completion and found no error-level finding.
``EXIT_FINDINGS`` (1)
    The checker ran to completion and at least one error-level finding
    survived.
``EXIT_USAGE`` (2)
    The invocation itself was wrong (unknown flag, unknown app/config,
    unreadable path). Argparse's native usage failures also exit 2, so
    every bad invocation lands here regardless of which layer rejects
    it.

The harness CLI (``python -m repro.harness``) shares 0/1/2 and extends
the convention with 130 for an interrupted-and-drained sweep; see
:mod:`repro.harness.__main__`.

Every CLI's ``__main__`` block runs its ``main`` through :func:`run_cli`,
so a reader that stops early (``python -m repro.harness | head -2``)
ends the run with ``EXIT_BROKEN_PIPE`` (141) instead of a traceback.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, NoReturn

#: Checker completed; no error-level findings.
EXIT_CLEAN = 0

#: Checker completed; error-level findings.
EXIT_FINDINGS = 1

#: Bad invocation (usage error); nothing was checked.
EXIT_USAGE = 2

#: The reader of stdout went away mid-run: 128 + SIGPIPE, the status a
#: shell reports for a pipeline stage the signal killed.
EXIT_BROKEN_PIPE = 141


def run_cli(main: "Callable[[], int]") -> NoReturn:
    """Exit with ``main()``'s status; a closed stdout ends it quietly.

    Writing to a pipe whose reader has exited raises
    :class:`BrokenPipeError`. Output is then pointless, not wrong, so
    the run stops with :data:`EXIT_BROKEN_PIPE`. Stdout is pointed at
    ``os.devnull`` first, so the interpreter's own flush at exit cannot
    raise the error a second time.
    """
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = EXIT_BROKEN_PIPE
    sys.exit(status)
