"""Run one as90 CLI command with the tracer installed.

Usage: python3 cli_child.py STEM REQUEST_ID ARGS...

Imports ``as90.cli``, wraps it, calls ``as90.cli.main(ARGS)`` and exits
with its code.  The command's stdout is left untouched; the spans and a
summary go to ``STEM.spans`` and ``STEM.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import harness
from tracer import Tracer


def main() -> int:
    stem, request, argv = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
    harness.guard()
    t0 = time.perf_counter()
    import as90.cli

    import_s = time.perf_counter() - t0
    harness.check_imported()
    tracer = Tracer()
    tracer.request_id = request
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = as90.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    main_s = time.perf_counter() - t0
    tracer.uninstall()
    sys.stdout.flush()
    tracer.write(stem, {"main_s": main_s, "import_s": import_s, "rc": rc})
    return rc


if __name__ == "__main__":
    sys.exit(main())
