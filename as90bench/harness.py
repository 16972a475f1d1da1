"""Shared plumbing for the as90 benchmark: checkout guard, statistics,
child processes, calibration and the result line.

Every workload module imports this first.  Nothing here imports as90
at module load, so a set-up sample can time the first ``import as90``
of a fresh interpreter.
"""

from __future__ import annotations

import compileall
import importlib.util
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Child processes are killed after this long; a run must end within 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def guard() -> None:
    """Refuse to measure anything but this checkout's own code.

    ``python -O`` strips the asserts in ``src/`` that guard outputs, so
    it would measure a different program.  ``src`` goes first on the
    path, and as90 must resolve inside it; the import itself is left to
    the caller so that set-up samples can time it.  Call this before
    anything imports numpy.
    """
    if sys.flags.optimize:
        raise BenchError("refusing to run under python -O: it strips the asserts that guard outputs")
    # as90 never calls BLAS, but numpy's OpenBLAS starts a thread pool at
    # import; on a 2-vCPU host that alone made `import as90.cli` swing
    # between 0.07 and 0.16 s with load on the other CPU.  Children
    # inherit this setting.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path[:1]:
        sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("as90")
    expected = SRC / "as90" / "__init__.py"
    if spec is None or spec.origin is None or Path(spec.origin).resolve() != expected:
        found = None if spec is None else spec.origin
        raise BenchError(f"as90 must come from {expected}, found {found}")


def check_imported() -> None:
    """After ``import as90``: the module really is this checkout's."""
    mod = sys.modules.get("as90")
    if mod is None or Path(mod.__file__).resolve() != SRC / "as90" / "__init__.py":
        raise BenchError(f"as90 was imported from {getattr(mod, '__file__', None)}")


def fill_bytecode_caches() -> None:
    """Compile the package and the benchmark before anything is timed;
    afterwards imports write no bytecode, inside the checkout or outside."""
    for d in (SRC, BENCH_DIR):
        if not compileall.compile_dir(str(d), quiet=1):
            raise BenchError(f"byte-compiling {d} failed")
    sys.dont_write_bytecode = True


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first, no -O,
    and no bytecode written (the caches are filled up front, and nothing
    is written outside the checkout)."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run a child interpreter to completion; the caller times it."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def setup_sample(workload: str, seed: int) -> float:
    """One fresh-interpreter set-up of ``workload``, in seconds."""
    proc = run_child([str(BENCH_DIR / "run.py"), "--setup-sample",
                      "--workload", workload, "--seed", str(seed)])
    if proc.returncode != 0:
        raise BenchError(f"set-up sample failed: {proc.stderr.strip()[-400:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values):
    """Nearest-rank p99 when at least ten samples lie beyond it, else None."""
    if len(values) < 1000:
        return None
    return float(sorted(values)[math.ceil(len(values) * 0.99) - 1])


def peak_rss_mb(children: bool = False) -> float:
    """ru_maxrss in MiB (Linux reports KiB): of this process, or the
    largest of the children it has waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibration_ms() -> float:
    """A fixed pure-Python loop, to tell machine drift from program change.

    Printed beside the metrics and never used to scale them.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1000.0


# -- output -----------------------------------------------------------------


def emit(workload: str, seed: int, attempted: int, failed: int, correct: bool,
         metrics: dict, notes: list[str], calibration: list[float]) -> None:
    """Print the human-readable lines, then the one-line JSON result."""
    print(f"workload {workload} seed {seed}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if calibration:
        print(f"calibration_ms {median(calibration):.4f} ms "
              f"(fixed loop, median of {len(calibration)}; scales nothing)")
    print(f"attempted {attempted} failed {failed} correct {'true' if correct else 'false'}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
