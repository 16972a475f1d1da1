"""cold-cli: every operation is one fresh ``python -m as90.cli ... --json``.

This is where the one-off costs live: import (numpy included), context
construction and the default-modulus search, cold trace matrices, the
table-witness embedding into a default-modulus GF(2^32), and numpy in
the brute-force oracle.  Each command fills every cache from empty,
the mirror image of warm-roots, which only reads them.

One client, closed loop.  A pass runs every command once in seeded
order; a run makes whole passes, at least two, so that each command's
time is a median and one slow window cannot set ``ops_per_s``.
"""

from __future__ import annotations

import json
import re
import shlex
import time
from random import Random

import harness
import tracer as tracing

#: The README examples, then the root commands that carry the one-off costs.
README = (
    "root --p 2 --n 3 --y t+t^2",
    "root --p 2 --n 2 --f 2 --y 1",
    "root --p 2 --n 6 --y 0 --method prime-r --r 3 --all",
    "period --p 2 --n 4 --z t",
    "period --p 3 --n 6 --seed 5",
    "h90 --p 2 --n 6 --y t+t^4 --z t^3",
    "table",
    "table --regen",
    "cyclotomic --r 7 --p 2",
    "tensor --p 2 --a t^2+t+1 --b t^3+t^2+1",
    "bigsearch --e 8",
)
ROOTS = (
    "root --p 2 --n 16 --y t+t^2",
    "root --p 2 --n 32 --y t+t^2",
    "root --p 2 --n 32 --y t+t^2 --method general",
    "root --p 2 --n 64 --y t+t^2",
    "root --p 3 --n 40 --y t^3-t",
    "root --p 7 --n 14 --y t^7-t",
    "root --p 65521 --n 4 --y t^65521-t",
    "root --p 2 --n 16 --y t+t^2 --method brute",
)
COMMANDS = README + ROOTS
#: The smoke slice: the light commands, the brute oracle among them.
SMOKE = README + ROOTS[-1:]
MIN_PASSES = 2
SETUP_EVERY = 2
IMPORTTIME_RUNS = 3
EXPECTED = harness.BENCH_DIR / "expected" / "cold_cli.json"
_FIELD_RE = re.compile(r"GF\((\d+)(?:\^(\d+))?\)(?:/GF\(\d+\^(\d+)\))? mod (\S+)$")


def timed_setup(seed: int, smoke: bool = False):
    t0 = time.perf_counter()
    import as90.cli  # noqa: F401

    return time.perf_counter() - t0, None


def argv_of(command: str) -> list[str]:
    return shlex.split(command) + ["--json"]


def run_command(command: str):
    """(wall seconds, exit code, stdout) of one fresh CLI process."""
    t0 = time.perf_counter()
    proc = harness.run_child(["-m", "as90.cli", *argv_of(command)])
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def _arg(command: str, flag: str):
    words = shlex.split(command)
    return words[words.index(flag) + 1] if flag in words else None


def verify_roots(command: str, stdout: str) -> bool:
    """Re-check each root a root command printed: x^q - x = y, with ** only."""
    if not command.startswith("root "):
        return True
    from as90 import PrimePoly, make_ctx

    out = json.loads(stdout)
    roots = out.get("roots", [])
    if out.get("status") == "root":
        roots = [out["base_root"], *roots]
    m = _FIELD_RE.match(out["field"])
    if m is None:
        return False
    p, n = int(m.group(1)), int(m.group(2) or 1)
    f = int(m.group(3) or 1)
    ctx = make_ctx(p, n, modulus=PrimePoly.parse(m.group(4), p), f=f)
    y = ctx.elem(PrimePoly.parse(_arg(command, "--y"), p))
    for text in roots:
        x = ctx.elem(PrimePoly.parse(text, p))
        if x**ctx.q - x != y:
            return False
    return True


def check_outputs(outputs: dict) -> int:
    """Compare each distinct (exit code, stdout) with the recorded one and
    re-verify printed roots; returns the number of failed operations."""
    expected = json.loads(EXPECTED.read_text())
    failed = 0
    for command, seen in outputs.items():
        want = expected[command]
        for (rc, stdout), count in seen.items():
            ok = rc == want["rc"] and stdout == want["stdout"] and verify_roots(command, stdout)
            if not ok:
                failed += count
    return failed


def _record(outputs: dict, command: str, rc: int, stdout: str) -> None:
    seen = outputs.setdefault(command, {})
    seen[(rc, stdout)] = seen.get((rc, stdout), 0) + 1


def digest_source(outputs: dict) -> list[str]:
    return [f"{c} -> {sorted(outputs[c])}" for c in sorted(outputs)]


def run(seed: int, seconds: float, smoke: bool) -> dict:
    commands = SMOKE if smoke else COMMANDS
    calibration = [harness.calibration_ms()]
    walls: dict[str, list[float]] = {c: [] for c in commands}
    pass_p50 = []
    outputs: dict = {}
    setups = []
    t_start = time.perf_counter()
    passes = done = 0
    while True:
        order = list(commands)
        Random(f"cold-cli/{seed}/{passes}").shuffle(order)
        for command in order:
            wall, rc, stdout = run_command(command)
            walls[command].append(wall)
            _record(outputs, command, rc, stdout)
            done += 1
            if done % SETUP_EVERY == 0:
                setups.append(harness.setup_sample("cold-cli", seed))
        passes += 1
        pass_p50.append(harness.median([walls[c][-1] for c in commands]))
        calibration.append(harness.calibration_ms())
        if smoke or (passes >= MIN_PASSES and time.perf_counter() - t_start >= seconds):
            break
    rss = harness.peak_rss_mb(children=True)
    failed = check_outputs(outputs)
    return {
        "attempted": passes * len(commands),
        "failed": failed,
        "metrics": {
            "setup_s": harness.median(setups),
            "ops_per_s": len(commands) / sum(harness.median(ws) for ws in walls.values()),
            "op_p50_ms": harness.median(pass_p50) * 1000,
            "peak_rss_mb": rss,
        },
        "p99_s": None,
        "notes": [f"passes {passes} of {len(commands)} commands, {len(setups)} set-up samples"],
        "calibration": calibration,
        "answers": digest_source(outputs),
    }


def import_times() -> tuple[float, float]:
    """Median cumulative import time of numpy and of as90.cli, in seconds,
    from ``python -X importtime``."""
    numpy_s, cli_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = harness.run_child(["-X", "importtime", "-c", "import as90.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [s.strip() for s in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        numpy_s.append(cumulative.get("numpy", 0.0))
        cli_s.append(cumulative["as90.cli"])
    return harness.median(numpy_s), harness.median(cli_s)


def run_traced(seed: int, smoke: bool) -> dict:
    commands = SMOKE if smoke else COMMANDS
    out_dir = harness.OUT_DIR / f"cold-cli-seed{seed}"
    outputs: dict = {}
    untraced = traced = 0.0
    aggregates = []
    extra = {"cli.main_s": 0.0, "cli.process_s": 0.0}
    for request, command in enumerate(commands, start=1):
        wall, rc, stdout = run_command(command)
        _record(outputs, command, rc, stdout)
        untraced += wall
        extra["cli.process_s"] += wall
        sub = "cli.cmd." + command.split()[0] + ".wall_s"
        extra[sub] = extra.get(sub, 0.0) + wall
        stem = out_dir / f"cmd{request:02d}"
        t0 = time.perf_counter()
        proc = harness.run_child([str(harness.BENCH_DIR / "cli_child.py"), str(stem),
                                  str(request), *argv_of(command)])
        wall = time.perf_counter() - t0
        _record(outputs, command, proc.returncode, proc.stdout)
        summary = json.loads(stem.with_suffix(".json").read_text())
        traced += wall - summary["write_s"]
        extra["cli.main_s"] += summary["main_s"]
        aggregates.append(summary["aggregate"])
    numpy_s, cli_s = import_times()
    extra["cli.import.numpy_s"] = numpy_s
    extra["cli.import.as90_s"] = cli_s
    agg = tracing.merge(aggregates)
    agg.update(extra)
    return {
        "attempted": 2 * len(commands),
        "failed": check_outputs(outputs),
        "aggregate": agg,
        "wall_s": traced,
        "overhead": traced / untraced,
        "answers": digest_source(outputs),
    }


def record() -> None:
    """Write the expected exit code and stdout of every command."""
    expected = {}
    for command in COMMANDS:
        _, rc, stdout = run_command(command)
        if not verify_roots(command, stdout):
            raise harness.BenchError(f"{command}: printed root does not verify")
        expected[command] = {"rc": rc, "stdout": stdout}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
