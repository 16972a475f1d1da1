"""Selftest of the benchmark harness (about a minute).

    python3 as90bench/selftest.py

For each workload it runs a smoke slice untraced and checks the result
line against BENCHMARK.json; runs the traced slice twice with the same
seed and checks that every per-layer count repeats exactly; and checks
that traced and untraced runs gave identical answers.  It also checks
that each per-layer metric is produced by some workload, that the
benchmark refuses ``python -O``, and that it fails without printing a
result where the checkout holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import harness

SEED = 7
ROOT = harness.ROOT


def check(ok: bool, message: str) -> None:
    """An explicit check: unlike assert, it also holds under python -O."""
    if not ok:
        raise SystemExit(f"FAIL {message}")


def run(args: list[str], cwd: Path = ROOT, python: list[str] = ()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *python, "as90bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, str]:
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("answers_sha256 "))
    return json.loads(lines[-1]), digest


def check_schema(result: dict, metrics: list[dict], what: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, what)
    check(result["correct"] is True and result["failed"] == 0, f"{what}: {result}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, what)
    check(list(result["metrics"]) == [m["name"] for m in metrics], f"{what}: metric names")
    for m in metrics:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"], f"{what}: {m['name']}")
        check(isinstance(got["value"], (int, float)), f"{what}: {m['name']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced: set[str] = set()
    for w in (w["name"] for w in bench["workloads"]):
        base = ["--workload", w, "--seed", str(SEED), "--seconds", "1", "--smoke"]
        plain, plain_digest = result_of(run(base + ["--trace", "0"]), f"{w} untraced")
        check_schema(plain, bench["end_to_end"], f"{w} untraced")
        for m in bench["end_to_end"]:
            check(plain["metrics"][m["name"]]["value"] > 0, f"{w}: {m['name']} is 0")
        traced = []
        for k in range(2):
            res, digest = result_of(run(base + ["--trace", "1"]), f"{w} traced #{k + 1}")
            check_schema(res, bench["per_layer"], f"{w} traced #{k + 1}")
            check(digest == plain_digest, f"{w}: traced and untraced answers differ")
            traced.append(res["metrics"])
        for m in bench["per_layer"]:
            if m["unit"] == "count":
                a, b = (t[m["name"]]["value"] for t in traced)
                check(a == b, f"{w}: {m['name']} differs between traced runs: {a} != {b}")
        flat = json.loads((harness.OUT_DIR / f"{w}-seed{SEED}-layers.json").read_text())
        produced |= {k for k, v in flat.items() if v}
        print(f"ok {w}: schema, answers and per-layer counts")
    missing = [m["name"] for m in bench["per_layer"] if m["name"] not in produced]
    check(not missing, f"per-layer metrics no workload produced: {missing}")
    print("ok every per-layer metric is produced by some workload")

    proc = run(["--workload", "poly-search", "--smoke"], python=["-O"])
    check(proc.returncode != 0 and not proc.stdout.strip(), "ran under python -O")
    print("ok refuses python -O")

    bare = harness.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(harness.BENCH_DIR, bare / "as90bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for w in (w["name"] for w in bench["workloads"]):
        proc = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(), f"{w} ran without src/")
    shutil.rmtree(bare)
    print("ok fails without a result where only the benchmark is present")
    return 0


if __name__ == "__main__":
    sys.exit(main())
