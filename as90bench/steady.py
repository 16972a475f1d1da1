"""Steadiness and seed tool for the as90 benchmark.

    python3 as90bench/steady.py --workload warm-roots --runs 5
    python3 as90bench/steady.py --workload cold-cli --runs 10 --base ../parent
    python3 as90bench/steady.py --workload poly-search --runs 10 --distinct-seeds

Runs the workload ``--runs`` times on this checkout and, with ``--base``,
on a second checkout, alternating which goes first.  For each side it
prints every end-to-end metric's median, quartiles and IQR/median, the
calibration loop beside them, and the change against the base.  Then
it repeats on a second seed and reports how far each median moved,
because a claim must also hold on a seed not used while tuning.

By default every run of a phase uses the same seed, which isolates
machine noise; ``--distinct-seeds`` gives run i the seed ``seed + i``,
as the acceptance runs do.  Spreads are checked against the bounds in
BENCHMARK.json (``setup_s`` is exempt from the spread check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "as90bench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode() + path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "as90bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {root} (seed {seed}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("calibration_ms "):
            values["calibration_ms"] = float(line.split()[1])
    if not result["correct"]:
        print(f"  warning: {root} seed {seed}: {result['failed']} of "
              f"{result['attempted']} operations failed")
    return values


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else 0.0)
    return out


def print_table(title: str, stats: dict, bounds: dict) -> None:
    print(title)
    print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/median':>12}  check")
    for name, (med, q1, q3, spread) in stats.items():
        bound = bounds.get(name)
        if bound is None or name == "setup_s":
            check = ""
        elif spread > bound:
            check = f"SPREAD > bound {bound}"
        elif spread > bound / 3:
            check = f"spread > bound/3 ({bound / 3:.3f})"
        else:
            check = "ok"
        print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>12.4f}  {check}")


def moves(a: dict, b: dict) -> str:
    return ", ".join(f"{name} {(b[name][0] - a[name][0]) / a[name][0]:+.2%}"
                     for name in a if a[name][0])


def phase(sides: list[Path], args, seed: int) -> list[dict]:
    runs: list[list[dict]] = [[] for _ in sides]
    for i in range(args.runs):
        s = seed + i if args.distinct_seeds else seed
        order = list(range(len(sides)))
        if i % 2:
            order.reverse()
        for k in order:
            runs[k].append(run_once(sides[k], args.workload, s, args.seconds))
            values = " ".join(f"{name}={v:.6g}" for name, v in runs[k][-1].items())
            print(f"  run {i + 1}/{args.runs} {sides[k]} seed {s}: {values}", flush=True)
    return [summarize(r) for r in runs]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--base", type=Path, help="root of a second checkout to alternate with")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--second-seed", type=int, default=1001)
    ap.add_argument("--distinct-seeds", action="store_true")
    args = ap.parse_args()
    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    args.seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = [root]
    if args.base:
        sides.append(args.base.resolve())
        if bench_digest(root) != bench_digest(sides[1]):
            print("warning: the two checkouts carry different benchmark code")
    results = {}
    for seed in (args.seed, args.second_seed):
        print(f"seed {seed}{' + i' if args.distinct_seeds else ''}, {args.runs} runs per side")
        stats = phase(sides, args, seed)
        results[seed] = stats
        for side, st in zip(sides, stats):
            print_table(f"{side} (seed {seed})", st, bounds)
        if len(sides) == 2:
            print(f"this checkout against base: {moves(stats[1], stats[0])}")
    print(f"move from seed {args.seed} to seed {args.second_seed} on this checkout: "
          f"{moves(results[args.seed][0], results[args.second_seed][0])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
