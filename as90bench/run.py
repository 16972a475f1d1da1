"""as90 benchmark: one command per workload, every metric by name with its unit.

    python3 as90bench/run.py --workload warm-roots --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; it measures that checkout's ``src/``.
With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` a fixed amount of work runs
once untraced and once under the span tracer, and the result holds the
per-layer metrics.  Every answer is checked after the timed phase.

``--smoke`` runs a small slice (the selftest uses it); ``--record``
rewrites the stored answers of cold-cli or poly-search from this
checkout.  ``--setup-sample`` is the fresh-interpreter set-up that runs
interleave, printing only its time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
import time

import harness

WORKLOADS = {"warm-roots": "warm_roots", "cold-cli": "cold_cli", "poly-search": "poly_search"}


def run_in_process(mod, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Closed loop over whole blocks of ``mod.Client`` until ``seconds`` of
    query time, with fresh-interpreter set-up samples spread through it.

    ``op_p50_ms`` is the median over blocks of each block's median
    latency.  Pooled over the run, the middle of the warm-roots mix falls
    between two clusters of query costs, where the sample median is set
    by single outliers; a block median is not.
    """
    calibration = [harness.calibration_ms()]
    first_setup, state = mod.timed_setup(seed, smoke)
    harness.check_imported()
    setups = [first_setup]
    client = mod.Client(state, seed)
    children = 0 if smoke else mod.SETUP_CHILDREN
    block_s, block_p50, latencies = [], [], []
    while True:
        lat = client.run_block(len(block_s))
        latencies += lat
        block_s.append(sum(lat))
        block_p50.append(harness.median(lat))
        busy = sum(block_s)
        if smoke or busy >= seconds:
            break
        if len(setups) <= children and busy >= len(setups) * seconds / (children + 1):
            setups.append(harness.setup_sample(workload, seed))
            calibration.append(harness.calibration_ms())
    rss = harness.peak_rss_mb()
    calibration.append(harness.calibration_ms())
    per_block = len(latencies) // len(block_s)
    return {
        "attempted": len(latencies),
        "failed": client.verify(),
        "metrics": {
            "setup_s": harness.median(setups),
            "ops_per_s": per_block / harness.median(block_s),
            "op_p50_ms": harness.median(block_p50) * 1000,
            "peak_rss_mb": rss,
        },
        "p99_s": harness.tail_percentile(latencies),
        "notes": [f"blocks {len(block_s)} of {per_block} operations, "
                  f"{len(setups)} set-up samples"],
        "calibration": calibration,
        "answers": client.digest_source(),
    }


def trace_in_process(mod, workload: str, seed: int, smoke: bool) -> dict:
    """Traced set-up, then each block untraced and again traced, so that
    machine drift falls on both sides of the overhead ratio alike."""
    from tracer import Tracer

    import as90  # noqa: F401  (wrappers go onto loaded modules)

    harness.check_imported()
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    _, state = mod.timed_setup(seed, smoke)
    setup_wall = time.perf_counter() - t0
    tracer.uninstall()
    client = mod.Client(state, seed)
    untraced, traced = [], []
    traced_wall = 0.0
    for b in range(1 if smoke else mod.TRACED_BLOCKS):
        untraced.append(client.run_block(b))
        tracer.install()
        t0 = time.perf_counter()
        traced.append(client.run_block(b, tracer))
        traced_wall += time.perf_counter() - t0
        tracer.uninstall()
    return {
        "attempted": sum(map(len, untraced)) + sum(map(len, traced)),
        "failed": client.verify(),
        "aggregate": tracer.write(harness.OUT_DIR / f"{workload}-seed{seed}"),
        "wall_s": setup_wall + traced_wall,
        "overhead": sum(map(sum, traced)) / sum(map(sum, untraced)),
        "answers": client.digest_source(),
    }


def layer_lines(flat: dict) -> list[str]:
    """Per-module rows, then every traced label that ran, by self time."""
    from tracer import MODULES

    lines = ["layer self_s calls"]
    for short in MODULES:
        lines.append(f"  {short} {flat[short + '.self_s']:.6f} {flat[short + '.calls']}")
    lines.append(f"  (outside as90) {flat['trace.wall_s'] - flat['as90.total_s']:.6f}")
    labels = sorted((k[:-len(".self_s")] for k in flat
                     if k.endswith(".self_s") and k.count(".") >= 2),
                    key=lambda label: -flat[label + ".self_s"])
    lines += [f"  {label} {flat[label + '.self_s']:.6f} {flat[label + '.calls']}"
              for label in labels if flat.get(label + ".calls")]
    shown = {f"{x}.{field}" for x in list(MODULES) + labels for field in ("calls", "self_s")}
    shown |= {label + ".total_s" for label in labels}
    lines.append("other per-layer values")
    lines += [f"  {key} {flat[key]:.6g}" for key in sorted(flat) if key not in shown]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small slice for the selftest")
    ap.add_argument("--record", action="store_true", help="rewrite the stored answers")
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        harness.guard()
        mod = importlib.import_module(WORKLOADS[args.workload])
        if args.setup_sample:
            seconds, _ = mod.timed_setup(args.seed)
            harness.check_imported()
            print(json.dumps({"setup_s": seconds}))
            return 0
        harness.fill_bytecode_caches()
        if args.record:
            mod.record()
            return 0
        bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            runner = getattr(mod, "run_traced", None)
            res = (runner(args.seed, args.smoke) if runner
                   else trace_in_process(mod, args.workload, args.seed, args.smoke))
            from tracer import derive

            flat = derive(res["aggregate"])
            flat.update({"trace.overhead": res["overhead"], "trace.wall_s": res["wall_s"]})
            harness.OUT_DIR.mkdir(exist_ok=True)
            (harness.OUT_DIR / f"{args.workload}-seed{args.seed}-layers.json").write_text(
                json.dumps(flat, indent=1, sort_keys=True))
            notes = layer_lines(flat)
            notes.append(f"tracing overhead {res['overhead']:.4f}x "
                         "(traced over untraced wall, same operations)")
            metrics = {m["name"]: (flat.get(m["name"], 0), m["unit"]) for m in bench["per_layer"]}
            calibration = []
        else:
            runner = getattr(mod, "run", None)
            res = (runner(args.seed, args.seconds, args.smoke) if runner
                   else run_in_process(mod, args.workload, args.seed, args.seconds, args.smoke))
            p99 = res["p99_s"]
            notes = res["notes"] + [
                f"op_p99_ms {p99 * 1000:.6g} ms" if p99 is not None
                else f"op_p99_ms n/a ({res['attempted']} operations, fewer than 1000)"]
            metrics = {m["name"]: (res["metrics"][m["name"]], m["unit"])
                       for m in bench["end_to_end"]}
            calibration = res["calibration"]
        digest = hashlib.sha256("\n".join(res["answers"]).encode()).hexdigest()
        notes.append(f"answers_sha256 {digest}")
        harness.emit(args.workload, args.seed, res["attempted"], res["failed"],
                     res["failed"] == 0 and res["attempted"] > 0, metrics, notes, calibration)
        return 0
    except harness.BenchError as exc:
        print(f"as90bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
