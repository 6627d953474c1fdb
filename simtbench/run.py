#!/usr/bin/env python3
"""simtbench: the measured end-to-end and per-layer benchmark (README.md).

Measure one workload (or all of them) for a fixed time:

    python3 simtbench/run.py --workload engine_deep --seed 1 --seconds 10 --trace 0

builds the harness (Release, into build-bench/ at the repository root),
runs repetitions of the workload, one process each, until --seconds have
passed, and prints every metric as `workload metric value unit`, followed
by one JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 one more, traced repetition follows, and the metrics are the
per-layer ones.  --workload all rotates repetitions across every workload
(W1 W2 W3 W4 W1 ...), so machine drift lands on all of them alike.

Other modes:

    --compare A.json B.json   noise-aware gate over two result files
    --selftest                prove the gate fails a drop beyond the bound
    --smoke                   every workload at tiny op counts, traced too

Exits 1 when a receive failed its check, when the build fails, or when the
gate finds a regression or an unresolved metric.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
HARNESS = BUILD / "simtbench_harness"
OUT = BUILD / "simtbench-out"

# Ops per repetition, frozen so every repetition does the same work: each
# takes 1.5 to 2.5 s on the machine README.md names.
OPS = {
    "engine_deep": 40000,
    "engine_shallow": 80000,
    "cluster_halo": 1600,
    "cluster_lossy": 300,
}
SMOKE_OPS = {"engine_deep": 200, "engine_shallow": 400, "cluster_halo": 10, "cluster_lossy": 10}
MIN_REPS = 3
REP_TIMEOUT_S = 120


class BenchError(Exception):
    pass


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build the harness incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "--build", str(BUILD), "--target", "simtbench_harness", "-j", "2"]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def run_rep(workload, seed, ops, trace_file=None):
    """One repetition in its own process; returns the harness's JSON plus
    the per-op latencies."""
    OUT.mkdir(parents=True, exist_ok=True)
    lat_file = OUT / f"{workload}-{seed}.lat"
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed), "--ops", str(ops),
           "--latencies", str(lat_file)]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: repetition exceeded {REP_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: harness exited {p.returncode}: {p.stderr.strip()}")
    rep = json.loads(lines[-1])
    rep["ok"] = p.returncode == 0
    lat = array("d")
    with open(lat_file, "rb") as f:
        lat.frombytes(f.read())
    lat_file.unlink()
    if sys.byteorder != "little":
        lat.byteswap()
    rep["latencies_us"] = lat
    return rep


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def e2e_samples(reps):
    """Per-repetition value of every end-to-end metric, and the reported
    value: the median over repetitions, except the latency percentiles,
    which pool every op of every repetition."""
    samples = {
        "matches_per_s": [r["verified"] / r["timed_s"] for r in reps],
        "op_p50_us": [percentile(sorted(r["latencies_us"]), 50) for r in reps],
        "op_p99_us": [percentile(sorted(r["latencies_us"]), 99) for r in reps],
        "setup_s": [statistics.median(r["setup_s"]) for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    pooled = sorted(x for r in reps for x in r["latencies_us"])
    values["op_p50_us"] = percentile(pooled, 50)
    values["op_p99_us"] = percentile(pooled, 99)
    return values, samples


def layer_values(reps, traced):
    """Per-layer metrics: the traced repetition's, plus the two that need
    the untraced repetitions."""
    values = dict(traced["layers"])
    values["process.allocs_per_match"] = statistics.median(
        r["allocs"] / r["verified"] for r in reps)
    untraced = statistics.median(r["timed_s"] / r["ops"] for r in reps)
    values["bench.trace_overhead"] = traced["timed_s"] / traced["ops"] / untraced - 1.0
    return values


def fingerprint(rep):
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    return dict(rep["build"], nproc=os.cpu_count(), machine=platform.machine(),
                git_commit=commit)


def print_spans(workload, traced):
    timed_ns = traced["timed_s"] * 1e9
    print(f"# {workload}: self time per span over {traced['ops']} traced ops "
          f"({traced['matcher']} matcher)")
    print(f"#   {'span':42} {'calls':>10} {'total ms':>10} {'self ms':>10} {'self %':>7}")
    for name, s in sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"#   {name:42} {s['calls']:>10} {s['total_ns'] / 1e6:>10.2f} "
              f"{s['self_ns'] / 1e6:>10.2f} {100 * s['self_ns'] / timed_ns:>6.1f}%")


def measure(workloads, seed, seconds, trace):
    """Repetitions rotated across `workloads` until each had `seconds`
    (and at least MIN_REPS), then one traced repetition each if asked."""
    reps = {w: [] for w in workloads}
    start = time.monotonic()
    while True:
        for w in workloads:
            reps[w].append(run_rep(w, seed, OPS[w]))
        if (time.monotonic() - start >= seconds * len(workloads)
                and len(reps[workloads[0]]) >= MIN_REPS):
            break
    traced = {}
    if trace:
        for w in workloads:
            trace_file = OUT / f"trace-{w}.json"
            traced[w] = run_rep(w, seed, OPS[w], trace_file)
            print(f"# {w}: Chrome trace written to {trace_file}")
    return reps, traced


def report(args):
    build()
    bench = spec()
    workloads = list(OPS) if args.workload == "all" else [args.workload]
    reps, traced = measure(workloads, args.seed, args.seconds, args.trace)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    fp = fingerprint(reps[workloads[0]][0])
    print("# build: " + ", ".join(f"{k}={v}" for k, v in fp.items()))

    result = {"fingerprint": fp, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    metrics = {}
    all_reps = [r for w in workloads for r in reps[w] + ([traced[w]] if w in traced else [])]
    for r in all_reps:
        if r["failed"]:
            print(f"# {r['workload']}: {r['failed']} failed receives: {r['unmatched']} unmatched, "
                  f"{r['mismatches']} wrong payload or envelope, "
                  f"{r['delivery_failures']} given up by the fabric")
    for w in workloads:
        values, samples = e2e_samples(reps[w])
        entry = {"reps": len(reps[w]), "metrics": {
            name: {"value": values[name], "unit": units[name], "samples": samples[name]}
            for name in values}}
        if args.trace:
            print_spans(w, traced[w])
            entry["layers"] = layer_values(reps[w], traced[w])
            values = entry["layers"]
        result["workloads"][w] = entry
        print(f"# {w}: {len(reps[w])} repetitions x {OPS[w]} ops, seed {args.seed}")
        for m in wanted:
            name = m["name"]
            print(f"{w} {name} {values[name]!r} {m['unit']}")
            key = name if len(workloads) == 1 else f"{w}.{name}"
            metrics[key] = {"value": values[name], "unit": m["unit"]}

    out = Path(args.out) if args.out else OUT / f"result-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1))
    print(f"# result written to {out}")

    failed = sum(r["failed"] for r in all_reps)
    correct = failed == 0 and all(r["ok"] for r in all_reps)
    print(json.dumps({"correct": correct, "attempted": sum(r["receives"] for r in all_reps),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Noise-aware gate.

def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def gate(a, b, bench):
    """One row per workload x end-to-end metric: each side's median and
    quartiles, the change, and a verdict.  `unresolved` when either side's
    interquartile spread (as a share of its median) is wider than the bound,
    unless every B sample beats every A sample.  Returns (rows, passed)."""
    rows = []
    passed = True
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            ma, mb = a["workloads"][w]["metrics"][name], b["workloads"][w]["metrics"][name]
            qa, qb = quartiles(ma["samples"]), quartiles(mb["samples"])
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if lower else -change
            b_wins = (max(mb["samples"]) < min(ma["samples"]) if lower
                      else min(mb["samples"]) > max(ma["samples"]))
            if spread > bound and not b_wins:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            passed = passed and verdict == "ok"
            rows.append((w, name, ma["value"], qa, mb["value"], qb, change, bound, verdict))
    return rows, passed


def print_gate(rows):
    print(f"{'workload':15} {'metric':23} {'A median':>12} {'A q1..q3':>23} "
          f"{'B median':>12} {'B q1..q3':>23} {'change':>8} {'bound':>6}  verdict")
    for w, name, va, qa, vb, qb, change, bound, verdict in rows:
        print(f"{w:15} {name:23} {va:12.6g} {qa[0]:11.5g}..{qa[2]:<11.5g} "
              f"{vb:12.6g} {qb[0]:11.5g}..{qb[2]:<11.5g} {100 * change:+7.2f}% "
              f"{bound:6.2f}  {verdict}")


def compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        rows, passed = gate(json.load(fa), json.load(fb), spec())
    print_gate(rows)
    print("gate: " + ("pass" if passed else "FAIL"))
    return 0 if passed else 1


def selftest():
    """Identical sets must pass, a matches_per_s drop 5 points beyond its
    bound must fail on that row alone, one 5 points within it must pass, and
    a spread wider than the bound must read unresolved."""
    bench = spec()
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "matches_per_s")

    def synthetic(scale=1.0, noise=0.001):
        metrics = {}
        for m in bench["end_to_end"]:
            base = 100.0 * (scale if m["name"] == "matches_per_s" else 1.0)
            samples = [base * (1 + noise * d) for d in (-2, -1, 0, 1, 2)]
            metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"],
                                  "samples": samples}
        return {"workloads": {w: {"metrics": metrics} for w in OPS}}

    base = synthetic()
    _, same = gate(base, synthetic(), bench)
    drop_rows, drop = gate(base, synthetic(scale=1 - bound - 0.05), bench)
    _, small_drop = gate(base, synthetic(scale=1 - bound + 0.05), bench)
    noisy_rows, _ = gate(base, synthetic(noise=0.5), bench)
    checks = {
        "identical sets pass": same,
        f"{bound + 0.05:.0%} matches_per_s drop fails": not drop and all(
            (r[8] == "REGRESSION") == (r[1] == "matches_per_s") for r in drop_rows),
        f"{bound - 0.05:.0%} matches_per_s drop passes": small_drop,
        "wide spread is unresolved": all(r[8] == "unresolved" for r in noisy_rows),
    }
    for what, ok in checks.items():
        print(f"selftest: {what}: {'ok' if ok else 'FAILED'}")
    return 0 if all(checks.values()) else 1


def smoke():
    """Every workload at tiny op counts, untraced and traced: every receive
    must check out, every metric must be present, the end-to-end ones
    positive, and the trace file must parse."""
    build()
    bench = spec()
    problems = []
    for w, ops in SMOKE_OPS.items():
        rep = run_rep(w, 1, ops)
        trace_file = OUT / f"smoke-trace-{w}.json"
        traced = run_rep(w, 1, ops, trace_file)
        for r in (rep, traced):
            if not r["ok"] or r["failed"]:
                problems.append(f"{w}: {r['failed']} failed receives")
        values, _ = e2e_samples([rep])
        for m in bench["end_to_end"]:
            if not values[m["name"]] > 0:
                problems.append(f"{w}: {m['name']} = {values[m['name']]}")
        layers = layer_values([rep], traced)
        problems += [f"{w}: missing {m['name']}" for m in bench["per_layer"]
                     if not math.isfinite(layers.get(m["name"], math.nan))]
        with open(trace_file) as f:
            if not json.load(f)["traceEvents"]:
                problems.append(f"{w}: empty trace")
        trace_file.unlink()
        print(f"smoke: {w}: {rep['verified'] + traced['verified']} receives checked")
    for p in problems:
        print("smoke: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *OPS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result JSON (default under build-bench/simtbench-out)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.selftest:
            return selftest()
        if args.smoke:
            return smoke()
        return report(args)
    except BenchError as e:
        print(f"simtbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
