#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds perfbench (CMake, into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the repository root), runs one workload, and
prints the host/config record followed, as the last stdout line, by one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end set of BENCHMARK.json, with --trace 1 the
per-layer set; spans of a traced run are written next to the binary.

--smoke runs every workload at reduced size, traced and untraced, checks that
every metric BENCHMARK.json names is printed with its unit, and exits
non-zero if a metric is missing or any correctness check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
THREADS = "4"  # OpenMP threads for every run: parent and change alike
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    if subprocess.run(["cmake", "--build", out, "--parallel", THREADS],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return out, os.path.join(out, "perfbench")


def run_once(binary, out_dir, workload, seed, seconds, trace, smoke=False):
    """Run the binary; returns (host line, result dict) or exits."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{workload}-{seed}.json")]
    env = dict(os.environ, OMP_NUM_THREADS=THREADS)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=env, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.exit(f"perfbench: {workload} exited {p.returncode} without a result")
    return lines[0], json.loads(lines[-1])


def select(result, wanted):
    """Keep exactly the metrics `wanted` names; exits if one is missing or
    reported in another unit."""
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        row = got.get(m["name"])
        if row is None:
            sys.exit(f"perfbench: metric {m['name']} was not measured")
        if row["unit"] != m["unit"]:
            sys.exit(f"perfbench: metric {m['name']} in {row['unit']}, "
                     f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": row["value"], "unit": m["unit"]}
    return {"correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def smoke(spec):
    out, binary = build()
    ok = True
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            host, result = run_once(binary, out, w["name"], 1, 4, trace, smoke=True)
            sel = select(result, spec[key])
            print(f"== {w['name']} trace={trace}: correct={sel['correct']} "
                  f"attempted={sel['attempted']} failed={sel['failed']}")
            for name, row in sel["metrics"].items():
                print(f"   {name:40s} {row['value']:>14.6g} {row['unit']}")
            ok = ok and sel["correct"]
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out, binary = build()
    host, result = run_once(binary, out, args.workload, args.seed, seconds, args.trace)
    print(host)
    print(json.dumps(select(result, spec["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
