#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload <name> --spread <N> [--seed <first>] ...

The library and the perfbench binary are built with CMake into
.bench_build/perfbench (Release). A run prints the binary's '#'
diagnostics and, as its last line, one JSON object: correct, attempted,
failed and the metrics BENCHMARK.json lists (end-to-end ones with
--trace 0, per-layer ones with --trace 1).

--spread N runs the workload N times, seeds first..first+N-1, and prints per
metric the median, the quartiles, (q3 - q1) / median and max / min.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
DATA = ".bench_data"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(trace):
    return {m["name"]: m["unit"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Runs the binary; returns (diagnostic lines, result dict)."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--data-dir", DATA],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(want) - set(got))}, "
                           f"extra {sorted(set(got) - set(want))}, "
                           f"units {[k for k in want if got.get(k, want[k]) != want[k]]}")
    return lines[:-1], result


def spread(workload, first_seed, n, seconds, trace):
    values = {}
    shares = set()
    for seed in range(first_seed, first_seed + n):
        _, result = run_once(workload, seed, seconds, trace)
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        lo = min(v)
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{(q3 - q1) / med if med else 0:8.4f} "
              f"{max(v) / lo if lo else 0:8.4f}")
    print(f"failed/attempted shares seen: {sorted(shares)}")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0)
    a = p.parse_args()
    try:
        build()
        if a.spread:
            spread(a.workload, a.seed, a.spread, a.seconds, a.trace)
            return 0
        diagnostics, result = run_once(a.workload, a.seed, a.seconds,
                                       a.trace)
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in diagnostics:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
