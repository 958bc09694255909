#!/usr/bin/env python3
"""Exact-repeat test for perfbench's counts.

Two traced runs of each workload with one seed must agree on every count
that a single writer makes deterministic (stored bytes, flushes,
compactions, segments at read, bytes read per query, WAL syncs per batch,
selector calls ...), and a run with another seed must pass every output
check. Run from the repository root:

  python3 perfbench/test_counts.py [--seconds 1]

Exits 0 when every check holds.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Every workload the binary knows: BENCHMARK.json's and ingest-durable.
WORKLOADS = ["codec-sweep", "ingest-bulk", "ingest-durable", "column-query"]

# Counts that do not repeat, by workload, and why (see README.md).
NOT_REPEATING = {
    # Two writers interleave batches in a different order each run, so the
    # rows in each segment, and with them the compressed sizes and the
    # selector's decisions, differ from run to run. A writer that fills
    # the memtable while the previous flush is still running waits for it
    # with the engine lock released, so the other writer's batches join
    # the same memtable: flush boundaries, and with them the flush,
    # compaction and segment counts, depend on timing too.
    "ingest-durable": {"stored_bytes", "select.choose.calls", "flushes",
                       "compactions", "segments_at_read", "lsm.flush.count",
                       "lsm.compact.count", "lsm.segments_at_read"},
}


def counts(lines):
    """The '# counts' and '# traced-counts' maps of one run, merged."""
    out = {}
    for line in lines:
        for label in ("# counts {", "# traced-counts {"):
            if line.startswith(label):
                out.update(json.loads(line[len(label) - 1:]))
    return out


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--seed", type=int, default=7)
    a = p.parse_args()
    run.build()
    failures = []
    for spec in WORKLOADS:
        lines_a, res_a = run.run_once(spec, a.seed, a.seconds, 1)
        lines_b, res_b = run.run_once(spec, a.seed, a.seconds, 1)
        _, res_c = run.run_once(spec, a.seed + 1, a.seconds, 1)
        ca, cb = counts(lines_a), counts(lines_b)
        skip = NOT_REPEATING.get(spec, set())
        differ = sorted(k for k in ca if k not in skip and ca[k] != cb.get(k))
        if not ca or differ:
            failures.append(f"{spec}: counts differ between runs: {differ}")
        if spec not in NOT_REPEATING and not any(
                "repeat across" in line and line.endswith("yes")
                for line in lines_a):
            failures.append(f"{spec}: counts differ between rounds")
        for name, res in (("seed", res_a), ("repeat", res_b),
                          ("other seed", res_c)):
            if not res["correct"] or res["failed"]:
                failures.append(f"{spec}: {name} run failed checks")
        print(f"{spec}: {len(ca) - len(skip & set(ca))} counts repeat, "
              f"not compared: {sorted(skip & set(ca))}", flush=True)
    for f in failures:
        print("FAIL " + f)
    print("OK" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
