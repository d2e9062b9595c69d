#!/usr/bin/env python3
"""Same-run batch/row ratio gate over the micro_queries star-join queries.

Reads google-benchmark JSON from micro_queries run with
--benchmark_filter='^BM_QueryColumnStore(Batch)?/[0-9]+$' and compares,
within that one run, the summed real time of the vectorized executor
(BM_QueryColumnStoreBatch) with the row-at-a-time oracle
(BM_QueryColumnStore) over Q2.1..Q4.3 (query ids 3..12). Exits 1 when
batch / row exceeds MAX_RATIO. Absolute times are printed, never gated:
only the same-run ratio is stable across machines.

    ./build/bench/micro_queries \\
        --benchmark_filter='^BM_QueryColumnStore(Batch)?/[0-9]+$' \\
        --benchmark_min_time=0.05 --benchmark_format=json > micro.json
    python3 scripts/micro_ratio.py micro.json
"""

import argparse
import json
import sys

STAR_JOIN_QUERIES = range(3, 13)  # Q2.1 .. Q4.3
MAX_RATIO = 0.6  # batch / row, summed over STAR_JOIN_QUERIES
ROW = "BM_QueryColumnStore"
BATCH = "BM_QueryColumnStoreBatch"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path")
    args = parser.parse_args()

    with open(args.json_path) as f:
        benchmarks = json.load(f)["benchmarks"]
    times = {}
    for b in benchmarks:
        family, _, arg = b["name"].partition("/")
        if family in (ROW, BATCH) and arg.isdigit():
            times[(family, int(arg))] = (b["real_time"], b.get("label", arg))

    sums = {ROW: 0.0, BATCH: 0.0}
    print(f"{'query':<6} {'row':>12} {'batch':>12} {'batch/row':>9}")
    for q in STAR_JOIN_QUERIES:
        missing = [fam for fam in (ROW, BATCH) if (fam, q) not in times]
        if missing:
            print(f"micro_ratio: no {missing[0]}/{q} in {args.json_path}",
                  file=sys.stderr)
            return 2
        row, label = times[(ROW, q)]
        batch, _ = times[(BATCH, q)]
        sums[ROW] += row
        sums[BATCH] += batch
        print(f"{label:<6} {row:>12.0f} {batch:>12.0f} {batch / row:>9.2f}")
    ratio = sums[BATCH] / sums[ROW]
    verdict = "ok" if ratio <= MAX_RATIO else "FAIL"
    print(f"Q2.1-Q4.3 batch/row = {ratio:.2f} (max {MAX_RATIO}): "
          f"{verdict}")
    return 0 if ratio <= MAX_RATIO else 1


if __name__ == "__main__":
    sys.exit(main())
