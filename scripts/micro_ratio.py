#!/usr/bin/env python3
"""Same-run wall-clock ratio gates over the micro_queries star-join queries.

Reads google-benchmark JSON from one micro_queries run with repetitions
and, within that run, compares summed median real times over Q2.1..Q4.3
(query ids 3..12):

  batch/unit     the executor at the default batch width
                 (BM_QueryColumnStoreBatch) over the same executor at one
                 row per batch (BM_QueryColumnStoreUnit), both on the
                 column store: what batching buys the star joins;
  rowstore/col   the executor on the MVCC row store
                 (BM_QueryRowStoreBatch) over the same executor on the
                 column store (BM_QueryColumnStoreBatch): what reading
                 row-format versions costs the star joins.

Each ratio has a maximum in GATES.

Exits 1 when either ratio is over its maximum. Absolute times are
printed, never gated: only same-run ratios are stable across machines.

    ./build/bench/micro_queries \\
        --benchmark_filter='^BM_Query(ColumnStoreBatch|ColumnStoreUnit|RowStoreBatch)/[0-9]+$' \\
        --benchmark_min_time=0.05 --benchmark_repetitions=5 \\
        --benchmark_report_aggregates_only=true \\
        --benchmark_format=json > micro.json
    python3 scripts/micro_ratio.py micro.json
"""

import argparse
import json
import sys

STAR_JOIN_QUERIES = range(3, 13)  # Q2.1 .. Q4.3
COLUMN_BATCH = "BM_QueryColumnStoreBatch"
COLUMN_UNIT = "BM_QueryColumnStoreUnit"
ROWSTORE_BATCH = "BM_QueryRowStoreBatch"

# (name, numerator family, denominator family, maximum), all summed over
# STAR_JOIN_QUERIES from per-query medians.
GATES = [
    # Medians of five repetitions put the default width at 0.072-0.103x
    # of the width-1 run over seven runs on a 4-core host; scans that end
    # every batch after one row (so the whole plan runs 1-row batches)
    # measured 0.93-1.24x.
    ("batch/unit", COLUMN_BATCH, COLUMN_UNIT, 0.2),
    # Runtime filters speed the column store up more than the row store,
    # so this ratio rose from about 2-3x to 2.3-3.9x (single runs); the
    # five-repetition medians read 3.2-3.8x over five runs. Copying every
    # visible row out of its version chain (mvcc::VisibleRow always
    # folding) measured 9.7-10.4x.
    ("rowstore/col", ROWSTORE_BATCH, COLUMN_BATCH, 6.0),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path")
    args = parser.parse_args()

    with open(args.json_path) as f:
        benchmarks = json.load(f)["benchmarks"]
    families = {COLUMN_BATCH, COLUMN_UNIT, ROWSTORE_BATCH}
    times = {}
    for b in benchmarks:
        if b.get("aggregate_name") != "median":
            continue
        family, _, arg = b["run_name"].partition("/")
        if family in families and arg.isdigit():
            times[(family, int(arg))] = (b["real_time"], b.get("label", arg))

    for q in STAR_JOIN_QUERIES:
        for fam in sorted(families):
            if (fam, q) not in times:
                print(f"micro_ratio: no median of {fam}/{q} in "
                      f"{args.json_path} (run with --benchmark_repetitions)",
                      file=sys.stderr)
                return 2

    print(f"{'query':<6} {'col unit':>12} {'col batch':>12} "
          f"{'rowstore batch':>15} {'batch/unit':>10} {'rowstore/col':>12}")
    sums = {fam: 0.0 for fam in families}
    for q in STAR_JOIN_QUERIES:
        unit, label = times[(COLUMN_UNIT, q)]
        batch, _ = times[(COLUMN_BATCH, q)]
        rowstore, _ = times[(ROWSTORE_BATCH, q)]
        for fam in families:
            sums[fam] += times[(fam, q)][0]
        print(f"{label:<6} {unit:>12.0f} {batch:>12.0f} {rowstore:>15.0f} "
              f"{batch / unit:>10.3f} {rowstore / batch:>12.2f}")

    failed = False
    for name, num, den, max_ratio in GATES:
        ratio = sums[num] / sums[den]
        ok = ratio <= max_ratio
        failed |= not ok
        print(f"Q2.1-Q4.3 {name} = {ratio:.3f} (max {max_ratio}): "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
