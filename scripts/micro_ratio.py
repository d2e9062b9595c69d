#!/usr/bin/env python3
"""Same-run wall-clock ratio gates over the micro_queries star-join queries.

Reads google-benchmark JSON from one micro_queries run and, within that
run, compares summed real times over Q2.1..Q4.3 (query ids 3..12):

  batch/row      the vectorized executor (BM_QueryColumnStoreBatch) over
                 the row-at-a-time oracle (BM_QueryColumnStore), both on
                 the column store;
  rowstore/col   the vectorized executor on the MVCC row store
                 (BM_QueryRowStoreBatch) over the same executor on the
                 column store (BM_QueryColumnStoreBatch): what reading
                 row-format versions costs the star joins.

Each ratio has a maximum in GATES.

Exits 1 when either ratio is over its maximum. Absolute times are
printed, never gated: only same-run ratios are stable across machines.

    ./build/bench/micro_queries \\
        --benchmark_filter='^BM_Query(ColumnStore|ColumnStoreBatch|RowStoreBatch)/[0-9]+$' \\
        --benchmark_min_time=0.05 --benchmark_format=json > micro.json
    python3 scripts/micro_ratio.py micro.json
"""

import argparse
import json
import sys

STAR_JOIN_QUERIES = range(3, 13)  # Q2.1 .. Q4.3
COLUMN_ROW = "BM_QueryColumnStore"
COLUMN_BATCH = "BM_QueryColumnStoreBatch"
ROWSTORE_BATCH = "BM_QueryRowStoreBatch"

# (name, numerator family, denominator family, maximum), all summed over
# STAR_JOIN_QUERIES.
GATES = [
    ("batch/row", COLUMN_BATCH, COLUMN_ROW, 0.6),
    # Copying every visible row out of its version chain measured about
    # 4-5.6x; handing visible versions out by reference about 2.4-2.7x.
    ("rowstore/col", ROWSTORE_BATCH, COLUMN_BATCH, 3.5),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path")
    args = parser.parse_args()

    with open(args.json_path) as f:
        benchmarks = json.load(f)["benchmarks"]
    families = {COLUMN_ROW, COLUMN_BATCH, ROWSTORE_BATCH}
    times = {}
    for b in benchmarks:
        family, _, arg = b["name"].partition("/")
        if family in families and arg.isdigit():
            times[(family, int(arg))] = (b["real_time"], b.get("label", arg))

    for q in STAR_JOIN_QUERIES:
        for fam in sorted(families):
            if (fam, q) not in times:
                print(f"micro_ratio: no {fam}/{q} in {args.json_path}",
                      file=sys.stderr)
                return 2

    print(f"{'query':<6} {'col row':>12} {'col batch':>12} "
          f"{'rowstore batch':>15} {'batch/row':>9} {'rowstore/col':>12}")
    sums = {fam: 0.0 for fam in families}
    for q in STAR_JOIN_QUERIES:
        row, label = times[(COLUMN_ROW, q)]
        batch, _ = times[(COLUMN_BATCH, q)]
        rowstore, _ = times[(ROWSTORE_BATCH, q)]
        for fam in families:
            sums[fam] += times[(fam, q)][0]
        print(f"{label:<6} {row:>12.0f} {batch:>12.0f} {rowstore:>15.0f} "
              f"{batch / row:>9.2f} {rowstore / batch:>12.2f}")

    failed = False
    for name, num, den, max_ratio in GATES:
        ratio = sums[num] / sums[den]
        ok = ratio <= max_ratio
        failed |= not ok
        print(f"Q2.1-Q4.3 {name} = {ratio:.2f} (max {max_ratio}): "
              f"{'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
