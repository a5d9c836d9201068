#!/usr/bin/env python3
"""Checker throughput on a synthetic constraint grid.

Run from a shell where zkgrid is installed:

    python benchmarks/checker_bench.py --rows 1000000 --shards 1
"""

import argparse
import sys

from zkgrid.bench import run_benchmark


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", type=int, default=1_000_000)
    ap.add_argument("--shards", type=int, default=1)
    args = ap.parse_args()

    r = run_benchmark(n_rows=args.rows, shards=args.shards)
    print(
        f"rows={r['n_rows']:,} constraint-rows={r['constraint_rows']:,} "
        f"shards={r['shards']} time={r['seconds']:.3f}s "
        f"rate={r['rows_per_second']:,.0f} rows/s violations={r['violations']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
