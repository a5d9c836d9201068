#!/usr/bin/env python3
"""Rebuild the per-stage table for the seed-14 model, public and both
hidden, from traced benchmark runs, and write it to STAGE_TABLE.md.

Run from the root of a checkout:

    python3 perfbench/stage_table.py --seeds 1 2 3 --seconds 20

Each cell is the median over the given seeds of each traced run's median.
The exact grid counts and file sizes are checked against their known
values; a mismatch exits with code 1 and writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("seed14_public", "seed14_hidden")
# Logical rows, and layout and witness MB as quoted, to the digits quoted.
KNOWN = {"seed14_public": (16863, "11.5", "19.0"), "seed14_hidden": (218724, "98.7", "285")}

ROWS = [
    ("compile", "arithmetize.compile_s", "{:.2f} s"),
    ("witness", "arithmetize.witness_s", "{:.2f} s"),
    ("check", "checker.check_s", "{:.2f} s"),
    ("dump layout", "serialize.dump_layout_s", "{:.2f} s"),
    ("dump witness", "serialize.dump_witness_s", "{:.2f} s"),
    ("load layout", "serialize.load_layout_s", "{:.2f} s"),
    ("load witness", "serialize.load_witness_s", "{:.2f} s"),
    ("layout size", "serialize.layout_bytes", "{:.1f} MB"),
    ("witness size", "serialize.witness_bytes", "{:.1f} MB"),
    ("logical / padded rows", "arithmetize.rows_logical", "{:,}"),
    ("model row share", "arithmetize.model_row_share", "{:.1%}"),
    ("sponge rows", "arithmetize.sponge.rows", "{:,}"),
    ("copies", "arithmetize.copies", "{:,}"),
    ("check, sum of families", "checker.family_sum_s", "{:.2f} s"),
    ("check, 2 shards", "checker.check_s.shards2", "{:.2f} s"),
    ("checker rate, 254-bit", "checker.constraint_rows_per_s", "{:,.0f} rows/s"),
    ("checker rate, 31-bit synthetic", "checker.rows_per_s.p31", "{:,.0f} rows/s"),
]


def traced_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    ).stdout.splitlines()
    env = json.loads(next(line for line in out if line.startswith("env "))[4:])
    result = json.loads(out[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: the benchmark's checks failed")
    return env, {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()

    medians, env = {}, {}
    for w in WORKLOADS:
        runs = []
        for seed in args.seeds:
            env, values = traced_run(w, seed, args.seconds)
            runs.append(values)
        medians[w] = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
        rows, layout_mb, witness_mb = KNOWN[w]
        got = medians[w]
        if (
            got["arithmetize.rows_logical"] != rows
            or not _quoted(got["serialize.layout_bytes"], layout_mb)
            or not _quoted(got["serialize.witness_bytes"], witness_mb)
        ):
            print(f"{w}: counts differ from the known values {KNOWN[w]}", file=sys.stderr)
            return 1

    lines = [
        "# Seed-14 stage table",
        "",
        "Generated by `python3 perfbench/stage_table.py "
        f"--seeds {' '.join(map(str, args.seeds))} --seconds {args.seconds}`: medians over "
        f"{len(args.seeds)} traced runs per column of each run's per-pass medians.",
        f"Checker kernel `{env['kernel']}`, Python {env['python']}, nproc {env['nproc']}, "
        f"{env['modulus_bits']}-bit modulus.",
        "",
        "| stage | public | both hidden |",
        "|---|---|---|",
    ]
    for label, key, fmt in ROWS:
        cells = []
        for w in WORKLOADS:
            v = medians[w][key]
            if key.endswith("_bytes"):
                v /= 1e6
            if key == "arithmetize.rows_logical":
                cells.append(f"{int(v):,} / {_padded(int(v)):,}")
            else:
                cells.append(fmt.format(v))
        lines.append(f"| {label} | {cells[0]} | {cells[1]} |")
    (HERE / "STAGE_TABLE.md").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def _padded(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _quoted(n_bytes: float, mb: str) -> bool:
    digits = len(mb.partition(".")[2])
    return f"{n_bytes / 1e6:.{digits}f}" == mb


if __name__ == "__main__":
    sys.exit(main())
