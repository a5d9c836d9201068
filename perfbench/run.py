#!/usr/bin/env python3
"""End-to-end prove/verify benchmark for zkgrid.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prove_public --seed 1 --seconds 15 --trace 0

Workloads and metric names are listed in BENCHMARK.json; which end-to-end
metric each per-layer metric should move is in perfbench/layer_map.json.
Two more workloads, seed14_public and seed14_hidden (the ROADMAP
stage-table model, public and with input and weights hidden), run the same
way but are left out of BENCHMARK.json: a pass takes about 3 s and 30 s
(and 2.5 GB hidden), too few passes in a run for a steady median.
perfbench/stage_table.py runs them.
With --trace 0 the last line of output is one JSON object carrying every
end-to-end metric; with --trace 1 it carries every per-layer metric
instead.  Earlier lines give the environment (checker kernel, Python
version, nproc, modulus width) and each metric with its unit.  End-to-end
timings are seconds at a fixed reference speed (see harness.py); the env
line gives the raw medians and the reference loop's time next to them.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One process, no extra threads: numpy's BLAS pool stays at one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, workloads=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "zkgrid" / "__init__.py").is_file():
        print(f"error: no zkgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    from zkgrid import checker
    import_s = time.perf_counter() - t0

    workloads = workloads or harness.WORKLOADS
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    w = workloads[args.workload]
    tr = harness.Tracer(enabled=bool(args.trace))
    ctx, setup_s, scale = harness.setup(w, args.seed, tr)
    run = harness.measure(ctx, tr, args.seed, args.seconds)
    e2e, notes = harness.end_to_end(run, import_s * scale + setup_s)

    env = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": checker.KERNEL,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "modulus_bits": ctx.cfg.field.modulus.bit_length(),
        "import_s": import_s,
        "error_rate": run.failed / max(run.attempted, 1),
        **notes,
    }
    print("env " + json.dumps(env))
    if args.trace:
        listed = spec["per_layer"]
        values = harness.per_layer(run, [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        values = e2e
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
