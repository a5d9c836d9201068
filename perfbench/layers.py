"""One-off per-layer measurements for a traced run.

Everything here is computed from outside the program, from the layout,
its witness plan and the public checker entry points:

* row, copy and enabled-lookup-row attribution to model layers, with
  sponge and staging rows on lines of their own;
* enabled constraint rows by kind;
* checker time per constraint family, from checking copies of the layout
  restricted to one family, net of an empty-layout baseline;
* the two-shard checker, and the checker's rate on the 31-bit synthetic
  grid, read against the 254-bit rate to show the cost of bignums.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from zkgrid import bench, checker
from zkgrid.circuit import ADVICE

MODEL_LAYERS = 5          # attribution lines arithmetize.layer0 .. layer4
SYNTHETIC_ROWS = 1 << 16
SHARDS = 2

GATE_FAMILIES = {
    "dot": "DOT_", "add": "ADD_", "div": "DIV",
    "sp_absorb": "ABSORB_", "sp_full": "POSE_FULL_", "sp_part": "POSE_PART_",
}
LOOKUP_FAMILIES = {"clip": "clip:", "range": "range:"}


def _region(col: str, row: int, owner: dict) -> str:
    """Which part of the grid a cell belongs to.  Gate-group columns are
    named g<k>:..., staging columns io..., sponge columns sp:..."""
    if col.startswith("g"):
        return owner[(int(col[1 : col.index(":")]), row)]
    if col.startswith("io"):
        return "staging"
    if col.startswith("sp:"):
        return "sponge"
    raise ValueError(f"column {col} belongs to no known region")


def row_attribution(layout) -> dict:
    """Rows, copies and enabled lookup rows per model layer, plus the
    grid's shape counts, from a compiled layout and its witness plan."""
    plan = layout.plan
    owner: dict[tuple[int, int], str] = {}
    rows: dict[str, int] = {}
    for site in plan.site_plans:
        region = f"layer{site.layer}"
        for spec in (*site.dot_rows, *site.add_rows, site.div):
            owner[(spec.group, spec.row)] = region
        rows[region] = rows.get(region, 0) + len(site.dot_rows) + len(site.add_rows) + 1
    staged = list(plan.input_cells) + list(plan.weight_cells or ()) + list(plan.io_pad_cells)
    rows["staging"] = len({row for _, row in staged})
    rows["sponge"] = sum(
        len(sp.absorb_rows) + sum(len(r) for r in sp.round_rows) for sp in plan.sponges
    )

    copies: dict[str, int] = {}
    for cp in layout.copies:
        region = _region(*cp.a, owner)
        copies[region] = copies.get(region, 0) + 1
    lookup_rows: dict[str, int] = {}
    for lk in layout.lookups:
        for row, sel in enumerate(layout.fixed[lk.selector]):
            if sel:
                region = _region(lk.columns[0], row, owner)
                lookup_rows[region] = lookup_rows.get(region, 0) + 1

    model_rows = sum(v for k, v in rows.items() if k.startswith("layer"))
    out = {
        "arithmetize.rows_logical": layout.n_rows_logical,
        "arithmetize.rows_model": model_rows,
        "arithmetize.rows_sponge": rows["sponge"],
        "arithmetize.rows_staging": rows["staging"],
        "arithmetize.columns": len(layout.columns),
        "arithmetize.copies": len(layout.copies),
        "arithmetize.lookup_args": len(layout.lookups),
        "arithmetize.table_entries": sum(len(t.rows) for t in layout.tables.values()),
        "arithmetize.row_fill": layout.n_rows_logical / layout.n_rows,
        "arithmetize.model_row_share": model_rows / layout.n_rows_logical,
    }
    regions = [f"layer{i}" for i in range(MODEL_LAYERS)] + ["sponge", "staging"]
    extra = set(rows) - set(regions)
    if extra:
        raise ValueError(f"model has more layers than the attribution lines: {sorted(extra)}")
    for region in regions:
        out[f"arithmetize.{region}.rows"] = rows.get(region, 0)
        out[f"arithmetize.{region}.copies"] = copies.get(region, 0)
        if region != "sponge":   # sponge rows carry no lookups
            out[f"arithmetize.{region}.lookup_rows"] = lookup_rows.get(region, 0)
    return out


def copy_bound_advice_cells(layout) -> list[tuple[str, int]]:
    """Advice cells that some copy constraint binds, in a fixed order."""
    cells = set()
    for cp in layout.copies:
        for col, row in (cp.a, cp.b):
            if layout.columns[col].kind == ADVICE:
                cells.add((col, row))
    return sorted(cells)


def constraint_rows(layout) -> dict:
    """Enabled (constraint, row) pairs by kind, and their total."""
    def enabled(col):
        vals = layout.fixed[col]
        return len(vals) - vals.count(0)

    out = {
        "circuit.constraint_rows.gate": sum(enabled(g.selector) for g in layout.gates),
        "circuit.constraint_rows.lookup": sum(enabled(lk.selector) for lk in layout.lookups),
        "circuit.constraint_rows.copy": len(layout.copies),
        "circuit.constraint_rows.instance": len(layout.instance_map),
    }
    out["circuit.constraint_rows"] = sum(out.values())
    return out


def _timed_check(layout, assignment, shards: int = 1) -> tuple[float, list]:
    t0 = time.perf_counter()
    violations = checker.check_parallel(layout, assignment, shards=shards)
    return time.perf_counter() - t0, violations


def _only(layout, gates=(), lookups=(), copies=(), instance_map=()):
    return replace(
        layout, gates=list(gates), lookups=list(lookups),
        copies=list(copies), instance_map=list(instance_map),
    )


def checker_breakdown(layout, assignment) -> tuple[dict, list[str]]:
    """Per-family check times on an honest witness, the two-shard check
    and the synthetic-grid rate; also any violations found, which on an
    honest witness are failures."""
    parts = {}
    for fam, prefix in GATE_FAMILIES.items():
        parts[f"checker.gate.{fam}_s"] = _only(
            layout, gates=[g for g in layout.gates if g.name.startswith(prefix)]
        )
    for fam, prefix in LOOKUP_FAMILIES.items():
        parts[f"checker.lookup.{fam}_s"] = _only(
            layout, lookups=[lk for lk in layout.lookups if lk.table.startswith(prefix)]
        )
    parts["checker.copy_s"] = _only(layout, copies=layout.copies)
    parts["checker.instance_s"] = _only(layout, instance_map=layout.instance_map)

    problems = []
    n_gates = sum(len(parts[f"checker.gate.{f}_s"].gates) for f in GATE_FAMILIES)
    n_lookups = sum(len(parts[f"checker.lookup.{f}_s"].lookups) for f in LOOKUP_FAMILIES)
    if n_gates != len(layout.gates) or n_lookups != len(layout.lookups):
        problems.append("some gate or lookup belongs to no checker family")

    empty = _only(layout)
    base = statistics.median(_timed_check(empty, assignment)[0] for _ in range(3))
    values = {"checker.overhead_s": base}
    for name, sub in parts.items():
        if not (sub.gates or sub.lookups or sub.copies or sub.instance_map):
            values[name] = 0.0
            continue
        t, violations = _timed_check(sub, assignment)
        values[name] = t - base
        if violations:
            problems.append(f"{name}: {len(violations)} violations on an honest witness")
    values["checker.family_sum_s"] = base + sum(values[name] for name in parts)

    t, violations = _timed_check(layout, assignment, shards=SHARDS)
    values["checker.check_s.shards2"] = t
    if violations:
        problems.append(f"{SHARDS}-shard check: {len(violations)} violations on an honest witness")

    synth, synth_asg = bench.make_synthetic_grid(SYNTHETIC_ROWS)
    t, violations = _timed_check(synth, synth_asg)
    values["checker.rows_per_s.p31"] = constraint_rows(synth)["circuit.constraint_rows"] / t
    if violations:
        problems.append(f"synthetic grid: {len(violations)} violations")
    return values, problems
