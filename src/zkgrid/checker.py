"""Exhaustive constraint-satisfaction checking.

Every gate is evaluated on every row, every enabled lookup row is tested
for table membership, every copy constraint and instance binding is
compared directly.  This is exact verification of the arithmetization;
there is no succinctness and no randomization.

Gates are evaluated column-wise.  For each selector the enabled rows,
its nonzero cells, are listed once, and each node of a gate polynomial
becomes one pass over those rows (constants stay scalars).  Node
results are memoised per selector on the identity of the expression
subtree, so gates that share a sub-expression object compute it once per
row: the slots of a DOT row share each x - z, and the sponge round gates
their S-box terms.  Compile builds such gates over shared subtrees, and
the layout file holds each distinct subtree once, so a loaded layout
shares them too.  Values are reduced mod p only by pow5 and once before
the zero test; sums, differences and products are left unreduced, which
is exact because reduction mod p is a ring homomorphism and Python ints
do not overflow.

A selector's enabled rows are the rows array of its `FixedColumn`.  A
gate, lookup, copy or instance binding reads a fixed operand from the
column's full-height list (`FixedColumn.dense`), which the column builds
on first read and keeps, so a layout checked again reads the lists it
already has.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, length_hint, mod, mul, sub

import numpy as np

from .circuit import Assignment, CircuitLayout, Expr

KERNEL = "python"

DEFAULT_VIOLATION_CAP = 1000

_KIND_ORDER = {"gate": 0, "lookup": 1, "copy": 2, "instance": 3}
_FOLD = {"add": add, "sub": sub, "mul": mul}


class CheckError(ValueError):
    """Malformed inputs: dimension mismatch or unassigned referenced cell."""


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str       # gate | lookup | copy | instance
    id: str         # gate/table id, or constraint index for copy/instance
    row: int
    detail: str

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.id, self.row)

    def to_json(self) -> dict:
        return {"kind": self.kind, "id": self.id, "row": self.row, "detail": self.detail}


def _binop(fn, x, y):
    """fn over two operands, each a per-row list or a scalar."""
    if isinstance(x, list):
        if isinstance(y, list):
            return list(map(fn, x, y))
        return list(map(fn, x, repeat(y)))
    if isinstance(y, list):
        return list(map(fn, repeat(x), y))
    return fn(x, y)


class _Columns(dict):
    """Each column's cells by id: the assignment's advice lists, and each
    fixed column's full-height list (`FixedColumn.dense`), looked up on
    first read."""

    def __init__(self, layout: CircuitLayout, assignment: Assignment):
        super().__init__(assignment.advice)
        self.fixed = layout.fixed

    def __missing__(self, col_id: str) -> list:
        cells = self[col_id] = self.fixed[col_id].dense()
        return cells


def _cells(col: list, rows):
    """An iterator over col's cells on `rows`."""
    return map(col.__getitem__, rows)


def _eval(e: Expr, rows: list, cols: dict, memo: dict, p: int):
    """e over `rows`: a list with one value per row, or a scalar for
    constant subtrees.  Values are congruent to the field result mod p."""
    if e.op == "const":
        return e.value
    got = memo.get(id(e))
    if got is not None:
        return got
    if e.op == "cell":
        out = list(_cells(cols[e.col], rows))
    elif e.op == "pow5":
        x = _eval(e.args[0], rows, cols, memo, p)
        out = list(map(pow, x, repeat(5), repeat(p))) if isinstance(x, list) else pow(x, 5, p)
    else:
        fn = _FOLD[e.op]
        out = _eval(e.args[0], rows, cols, memo, p)
        for a in e.args[1:]:
            out = _binop(fn, out, _eval(a, rows, cols, memo, p))
    memo[id(e)] = out
    return out


def _first_unassigned(cols: dict, col_ids, rows: list) -> int | None:
    vals = [cols[c] for c in sorted(col_ids)]
    return next((r for r in rows if any(v[r] is None for v in vals)), None)


def _residue_key(cols: dict, col_ids: tuple, row: int, p: int):
    if len(col_ids) == 1:
        return cols[col_ids[0]][row] % p
    return tuple(cols[c][row] % p for c in col_ids)


def _check_all(
    layout: CircuitLayout,
    cols: dict,
    instance: list,
    cap: int,
    table_sets: dict,
) -> list[Violation]:
    """The first `cap` violations in canonical (kind, id, row) order.

    Constraints are scanned in that order, so stopping at the cap keeps
    the canonically-first violations.
    """
    out: list[Violation] = []
    p = layout.field.modulus
    enabled: dict[str, list] = {}

    def rows_of(selector: str) -> list:
        rows = enabled.get(selector)
        if rows is None:
            rows = enabled[selector] = layout.fixed[selector].nonzero_rows()
        return rows

    gates = sorted(layout.gates, key=lambda g: g.id)
    last_gate = {g.selector: i for i, g in enumerate(gates)}
    memos: dict[str, dict] = {}
    for i, gate in enumerate(gates):
        if len(out) >= cap:
            return out
        rows = rows_of(gate.selector)
        if rows:
            try:
                vals = _eval(gate.poly, rows, cols, memos.setdefault(gate.selector, {}), p)
                if not isinstance(vals, list):
                    vals = [vals] * len(rows)
                bad = any(map(mod, vals, repeat(p)))
            except TypeError:
                row = _first_unassigned(cols, gate.poly.columns(), rows)
                if row is None:
                    raise
                raise CheckError(f"gate {gate.id}: unassigned cell in enabled row {row}") from None
            if bad:
                sel = layout.fixed[gate.selector]
                for row, v in zip(rows, vals):
                    v %= p
                    if v:
                        out.append(
                            Violation("gate", gate.id, row, f"{gate.name} evaluates to {sel[row] * v % p}")
                        )
                        if len(out) >= cap:
                            return out
        if last_gate[gate.selector] == i:
            memos.pop(gate.selector, None)

    for lk in sorted(layout.lookups, key=lambda l: l.id):
        if len(out) >= cap:
            return out
        rows = rows_of(lk.selector)
        table = table_sets[lk.table]
        if len(lk.columns) == 1:
            keys = _cells(cols[lk.columns[0]], rows)
        else:
            keys = zip(*(_cells(cols[c], rows) for c in lk.columns))
        missing = [row for row, key in zip(rows, keys) if key not in table]
        row = _first_unassigned(cols, lk.columns, missing)
        if row is not None:
            raise CheckError(f"lookup {lk.id}: unassigned cell in enabled row {row}")
        # Tables hold canonical residues, so a raw key found in one is
        # its own residue; only the misses are looked up again reduced.
        missing = [row for row in missing if _residue_key(cols, lk.columns, row, p) not in table]
        for row in missing[: cap - len(out)]:
            out.append(Violation("lookup", lk.id, row, f"tuple not in table {lk.table}"))

    if len(out) >= cap:
        return out
    copies = layout.copies
    read = np.zeros(len(copies.names), bool)
    read[copies.flat[0::2]] = True
    numbered = [cols[col_id] if r else None for col_id, r in zip(copies.names, read.tolist())]
    it = iter(copies.tolist())
    for ca, ra, cb, rb in zip(it, it, it, it):
        va = numbered[ca][ra]
        vb = numbered[cb][rb]
        if va == vb and va is not None:
            continue
        # A list iterator knows how many items it has left; counting the
        # copy index that way keeps it out of the loop over equal copies.
        idx = (len(copies.flat) - length_hint(it)) // 4 - 1
        if va is None or vb is None:
            raise CheckError(f"copy {idx}: unassigned cell")
        if va % p != vb % p:
            cp = copies[idx]
            out.append(Violation("copy", f"{idx:09d}", ra, f"{cp.a} = {va} but {cp.b} = {vb}"))
            if len(out) >= cap:
                return out

    for idx, (cell_ref, inst_idx) in enumerate(layout.instance_map):
        if len(out) >= cap:
            return out
        v = cols[cell_ref[0]][cell_ref[1]]
        if v is None:
            raise CheckError(f"instance binding {idx}: unassigned cell {cell_ref}")
        declared = instance[inst_idx]
        if v % p != declared:
            out.append(
                Violation(
                    "instance", f"{idx:09d}", cell_ref[1],
                    f"cell {cell_ref} = {v} but instance[{inst_idx}] = {declared}",
                )
            )
    return out


def _validate_dimensions(layout: CircuitLayout, assignment: Assignment) -> None:
    advice_cols = {c.id for c in layout.columns.values() if c.kind == "advice"}
    if set(assignment.advice) != advice_cols:
        missing = advice_cols - set(assignment.advice)
        extra = set(assignment.advice) - advice_cols
        raise CheckError(f"advice columns mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    for col_id, vals in assignment.advice.items():
        if len(vals) != layout.n_rows:
            raise CheckError(f"column {col_id} has {len(vals)} rows, grid has {layout.n_rows}")
    instance = assignment.instance
    if None in instance:
        raise CheckError("instance vector has an unassigned value")
    if instance and not (min(instance) >= 0 and max(instance) < layout.field.modulus):
        bad = min(instance) if min(instance) < 0 else max(instance)
        raise CheckError(f"instance value {bad} is not a canonical residue in [0, p)")
    for _, inst_idx in layout.instance_map:
        if inst_idx < 0:
            raise CheckError(f"negative instance binding index {inst_idx}")
        if inst_idx >= len(assignment.instance):
            raise CheckError(f"instance vector too short for binding index {inst_idx}")


def check(
    layout: CircuitLayout,
    assignment: Assignment,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> list[Violation]:
    """The first `cap` violations, deterministically ordered by
    (kind, id, row).  Empty list means the assignment satisfies the
    layout; a cap below 1 is refused, since it would report none.
    """
    if cap < 1:
        raise CheckError(f"violation cap must be >= 1, not {cap}")
    _validate_dimensions(layout, assignment)
    table_sets = {
        tid: {r[0] for r in t.rows} if t.arity == 1 else t.rows
        for tid, t in layout.tables.items()
    }
    return _check_all(layout, _Columns(layout, assignment), assignment.instance, cap, table_sets)


def check_parallel(
    layout: CircuitLayout,
    assignment: Assignment,
    shards: int,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> list[Violation]:
    """check() for any shard count >= 1: the grid is checked in one pass
    whatever the count.  Kept only because perfbench/layers.py calls it,
    until the benchmark change of ROADMAP item 1 removes that call."""
    if shards < 1:
        raise CheckError("shards must be >= 1")
    return check(layout, assignment, cap=cap)
