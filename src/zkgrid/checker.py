"""Exhaustive constraint-satisfaction checking.

Every gate is evaluated on every row, every enabled lookup row is tested
for table membership, every copy constraint and instance binding is
compared directly.  This is exact verification of the arithmetization;
there is no succinctness and no randomization.

The checker reads each column as an array of canonical signed residues,
r = v - p when v mod p > p // 2 and v mod p otherwise: int64 when the
column has no outlier, and the values as Python ints otherwise (the
sponge states, a value int64 cannot hold).  Cells hold their values as
the prover, the caller or the file gave them, small ones signed; one
rule, `circuit.signed_cells`, reduces every int64 cell of all the advice
columns to its residue in one array pass, and the fixed columns and the
instance vector take the same rule.  An advice column is read at its
used length, as the prover and the witness loader hold it; a loaded
column of 32-byte cells is all outliers, so it is read as the values the
loader made.  A fixed column keeps its reading, so a layout checked
again reads it for free.

Gates are evaluated column-wise with numpy.  For each selector the
enabled rows are listed once, and each node of a gate polynomial becomes
one operation over those rows (constants stay scalars), memoised per
selector on the column id or the identity of the subtree, so gates that
share a sub-expression compute it once: the slots of a DOT row share
each x - z, and the sponge round gates their S-box terms.  A node runs
in int64 only when a bound on the magnitude of its values, worked out
from its operands' (each column's greatest residue, each constant) as
`interpreter.scale_fits_int64` does, proves that they fit, since numpy
wraps silently on overflow; otherwise its operands become object arrays
and it runs on Python ints.  That is one evaluation path with two dtypes.
Values are reduced mod p only by pow5 on objects and in the zero test,
which is `r != 0` for an int64 r when p > 2**63 and `r % p != 0`
otherwise; sums, differences and products are left unreduced, which is
exact because reduction mod p is a ring homomorphism.

Lookups test each key against its table's recipe (`LookupTable.holds`),
one test per table over the keys of all its lookups, in int64 where a
bound allows and on Python ints otherwise; no entry is built.  Copies and
bindings gather both sides from the columns laid end to end and compare
them as int64 where both cells hold their residue.  The wide cells (the
outliers, such as a sponge state) compare as Python ints, first as the
values and then, only for the pairs whose values differ, mod p.  A
violation's detail prints each cell as its residue in [0, p).  The
instance vector is split into int64 and its few wide values by
`circuit.narrow_split`, which refuses a value that is not an int.
Python touches only violating rows, wide cells and the cells of object
columns that gates read.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

import numpy as np

from .circuit import (
    Assignment,
    CircuitError,
    CircuitLayout,
    Expr,
    MARK,
    FixedColumn,
    cell_value,
    narrow_split,
    signed_cells,
)

KERNEL = "python"

DEFAULT_VIOLATION_CAP = 1000

_KIND_ORDER = {"gate": 0, "lookup": 1, "copy": 2, "instance": 3}
_FOLD = {"add": add, "sub": sub, "mul": mul}
_BIG = 1 << 63


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


class _Grid:
    """Every column of a layout and an assignment, by its number k in the
    layout's columns, as the checker reads it.  `cells[k]` holds the cell
    of each of its first `lengths[k]` rows, the rows that may be assigned
    (every row of a fixed column): int64 signed residues, with
    `bounds[k]` the greatest magnitude among them, or the values as Python
    ints, with `bounds[k]` None.  Of those rows, `present[k]` marks the
    assigned ones (None: all of them).  An unassigned cell holds an
    arbitrary value: every read of one raises CheckError before its value
    can matter.

    The columns a copy or a binding reads, every advice column and the
    fixed columns that copies or bindings name, are also laid end to end,
    column k from `offsets[k]` on, the advice columns first.  `assigned`
    marks the assigned cells, `ints` holds each cell's signed residue and
    `wide` the cells that do not hold theirs (`circuit.signed_cells`), and
    `objects` holds the cells of the columns read as Python ints, column k
    from `object_offsets[k]` on."""

    def __init__(self, layout: CircuitLayout, advice: dict):
        p = self.p = layout.field.modulus
        n = layout.n_rows
        self.names = layout.copies.names
        self.number = {col_id: k for k, col_id in enumerate(self.names)}
        self.fixed = layout.fixed
        self.advice = advice
        size = len(self.names)
        self.cells, self.bounds = [None] * size, [None] * size
        self.lengths, self.present = [n] * size, [None] * size
        fixed = [k for k, c in enumerate(self.names) if c in self.fixed]
        views = dict(zip(fixed, FixedColumn.signed([self.fixed[self.names[k]] for k in fixed], p)))
        for k, (cells, bound, present, _, _) in views.items():
            self.cells[k], self.bounds[k], self.present[k] = cells, bound, present
        cols = {k: advice[c] for k, c in enumerate(self.names) if c not in self.fixed}
        signed, _, held, bounds = signed_cells([(c.cells, c.outliers) for c in cols.values()], p)
        for (k, col), bound in zip(cols.items(), bounds):
            self.lengths[k], self.present[k], self.bounds[k] = col.length, col.present, bound
        self.sides = layout.copies.sides()
        read = np.zeros(size, bool)
        read[self.sides[0]] = read[self.sides[2]] = read[layout.instance_map.flat[0::3]] = True
        shared = [*cols, *(k for k in fixed if read[k])]
        self.lengths_arr = np.array(self.lengths, np.int64)
        self.offsets = np.zeros(size, np.int64)
        self.offsets[shared] = np.cumsum(self.lengths_arr[shared]) - self.lengths_arr[shared]
        offsets = self.offsets.tolist()
        total = int(self.lengths_arr[shared].sum())
        self.ints = np.empty(total, np.int64)
        self.assigned = np.ones(total, bool)
        self.wide = np.zeros(total, bool)
        for k in shared:
            if self.present[k] is not None:
                self.assigned[offsets[k] : offsets[k] + self.lengths[k]] = self.present[k]
        # The advice columns' assigned cells in one masked store, the fixed
        # columns' rows as their readings give them.
        end = int(self.lengths_arr[list(cols)].sum())
        at = self.assigned[:end] if any(c.present is not None for c in cols.values()) else slice(None)
        self.ints[:end][at], self.wide[:end][at] = signed, ~held
        for k in shared[len(cols):]:
            _, _, _, ints, wide = views[k]
            self.ints[offsets[k] : offsets[k] + n] = ints
            if wide is not None:
                self.wide[offsets[k] : offsets[k] + n] = wide
        for k, col in cols.items():
            s, length = offsets[k], col.length
            if self.bounds[k] is not None:
                self.cells[k] = self.ints[s : s + length]
            elif col.present is None:
                self.cells[k] = col.values
            else:
                self.cells[k] = np.zeros(length, object)
                self.cells[k][col.present] = col.values
        self.is_object = np.array([b is None for b in self.bounds], bool)
        objs = [k for k in shared if self.is_object[k]]
        self.objects = np.concatenate([self.cells[k] for k in objs]) if objs else np.zeros(0, object)
        self.object_offsets = np.zeros(size, np.int64)
        self.object_offsets[objs] = np.cumsum(self.lengths_arr[objs]) - self.lengths_arr[objs]

    def at(self, cols: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each (column number, row) of a column that copies or
        bindings read, its position in `ints`, and whether it is
        assigned."""
        inside = rows < self.lengths_arr[cols]
        pos = np.where(inside, self.offsets[cols] + rows, 0)
        return pos, inside & self.assigned[pos]

    def gather(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Column k's cells on the sorted `rows`, any value on a row past
        the ones it holds."""
        cells = self.cells[k]
        if not len(rows) or rows[-1] < len(cells):
            return cells[rows]
        return cells[np.minimum(rows, len(cells) - 1)] if len(cells) else np.zeros(len(rows), np.int64)

    def missing(self, k: int, rows: np.ndarray) -> int | None:
        """The first of the sorted, non-empty `rows` whose cell in column
        k is unassigned."""
        length, present = self.lengths[k], self.present[k]
        if present is None and rows[-1] < length:
            return None
        ok = rows < length
        if present is not None:
            ok[ok] = present[rows[ok]]
        return None if ok.all() else int(rows[np.argmin(ok)])

    def raw(self, cols: np.ndarray, rows: np.ndarray, pos: np.ndarray, assigned: np.ndarray) -> np.ndarray:
        """The value of the cell of each (column number, row) pair, at `pos`
        in `ints` when `assigned` (as `at` gives them), as a Python int: in
        [0, p) for a cell whose signed residue `ints` holds, as its column
        holds it for a wide one, and any value for an unassigned one."""
        got = self.ints[pos]
        out = got.astype(object)
        wide = self.wide[pos] & assigned
        out[wide] = self.objects[self.object_offsets[cols[wide]] + rows[wide]]
        neg = np.flatnonzero((got < 0) & ~wide)   # the residue v - p of a value v > p // 2
        out[neg] = out[neg] + self.p
        return out

    def value(self, col_id: str, row: int) -> int:
        """The assigned cell's residue in [0, p)."""
        col = self.fixed.get(col_id)
        if col is None:
            return self.advice[col_id][row] % self.p
        k = int(np.searchsorted(col.rows, row))
        if k == len(col.rows) or col.rows[k] != row:
            return 0
        return cell_value(col.cells, col.outliers, k) % self.p


def _objects(x):
    return x.astype(object) if isinstance(x, np.ndarray) and x.dtype != object else x


def _eval(e: Expr, rows: np.ndarray, cols: _Grid, memo: dict, p: int) -> tuple:
    """e over `rows`: its values (an array with one value per row, or a
    Python int for a constant subtree), congruent to the field result mod
    p; a bound below 2**63 on their magnitude when they are int64, None
    when they are objects; and the first row on which e reads an
    unassigned cell, None for none."""
    if e.op == "const":
        v = e.value % p
        v = v - p if v > p // 2 else v
        return v, abs(v) if abs(v) < _BIG else None, None
    key = e.col if e.op == "cell" else id(e)
    got = memo.get(key)
    if got is not None:
        return got
    if e.op == "cell":
        k = cols.number[e.col]
        out = cols.gather(k, rows), cols.bounds[k], cols.missing(k, rows)
    elif e.op == "pow5":
        x, b, miss = _eval(e.args[0], rows, cols, memo, p)
        if b is not None and b**5 < _BIG:
            x2 = x * x
            out = x2 * x2 * x, b**5, miss
        else:
            x = _objects(x)
            x2 = x * x % p
            out = x2 * x2 % p * x % p, None, miss
    else:
        fn = _FOLD[e.op]
        acc, b, miss = _eval(e.args[0], rows, cols, memo, p)
        for a in e.args[1:]:
            y, yb, ym = _eval(a, rows, cols, memo, p)
            b = None if b is None or yb is None else b * yb if fn is mul else b + yb
            if b is None or b >= _BIG:
                b, acc, y = None, _objects(acc), _objects(y)
            acc = fn(acc, y)
            if ym is not None and (miss is None or ym < miss):
                miss = ym
        out = acc, b, miss
    memo[key] = out
    return out


def _nonzero(vals, bound, p: int, n: int) -> np.ndarray:
    """The positions of the `n` values (or the one constant) that are not
    0 mod p."""
    if not isinstance(vals, np.ndarray):
        return np.arange(n) if vals % p else np.arange(0)
    if bound is not None and p > _BIG:
        return np.flatnonzero(vals)
    return np.flatnonzero(vals % p)


def _found(layout: CircuitLayout, lookups: list, rows_of, cols: _Grid) -> list[np.ndarray]:
    """For each lookup, whether the key of each row its selector enables
    is an entry of its table: one test per table (`LookupTable.holds`),
    over the keys of all its lookups."""
    by_table: dict[str, list] = {}
    for j, lk in enumerate(lookups):
        by_table.setdefault(lk.table, []).append(j)
    out = [None] * len(lookups)
    for tid, js in by_table.items():
        table = layout.tables[tid]
        rows = [rows_of(lookups[j].selector) for j in js]
        found = table.holds([
            np.concatenate([cols.gather(cols.number[lookups[j].columns[i]], r) for j, r in zip(js, rows)])
            for i in range(table.arity)
        ])
        ends = np.cumsum([len(r) for r in rows]).tolist()
        for j, a, b in zip(js, [0, *ends], ends):
            out[j] = found[a:b]
    return out


def _first_error(bad: np.ndarray) -> int:
    """The first position `bad` marks, or its length for none."""
    return int(np.argmax(bad)) if bad.any() else len(bad)


def _differ(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Which pairs of the object arrays of values a and b are not equal
    mod p: equal values are equal residues, so only the pairs whose values
    differ (a tamper, or a value of p or more) are reduced."""
    out = a != b
    at = np.flatnonzero(out)
    if len(at):
        out[at] = a[at] % p != b[at] % p
    return out


def _check_all(layout: CircuitLayout, cols: _Grid, instance: list, declared: tuple, cap: int) -> list[Violation]:
    """The first `cap` violations in canonical (kind, id, row) order.

    Constraints are scanned in that order, so stopping at the cap keeps
    the canonically-first violations.  `declared` is the instance's form
    as `_validate_dimensions` gives it.
    """
    out: list[Violation] = []
    p = layout.field.modulus
    enabled: dict[str, np.ndarray] = {}

    def rows_of(selector: str) -> np.ndarray:
        rows = enabled.get(selector)
        if rows is None:
            rows = enabled[selector] = layout.fixed[selector].enabled_rows()
        return rows

    gates = sorted(layout.gates, key=lambda g: g.id)
    last_gate = {g.selector: i for i, g in enumerate(gates)}
    memos: dict[str, dict] = {}
    for i, gate in enumerate(gates):
        if len(out) >= cap:
            return out
        rows = rows_of(gate.selector)
        if len(rows):
            vals, bound, miss = _eval(gate.poly, rows, cols, memos.setdefault(gate.selector, {}), p)
            if miss is not None:
                raise CheckError(f"gate {gate.id}: unassigned cell in enabled row {miss}")
            for at in _nonzero(vals, bound, p, len(rows))[: cap - len(out)].tolist():
                row = int(rows[at])
                v = int(vals[at] if isinstance(vals, np.ndarray) else vals)
                sel = cols.value(gate.selector, row)
                out.append(Violation("gate", gate.id, row, f"{gate.name} evaluates to {sel * v % p}"))
        if last_gate[gate.selector] == i:
            memos.pop(gate.selector, None)

    lookups = sorted(layout.lookups, key=lambda l: l.id)
    for lk, found in zip(lookups, _found(layout, lookups, rows_of, cols)):
        if len(out) >= cap:
            return out
        rows = rows_of(lk.selector)
        if not len(rows):
            continue
        misses = [m for m in (cols.missing(cols.number[c], rows) for c in lk.columns) if m is not None]
        if misses:
            raise CheckError(f"lookup {lk.id}: unassigned cell in enabled row {min(misses)}")
        for row in rows[~found][: cap - len(out)].tolist():
            out.append(Violation("lookup", lk.id, row, f"tuple not in table {lk.table}"))

    if len(out) >= cap:
        return out
    copies = layout.copies
    flat = copies.flat
    if len(flat):
        ca, ra, cb, rb = cols.sides
        (a, a_set), (b, b_set) = cols.at(ca, ra), cols.at(cb, rb)
        first_unset = _first_error(~(a_set & b_set))
        differ = cols.ints[a] != cols.ints[b]
        slow = np.flatnonzero(cols.wide[a] | cols.wide[b])
        if len(slow):
            differ[slow] = _differ(cols.raw(ca[slow], ra[slow], a[slow], a_set[slow]),
                                   cols.raw(cb[slow], rb[slow], b[slow], b_set[slow]), p)
        differ = np.flatnonzero(differ)
        for idx in differ[differ < first_unset][: cap - len(out)].tolist():
            cp = copies[idx]
            va, vb = cols.value(*cp.a), cols.value(*cp.b)
            out.append(Violation("copy", f"{idx:09d}", cp.a[1], f"{cp.a} = {va} but {cp.b} = {vb}"))
        if len(out) >= cap:
            return out
        if first_unset < len(ca):
            raise CheckError(f"copy {first_unset}: unassigned cell")

    bound = layout.instance_map.flat
    if len(bound):
        bound_cols, rows, idx = bound[0::3], bound[1::3], bound[2::3]
        at, bound_set = cols.at(bound_cols, rows)
        first_unset = _first_error(~bound_set)
        claims, _, held, _ = signed_cells([declared], p)
        differ = cols.ints[at] != claims[idx]
        slow = np.flatnonzero(cols.wide[at] | ~held[idx])
        if len(slow):
            claimed = np.array([instance[i] for i in idx[slow].tolist()], object)
            differ[slow] = _differ(cols.raw(bound_cols[slow], rows[slow], at[slow], bound_set[slow]), claimed, p)
        differ = np.flatnonzero(differ)
        for b in differ[differ < first_unset][: cap - len(out)].tolist():
            ref, inst_idx = layout.instance_map[b]
            out.append(
                Violation(
                    "instance", f"{b:09d}", ref[1],
                    f"cell {ref} = {cols.value(*ref)} but instance[{inst_idx}] = {instance[inst_idx]}",
                )
            )
        if len(out) < cap and first_unset < len(rows):
            ref = layout.instance_map[first_unset][0]
            raise CheckError(f"instance binding {first_unset}: unassigned cell {ref}")
    return out


def _validate_dimensions(layout: CircuitLayout, assignment: Assignment) -> tuple:
    """Refuse an assignment that does not fit the layout; the instance's
    values as an `int_cells` form: its `circuit.narrow_split` with MARK
    for each wide value, which is then an outlier."""
    advice_cols = {c.id for c in layout.columns.values() if c.kind == "advice"}
    if set(assignment.advice) != advice_cols:
        missing = advice_cols - set(assignment.advice)
        extra = set(assignment.advice) - advice_cols
        raise CheckError(f"advice columns mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
    for col_id, vals in assignment.advice.items():
        if len(vals) != layout.n_rows:
            raise CheckError(f"column {col_id} has {len(vals)} rows, grid has {layout.n_rows}")
    instance = assignment.instance
    try:
        split = narrow_split(instance)
    except CircuitError as e:
        raise CheckError(f"instance {e}") from None
    if split is None and None in instance:
        raise CheckError("instance vector has an unassigned value")
    if instance:
        if split is None:
            lo, hi = min(instance), max(instance)
        else:   # a wide value's int64 cell is 0, which moves neither test
            ints, _, wide = split
            lo, hi = min([int(ints.min()), *wide]), max([int(ints.max()), *wide])
        if not (lo >= 0 and hi < layout.field.modulus):
            raise CheckError(f"instance value {lo if lo < 0 else hi} is not a canonical residue in [0, p)")
    idx = layout.instance_map.flat[2::3]
    if len(idx):
        out = (idx < 0) | (idx >= len(instance))
        if out.any():
            first = int(idx[np.argmax(out)])
            if first < 0:
                raise CheckError(f"negative instance binding index {first}")
            raise CheckError(f"instance vector too short for binding index {first}")
    ints, at, wide = split
    ints[at] = MARK
    return ints, np.array(wide, object)


def check(
    layout: CircuitLayout,
    assignment: Assignment,
    cap: int = DEFAULT_VIOLATION_CAP,
) -> list[Violation]:
    """The first `cap` violations, deterministically ordered by
    (kind, id, row).  Empty list means the assignment satisfies the
    layout; a cap below 1 is refused, since it would report none.  The
    advice columns are `circuit.AdviceColumn`s, as the prover and the
    witness loader both give them.
    """
    if cap < 1:
        raise CheckError(f"violation cap must be >= 1, not {cap}")
    declared = _validate_dimensions(layout, assignment)
    return _check_all(layout, _Grid(layout, assignment.advice), assignment.instance, declared, cap)


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
