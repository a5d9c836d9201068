"""Plonkish-style constraint grid: columns, row-local polynomial gates
gated by selectors, lookup arguments, and copy (equality) constraints.

Gate polynomials are expression trees over same-row cells and constants.
A gate is satisfied on a row when selector * polynomial == 0 there.

Copies are held packed: one int32 array `[a_col, a_row, b_col, b_row,
...]` whose column numbers index the layout's columns in insertion
order, which is also how the layout file writes them.  Compile
concatenates it from its per-layer arrays, the file loader wraps the
file's section, and validate() and the checker read it as it is;
`CopyConstraint` objects are built only when a caller indexes or
iterates the `Copies` sequence.

Fixed columns are held sparse in the same way: each is a read-only
`FixedColumn` of two arrays, the int32 rows of its nonzero cells in
increasing order and their values, which is also how the layout file
writes them.  Every other row reads 0.  A read of single cells goes
through one full-height list the column builds on first read and keeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .field import Field, FieldElement

ADVICE = "advice"
FIXED = "fixed"

# The tallest grid compile builds and the file loaders accept, and the most
# cells its advice columns, or its fixed columns, may hold: a file header
# cannot ask for more memory than such a grid takes.
MAX_ROWS = 1 << 20
MAX_CELLS = 1 << 25
# The most entries compile puts in one lookup table.
LOOKUP_CAP = 1 << 20

_INT32 = np.iinfo(np.int32)


class CircuitError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Column:
    id: str
    kind: str

    def __post_init__(self):
        if self.kind not in (ADVICE, FIXED):
            raise CircuitError(f"unknown column kind {self.kind!r}")


# --- expression trees -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Expr:
    """One node: op in {const, cell, add, sub, mul, pow5}."""

    op: str
    value: int = 0            # const payload
    col: str = ""             # cell payload
    args: tuple = ()          # operands

    def degree(self) -> int:
        if self.op == "const":
            return 0
        if self.op == "cell":
            return 1
        if self.op in ("add", "sub"):
            return max(a.degree() for a in self.args)
        if self.op == "mul":
            return sum(a.degree() for a in self.args)
        if self.op == "pow5":
            return 5 * self.args[0].degree()
        raise CircuitError(f"bad expr op {self.op!r}")

    def columns(self) -> set[str]:
        if self.op == "cell":
            return {self.col}
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def to_sexpr(self) -> str:
        if self.op == "const":
            return str(self.value)
        if self.op == "cell":
            return f"(col {self.col})"
        inner = " ".join(a.to_sexpr() for a in self.args)
        name = {"add": "+", "sub": "-", "mul": "*", "pow5": "pow5"}[self.op]
        return f"({name} {inner})"


def const(v: int) -> Expr:
    return Expr("const", value=v)


def cell(col_id: str) -> Expr:
    return Expr("cell", col=col_id)


def add(*args: Expr) -> Expr:
    if len(args) == 1:
        return args[0]
    return Expr("add", args=tuple(args))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", args=(a, b))


def mul(*args: Expr) -> Expr:
    if len(args) == 1:
        return args[0]
    return Expr("mul", args=tuple(args))


def pow5(a: Expr) -> Expr:
    return Expr("pow5", args=(a,))


# The deepest gate polynomial, and the most nodes a layout's gate
# polynomials hold written out as trees, that a layout file may hold: walks
# of a tree recurse, and shared subtrees can name a tree exponentially
# larger than the file.  Compiled gates nest at most 6 deep.
MAX_EXPR_DEPTH = 64
MAX_EXPR_NODES = 1 << 20


# --- constraints ------------------------------------------------------------

CellRef = tuple[str, int]  # (column id, row)


@dataclass(frozen=True, slots=True)
class GateDef:
    id: str
    name: str
    selector: str  # fixed column id
    poly: Expr


@dataclass(frozen=True, slots=True)
class LookupTable:
    """A table built by `arithmetize.lookup_table` from its recipe."""
    recipe: tuple
    id: str
    arity: int
    rows: frozenset  # of tuples of canonical field ints


@dataclass(frozen=True, slots=True)
class LookupArg:
    id: str
    table: str
    columns: tuple[str, ...]
    selector: str


@dataclass(frozen=True, slots=True)
class CopyConstraint:
    a: CellRef
    b: CellRef


def check_copy_range(flat: np.ndarray, n_cols: int, n_rows: int) -> None:
    """Refuse a packed copy store naming a column number outside
    [0, n_cols) or a row outside [0, n_rows)."""
    if not flat.size:
        return
    cols, rows = flat[0::2], flat[1::2]
    c_lo, c_hi, r_lo, r_hi = int(cols.min()), int(cols.max()), int(rows.min()), int(rows.max())
    if c_lo < 0 or c_hi >= n_cols:
        raise CircuitError(f"copy references column number {c_lo if c_lo < 0 else c_hi} outside the {n_cols} columns")
    if r_lo < 0 or r_hi >= n_rows:
        raise CircuitError(f"copy references row {r_lo if r_lo < 0 else r_hi} outside grid")


class Copies(Sequence):
    """Read-only sequence of CopyConstraint over a packed store.

    `flat` is an int32 array `[a_col, a_row, b_col, b_row, ...]` whose
    column numbers index `names`; any other sequence of integers is
    converted, and one that int32 cannot hold is refused as validate()
    would refuse it.  Indexing and iteration build CopyConstraint objects
    on demand; equality compares the resolved (column id, row) pairs.
    """

    __slots__ = ("flat", "names", "_list")
    __hash__ = None

    def __init__(self, flat, names: list[str]):
        flat = np.asarray(flat)
        if flat.dtype != np.int32:
            try:
                flat = flat.astype(np.int64)
            except OverflowError:
                raise CircuitError("copy references a number outside int32") from None
            if flat.size and not (_INT32.min <= flat.min() and flat.max() <= _INT32.max):
                check_copy_range(flat, len(names), _INT32.max)
            flat = flat.astype(np.int32)
        self.flat = flat
        self.names = names
        self._list = None

    def tolist(self) -> list[int]:
        """`flat` as one list of ints, built on first call and kept: a
        caller must not change it.  The witness and the checker walk a
        list several times faster than the array.  When the numbers are
        fewer than the copies, equal numbers share one int object."""
        if self._list is None:
            flat = self.flat
            top = int(flat.max(initial=0))
            if top < len(flat) and flat.min(initial=0) >= 0:
                self._list = np.arange(top + 1).astype(object)[flat].tolist()
            else:
                self._list = flat.tolist()
        return self._list

    @classmethod
    def pack(cls, copies, names: list[str]) -> "Copies":
        """Pack an iterable of CopyConstraint.  A column id missing from
        `names` is numbered after them, so validate() can name it."""
        names = list(names)
        number = {col_id: k for k, col_id in enumerate(names)}
        flat = []
        for cp in copies:
            for col_id, row in (cp.a, cp.b):
                k = number.get(col_id)
                if k is None:
                    k = number[col_id] = len(names)
                    names.append(col_id)
                flat += (k, row)
        return cls(np.array(flat, np.int64), names)

    def __len__(self) -> int:
        return len(self.flat) // 4

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        k = i + len(self) if i < 0 else i
        if not 0 <= k < len(self):
            raise IndexError("copy index out of range")
        ca, ra, cb, rb = self.flat[4 * k : 4 * k + 4].tolist()
        return CopyConstraint((self.names[ca], ra), (self.names[cb], rb))

    def __iter__(self):
        names = self.names
        it = iter(self.flat.tolist())
        for ca, ra, cb, rb in zip(it, it, it, it):
            yield CopyConstraint((names[ca], ra), (names[cb], rb))

    def __eq__(self, other):
        if not isinstance(other, Copies):
            return NotImplemented
        if self.names == other.names:
            return bool(np.array_equal(self.flat, other.flat))
        return len(self) == len(other) and all(map(CopyConstraint.__eq__, self, other))

    def __repr__(self) -> str:
        return f"Copies({len(self)} copies over {len(self.names)} columns)"


def fixed_values(vals) -> np.ndarray:
    """`vals` as a FixedColumn holds its values: int64 when every value
    fits it, object otherwise (a value of 2**63 or more, or None)."""
    try:
        return np.asarray(vals, np.int64)
    except (OverflowError, TypeError):
        return np.asarray(vals, object)


class FixedColumn(Sequence):
    """Read-only fixed column of `n_rows` cells held as its nonzero cells.

    `rows` is an int32 array of the rows that hold a nonzero cell, in
    increasing order, and `values` their values (`fixed_values`); every
    other row reads 0.  A cell is None (unassigned) only when a caller
    packs a list holding None; the layout file cannot say so.  Reading a
    cell, iterating and `dense` read one full-height list, built on first
    use with one scatter and kept.
    """

    __slots__ = ("rows", "values", "n_rows", "_dense")
    __hash__ = None

    def __init__(self, rows: np.ndarray, values: np.ndarray, n_rows: int):
        self.rows = rows
        self.values = values
        self.n_rows = n_rows
        self._dense = None

    @classmethod
    def pack(cls, vals) -> "FixedColumn":
        """The view of a full column: every cell that is not 0 is kept."""
        vals = fixed_values(list(vals))
        rows = np.flatnonzero(vals != 0)
        return cls(rows.astype(np.int32), fixed_values(vals[rows]), len(vals))

    def dense(self) -> list:
        """The column as one list of `n_rows` cells, built on first call
        and kept: a caller must not change it."""
        if self._dense is None:
            out = np.zeros(self.n_rows, self.values.dtype)
            out[self.rows] = self.values
            self._dense = out.tolist()
        return self._dense

    def nonzero_rows(self) -> list[int]:
        """The rows whose cell is truthy, in increasing order: for a
        selector, the rows it enables."""
        if self.values.dtype == object:
            return self.rows[self.values.astype(bool)].tolist()
        return self.rows.tolist()

    def tolist(self) -> list:
        return list(self.dense())

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, row: int):
        r = row + self.n_rows if row < 0 else row
        if not 0 <= r < self.n_rows:
            raise IndexError("fixed row out of range")
        return self.dense()[r]

    def __iter__(self):
        return iter(self.dense())

    def count(self, value) -> int:
        zeros = self.n_rows - len(self.rows) if value == 0 else 0
        return zeros + self.values.tolist().count(value)

    def __eq__(self, other):
        if not isinstance(other, FixedColumn):
            return NotImplemented
        return bool(
            self.n_rows == other.n_rows
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"FixedColumn({len(self.rows)} nonzero of {self.n_rows} rows)"


@dataclass
class Assignment:
    """Witness: advice column values plus the public instance vector.

    Unassigned cells are None; touching one from an enabled constraint is
    an error, not a violation.
    """

    advice: dict[str, list]
    instance: list

    def n_rows(self) -> int:
        return len(next(iter(self.advice.values()))) if self.advice else 0


@dataclass
class CircuitLayout:
    field: Field
    columns: dict[str, Column]
    n_rows: int  # padded grid height (power of two)
    n_rows_logical: int
    gates: list[GateDef]
    tables: dict[str, LookupTable]
    lookups: list[LookupArg]
    copies: Copies  # any iterable of CopyConstraint is packed on construction
    fixed: dict[str, FixedColumn]  # a full list of n_rows values is packed on construction
    instance_map: list[tuple[CellRef, int]]
    # Opaque witness-construction plan attached by the compiler; not part
    # of the serialized layout or of layout equality.
    plan: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = list(self.columns)
        if not (isinstance(self.copies, Copies) and self.copies.names == names):
            self.copies = Copies.pack(self.copies, names)
        self.fixed = {
            col_id: vals if isinstance(vals, FixedColumn) else FixedColumn.pack(vals)
            for col_id, vals in self.fixed.items()
        }

    def _is_fixed(self, col_id: str) -> bool:
        col = self.columns.get(col_id)
        return col is not None and col.kind == FIXED

    def validate(self) -> None:
        for col_id, col in self.columns.items():
            if col_id != col.id:
                raise CircuitError("column key/id mismatch")
        for col_id, vals in self.fixed.items():
            if not self._is_fixed(col_id):
                raise CircuitError(f"fixed values for non-fixed column {col_id}")
            if vals.n_rows != self.n_rows:
                raise CircuitError(f"fixed column {col_id} has {vals.n_rows} rows, the grid {self.n_rows}")
            rows = vals.rows
            if len(rows) != len(vals.values):
                raise CircuitError(f"fixed column {col_id} has {len(rows)} rows and {len(vals.values)} values")
            if rows.size and not (rows[0] >= 0 and rows[-1] < self.n_rows and (rows[1:] > rows[:-1]).all()):
                raise CircuitError(f"fixed column {col_id}: cells not in increasing rows inside the grid")
        for col_id, col in self.columns.items():
            if col.kind == FIXED and col_id not in self.fixed:
                raise CircuitError(f"fixed column {col_id} has no values")
        for g in self.gates:
            if not self._is_fixed(g.selector):
                raise CircuitError(f"gate {g.id}: selector must be a fixed column")
            for c in g.poly.columns():
                if c not in self.columns:
                    raise CircuitError(f"gate {g.id}: unknown column {c}")
        for lk in self.lookups:
            if lk.table not in self.tables:
                raise CircuitError(f"lookup {lk.id}: unknown table {lk.table}")
            if len(lk.columns) != self.tables[lk.table].arity:
                raise CircuitError(f"lookup {lk.id}: arity mismatch")
            for c in lk.columns:
                if c not in self.columns:
                    raise CircuitError(f"lookup {lk.id}: unknown column {c}")
            if not self._is_fixed(lk.selector):
                raise CircuitError(f"lookup {lk.id}: selector must be a fixed column")
        names = self.copies.names
        unknown = set(names) - self.columns.keys()
        if unknown:
            raise CircuitError(f"copy references unknown column {min(unknown)}")
        check_copy_range(self.copies.flat, len(names), self.n_rows)
        for (col_id, row), idx in self.instance_map:
            if col_id not in self.columns:
                raise CircuitError(f"instance binding references unknown column {col_id!r}")
            if not 0 <= row < self.n_rows:
                raise CircuitError(f"instance binding references row {row} outside grid")
            if idx < 0:
                raise CircuitError(f"instance binding has negative index {idx}")

    def max_gate_degree(self) -> int:
        # Selector contributes one to every gate's total degree.
        return max((1 + g.poly.degree() for g in self.gates), default=0)

    def resolve_column(self, col_id: str, assignment: Assignment) -> list:
        if self.columns[col_id].kind == FIXED:
            return self.fixed[col_id]
        return assignment.advice[col_id]

    def eval_gate(self, gate: GateDef, assignment: Assignment, row: int) -> FieldElement:
        """selector(row) * poly(row); skips poly evaluation when disabled."""
        if not 0 <= row < self.n_rows:
            raise CircuitError(f"row {row} outside grid of {self.n_rows}")
        p = self.field.modulus
        sel = self.fixed[gate.selector][row]
        if sel % p == 0:
            return self.field.zero()
        v = _eval_expr(gate.poly, self, assignment, row)
        return self.field.element(sel * v)

    def debug_dump(self) -> dict:
        return {
            "n_rows": self.n_rows,
            "n_rows_logical": self.n_rows_logical,
            "columns": [
                {"id": c.id, "kind": c.kind} for c in self.columns.values()
            ],
            "gates": [
                {"id": g.id, "name": g.name, "selector": g.selector, "poly": g.poly.to_sexpr()}
                for g in self.gates
            ],
            "tables": {t.id: {"recipe": list(t.recipe), "size": len(t.rows)} for t in self.tables.values()},
            "lookups": [
                {"id": l.id, "table": l.table, "columns": list(l.columns), "selector": l.selector}
                for l in self.lookups
            ],
            "n_copies": len(self.copies),
            "max_gate_degree": self.max_gate_degree(),
        }


def _eval_expr(e: Expr, layout: CircuitLayout, assignment: Assignment, row: int) -> int:
    p = layout.field.modulus
    if e.op == "const":
        return e.value % p
    if e.op == "cell":
        v = layout.resolve_column(e.col, assignment)[row]
        if v is None:
            raise CircuitError(f"unassigned cell ({e.col}, {row}) referenced")
        return v % p
    vals = [_eval_expr(a, layout, assignment, row) for a in e.args]
    if e.op == "add":
        return sum(vals) % p
    if e.op == "sub":
        return (vals[0] - sum(vals[1:])) % p
    if e.op == "mul":
        return prod(vals) % p
    if e.op == "pow5":
        return pow(vals[0], 5, p)
    raise CircuitError(f"bad expr op {e.op!r}")


# --- built-in gate families -------------------------------------------------

@dataclass(frozen=True)
class SlotColumns:
    """Column ids of one output slot of a gate group."""

    ws: tuple[str, ...]       # dot weights (advice or fixed, mode dependent)
    carry: str                # advice: running sum carried into the row
    out: str                  # advice: running sum after the row
    r: str                    # advice: division remainder
    q: str                    # advice: shifted quotient, the clip-table key
    act: str                  # advice: post-lookup activation


@dataclass(frozen=True)
class GateColumns:
    """Column ids one gate group operates on: the row-level cells every
    slot shares, and each slot's own."""

    xs: tuple[str, ...]       # advice: dot inputs, read by every slot
    z: str                    # fixed: dot zero point
    div_a: str                # fixed: numerator
    div_b: str                # fixed: divisor
    div_off: str              # fixed: table offset for negative domains
    q_dots: tuple[str, ...]   # fixed: q_dots[k-1] enables DOT_k in every slot
    q_div: str                # fixed: enables DIV in every slot
    slots: tuple[SlotColumns, ...]


def builtin_gates(cols: GateColumns, prefix: str = "") -> list[GateDef]:
    """The row-local gate families for linear layers, per output slot m:
    DOT_1 .. DOT_N over the same columns, then DIV, where N is the number
    of x lanes, len(cols.xs).

    DOT_k:  out_m = carry_m + sum_{j<k} (x_j - z) * w_{m,j}, z from a
            fixed cell so one gate serves every layer.  The x lanes are
            shared: the M slots of a row are M output channels that read
            the same input patch, each with its own weights.  A row with
            k taps enables DOT_k in every slot, so no gate reads lanes
            k..N-1 and they need no value.  Rows chain by copying one
            row's out_m into the next row's carry_m, so a k-tap sum takes
            ceil(k/N) rows and no reduction tree
    DIV:    out_m * a = (q_m - off) * b + r_m, on the chain's last row,
            pairing with the range lookup 0 <= r_m < b; q_m then holds
            floor(out_m*a/b) + off, which is exactly the shifted key of
            the clip table

    Gate names are DOT_k and DIV in every slot; slot m's ids are
    `{prefix}s{m}:dot{k}` and `{prefix}s{m}:div`.  The selectors are
    row-level, so every slot of an enabled row is constrained.

    This departs from the paper's scheme of DOT rows, an ADD tree and a
    separate DIV row: the sum and the division share rows, and the grid
    spends one row per N taps.
    """
    if len(cols.xs) < 2:
        raise CircuitError("gate width must be >= 2")
    diffs = [sub(cell(x), cell(cols.z)) for x in cols.xs]
    gates = []
    for m, slot in enumerate(cols.slots):
        terms = [mul(d, cell(w)) for d, w in zip(diffs, slot.ws)]
        gates += [
            GateDef(
                id=f"{prefix}s{m}:dot{k}", name=f"DOT_{k}", selector=cols.q_dots[k - 1],
                poly=sub(add(cell(slot.carry), *terms[:k]), cell(slot.out)),
            )
            for k in range(1, len(cols.xs) + 1)
        ]
        div_poly = sub(
            mul(cell(slot.out), cell(cols.div_a)),
            add(mul(sub(cell(slot.q), cell(cols.div_off)), cell(cols.div_b)), cell(slot.r)),
        )
        gates.append(GateDef(id=f"{prefix}s{m}:div", name="DIV", selector=cols.q_div, poly=div_poly))
    return gates
