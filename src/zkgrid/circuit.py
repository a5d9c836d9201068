"""Plonkish-style constraint grid: columns, row-local polynomial gates
gated by selectors, lookup arguments, and copy (equality) constraints.

Gate polynomials are expression trees over same-row cells and constants.
A gate is satisfied on a row when selector * polynomial == 0 there.

Copies are held packed: one flat integer list `[a_col, a_row, b_col,
b_row, ...]` whose column numbers index the layout's columns in
insertion order, which is also how the layout file writes them.  The
compiler appends to that list, the file loader hands it over once its
types are checked, and the checker walks it directly; `CopyConstraint`
objects are built only when a caller indexes or iterates the `Copies`
sequence.

Fixed columns are held sparse in the same way: each is a read-only
`FixedColumn` over its nonzero cells, in increasing row order, which is
also how the layout file writes them.  Every other row reads 0.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress, repeat

from .field import Field, FieldElement

ADVICE = "advice"
FIXED = "fixed"
INSTANCE = "instance"

# The tallest grid compile builds and the file loaders accept, and the most
# cells its advice columns, or its fixed columns, may hold: a file header
# cannot ask for more memory than such a grid takes.
MAX_ROWS = 1 << 20
MAX_CELLS = 1 << 25
# The most entries compile puts in one lookup table.
LOOKUP_CAP = 1 << 20


class CircuitError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Column:
    id: str
    kind: str

    def __post_init__(self):
        if self.kind not in (ADVICE, FIXED, INSTANCE):
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


MAX_EXPR_DEPTH = 64  # compiled gates nest at most 6 deep


_SEXPR_OPS = {"+": "add", "-": "sub", "*": "mul", "pow5": "pow5"}


def parse_sexpr(text: str, built: dict | None = None) -> Expr:
    """Inverse of Expr.to_sexpr, used by the layout file loader.  Any
    malformed text raises CircuitError, as does nesting deeper than
    MAX_EXPR_DEPTH, which every later recursive walk of the tree could
    not handle.

    One loop over the tokens: `open_nodes` holds the (op, args) of each
    operator node begun and not yet closed, so its length is the depth
    of the next node.  Equal subtrees are built once: `built` maps a
    leaf's token, or an operator node's op and the ids of its (already
    shared) operands, to its node.  Pass one `built` dict to the calls
    for a whole layout and its gates share their common subtrees, as
    compiled gates do."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if built is None:
        built = {}
    open_nodes: list[tuple[str, list]] = []
    it = iter(tokens)
    for tok in it:
        if tok == ")" and open_nodes:
            op, args = open_nodes.pop()
            key = (op, *map(id, args))
            node = built.get(key)
            if node is None:
                node = built[key] = Expr(op, args=tuple(args))
        elif len(open_nodes) > MAX_EXPR_DEPTH:
            raise CircuitError("s-expression nests too deeply")
        elif tok == "(":
            head = next(it, None)
            if head == "col":
                col_id, close = next(it, None), next(it, None)
                if close is None:
                    raise CircuitError("malformed s-expression: unexpected end")
                if close != ")":
                    raise CircuitError("malformed s-expression: unterminated col")
                node = built.get(("col", col_id))
                if node is None:
                    node = built["col", col_id] = Expr("cell", col=col_id)
            elif head is None:
                raise CircuitError("malformed s-expression: unexpected end")
            elif head in _SEXPR_OPS:
                open_nodes.append((_SEXPR_OPS[head], []))
                continue
            else:
                raise CircuitError(f"unknown s-expression head {head!r}")
        else:
            node = built.get(tok)
            if node is None:
                try:
                    node = built[tok] = Expr("const", value=int(tok))
                except ValueError:
                    raise CircuitError(f"malformed s-expression: bad constant {tok!r}") from None
        if not open_nodes:
            if next(it, None) is not None:
                raise CircuitError("trailing tokens in s-expression")
            return node
        open_nodes[-1][1].append(node)
    raise CircuitError("malformed s-expression: unexpected end")


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
    id: str
    arity: int
    rows: frozenset  # of tuples of canonical field ints

    def __post_init__(self):
        if self.arity < 1:
            raise CircuitError("lookup table arity must be >= 1")
        if not set(map(len, self.rows)) <= {self.arity}:
            raise CircuitError(f"table {self.id}: tuple arity mismatch")


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


class Copies(Sequence):
    """Read-only sequence of CopyConstraint over a packed store.

    `flat` is `[a_col, a_row, b_col, b_row, ...]` and its column numbers
    index `names`.  Indexing and iteration build CopyConstraint objects
    on demand; equality compares the resolved (column id, row) pairs.
    """

    __slots__ = ("flat", "names")
    __hash__ = None

    def __init__(self, flat: list[int], names: list[str]):
        self.flat = flat
        self.names = names

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
        return cls(flat, names)

    def __len__(self) -> int:
        return len(self.flat) // 4

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        k = i + len(self) if i < 0 else i
        if not 0 <= k < len(self):
            raise IndexError("copy index out of range")
        ca, ra, cb, rb = self.flat[4 * k : 4 * k + 4]
        return CopyConstraint((self.names[ca], ra), (self.names[cb], rb))

    def __iter__(self):
        names = self.names
        it = iter(self.flat)
        for ca, ra, cb, rb in zip(it, it, it, it):
            yield CopyConstraint((names[ca], ra), (names[cb], rb))

    def __eq__(self, other):
        if not isinstance(other, Copies):
            return NotImplemented
        if self.names == other.names:
            return self.flat == other.flat
        return len(self) == len(other) and all(map(CopyConstraint.__eq__, self, other))

    def __repr__(self) -> str:
        return f"Copies({len(self)} copies over {len(self.names)} columns)"


class FixedColumn(Sequence):
    """Read-only fixed column of `n_rows` cells held as its nonzero cells.

    `cells` maps row to value in increasing row order and lists no zero
    cell; every other row reads 0.  A cell is None (unassigned) only when
    a caller packs a list holding None; the layout file cannot say so.
    """

    __slots__ = ("cells", "n_rows")
    __hash__ = None

    def __init__(self, cells: dict[int, int], n_rows: int):
        self.cells = cells
        self.n_rows = n_rows

    @classmethod
    def pack(cls, vals) -> "FixedColumn":
        """The view of a full column: every cell that is not 0 is kept."""
        vals = list(vals)
        return cls({row: v for row, v in enumerate(vals) if v != 0}, len(vals))

    def nonzero_rows(self) -> list[int]:
        """The rows whose cell is truthy, in increasing order: for a
        selector, the rows it enables."""
        return list(compress(self.cells, self.cells.values()))

    def tolist(self) -> list:
        out = [0] * self.n_rows
        for row, v in self.cells.items():
            out[row] = v
        return out

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, row: int):
        r = row + self.n_rows if row < 0 else row
        if not 0 <= r < self.n_rows:
            raise IndexError("fixed row out of range")
        return self.cells.get(r, 0)

    def __iter__(self):
        return map(self.cells.get, range(self.n_rows), repeat(0))

    def count(self, value) -> int:
        zeros = self.n_rows - len(self.cells) if value == 0 else 0
        return zeros + list(self.cells.values()).count(value)

    def __eq__(self, other):
        if not isinstance(other, FixedColumn):
            return NotImplemented
        return self.n_rows == other.n_rows and self.cells == other.cells

    def __repr__(self) -> str:
        return f"FixedColumn({len(self.cells)} nonzero of {self.n_rows} rows)"


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
            rows = list(vals.cells)   # distinct, as dict keys
            if rows and not (0 <= rows[0] and rows[-1] < self.n_rows and rows == sorted(rows)):
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
        flat = self.copies.flat
        # Three passes when every copy is in range; only a bad one pays
        # for finding which number to name.
        if flat and not (min(flat) >= 0 and max(flat[0::2]) < len(names) and max(flat[1::2]) < self.n_rows):
            cols, rows = flat[0::2], flat[1::2]
            if not (0 <= min(cols) and max(cols) < len(names)):
                bad = min(cols) if min(cols) < 0 else max(cols)
                raise CircuitError(f"copy references column number {bad} outside the {len(names)} columns")
            bad = min(rows) if min(rows) < 0 else max(rows)
            raise CircuitError(f"copy references row {bad} outside grid")
        bindable = {col_id for col_id, col in self.columns.items() if col.kind != INSTANCE}
        for (col_id, row), idx in self.instance_map:
            if col_id not in bindable:
                raise CircuitError(f"instance binding to {col_id!r}: not an advice or fixed column")
            if not 0 <= row < self.n_rows:
                raise CircuitError(f"instance binding references row {row} outside grid")
            if idx < 0:
                raise CircuitError(f"instance binding has negative index {idx}")

    def max_gate_degree(self) -> int:
        # Selector contributes one to every gate's total degree.
        return max((1 + g.poly.degree() for g in self.gates), default=0)

    def resolve_column(self, col_id: str, assignment: Assignment) -> list:
        col = self.columns[col_id]
        if col.kind == FIXED:
            return self.fixed[col_id]
        if col.kind == ADVICE:
            return assignment.advice[col_id]
        vals = list(assignment.instance) + [0] * (self.n_rows - len(assignment.instance))
        return vals

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
            "tables": {t.id: {"arity": t.arity, "size": len(t.rows)} for t in self.tables.values()},
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
    if e.op == "add":
        out = 0
        for a in e.args:
            out = (out + _eval_expr(a, layout, assignment, row)) % p
        return out
    if e.op == "sub":
        out = _eval_expr(e.args[0], layout, assignment, row)
        for a in e.args[1:]:
            out = (out - _eval_expr(a, layout, assignment, row)) % p
        return out
    if e.op == "mul":
        out = 1
        for a in e.args:
            out = out * _eval_expr(a, layout, assignment, row) % p
        return out
    if e.op == "pow5":
        v = _eval_expr(e.args[0], layout, assignment, row)
        return pow(v, 5, p)
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
