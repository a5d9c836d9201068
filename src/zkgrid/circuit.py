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
iterates the `Copies` sequence.  Instance bindings are held packed the
same way (`Bindings`).

Cells are held as the cell codec of the files holds them (`int_cells`):
an int64 array in which each cell is its own value, signed, and the
mark MARK (-2**63) stands for the next of the column's few outliers, the
values int64 cannot hold (and -2**63 itself), kept apart as Python ints.
The prover hands its columns of signed values to `int_cells`, which
splits them with array operations over all of them at once.  The codec's
encoder, `encode_cell_columns`, is here too, so compile can encode once
the witness columns the model alone fixes.  A fixed column is a read-only
`FixedColumn` of the int32 rows of its nonzero cells in increasing order
and their cells, each its canonical signed residue r in (-p/2, p/2] when
compile or the layout loader made it; every other row reads 0.  A read
of single cells goes through one full-height list the column builds on
first read and keeps.
A witness column is an `AdviceColumn` of the form of its assigned cells
up to its last assigned row, in the prover's assignment and in a loaded
witness alike; a loaded column of 32-byte cells is all outliers.  An
`Assignment` packs a list column when it is constructed, and a value
that is not an int is refused.  `narrow_split` splits a list of ints
such as an instance vector into int64 and its few wide values, for
`int_cells` and the checker alike.  `signed_cells` is the one rule by
which a form's cells become canonical signed residues mod p in int64; an
outlier is left to the caller as a Python int.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .field import Field

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

    def degree(self, memo: dict | None = None) -> int:
        """The total degree.  `memo` keeps the degree of each node walked,
        by its id, so one memo shared by a walk of trees that share
        subtrees visits each distinct node once; it must not outlive the
        trees."""
        if self.op == "const":
            return 0
        if self.op == "cell":
            return 1
        memo = {} if memo is None else memo
        got = memo.get(id(self))
        if got is not None:
            return got
        if self.op in ("add", "sub"):
            got = max(a.degree(memo) for a in self.args)
        elif self.op == "mul":
            got = sum(a.degree(memo) for a in self.args)
        elif self.op == "pow5":
            got = 5 * self.args[0].degree(memo)
        else:
            raise CircuitError(f"bad expr op {self.op!r}")
        memo[id(self)] = got
        return got

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
# polynomials may hold written out as trees: walks of a tree recurse, and
# shared subtrees can name a tree exponentially larger.  These bounds, the
# operand counts below and the columns a gate reads are validate()'s; the
# layout writer and loader both call it.  Compiled gates nest at most 6 deep.
MAX_EXPR_DEPTH = 64
MAX_EXPR_NODES = 1 << 20
# The operand counts of the nodes that const, cell, add, mul, sub and pow5 build.
_MANY = range(2, 1 << 62)
_ARITY = {"const": range(1), "cell": range(1), "add": _MANY, "mul": _MANY, "sub": range(2, 3), "pow5": range(1, 2)}


# --- constraints ------------------------------------------------------------

CellRef = tuple[str, int]  # (column id, row)


@dataclass(frozen=True, slots=True)
class GateDef:
    id: str
    name: str
    selector: str  # fixed column id
    poly: Expr


def clip_offset(d_lo: int) -> int:
    """The shift from a clip table's quotients d >= d_lo to its keys."""
    return max(0, -d_lo)


def _offsets(keys: np.ndarray, lo, lo_bound: int, span: int, p: int) -> np.ndarray:
    """keys - lo, such that a key is lo + j mod p for a j in [0, span]
    exactly when its offset is that j.  `lo` is an int or an int64 array,
    at most `lo_bound` in magnitude.  In int64 when a bound on the
    magnitude of keys - lo proves it exact: then reduced mod p when p <
    2**63, and otherwise left as it is, which is then below p - span in
    magnitude, so a negative offset is no j.  Else reduced mod p on
    Python ints."""
    if keys.dtype != object and len(keys):
        bound = max(-int(keys.min()), int(keys.max())) + lo_bound
        if bound < 1 << 63 and (p < 1 << 63 or bound + span < p):
            d = keys - lo
            return d % p if p < 1 << 63 else d
    return (keys.astype(object) - lo) % p


@dataclass(frozen=True, slots=True)
class LookupTable:
    """The table a recipe describes on the field of modulus p, held as the
    recipe (`arithmetize.lookup_table` checks it): ("range", lo, hi) holds
    v mod p for each v in [lo, hi], and ("clip", a, b, z_out, d_lo, d_hi)
    maps each quotient d in [d_lo, d_hi], keyed d + clip_offset(d_lo), to
    clip(d + z_out, 0, 255).  No entry is built: `holds` tests keys
    against the recipe."""
    recipe: tuple
    id: str
    arity: int
    p: int

    def holds(self, keys: list) -> np.ndarray:
        """Whether each key is an entry.  `keys` holds one array per key
        column, int64 signed residues or Python ints.  A key is an entry
        when its first cell is k + j mod p for a j in [0, hi - lo], k the
        least key (lo, or d_lo + clip_offset(d_lo)), and for a clip table
        its act is clip(d_lo + j + z_out, 0, 255) mod p."""
        kind, *params = self.recipe
        p, lo, hi = self.p, *params[-2:]
        span = hi - lo
        base = (lo + clip_offset(lo) if kind == "clip" else lo) % p
        base = base - p if base > p // 2 else base
        at = _offsets(keys[0], base, abs(base), span, p)
        ok = (at >= 0) & (at <= span)
        if kind == "clip":
            # Over j in [0, span], a shift outside [-span - 1, 256] moves
            # no act, and the clamp keeps the sum in int64.
            shift = min(max(lo + params[2], -span - 1), 256)
            act = np.clip(np.where(ok, at, 0) + shift, 0, 255).astype(np.int64)
            ok &= _offsets(keys[1], act, 255, 0, p) == 0
        return ok

    @property
    def rows(self) -> frozenset:
        """Every entry, a tuple of canonical residues, enumerated on each
        read: for the tests' oracle and perfbench's count of entries."""
        kind, *params = self.recipe
        p, lo, hi = self.p, *params[-2:]
        if kind == "range":
            return frozenset((v % p,) for v in range(lo, hi + 1))
        off, z_out = clip_offset(lo), params[2]
        return frozenset(((d + off) % p, min(max(d + z_out, 0), 255) % p) for d in range(lo, hi + 1))


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

    __slots__ = ("flat", "names", "_sides")
    __hash__ = None

    def __init__(self, flat, names: list[str]):
        self._sides = None
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

    def sides(self) -> np.ndarray:
        """`flat` as four contiguous intp rows (a_col, a_row, b_col,
        b_row), which numpy gathers by faster than by strided int32 ones;
        worked out on first call and kept."""
        if self._sides is None:
            self._sides = np.ascontiguousarray(self.flat.reshape(-1, 4).T, np.intp)
        return self._sides

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


class Bindings(Sequence):
    """Read-only sequence of instance bindings over a packed store: an
    int64 array `flat` of `[column number, row, index, ...]` whose column
    numbers index `names`, read as ((column id, row), index) pairs;
    equality compares the pairs."""

    __slots__ = ("flat", "names")
    __hash__ = None

    def __init__(self, flat, names: list[str]):
        self.flat = np.asarray(flat, np.int64)
        self.names = names

    @classmethod
    def pack(cls, bindings, names: list[str]) -> "Bindings":
        """Pack ((column id, row), index) pairs.  A column id missing from
        `names` is numbered after them, so validate() can name it."""
        names = list(names)
        number = {col_id: k for k, col_id in enumerate(names)}
        flat = []
        for (col_id, row), idx in bindings:
            if col_id not in number:
                number[col_id] = len(names)
                names.append(col_id)
            flat += (number[col_id], row, idx)
        return cls(flat, names)

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __getitem__(self, i: int):
        k = i + len(self) if i < 0 else i
        if not 0 <= k < len(self):
            raise IndexError("binding index out of range")
        c, row, idx = self.flat[3 * k : 3 * k + 3].tolist()
        return (self.names[c], row), idx

    def __iter__(self):
        names = self.names
        it = iter(self.flat.tolist())
        for c, row, idx in zip(it, it, it):
            yield (names[c], row), idx

    def __eq__(self, other):
        if not isinstance(other, Bindings):
            return NotImplemented
        if self.names == other.names:
            return bool(np.array_equal(self.flat, other.flat))
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Bindings({len(self)} bindings)"


_BIG = 1 << 63
# The int64 cell that stands for the next of a column's outliers.
MARK = -_BIG
NO_OUTLIERS = np.zeros(0, object)


_EXACT = float(1 << 53)   # below this in magnitude an int's float is exact
# The types of the values a cell may hold: Python's and numpy's integers.
_INTS = frozenset({int, bool, np.bool_, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})


def narrow_split(values) -> tuple[np.ndarray, np.ndarray, list] | None:
    """A sequence of ints as int64, 0 at each value that int64 holds only
    as MARK or not at all (-2**63 and beyond), with the positions of those
    values and the values: one pass over the types and one float pass over
    all of them, and a few Python operations for each value of 2**53 or
    more in magnitude.  None when a value is None or too large for a
    float; a value that is neither an int nor None is refused with
    CircuitError."""
    if list(map(type, values)).count(int) != len(values) and not _INTS.issuperset(map(type, values)):
        for v in values:
            if v is not None and type(v) not in _INTS:
                raise CircuitError(f"value {v!r} is not an int")
        return None
    try:
        f = np.asarray(values, np.float64)
    except OverflowError:
        return None
    far = np.abs(f) >= _EXACT
    ints = np.where(far, 0.0, f).astype(np.int64)
    at, wide = [], []
    for i in np.flatnonzero(far).tolist():
        v = values[i]
        if MARK < v < _BIG:
            ints[i] = v
        else:
            at.append(i)
            wide.append(v)
    return ints, np.array(at, np.int64), wide


def int_cells(columns: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each column of integers as the cell codec holds it: int64 cells and
    an object array of outliers.  A cell is its own value, but MARK, which
    stands for the next outlier; the outliers are the values int64 holds
    only as MARK or not at all (-2**63 and beyond).  An integer array is
    its own cells.  Object arrays, such as the prover's columns, are taken
    to hold ints and cast to int64 in one pass over all of them; those
    int64 cannot hold are split by `_wide_split`.  Any other sequence (a
    caller's list, an instance vector) is checked and split by
    `narrow_split`, with Python work only on its wide values, or by
    `_wide_split` when most of them are wide.  An unassigned cell (None)
    makes its whole column outliers, and a value of a sequence that is not
    an int is refused with CircuitError."""
    out: list = [None] * len(columns)
    cast, wide = [], []
    for k, vals in enumerate(columns):
        if isinstance(vals, np.ndarray):
            if vals.dtype == object:
                cast.append(k)
            else:
                out[k] = _marked(np.asarray(vals, np.int64))
            continue
        split = narrow_split(vals)
        if split is None or 2 * len(split[2]) > len(split[0]):
            wide.append(k)
        else:
            ints, at, outliers = split
            ints[at] = MARK
            out[k] = ints, np.array(outliers, object) if outliers else NO_OUTLIERS
    if cast:
        try:
            joined = np.concatenate([columns[k] for k in cast]).astype(np.int64)
        except (OverflowError, TypeError):   # a value int64 cannot hold, or None
            joined = None
        if joined is not None and not (joined == MARK).any():
            ends = np.cumsum([len(columns[k]) for k in cast])[:-1]
            for k, ints in zip(cast, np.split(joined, ends)):
                out[k] = ints, NO_OUTLIERS
        else:   # column by column
            for k in cast:
                try:
                    out[k] = _marked(columns[k].astype(np.int64))
                except (OverflowError, TypeError):
                    wide.append(k)
    if wide:
        for k, form in zip(wide, _wide_split([np.asarray(columns[k], object) for k in wide])):
            out[k] = form
    return out


def _marked(ints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The form of an int64 array: each cell of -2**63 is MARK, standing
    for the outlier -2**63."""
    n = int(np.count_nonzero(ints == MARK))
    return ints, np.full(n, MARK, object) if n else NO_OUTLIERS


def _wide_split(objs: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """int_cells of object arrays of ints or None: one array pass over all
    of them, or, when one holds None, over each alone; a column holding
    None is all outliers."""
    allv = np.concatenate(objs)
    try:
        inside = (allv > MARK) & (allv < _BIG)
    except TypeError:   # None
        if len(objs) > 1:
            return [form for o in objs for form in _wide_split([o])]
        return [(np.full(len(allv), MARK), allv)]
    cells = np.full(len(allv), MARK)
    cells[inside] = allv[inside]
    out, at = [], 0
    for n in map(len, objs):
        ins = inside[at : at + n]
        out.append((cells[at : at + n], allv[at : at + n][~ins] if not ins.all() else NO_OUTLIERS))
        at += n
    return out


def cell_values(cells: np.ndarray, outliers: np.ndarray) -> np.ndarray:
    """The values int_cells' (cells, outliers) stand for: the cells when
    there is no outlier, else an object array of Python ints."""
    if len(outliers) == len(cells) and len(cells):
        return outliers
    if not len(outliers):
        return cells
    vals = cells.astype(object)
    vals[cells == MARK] = outliers
    return vals


def cell_value(cells: np.ndarray, outliers: np.ndarray, k: int):
    """The value of int_cells' cell number k: the outlier k when every
    cell is an outlier."""
    if len(outliers) == len(cells):
        return outliers[k]
    c = int(cells[k])
    if c == MARK:
        return outliers[int(np.count_nonzero(cells[:k] == MARK))]
    return c


# The cell codec's framing (the `serialize` module docstring): a cell
# column's length and assigned cells, and its outlier count.
CELL_COUNTS = struct.Struct("<II")
CELL_COUNT = struct.Struct("<I")
_WIDTHS = np.array([1, 2, 4, 8])
_TOP = 1 << 255
_MASK = (1 << 256) - 1     # an int & _MASK is its 256-bit two's complement


def encode_cell_columns(columns: list) -> list[bytes]:
    """The cell column of each (form, length, bitmap), where form is its
    assigned cells as `int_cells` holds them and bitmap its presence
    bitmap (b"" when every row is assigned), at the width the `serialize`
    module docstring gives.  The widths of all columns are found in one
    array pass over their cells.  CircuitError for a value outside
    [-2**255, 2**255), the values 32 signed bytes hold."""
    out = [CELL_COUNTS.pack(length, 0) + b"\x01" + bitmap + CELL_COUNT.pack(0) for _, length, bitmap in columns]
    full = [k for k, (form, _, _) in enumerate(columns) if len(form[0])]
    if not full:
        return out
    lens = np.array([len(columns[k][0][0]) for k in full])
    starts = np.cumsum(lens) - lens
    cells = np.concatenate([columns[k][0][0] for k in full])
    # Per column, the cells outside each width: a cell c is outside w
    # bytes when |c| >= 2**(8w - 1), and a mark, whose magnitude int64
    # cannot hold, outside all of them.
    marks = np.add.reduceat(cells == MARK, starts)
    size = np.abs(cells)
    outside = np.stack([np.add.reduceat(size >= 1 << (8 * w - 1), starts) + marks for w in (1, 2, 4)] + [marks])
    # Each column's cheapest width, the narrowest of equals, and its cost.
    costs = _WIDTHS[:, None] * lens + 32 * outside
    pick = np.argmin(costs, axis=0)
    widths, listed_counts = _WIDTHS[pick].tolist(), outside[pick, np.arange(len(full))].tolist()
    cheapest = costs[pick, np.arange(len(full))].tolist()
    bufs = {}
    for j, (k, s, n) in enumerate(zip(full, starts.tolist(), lens.tolist())):
        (col, outliers), length, bitmap = columns[k]
        head = CELL_COUNTS.pack(length, n)
        if 32 * n < cheapest[j]:
            out[k] = b"".join((head, b"\x20", bitmap, _wide_bytes(cell_values(col, outliers).tolist())))
            continue
        w, listed = widths[j], []
        if listed_counts[j]:
            half = 1 << (8 * w - 1)
            far = (col > half - 1) | (col < 1 - half)
            listed = cell_values(col, outliers)[far].tolist()
            body = np.where(far, -half, col).astype(f"<i{w}").tobytes()
        else:
            if w not in bufs:
                bufs[w] = cells.astype(f"<i{w}").tobytes()
            body = bufs[w][s * w : (s + n) * w]
        out[k] = b"".join((head, bytes((w,)), bitmap, body, CELL_COUNT.pack(len(listed)), _wide_bytes(listed)))
    return out


def _wide_bytes(vals: list) -> bytes:
    """vals as 32-byte little-endian signed integers; CircuitError for one
    outside [-2**255, 2**255)."""
    try:
        ok = not vals or (-_TOP <= min(vals) and max(vals) < _TOP)
    except TypeError:   # an unassigned value
        ok = False
    if not ok:
        bad = next(v for v in vals if type(v) is not int or not -_TOP <= v < _TOP)
        raise CircuitError(f"cell value {bad} outside [-2**255, 2**255)")
    return b"".join(map(int.to_bytes, map(_MASK.__and__, vals), repeat(32), repeat("little")))


def signed_cells(forms: list, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """The canonical signed residue mod p, v - p when v mod p > p // 2 and
    v mod p otherwise, of each cell of the int_cells forms (cells,
    outliers), in int64: one array of all of them, form after form; each
    form's offset into it; which cells hold their residue (every cell but
    MARK, whose int64 is arbitrary); and per form the greatest magnitude
    of its residues, or None when it has an outlier.  A few array
    operations over all the cells: np.mod when p < 2**63; when p // 2 <
    2**63 <= p a cell is at most one p from its residue, which int64's
    wrapping sum with p (as an int64) reaches exactly; and when p >= 2**64
    every cell is its own residue."""
    lens = np.array([len(c) for c, _ in forms], np.int64)
    starts = np.cumsum(lens) - lens
    cells = np.concatenate([c for c, _ in forms]) if forms else np.zeros(0, np.int64)
    held = cells != MARK
    half = p // 2
    if p < _BIG:
        signed = np.mod(cells, p)
        signed = np.where(signed > half, signed - p, signed)
    elif half < _BIG:
        wrap = np.int64(p - (1 << 64))
        signed = np.where(cells > half, cells - wrap, np.where(cells < -half, cells + wrap, cells))
    else:
        signed = cells
    bounds = [0] * len(forms)
    full = np.flatnonzero(lens)
    if len(full):
        at = starts[full]
        mags = np.maximum(np.maximum.reduceat(signed, at), -np.minimum.reduceat(signed, at))
        for j, ok, mag in zip(full.tolist(), np.logical_and.reduceat(held, at).tolist(), mags.tolist()):
            bounds[j] = mag if ok else None
    return signed, starts, held, bounds


class FixedColumn(Sequence):
    """Read-only fixed column of `n_rows` cells held as its nonzero cells.

    `rows` is an int32 array of the rows that hold a nonzero cell, in
    increasing order, and `cells` and `outliers` their values as
    `int_cells` holds them; every other row reads 0.  Compile and the
    layout loader give each value as its canonical signed residue, the
    only value a layout file holds.  `values` is the values as one array,
    int64 when they fit it and object otherwise.  A cell is None
    (unassigned) only when a caller packs a list holding None; the layout
    file cannot say so.  Reading a cell, iterating and `dense` read one
    full-height list, built on first use with one scatter and kept.
    """

    __slots__ = ("rows", "cells", "outliers", "n_rows", "_dense", "_signed", "_enabled")
    __hash__ = None

    def __init__(self, rows: np.ndarray, values, n_rows: int):
        self._set(rows, *int_cells([values])[0], n_rows)

    def _set(self, rows, cells, outliers, n_rows) -> None:
        self.rows = rows
        self.cells = cells
        self.outliers = outliers
        self.n_rows = n_rows
        self._dense = None
        self._signed = None
        self._enabled = None

    @classmethod
    def from_cells(cls, rows: np.ndarray, form: tuple, n_rows: int) -> "FixedColumn":
        """The column of the nonzero cells `rows` whose values int_cells'
        (cells, outliers) `form` holds."""
        col = cls.__new__(cls)
        col._set(rows, *form, n_rows)
        return col

    @classmethod
    def pack(cls, vals) -> "FixedColumn":
        """The view of a full column: every cell that is not 0 is kept."""
        vals = np.asarray(list(vals), object)
        rows = np.flatnonzero(vals != 0)
        return cls(rows.astype(np.int32), vals[rows].tolist(), len(vals))

    @property
    def values(self) -> np.ndarray:
        return cell_values(self.cells, self.outliers)

    @staticmethod
    def signed(columns: list, p: int) -> list[tuple]:
        """Each column's cells as the checker reads them, full height (0
        on rows that hold no cell): the values as gates read them, int64
        canonical signed residues with the greatest magnitude of them, or
        an object array of the values with bound None; which rows are
        assigned, None for all of them; and every row's residue as int64
        with the rows that do not hold it (`signed_cells`), None for none.
        Worked out for the columns that do not keep them for p yet, with
        one `signed_cells` pass, and kept."""
        todo = [col for col in columns if col._signed is None or col._signed[0] != p]
        if todo:
            signed, starts, held, bounds = signed_cells([(c.cells, c.outliers) for c in todo], p)
            for col, s, bound in zip(todo, starts.tolist(), bounds):
                ints = np.zeros(col.n_rows, np.int64)
                ints[col.rows] = signed[s : s + len(col.cells)]
                cells, present, wide = ints, None, None
                if bound is None:
                    wide = np.zeros(col.n_rows, bool)
                    wide[col.rows] = ~held[s : s + len(col.cells)]
                    vals = cell_values(col.cells, col.outliers)
                    unset = np.equal(vals, None)
                    if unset.any():   # a packed None
                        present = np.ones(col.n_rows, bool)
                        present[col.rows[unset]] = False
                        vals = np.where(unset, 0, vals)
                    cells = np.zeros(col.n_rows, object)
                    cells[col.rows] = vals
                col._signed = p, (cells, bound, present, ints, wide)
        return [col._signed[1] for col in columns]

    def dense(self) -> list:
        """The column as one list of `n_rows` cells, built on first call
        and kept: a caller must not change it."""
        if self._dense is None:
            values = self.values
            out = np.zeros(self.n_rows, values.dtype)
            out[self.rows] = values
            self._dense = out.tolist()
        return self._dense

    def enabled_rows(self) -> np.ndarray:
        """The rows whose cell is truthy, in increasing order: for a
        selector, the rows it enables.  Kept after the first call."""
        if self._enabled is None:
            if len(self.outliers):
                self._enabled = self.rows[self.values.astype(bool)]
            else:
                self._enabled = self.rows if self.cells.all() else self.rows[self.cells != 0]
        return self._enabled

    def nonzero_rows(self) -> list[int]:
        return self.enabled_rows().tolist()

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


class AdviceColumn(Sequence):
    """An advice column of `n_rows` cells held as its assigned cells, the
    form of a witness column for the prover and the loader alike.

    The first `length` rows may be assigned, those `present` marks (a bool
    array of `length`, or None when all of them are), and every later row
    is unassigned.  `cells` and `outliers` hold the assigned cells' values
    in row order as `int_cells` does: the prover's values as it gave them,
    small ones signed, and a loaded column's as the file gives them; a
    loaded column of 32-byte cells (the sponge states) is all outliers.
    The column reads as a sequence of Python ints and None (unassigned),
    compares equal to a list of the same cells, and takes
    `column[row] = value`, which rebuilds its arrays.  A column may carry
    its cell column bytes (`encode_cell_columns`), as the prover's columns
    that the model alone fixes do; they hold while the column keeps the
    arrays and length it was built with, so `column[row] = value`, which
    rebuilds them, drops the bytes.
    """

    __slots__ = ("n_rows", "length", "present", "cells", "outliers", "_encoded")
    __hash__ = None

    def __init__(self, n_rows: int, length: int, present: np.ndarray | None, form: tuple,
                 encoded: bytes | None = None):
        self.n_rows = n_rows
        self.length = length
        self.present = present
        self.cells, self.outliers = form
        self._encoded = None if encoded is None else (*form, present, length, encoded)

    def encoded(self) -> bytes | None:
        """The cell column bytes the column was built with, or None when it
        was built without them or no longer holds the same arrays (by
        identity) and length."""
        e = self._encoded
        if e is None:
            return None
        if e[0] is not self.cells or e[1] is not self.outliers or e[2] is not self.present:
            return None
        return e[4] if e[3] == self.length else None

    @property
    def values(self) -> np.ndarray:
        """The assigned cells' values in row order, as `cell_values` gives
        them."""
        return cell_values(self.cells, self.outliers)

    @classmethod
    def of_list(cls, vals) -> "AdviceColumn":
        """The column of a sequence of cells, None for an unassigned one,
        at its used length."""
        vals = np.array(list(vals), object)
        assigned = np.not_equal(vals, None)
        n = int(np.count_nonzero(assigned))
        length = len(vals) - int(assigned[::-1].argmax()) if n else 0
        [form] = int_cells([vals[assigned].tolist()])
        return cls(len(vals), length, None if n == length else assigned[:length], form)

    def tolist(self) -> list:
        out = np.full(self.n_rows, None, object)
        vals = self.values
        if self.present is None:
            out[: self.length] = vals
        else:
            out[: self.length][self.present] = vals
        return out.tolist()

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, row: int):
        r = row + self.n_rows if row < 0 else row
        if not 0 <= r < self.n_rows:
            raise IndexError("advice row out of range")
        if r >= self.length:
            return None
        if self.present is not None:
            if not self.present[r]:
                return None
            r = int(np.count_nonzero(self.present[:r]))
        return cell_value(self.cells, self.outliers, r)

    def __setitem__(self, row: int, value) -> None:
        vals = self.tolist()
        vals[row] = value
        new = AdviceColumn.of_list(vals)
        self.length, self.present, self.cells, self.outliers = new.length, new.present, new.cells, new.outliers

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other):
        if isinstance(other, (AdviceColumn, list)):
            return self.tolist() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"AdviceColumn({self.length} of {self.n_rows} rows)"


@dataclass
class Assignment:
    """Witness: advice columns plus the public instance vector.

    Unassigned cells are None; touching one from an enabled constraint is
    an error, not a violation.
    """

    advice: dict[str, AdviceColumn]  # a list of cells is packed on construction
    instance: list

    def __post_init__(self):
        self.advice = {
            col_id: vals if isinstance(vals, AdviceColumn) else AdviceColumn.of_list(vals)
            for col_id, vals in self.advice.items()
        }

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
    instance_map: Bindings  # any iterable of ((column id, row), index) is packed on construction
    # Opaque witness-construction plan attached by the compiler; not part
    # of the serialized layout or of layout equality.
    plan: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        names = list(self.columns)
        if not (isinstance(self.copies, Copies) and self.copies.names == names):
            self.copies = Copies.pack(self.copies, names)
        if not (isinstance(self.instance_map, Bindings) and self.instance_map.names == names):
            self.instance_map = Bindings.pack(self.instance_map, names)
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
            if len(rows) != len(vals.cells):
                raise CircuitError(f"fixed column {col_id} has {len(rows)} rows and {len(vals.cells)} values")
            if rows.size and not (rows[0] >= 0 and rows[-1] < self.n_rows and (rows[1:] > rows[:-1]).all()):
                raise CircuitError(f"fixed column {col_id}: cells not in increasing rows inside the grid")
        for col_id, col in self.columns.items():
            if col.kind == FIXED and col_id not in self.fixed:
                raise CircuitError(f"fixed column {col_id} has no values")
        # One walk per distinct gate node, by identity, keeps its height and
        # size written out; an operator at MAX_EXPR_DEPTH is refused unwalked.
        seen: dict[int, tuple[int, int]] = {}
        columns = self.columns

        def walk(e: Expr, depth: int) -> tuple[int, int]:
            got = seen.get(id(e))
            if got is None:
                if len(e.args) not in _ARITY.get(e.op, ()):
                    raise CircuitError(f"gate {g.id}: no builder makes {e.op!r} of {len(e.args)} operands")
                if e.op == "cell" and e.col not in columns:
                    raise CircuitError(f"gate {g.id}: unknown column {e.col}")
                height = size = 0
                for a in e.args if depth < MAX_EXPR_DEPTH else ():
                    h, s = walk(a, depth + 1)
                    height, size = h if h > height else height, size + s
                got = seen[id(e)] = (height + 1, size + 1) if e.args else (0, 1)
            if depth + got[0] > MAX_EXPR_DEPTH:
                raise CircuitError(f"gate {g.id} nests over {MAX_EXPR_DEPTH} operators deep")
            return got

        total = 0
        for g in self.gates:
            if not self._is_fixed(g.selector):
                raise CircuitError(f"gate {g.id}: selector must be a fixed column")
            total += walk(g.poly, 0)[1]
            if total > MAX_EXPR_NODES:
                raise CircuitError(f"gate polynomials of over {MAX_EXPR_NODES} nodes written out as trees")
        for lk in self.lookups:
            if lk.table not in self.tables:
                raise CircuitError(f"lookup {lk.id}: unknown table {lk.table}")
            if len(lk.columns) != self.tables[lk.table].arity:
                raise CircuitError(f"lookup {lk.id}: arity mismatch")
            if self.tables[lk.table].p != self.field.modulus:
                raise CircuitError(f"lookup {lk.id}: table {lk.table} is on another field")
            for c in lk.columns:
                if c not in self.columns:
                    raise CircuitError(f"lookup {lk.id}: unknown column {c}")
            if not self._is_fixed(lk.selector):
                raise CircuitError(f"lookup {lk.id}: selector must be a fixed column")
        names = self.copies.names
        if names != list(self.columns):
            unknown = set(names) - self.columns.keys()
            raise CircuitError(f"copy references unknown column {min(unknown)}" if unknown
                               else "copies do not number the layout's columns")
        check_copy_range(self.copies.flat, len(names), self.n_rows)
        bound = self.instance_map.flat
        cols, rows, idx = bound[0::3], bound[1::3], bound[2::3]
        n_names = len(self.instance_map.names)
        numbered = (cols < 0) | (cols >= n_names)
        if numbered.any():
            raise CircuitError(f"instance binding references column number {cols[np.argmax(numbered)]}"
                               f" outside the {n_names} columns")
        bad = (cols >= len(self.columns)) | (rows < 0) | (rows >= self.n_rows) | (idx < 0)
        if bad.any():
            (col_id, row), idx = self.instance_map[int(np.argmax(bad))]
            if col_id not in self.columns:
                raise CircuitError(f"instance binding references unknown column {col_id!r}")
            if not 0 <= row < self.n_rows:
                raise CircuitError(f"instance binding references row {row} outside grid")
            raise CircuitError(f"instance binding has negative index {idx}")

    def max_gate_degree(self) -> int:
        # Selector contributes one to every gate's total degree.  The gates
        # share subtrees, so one memo walks each distinct node once.
        memo: dict[int, int] = {}
        return max((1 + g.poly.degree(memo) for g in self.gates), default=0)

    def resolve_column(self, col_id: str, assignment: Assignment) -> list:
        if self.columns[col_id].kind == FIXED:
            return self.fixed[col_id]
        return assignment.advice[col_id]

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
            "tables": {
                t.id: {"recipe": list(t.recipe), "size": min(t.recipe[-1] - t.recipe[-2] + 1, t.p)}
                for t in self.tables.values()
            },
            "lookups": [
                {"id": l.id, "table": l.table, "columns": list(l.columns), "selector": l.selector}
                for l in self.lookups
            ],
            "n_copies": len(self.copies),
            "max_gate_degree": self.max_gate_degree(),
        }


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
