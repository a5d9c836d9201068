"""Binary on-disk formats: layouts (version 6) and witnesses (version 4).

Both formats write integers little-endian and share one cell codec (a
"cell column" of L rows): L and the number N <= L of assigned cells (two
`<I`), a form byte whose low 7 bits are the width w in {1, 2, 4, 8, 32}
and whose top bit says a 32-byte base B follows (else B = 0), then, only
when N < L, a presence bitmap of ceil(L / 8) bytes whose bit r (bit
r % 8 of byte r // 8) is set when row r is assigned, then the N assigned
cells in row order, w bytes each.  Unassigned cells cost their bit and
nothing else.  For w = 32 (no base) a cell is its value as a 32-byte
unsigned integer.  For w <= 8 a cell is a signed integer d: the value d
when d >= 0, B + d when d < 0, and the most negative w-byte integer, the
outlier mark, stands for the next value of an outlier list that follows
the cells: a count K (`<I`) and K 32-byte unsigned values.

The writer sets B one above the column's largest value >= 2**63 (none
when there is no such value) and writes each value below 2**63 as
itself and each other value v as v - B, so residues p - x of small
negatives x take a few bytes without the codec knowing p; a value whose
d is the mark or does not fit in w bytes is an outlier.  It picks the w
that minimises N * w plus 32 bytes for each outlier and for the base
(w = 32 takes neither), the narrowest of equals, so a few stray big
values no longer widen their column.  Every cell in [0, 2**255) round
trips exactly.  The loader refuses a bitmap with a bit set at or past L,
one whose bit L - 1 is clear (L is one past the last assigned row), N
other than the bits set, a mark count other than K and a value (cell or
outlier) of 2**255 or more.

Layout: `ZKLY`, then version and header length (`<II`), then the header,
a JSON object: modulus (a decimal string), n_rows, n_rows_logical,
columns, nodes, gates (each `poly` the index of its root node), lookups,
tables as their recipes, from which `arithmetize.lookup_table` makes
them at compile and at load (`["range", lo, hi]` or `["clip", a, b,
z_out, d_lo, d_hi]`, never their entries), fixed as [column id, cells]
pairs and the copies and bindings counts.  `nodes` holds each distinct subtree of the
gate polynomials once, children first: `["col", id]`, `["const", str(v)]`
for v in [0, p), `["+", i, j, ...]` or `["*", i, j, ...]`, `["-", i, j]`
or `["pow5", i]`, where i, j, ... index earlier nodes.  A polynomial
nests at most `circuit.MAX_EXPR_DEPTH` operators deep, and all of them
hold at most `circuit.MAX_EXPR_NODES` nodes written out as trees.  The
sections follow in this order:

* copies: 4 * copies integers `[a_col, a_row, b_col, b_row, ...]` whose
  column numbers index `columns`: the bytes of `circuit.Copies.flat`,
  which the loader wraps as its int32 array;
* each fixed column in header order: its `cells` rows, strictly
  increasing, then a cell column of their values with no unassigned
  cell, each a nonzero canonical residue: the `rows` and the cells of its
  `circuit.FixedColumn`, which the writer reads and the loader builds
  with array operations only;
* instance bindings: 3 * bindings integers `[column number, row, index]`.

Copies, rows and bindings are unsigned sections: a width byte w in
{1, 2, 4}, then w-byte unsigned integers, as many as the header says.
The witness plan is deliberately not serialized; witnesses are
regenerated by recompiling, which is deterministic.

Witness: `ZKWT`, then version, row, column and instance counts
(`<IIII`), then the advice column ids (`<H` length + UTF-8) in sorted
order.  Each advice column in that order, then the instance vector, is
written as a cell column whose length is one past its last assigned row
(the instance vector's own length); the rows from L on are unassigned.

In memory a cell column is the form `circuit.int_cells` gives: int64
cells, each its value or, below 0, its offset from the base, with a mark
for each outlier and the outliers apart.  That is the file's own form, so
the loader builds it with array operations only (the outliers and the
32-byte cells take one Python int each), and the writer
(`circuit.encode_cell_columns`) picks the width of every column of a
file in one array pass over all their cells.  A witness holds each
advice column as a `circuit.AdviceColumn` at its used length, the
prover's and a loaded one alike, and its instance vector as a list.  The
writer copies the bytes a column carries (the prover's columns that the
model alone fixes, encoded once at compile, while the column holds the
arrays they were encoded from), and encodes the other columns' forms as
they are and the instance.

Both loaders refuse a grid taller than `circuit.MAX_ROWS` or whose
columns of the file's kind (fixed in a layout, advice in a witness) hold
more than `circuit.MAX_CELLS` cells, a layout whose tables would hold
more than `circuit.MAX_CELLS` entries in all, and older versions: layout
versions 1 to 5 (1 and 2 were JSON) and witness versions 1 to 3.
"""

from __future__ import annotations

import json
import struct
import sys
from itertools import repeat
from operator import itemgetter

import numpy as np

from .arithmetize import CompileError, check_recipe, lookup_table
from .circuit import (
    BASED_FLAG,
    CELL_COUNT,
    CELL_COUNTS,
    CELL_LIMIT,
    NO_OUTLIERS,
    MARK,
    MAX_CELLS,
    MAX_EXPR_DEPTH,
    MAX_EXPR_NODES,
    MAX_ROWS,
    AdviceColumn,
    Assignment,
    Bindings,
    CircuitError,
    CircuitLayout,
    Column,
    Copies,
    Expr,
    FixedColumn,
    GateDef,
    LookupArg,
    cell_values,
    encode_cell_columns,
    int_cells,
)
from .field import Field

_LAYOUT_VERSION = 6
_WITNESS_VERSION = 4

_LAYOUT_MAGIC = b"ZKLY"
_LAYOUT_PREFIX = struct.Struct("<4sII")
_WITNESS_MAGIC = b"ZKWT"
_HEADER = struct.Struct("<IIII")
_LOW_BYTES = bytes(range(0x80))
_BIG = 1 << 63             # cells at or above this are stored relative to the base


class FormatError(ValueError):
    pass


# --- cell columns ------------------------------------------------------------

def _decode_cells(raw: bytes, pos: int, limit: int) -> tuple:
    """The assigned cells of the column at raw[pos:], in row order, as
    `circuit.int_cells` holds them, (cells, base, outliers), with no
    operation on objects per cell but for the 32-byte cells and the
    outliers; the column's length L, at most `limit`; which of its rows
    are assigned, a bool array of L, None when every one is; and the
    position after it; and, for 32-byte cells, their values as an object
    array (else None)."""
    if pos + CELL_COUNTS.size + 1 > len(raw):
        raise FormatError("truncated cell column header")
    n_rows, n = CELL_COUNTS.unpack_from(raw, pos)
    form = raw[pos + CELL_COUNTS.size]
    pos += CELL_COUNTS.size + 1
    if n_rows > limit:
        raise FormatError(f"column of {n_rows} cells where at most {limit} fit")
    if n > n_rows:
        raise FormatError(f"{n} assigned cells in a column of {n_rows}")
    w, base = form & ~BASED_FLAG, 0
    if w not in (1, 2, 4, 8, 32):
        raise FormatError(f"bad cell width {w}")
    if form & BASED_FLAG:
        if w == 32:
            raise FormatError("32-byte cells take no base")
        if pos + 32 > len(raw):
            raise FormatError("truncated cell column header")
        base = int.from_bytes(raw[pos : pos + 32], "little")
        if not _BIG < base <= CELL_LIMIT:
            raise FormatError(f"column base {base} outside (2**63, 2**255]")
        pos += 32
    present = None
    if n < n_rows:
        end = pos + (n_rows + 7) // 8
        if end > len(raw):
            raise FormatError("truncated presence bitmap")
        bits = int.from_bytes(raw[pos:end], "little")
        if bits >> n_rows:
            raise FormatError("presence bit set at or past the column's length")
        if not bits >> (n_rows - 1):
            raise FormatError("a column's last written cell is unassigned")
        if bits.bit_count() != n:
            raise FormatError(f"{n} assigned cells, the presence bitmap sets {bits.bit_count()}")
        present = np.unpackbits(np.frombuffer(raw, np.uint8, end - pos, pos), count=n_rows, bitorder="little").view(bool)
        pos = end
    end = pos + n * w
    if end > len(raw):
        raise FormatError("truncated cell column")
    # Any cell whose top byte has its top bit set (for w <= 8, a negative one).
    signed = raw[pos + w - 1 : end : w].translate(None, _LOW_BYTES)
    if w == 32:
        if signed:
            raise FormatError("cell >= 2**255")
        values = np.array(_big_ints(raw, pos, end), object)
        return int_cells([values])[0], n_rows, present, end, values
    vals = np.frombuffer(raw, f"<i{w}", n, pos)
    if end + CELL_COUNT.size > len(raw):
        raise FormatError("truncated outlier count")
    (k,) = CELL_COUNT.unpack_from(raw, end)
    pos, end = end + CELL_COUNT.size, end + CELL_COUNT.size + 32 * k
    if end > len(raw):
        raise FormatError("truncated outlier list")
    if raw[pos + 31 : end : 32].translate(None, _LOW_BYTES):
        raise FormatError("outlier >= 2**255")
    marks = np.flatnonzero(vals == -1 << (8 * w - 1)) if signed else ()
    if len(marks) > k:
        raise FormatError("outlier mark with no listed outlier")
    if len(marks) < k:
        raise FormatError("listed outlier with no outlier mark")
    cells = vals.astype(np.int64)
    if signed and np.count_nonzero(vals < 0) > k and not base:
        raise FormatError(f"cell {vals[(vals < 0) & (vals != -1 << (8 * w - 1))][0]} < 0 in a column with no base")
    outliers = []
    # An outlier that has a cell, below 2**63 or in the base's band, takes it.
    for at, v in zip(marks.tolist() if k else (), _big_ints(raw, pos, end)):
        if v < _BIG or base - _BIG < v < base:
            cells[at] = v if v < _BIG else v - base
        else:
            cells[at] = MARK
            outliers.append(v)
    return (cells, base, np.array(outliers, object) if outliers else NO_OUTLIERS), n_rows, present, end, None


def _big_ints(raw: bytes, pos: int, end: int) -> list[int]:
    """The 32-byte little-endian unsigned integers of raw[pos:end]."""
    return list(map(int.from_bytes, map(itemgetter(0), struct.iter_unpack("32s", raw[pos:end])), repeat("little")))


# --- layout ------------------------------------------------------------------

def _need(ok: bool, what: str) -> None:
    if not ok:
        raise FormatError(f"malformed layout: {what}")


def _typed(xs, t: type) -> bool:
    """xs is a list of items of exactly type t (for int: no bools or floats)."""
    return type(xs) is list and set(map(type, xs)) <= {t}


def _encode_uints(xs, what: str) -> bytes:
    """Width byte w, then the integers xs (a list or an array) as w-byte
    little-endian unsigned integers."""
    xs = np.asarray(xs)
    lo, hi = (int(xs.min()), int(xs.max())) if xs.size else (0, 0)
    if lo < 0 or hi >= 1 << 32:
        raise FormatError(f"{what}: integer outside [0, 2**32)")
    w = 1 if hi < 1 << 8 else 2 if hi < 1 << 16 else 4
    return bytes((w,)) + xs.astype(f"<u{w}").tobytes()


def _decode_uints(raw: bytes, pos: int, count: int, what: str) -> tuple[np.ndarray, int]:
    """The `count` integers of the unsigned section at raw[pos:], as an
    unsigned array over `raw`, and the position after it."""
    _need(pos < len(raw), f"{what}: truncated")
    w = raw[pos]
    _need(w in (1, 2, 4), f"{what}: bad integer width {w}")
    end = pos + 1 + count * w
    _need(end <= len(raw), f"{what}: truncated")
    return np.frombuffer(raw, f"<u{w}", count, pos + 1), end


def _decode_residues(raw: bytes, pos: int, count: int, p: int, what: str) -> tuple[tuple, int]:
    """The `count` values, each in [1, p), of the cell column at raw[pos:],
    as `circuit.int_cells` holds them, and the position after it."""
    try:
        form, n_rows, present, pos, _ = _decode_cells(raw, pos, count)
    except FormatError as e:
        raise FormatError(f"malformed layout: {what}: {e}") from None
    _need(n_rows == count, f"{what}: {n_rows} values, the header says {count}")
    _need(present is None, f"{what}: unassigned value")
    cells, base, outliers = form
    if not len(cells):
        return form, pos
    if len(outliers) or base > p:
        values = cell_values(*form)
        ok = min(values) >= 1 and max(values) < p
    else:   # a based cell is a value in [1, B); the others are themselves
        ok = int(cells.max()) < p and (not (cells == 0).any() if base else int(cells.min()) >= 1)
    if not ok:
        _need(not (cell_values(*form) == 0).any(), f"{what}: zero cell listed")
        _need(False, f"{what}: value not a canonical residue")
    return form, pos


# The node table's operators, the Expr ops they build, and the operand
# counts that circuit.add, mul, sub and pow5 give them.
_OPERATORS = {"+": "add", "*": "mul", "-": "sub", "pow5": "pow5"}
_NODE_OPS = {op: name for name, op in _OPERATORS.items()}
_ARITY = {"+": range(2, sys.maxsize), "*": range(2, sys.maxsize), "-": range(2, 3), "pow5": range(1, 2)}


def _node_table(layout: CircuitLayout) -> tuple[list, list[int]]:
    """The gates' polynomials as one node table and each gate's root
    index, refused as load_layout would refuse them.  A node is numbered
    by its op and its payload or operands' numbers, so equal subtrees get
    one number however memory shares them."""
    number: dict[tuple, int] = {}

    def visit(e: Expr) -> int:
        if e.op == "const":
            key = ("const", str(e.value))
        elif e.op == "cell":
            key = ("col", e.col)
        else:
            key = (_NODE_OPS.get(e.op, e.op), *map(visit, e.args))
        return number.setdefault(key, len(number))

    roots = [visit(g.poly) for g in layout.gates]
    nodes = list(map(list, number))
    _read_nodes(nodes, roots, layout.field.modulus)
    return nodes, roots


def _read_nodes(nodes, roots: list, p: int) -> list[Expr]:
    """Each node's Expr, built from its operands'.  The gates' `roots`
    must index nodes, and their trees written out hold at most
    MAX_EXPR_NODES nodes."""
    _need(type(nodes) is list, "nodes must be a list")
    built, heights, sizes = [], [], []
    for k, node in enumerate(nodes):
        _need(type(node) is list and len(node) >= 2 and type(node[0]) is str,
              f"node {k} is not a list of an op and its operands")
        name, *args = node
        leaf = args[0] if len(args) == 1 else None
        if name == "col" and type(leaf) is str:
            e, height, size = Expr("cell", col=leaf), 0, 1
        elif name == "const":
            _need(type(leaf) is str and leaf.isascii() and leaf.isdigit() and len(leaf) <= len(str(p))
                  and str(int(leaf)) == leaf and int(leaf) < p, f"node {k}: const takes one canonical residue")
            e, height, size = Expr("const", value=int(leaf)), 0, 1
        else:
            _need(name in _OPERATORS and len(args) in _ARITY[name] and _typed(args, int)
                  and min(args) >= 0 and max(args) < k,
                  f"node {k}: neither a col of one id nor an operator of its arity over earlier nodes")
            height = 1 + max(map(heights.__getitem__, args))
            _need(height <= MAX_EXPR_DEPTH, f"node {k} nests over {MAX_EXPR_DEPTH} operators deep")
            e = Expr(_OPERATORS[name], args=tuple(map(built.__getitem__, args)))
            size = 1 + sum(map(sizes.__getitem__, args))
        built.append(e)
        heights.append(height)
        sizes.append(size)
    _need(all(type(r) is int and 0 <= r < len(built) for r in roots), "gate poly must index a node")
    _need(sum(map(sizes.__getitem__, roots)) <= MAX_EXPR_NODES,
          f"gate polynomials of over {MAX_EXPR_NODES} nodes written out as trees")
    return built


def _layout_header(layout: CircuitLayout) -> dict:
    nodes, roots = _node_table(layout)
    return {
        "modulus": str(layout.field.modulus),
        "n_rows": layout.n_rows,
        "n_rows_logical": layout.n_rows_logical,
        "columns": [{"id": c.id, "kind": c.kind} for c in layout.columns.values()],
        "nodes": nodes,
        "gates": [
            {"id": g.id, "name": g.name, "selector": g.selector, "poly": root}
            for g, root in zip(layout.gates, roots)
        ],
        "lookups": [
            {"id": l.id, "table": l.table, "columns": list(l.columns), "selector": l.selector}
            for l in layout.lookups
        ],
        "tables": [list(t.recipe) for t in layout.tables.values()],
        "fixed": [[col_id, len(vals.rows)] for col_id, vals in layout.fixed.items()],
        "copies": len(layout.copies),
        "bindings": len(layout.instance_map),
    }


def dump_layout(layout: CircuitLayout) -> bytes:
    p = layout.field.modulus
    names = list(layout.columns)
    if layout.copies.names != names:
        raise FormatError("copies do not number the layout's columns")
    bindings = layout.instance_map.flat
    unknown = np.flatnonzero(bindings[0::3] >= len(names))
    if len(unknown):
        raise FormatError(f"instance binding to unknown column {layout.instance_map[int(unknown[0])][0][0]!r}")
    if _table_ids([t.recipe for t in layout.tables.values()], p) != list(layout.tables):
        raise FormatError("a table's id is not the one its recipe names")
    head = json.dumps(_layout_header(layout), sort_keys=True, separators=(",", ":")).encode("ascii")
    out = [_LAYOUT_PREFIX.pack(_LAYOUT_MAGIC, _LAYOUT_VERSION, len(head)), head]
    out.append(_encode_uints(layout.copies.flat, "copies"))
    values = encode_cell_columns([((v.cells, v.base, v.outliers), len(v.rows), b"") for v in layout.fixed.values()], 1, p)
    for (col_id, vals), (cells, bad) in zip(layout.fixed.items(), values):
        what = f"fixed column {col_id}"
        out.append(_encode_uints(vals.rows, what))
        if bad is not None:
            raise FormatError(f"{what} holds a value outside [1, p): not a canonical residue")
        out.append(cells)
    out.append(_encode_uints(bindings, "instance bindings"))
    return b"".join(out)


def _table_ids(recipes: list, p: int) -> list[str]:
    """Each recipe's table id.  Refuses a recipe lookup_table refuses, one
    listed twice, and tables of over MAX_CELLS entries in all."""
    try:
        checked = [check_recipe(r, p) for r in recipes]
    except CompileError as e:
        raise FormatError(f"malformed layout: {e}") from None
    ids = [tid for tid, _ in checked]
    _need(len(set(ids)) == len(ids), "table recipe listed twice")
    _need(sum(n for _, n in checked) <= MAX_CELLS, f"tables of over {MAX_CELLS} entries")
    return ids


def _read_header(raw: bytes) -> tuple[dict, int]:
    """The header object of a current layout and the position after it."""
    again = f"compile the model again to get a version-{_LAYOUT_VERSION} file"
    if raw[:4] != _LAYOUT_MAGIC:
        if raw.lstrip()[:1] == b"{":
            raise FormatError(f"a JSON layout of version 1 or 2; {again}")
        raise FormatError("not a layout file")
    _need(len(raw) >= _LAYOUT_PREFIX.size, "truncated header")
    _, version, n_head = _LAYOUT_PREFIX.unpack_from(raw)
    if version < _LAYOUT_VERSION:
        raise FormatError(f"a layout of version {version}; {again}")
    if version != _LAYOUT_VERSION:
        raise FormatError(f"unsupported layout version {version}")
    pos = _LAYOUT_PREFIX.size + n_head
    _need(pos <= len(raw), "truncated header")
    try:
        doc = json.loads(raw[_LAYOUT_PREFIX.size : pos])
    except ValueError as e:
        raise FormatError(f"layout header is not valid JSON: {e}") from e
    except RecursionError as e:
        raise FormatError("layout header nests too deeply") from e
    _need(type(doc) is dict, "the header must be an object")
    return doc, pos


def load_layout(raw: bytes) -> CircuitLayout:
    """A validated layout from a current layout file.

    Raises FormatError for bytes that are not a well-formed layout
    and CircuitError for a file that describes an inconsistent circuit.
    """
    doc, pos = _read_header(raw)
    try:
        modulus, n_rows, n_logical = doc["modulus"], doc["n_rows"], doc["n_rows_logical"]
        _need(type(modulus) is str and modulus.isdigit(), "modulus must be a decimal string")
        _need(type(n_rows) is int and 0 <= n_rows <= MAX_ROWS, f"n_rows must be an integer in [0, {MAX_ROWS}]")
        _need(type(n_logical) is int and 0 <= n_logical <= n_rows, "n_rows_logical must lie in [0, n_rows]")
        try:
            fld = Field(int(modulus))
        except ValueError as e:
            raise FormatError(f"malformed layout: {e}") from e
        p = fld.modulus

        columns = {}
        for c in doc["columns"]:
            _need(_typed([c["id"], c["kind"]], str), "column id and kind must be strings")
            columns[c["id"]] = Column(c["id"], c["kind"])
        names = list(columns)
        _need(len(names) == len(doc["columns"]), "duplicate column id")

        nodes = _read_nodes(doc["nodes"], [g["poly"] for g in doc["gates"]], p)
        gates = []
        for g in doc["gates"]:
            _need(_typed([g["id"], g["name"], g["selector"]], str), "gate id, name and selector must be strings")
            gates.append(GateDef(id=g["id"], name=g["name"], selector=g["selector"], poly=nodes[g["poly"]]))

        lookups = []
        for l in doc["lookups"]:
            _need(_typed(l["columns"], str) and _typed([l["id"], l["table"], l["selector"]], str),
                  "lookup fields must be strings")
            lookups.append(LookupArg(id=l["id"], table=l["table"], columns=tuple(l["columns"]), selector=l["selector"]))

        fixed_counts, recipes = doc["fixed"], doc["tables"]
        n_copies, n_bindings = doc["copies"], doc["bindings"]
        _need(_typed(fixed_counts, list) and all(
            len(f) == 2 and type(f[0]) is str and type(f[1]) is int and f[1] >= 0 for f in fixed_counts
        ), "fixed must list [column id, cell count] pairs")
        _need(len({f[0] for f in fixed_counts}) == len(fixed_counts), "duplicate fixed column")
        _need(len(fixed_counts) * n_rows <= MAX_CELLS, f"fixed columns of over {MAX_CELLS} cells")
        _need(_typed(recipes, list), "tables must list recipes")
        recipes = list(map(tuple, recipes))
        _table_ids(recipes, p)
        _need(_typed([n_copies, n_bindings], int) and min(n_copies, n_bindings) >= 0,
              "copy and binding counts must be integers >= 0")
    except (KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"malformed layout: {e!r}") from e

    flat, pos = _decode_uints(raw, pos, 4 * n_copies, "copies")
    fixed = {}
    for col_id, n in fixed_counts:
        what = f"fixed column {col_id}"
        rows, pos = _decode_uints(raw, pos, n, what)
        form, pos = _decode_residues(raw, pos, n, p, what)
        if n > 1 and not (rows[1:] > rows[:-1]).all():
            ordered = np.sort(rows)
            _need((ordered[1:] != ordered[:-1]).all(), f"{what}: row listed twice")
        # A row of 2**31 or more turns negative here; validate() refuses
        # it with the rows that are not in increasing order in the grid.
        fixed[col_id] = FixedColumn.from_cells(rows.astype(np.int32), form, n_rows)
    bound, pos = _decode_uints(raw, pos, 3 * n_bindings, "instance bindings")
    _need(pos == len(raw), f"{len(raw) - pos} trailing bytes after the layout")
    top = int(bound[0::3].max(initial=0))
    if top >= len(names):
        raise CircuitError(f"instance binding references column number {top} outside the {len(names)} columns")
    layout = CircuitLayout(
        field=fld,
        columns=columns,
        n_rows=n_rows,
        n_rows_logical=n_logical,
        gates=gates,
        tables={t.id: t for t in map(lookup_table, recipes, repeat(p))},
        lookups=lookups,
        copies=Copies(flat, names),
        fixed=fixed,
        instance_map=Bindings(bound, names),
    )
    layout.validate()
    return layout


# --- witness -----------------------------------------------------------------

def dump_witness(assignment: Assignment) -> bytes:
    cols = sorted(assignment.advice)
    n_rows = assignment.n_rows()
    for col in cols:
        if len(assignment.advice[col]) != n_rows:
            raise FormatError("ragged advice columns")
    if None in assignment.instance:
        raise FormatError("instance values cannot be unassigned")
    out = [_WITNESS_MAGIC, _HEADER.pack(_WITNESS_VERSION, n_rows, len(cols), len(assignment.instance))]
    for col in cols:
        cid = col.encode("utf-8")
        out.append(struct.pack("<H", len(cid)))
        out.append(cid)
    # A column that carries its bytes is written as they are; the others
    # and the instance are encoded here.
    columns = [assignment.advice[col] for col in cols]
    carried = [c.encoded() for c in columns]
    forms = [
        ((c.cells, c.base, c.outliers), c.length,
         b"" if c.present is None else np.packbits(c.present, bitorder="little").tobytes())
        for c, code in zip(columns, carried) if code is None
    ]
    forms.append((int_cells([assignment.instance])[0], len(assignment.instance), b""))
    encoded = iter(encode_cell_columns(forms, 0, CELL_LIMIT))
    for code in [*carried, None]:   # the instance last
        if code is None:
            code, bad = next(encoded)
            if bad is not None:
                raise FormatError(f"cell value {bad} outside [0, 2**255)")
        out.append(code)
    return b"".join(out)


def load_witness(raw: bytes) -> Assignment:
    """The witness of a current witness file, its advice columns as
    `circuit.AdviceColumn`s held at their used length and its instance
    vector as a list."""
    if len(raw) < 4 + _HEADER.size or raw[:4] != _WITNESS_MAGIC:
        raise FormatError("not a witness file")
    version, n_rows, n_cols, n_inst = _HEADER.unpack_from(raw, 4)
    if version < _WITNESS_VERSION:
        raise FormatError(f"a witness of version {version}; run `zkgrid witness` again to get a version-{_WITNESS_VERSION} file")
    if version != _WITNESS_VERSION:
        raise FormatError(f"unsupported witness version {version}")
    if n_rows > MAX_ROWS:
        raise FormatError(f"witness of {n_rows} rows, over the limit of {MAX_ROWS}")
    if n_cols * n_rows > MAX_CELLS:
        raise FormatError(f"witness of {n_cols} columns of {n_rows} rows, over the limit of {MAX_CELLS} cells")
    pos = 4 + _HEADER.size
    cols = []
    for _ in range(n_cols):
        if pos + 2 > len(raw):
            raise FormatError("truncated witness header")
        (ln,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        if pos + ln > len(raw):
            raise FormatError("truncated witness header")
        try:
            cols.append(raw[pos : pos + ln].decode("utf-8"))
        except UnicodeDecodeError as e:
            raise FormatError(f"column id is not UTF-8: {e}") from e
        pos += ln
    if len(set(cols)) != n_cols:
        raise FormatError("duplicate advice column id")
    advice = {}
    for col in cols:
        form, length, present, pos, values = _decode_cells(raw, pos, n_rows)
        advice[col] = AdviceColumn(n_rows, length, present, form, values)
    form, length, present, pos, _ = _decode_cells(raw, pos, n_inst)
    if length != n_inst:
        raise FormatError(f"instance vector of {length} values, header says {n_inst}")
    if present is not None:
        raise FormatError("instance values cannot be unassigned")
    if pos != len(raw):
        raise FormatError(f"{len(raw) - pos} trailing bytes after the witness")
    return Assignment(advice=advice, instance=cell_values(*form).tolist())
