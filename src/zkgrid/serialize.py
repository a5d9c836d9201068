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
tables as the recipes `arithmetize.lookup_table` builds them from at
compile and at load (`["range", lo, hi]` or `["clip", a, b, z_out, d_lo,
d_hi]`, never their entries), fixed as [column id, cells] pairs and the
copies and bindings counts.  `nodes` holds each distinct subtree of the
gate polynomials once, children first: `["col", id]`, `["const", str(v)]`
for v in [0, p), `["+", i, j, ...]` or `["*", i, j, ...]`, `["-", i, j]`
or `["pow5", i]`, where i, j, ... index earlier nodes.  A polynomial
nests at most `circuit.MAX_EXPR_DEPTH` operators deep, and all of them
hold at most `circuit.MAX_EXPR_NODES` nodes written out as trees.  The
sections follow in this order:

* copies: 4 * copies integers `[a_col, a_row, b_col, b_row, ...]` whose
  column numbers index `columns`; it is the in-memory `circuit.Copies`
  store itself;
* each fixed column in header order: its `cells` rows, strictly
  increasing, then a cell column of their values with no unassigned
  cell, each a nonzero canonical residue: the `circuit.FixedColumn`
  cells themselves;
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
from array import array
from itertools import compress, repeat
from operator import is_not, itemgetter

import numpy as np

from .arithmetize import CompileError, check_recipe, lookup_table
from .circuit import (
    MAX_CELLS,
    MAX_EXPR_DEPTH,
    MAX_EXPR_NODES,
    MAX_ROWS,
    Assignment,
    CircuitError,
    CircuitLayout,
    Column,
    Copies,
    Expr,
    FixedColumn,
    GateDef,
    LookupArg,
)
from .field import Field

_LAYOUT_VERSION = 6
_WITNESS_VERSION = 4

_LAYOUT_MAGIC = b"ZKLY"
_LAYOUT_PREFIX = struct.Struct("<4sII")
_WITNESS_MAGIC = b"ZKWT"
_HEADER = struct.Struct("<IIII")
_COUNT = struct.Struct("<I")     # a cell column's outlier count
_COUNTS = struct.Struct("<II")   # a cell column's length and assigned cells
_BASED = 0x80              # form-byte flag: a 32-byte base follows
_LOW_BYTES = bytes(range(0x80))
_BIG = 1 << 63             # cells at or above this are stored relative to the base
_LIMIT = 1 << 255          # cells must lie in [0, _LIMIT)
_UINT_TYPECODE = {array(c).itemsize: c for c in "BHI"}
_SWAP = sys.byteorder == "big"


class FormatError(ValueError):
    pass


# --- cell columns ------------------------------------------------------------

def _encode_column(vals: list) -> bytes:
    """The cell column of `vals`, None marking an unassigned cell, written
    up to its last assigned cell (see the module docstring)."""
    n, holes = len(vals), vals.count(None)
    first = vals.index(None) if holes else n
    if first + holes == n:   # every unassigned cell is in the tail
        return _pack_cells(vals[:first], first, b"")
    # Strip the unassigned tail a slice at a time, then cell by cell.
    for s in (4096, 256, 16, 1):
        while n >= s and vals[n - s : n].count(None) == s:
            n -= s
    flags = bytes(map(is_not, vals[:n], repeat(None)))
    bitmap = np.packbits(np.frombuffer(flags, bool), bitorder="little").tobytes()
    return _pack_cells(list(compress(vals, flags)), n, bitmap)


def _pack_cells(present: list, length: int, bitmap: bytes, bounds: tuple | None = None) -> bytes:
    """The cell column of `length` rows whose assigned cells, in row
    order, are `present`, at the rows `bitmap` sets (b"" when every row
    is assigned), at the width the module docstring gives.  `bounds`, if
    given, are the least and the greatest of `present`."""
    n, base = len(present), 0
    try:
        d = np.array(present, dtype=np.int64)
    except OverflowError:   # a cell >= 2**63 (or outside [0, 2**255))
        lo, hi = bounds or (min(present), max(present))
        if lo < 0 or hi >= _LIMIT:
            raise FormatError(f"cell value {lo if lo < 0 else hi} outside [0, 2**255)") from None
        base, floor = hi + 1, hi + 1 - _BIG
        if lo >= _BIG and 32 * sum(map(floor.__ge__, present)) > 31 * n - 32:
            # So many cells are in band at no width below 32 bytes (those
            # up to `floor`) that no such width can win: the sponge states.
            return b"".join((_COUNTS.pack(length, n), b"\x20", bitmap, _wide(present)))
        # Each cell's in-band integer, -2**63 for a cell that is in band
        # at no width below 32 bytes.
        d = np.array([v if v < _BIG else v - base if v > floor else -_BIG for v in present], dtype=np.int64)
    lo, hi = int(d.min(initial=0)), int(d.max(initial=0))
    if lo < 0 and not base:
        raise FormatError(f"cell value {lo} outside [0, 2**255)")
    top = max(hi, -lo)
    best = None
    for width in (1, 2, 4, 8):
        half = 1 << (8 * width - 1)
        out = (d > half - 1) | (d < 1 - half) if top >= half else None   # bounds that fit int64
        cost = (32 if base else 0) + n * width + 32 * (0 if out is None else np.count_nonzero(out))
        if best is None or cost < best[0]:
            best = cost, width, out
    size, w, outside = best
    if 32 * n < size:
        w = 32
    head = _COUNTS.pack(length, n)
    if w == 32:
        return b"".join((head, b"\x20", bitmap, _wide(present)))
    outliers = []
    if outside is not None:
        d = np.where(outside, -1 << (8 * w - 1), d)
        outliers = list(map(present.__getitem__, np.flatnonzero(outside).tolist()))
    form = bytes((w | _BASED,)) + base.to_bytes(32, "little") if base else bytes((w,))
    return b"".join((head, form, bitmap, d.astype(f"<i{w}").tobytes(), _COUNT.pack(len(outliers)), _wide(outliers)))


def _wide(vals: list) -> bytes:
    """vals as 32-byte little-endian unsigned integers."""
    return b"".join(map(int.to_bytes, vals, repeat(32), repeat("little")))


def _decode_column(raw: bytes, pos: int, limit: int) -> tuple[list, int]:
    """The cells of the column at raw[pos:], at most `limit` of them,
    None for each unassigned one, and the position after it."""
    if pos + _COUNTS.size + 1 > len(raw):
        raise FormatError("truncated cell column header")
    n_rows, n = _COUNTS.unpack_from(raw, pos)
    form = raw[pos + _COUNTS.size]
    pos += _COUNTS.size + 1
    if n_rows > limit:
        raise FormatError(f"column of {n_rows} cells where at most {limit} fit")
    if n > n_rows:
        raise FormatError(f"{n} assigned cells in a column of {n_rows}")
    w, base = form & ~_BASED, 0
    if w not in (1, 2, 4, 8, 32):
        raise FormatError(f"bad cell width {w}")
    if form & _BASED:
        if w == 32:
            raise FormatError("32-byte cells take no base")
        if pos + 32 > len(raw):
            raise FormatError("truncated cell column header")
        base = int.from_bytes(raw[pos : pos + 32], "little")
        if not _BIG < base <= _LIMIT:
            raise FormatError(f"column base {base} outside (2**63, 2**255]")
        pos += 32
    bitmap = None
    if n < n_rows:
        end = pos + (n_rows + 7) // 8
        if end > len(raw):
            raise FormatError("truncated presence bitmap")
        bitmap = np.frombuffer(raw, np.uint8, end - pos, pos)
        bits = int.from_bytes(raw[pos:end], "little")
        if bits >> n_rows:
            raise FormatError("presence bit set at or past the column's length")
        if not bits >> (n_rows - 1):
            raise FormatError("a column's last written cell is unassigned")
        if bits.bit_count() != n:
            raise FormatError(f"{n} assigned cells, the presence bitmap sets {bits.bit_count()}")
        pos = end
    end = pos + n * w
    if end > len(raw):
        raise FormatError("truncated cell column")
    # Any cell whose top byte has its top bit set (for w <= 8, a negative one).
    signed = raw[pos + w - 1 : end : w].translate(None, _LOW_BYTES)
    if w == 32:
        if signed:
            raise FormatError("cell >= 2**255")
        vals = _big_ints(raw, pos, end)
    else:
        vals = np.frombuffer(raw, f"<i{w}", n, pos)
        if end + _COUNT.size > len(raw):
            raise FormatError("truncated outlier count")
        (k,) = _COUNT.unpack_from(raw, end)
        pos, end = end + _COUNT.size, end + _COUNT.size + 32 * k
        if end > len(raw):
            raise FormatError("truncated outlier list")
        if raw[pos + 31 : end : 32].translate(None, _LOW_BYTES):
            raise FormatError("outlier >= 2**255")
        marks = 0
        if signed:
            negative, outside = vals < 0, vals == -1 << (8 * w - 1)
            marks = np.count_nonzero(outside)
        if marks > k:
            raise FormatError("outlier mark with no listed outlier")
        if marks < k:
            raise FormatError("listed outlier with no outlier mark")
        if signed:
            if not base and np.count_nonzero(negative) > marks:
                raise FormatError(f"cell {vals[negative & ~outside][0]} < 0 in a column with no base")
            vals = vals.astype(object)
            vals[negative] += base
            vals[outside] = _big_ints(raw, pos, end)
    if bitmap is not None:
        cells, vals = vals, np.empty(n_rows, object)
        vals[np.unpackbits(bitmap, count=n_rows, bitorder="little").view(bool)] = cells
    return (vals if type(vals) is list else vals.tolist()), end


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


def _encode_uints(xs: list, what: str) -> bytes:
    """Width byte w, then xs as w-byte little-endian unsigned integers."""
    top = max(xs, default=0)
    w = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    try:
        cells = array(_UINT_TYPECODE[w], xs)
    except OverflowError:
        raise FormatError(f"{what}: integer outside [0, 2**32)") from None
    if _SWAP:
        cells.byteswap()
    return bytes((w,)) + cells.tobytes()


def _decode_uints(raw: bytes, pos: int, count: int, what: str) -> tuple[list[int], int]:
    """The `count` integers of the unsigned section at raw[pos:], and the
    position after it."""
    _need(pos < len(raw), f"{what}: truncated")
    w = raw[pos]
    _need(w in (1, 2, 4), f"{what}: bad integer width {w}")
    end = pos + 1 + count * w
    _need(end <= len(raw), f"{what}: truncated")
    cells = array(_UINT_TYPECODE[w])
    cells.frombytes(raw[pos + 1 : end])
    if _SWAP:
        cells.byteswap()
    return cells.tolist(), end


def _encode_residues(vals: list, p: int, what: str) -> bytes:
    """A cell column of vals, each a nonzero residue in [1, p)."""
    try:
        bounds = min(vals, default=1), max(vals, default=1)
    except TypeError:   # an unassigned value
        bounds = 0, p
    if bounds[0] < 1 or bounds[1] >= p:
        raise FormatError(f"{what} holds a value outside [1, p): not a canonical residue")
    return _pack_cells(vals, len(vals), b"", bounds)


def _decode_residues(raw: bytes, pos: int, count: int, p: int, what: str) -> tuple[list[int], int]:
    """The `count` values, each in [1, p), of the cell column at raw[pos:]."""
    try:
        vals, pos = _decode_column(raw, pos, count)
    except FormatError as e:
        raise FormatError(f"malformed layout: {what}: {e}") from None
    _need(len(vals) == count, f"{what}: {len(vals)} values, the header says {count}")
    try:
        ok = not vals or (min(vals) >= 1 and max(vals) < p)
    except TypeError:
        ok = False
    if not ok:
        _need(None not in vals, f"{what}: unassigned value")
        _need(0 not in vals, f"{what}: zero cell listed")
        _need(False, f"{what}: value not a canonical residue")
    return vals, pos


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
        "fixed": [[col_id, len(vals.cells)] for col_id, vals in layout.fixed.items()],
        "copies": len(layout.copies),
        "bindings": len(layout.instance_map),
    }


def dump_layout(layout: CircuitLayout) -> bytes:
    p = layout.field.modulus
    names = list(layout.columns)
    if layout.copies.names != names:
        raise FormatError("copies do not number the layout's columns")
    number = {col_id: k for k, col_id in enumerate(names)}
    bindings = []
    for (col_id, row), idx in layout.instance_map:
        if col_id not in number:
            raise FormatError(f"instance binding to unknown column {col_id!r}")
        bindings += (number[col_id], row, idx)
    if _table_ids([t.recipe for t in layout.tables.values()], p) != list(layout.tables):
        raise FormatError("a table's id is not the one its recipe names")
    head = json.dumps(_layout_header(layout), sort_keys=True, separators=(",", ":")).encode("ascii")
    out = [_LAYOUT_PREFIX.pack(_LAYOUT_MAGIC, _LAYOUT_VERSION, len(head)), head]
    out.append(_encode_uints(layout.copies.flat, "copies"))
    for col_id, vals in layout.fixed.items():
        what = f"fixed column {col_id}"
        out.append(_encode_uints(list(vals.cells), what))
        out.append(_encode_residues(list(vals.cells.values()), p, what))
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
        vals, pos = _decode_residues(raw, pos, n, p, what)
        fixed[col_id] = FixedColumn(dict(zip(rows, vals)), n_rows)
        _need(len(fixed[col_id].cells) == n, f"{what}: row listed twice")
    bound, pos = _decode_uints(raw, pos, 3 * n_bindings, "instance bindings")
    _need(pos == len(raw), f"{len(raw) - pos} trailing bytes after the layout")
    cols = bound[0::3]
    if cols and max(cols) >= len(names):
        raise CircuitError(f"instance binding references column number {max(cols)} outside the {len(names)} columns")
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
        instance_map=list(zip(zip(map(names.__getitem__, cols), bound[1::3]), bound[2::3])),
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
    out.extend(_encode_column(assignment.advice[col]) for col in cols)
    out.append(_encode_column(assignment.instance))
    return b"".join(out)


def load_witness(raw: bytes) -> Assignment:
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
        advice[col], pos = _decode_column(raw, pos, n_rows)
    instance, pos = _decode_column(raw, pos, n_inst)
    if len(instance) != n_inst:
        raise FormatError(f"instance vector of {len(instance)} values, header says {n_inst}")
    if None in instance:
        raise FormatError("instance values cannot be unassigned")
    if pos != len(raw):
        raise FormatError(f"{len(raw) - pos} trailing bytes after the witness")
    # The whole file is read and checked; only now pad the unassigned tails.
    for vals in advice.values():
        vals += repeat(None, n_rows - len(vals))
    return Assignment(advice=advice, instance=instance)
