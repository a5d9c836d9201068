"""Binary on-disk formats: layouts (version 5) and witnesses (version 3).

Both formats write integers little-endian and share one cell codec (a
"cell column"): an assigned length L (`<I`), a width byte w in
{1, 2, 4, 8, 32}, a 32-byte little-endian base B and L w-byte cells.
For w <= 8 a cell is a little-endian signed integer d: the value is d
when d >= 0 and B + d otherwise, and the most negative w-byte integer
marks an unassigned cell.  For w = 32 (B = 0) a cell is the value as a
32-byte unsigned integer and 32 bytes of 0xFF mark an unassigned cell.
The writer picks the narrowest w, with B one above the column's largest
value >= 2**63 (or 0 when there is none), so residues p - x of small
negatives x take a few bytes without the codec knowing p.  Every cell in
[0, 2**255) round trips exactly.  A column's cell L - 1 is never
unassigned.

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
  increasing, then a cell column of their values, each a nonzero
  canonical residue: the `circuit.FixedColumn` cells themselves;
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
versions 1 to 4 (1 and 2 were JSON) and witness versions 1 and 2.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import repeat
from operator import itemgetter

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

_LAYOUT_VERSION = 5
_WITNESS_VERSION = 3

_LAYOUT_MAGIC = b"ZKLY"
_LAYOUT_PREFIX = struct.Struct("<4sII")
_WITNESS_MAGIC = b"ZKWT"
_HEADER = struct.Struct("<IIII")
_LENGTH = struct.Struct("<I")
_UNASSIGNED = b"\xff" * 32
_ALL_ONES = int.from_bytes(_UNASSIGNED, "little")
_LOW_BYTES = bytes(range(0x80))
_BIG = 1 << 63             # cells at or above this are stored relative to the base
_LIMIT = 1 << 255          # cells must lie in [0, _LIMIT)
_TYPECODE = {array(c).itemsize: c for c in "bhiq"}
_UINT_TYPECODE = {array(c).itemsize: c for c in "BHI"}
_SWAP = sys.byteorder == "big"


class FormatError(ValueError):
    pass


# --- cell columns ------------------------------------------------------------

def _encode_column(vals: list) -> bytes:
    """Assigned length, width byte, base and cells of one column (see the
    module docstring)."""
    # Strip the unassigned tail a slice at a time, then cell by cell.
    n = len(vals)
    for s in (4096, 256, 16, 1):
        while n >= s and vals[n - s : n].count(None) == s:
            n -= s
    vals = vals[:n]
    present = [v for v in vals if v is not None] if None in vals else vals
    lo, hi = min(present, default=0), max(present, default=0)
    if lo < 0:
        raise FormatError(f"cell value {lo} outside [0, 2**255)")
    return _pack_cells(vals, present, hi)


def _pack_cells(vals: list, present: list, hi: int) -> bytes:
    """The cell column of `vals`, whose assigned cells are `present` (the
    list `vals` itself when every cell is assigned), each at least 0 and
    at most `hi`."""
    if hi >= _LIMIT:
        raise FormatError(f"cell value {hi} outside [0, 2**255)")
    head = _LENGTH.pack(len(vals))
    base, span = 0, hi
    if hi >= _BIG:
        base = hi + 1
        # _BIG.__gt__ and _BIG.__le__ split the cells below and from 2**63.
        span = max(
            max(filter(_BIG.__gt__, present), default=0),
            base - min(filter(_BIG.__le__, present)),
        )
    for w in (1, 2, 4, 8):
        if span < 1 << (8 * w - 1):
            none = -1 << (8 * w - 1)
            if base or present is not vals:
                vals = [none if v is None else v if v < _BIG else v - base for v in vals]
            cells = array(_TYPECODE[w], vals)
            if _SWAP:
                cells.byteswap()
            return head + bytes((w,)) + base.to_bytes(32, "little") + cells.tobytes()
    return head + bytes((32,)) + bytes(32) + b"".join(
        _UNASSIGNED if v is None else v.to_bytes(32, "little") for v in vals
    )


def _refuse(what: str) -> None:
    raise FormatError(f"cell {what}")


def _decode_column(raw: bytes, pos: int, limit: int) -> tuple[list, int]:
    """The assigned cells of the column at raw[pos:], at most `limit` of
    them, and the position after it."""
    if pos + 37 > len(raw):
        raise FormatError("truncated cell column header")
    (n,) = _LENGTH.unpack_from(raw, pos)
    w = raw[pos + 4]
    base = int.from_bytes(raw[pos + 5 : pos + 37], "little")
    pos += 37
    if n > limit:
        raise FormatError(f"column of {n} cells where at most {limit} fit")
    end = pos + n * w
    if w not in (1, 2, 4, 8, 32):
        raise FormatError(f"bad cell width {w}")
    if end > len(raw):
        raise FormatError("truncated cell column")
    if w == 32:
        if base:
            raise FormatError("32-byte cells take no base")
        cells = map(itemgetter(0), struct.iter_unpack("32s", raw[pos:end]))
        ints = list(map(int.from_bytes, cells, repeat("little")))
        # Every cell with its top bit set must be the unassigned mark.
        if len(raw[pos + 31 : end : 32].translate(None, _LOW_BYTES)) != ints.count(_ALL_ONES):
            raise FormatError("cell >= 2**255")
        vals = [None if v == _ALL_ONES else v for v in ints]
    else:
        if base and not _BIG < base <= _LIMIT:
            raise FormatError(f"column base {base} outside (2**63, 2**255]")
        cells = array(_TYPECODE[w])
        cells.frombytes(raw[pos:end])
        if _SWAP:
            cells.byteswap()
        none = -1 << (8 * w - 1)
        if not raw[pos + w - 1 : end : w].translate(None, _LOW_BYTES):   # no cell's sign bit is set
            vals = cells.tolist()
        else:
            vals = [d if d >= 0 else None if d == none else base + d if base else _refuse(f"{d} < 0") for d in cells]
    if vals and vals[-1] is None:
        raise FormatError("a column's last written cell is unassigned")
    return vals, end


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
        hi = max(vals, default=1)
        ok = min(vals, default=1) >= 1 and hi < p
    except TypeError:   # an unassigned value
        ok = False
    if not ok:
        raise FormatError(f"{what} holds a value outside [1, p): not a canonical residue")
    return _pack_cells(vals, vals, hi)


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
