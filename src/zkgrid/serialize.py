"""Binary on-disk formats: layouts (version 7) and witnesses (version 5).

Both formats write integers little-endian and share one cell codec (a
"cell column" of L rows): L and the number N <= L of assigned cells (two
`<I`), a width byte w in {1, 2, 4, 8, 32}, then, only when N < L, a
presence bitmap of ceil(L / 8) bytes whose bit r (bit r % 8 of byte
r // 8) is set when row r is assigned, then the N assigned cells in row
order, w bytes each.  Unassigned cells cost their bit and nothing else.
Every cell is its value as a w-byte signed integer, but for w <= 8 the
most negative w-byte integer, the outlier mark, which stands for the
next value of an outlier list that follows the cells: a count K (`<I`)
and K 32-byte signed values.

The writer makes a value an outlier when it is the mark or does not fit
in w bytes, and picks the w that minimises N * w plus 32 bytes for each
outlier (w = 32 takes none), the narrowest of equals, so a few stray big
values do not widen their column.  Small negative values, such as the
prover's int8 weights and partial sums, take a few bytes each.  Every
value in [-2**255, 2**255) round trips exactly.  The loader refuses a
bitmap with a bit set at or past L, one whose bit L - 1 is clear (L is
one past the last assigned row), N other than the bits set and a mark
count other than K; a listed outlier that int64 holds other than as the
int64 mark takes its cell, as the writer would have written it.

Layout: `ZKLY`, then version and header length (`<II`), then the header,
a JSON object: modulus (a decimal string), n_rows, n_rows_logical,
columns, nodes, gates (each `poly` the index of its root node), lookups,
tables as their recipes, from which `arithmetize.lookup_table` makes
them at compile and at load (`["range", lo, hi]` or `["clip", a, b,
z_out, d_lo, d_hi]`, never their entries), fixed as [column id, cells]
pairs and the copies and bindings counts.  `nodes` holds each distinct subtree of the
gate polynomials once, children first: `["col", id]`, `["const", str(v)]`
for v in [0, p), `["+", i, j, ...]` or `["*", i, j, ...]`, `["-", i, j]`
or `["pow5", i]`, where i, j, ... index earlier nodes.  The gate-tree
rules (operand counts, `circuit.MAX_EXPR_DEPTH`, `circuit.MAX_EXPR_NODES`
and known columns) are `CircuitLayout.validate()`'s, which the writer and
the loader both call.  The sections follow in this order:

* copies: 4 * copies integers `[a_col, a_row, b_col, b_row, ...]` whose
  column numbers index `columns`: the bytes of `circuit.Copies.flat`,
  which the loader wraps as its int32 array;
* each fixed column in header order: its `cells` rows, strictly
  increasing, then a cell column of their values with no unassigned
  cell, each a nonzero canonical signed residue r in (-p/2, p/2]: the
  `rows` and the cells of its `circuit.FixedColumn`, which the writer
  reads and the loader builds with array operations only;
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

In memory every cell column is a form of `circuit.int_cells`: int64
cells, each its value, with MARK for each outlier and the outliers apart.
For w <= 8 that is the file's own form; a column of 32-byte cells (the
sponge states) is all outliers, its values as Python ints, which a dump
writes back as 32-byte cells.  Both loaders read all the cell columns of
a file in one pass (`_decode_columns`): a walk over the column headers
checks every length the file claims before anything is allocated, then
one gather per width reads the bodies, one `int.from_bytes` pass the
32-byte cells, and a few array operations over all columns check the
bitmaps and the outlier marks; only the outliers take Python work each.
Of two faults in one file, the one reported is the first faulty column's
among those each step finds.  A layout's 32-byte fixed columns are split by
`int_cells` at load, so that the checker reads their cells as int64
where they fit.  A layout's writer and loader refuse a fixed value that
is not its nonzero canonical signed residue with one check
(`_fixed_fault`).  The writer (`circuit.encode_cell_columns`) picks the
width of every column of a file in one array pass over all their cells.
A witness holds each advice column as a `circuit.AdviceColumn` at its
used length, the prover's and a loaded one alike, and its instance
vector as a list of ints.  The writer copies the bytes a column carries
(the prover's columns that the model alone fixes, encoded once at
compile, while the column holds the arrays they were encoded from), and
encodes the other columns' forms as they are and the instance, which
`circuit.narrow_split` splits into int64 and its few wide values; an
instance value that is not an int is refused.

Both loaders refuse a grid taller than `circuit.MAX_ROWS` or whose
columns of the file's kind (fixed in a layout, advice in a witness) hold
more than `circuit.MAX_CELLS` cells, a layout whose tables would hold
more than `circuit.MAX_CELLS` entries in all, and older versions: layout
versions 1 to 6 (1 and 2 were JSON) and witness versions 1 to 4.
"""

from __future__ import annotations

import json
import struct
from itertools import repeat
from operator import itemgetter

import numpy as np

from .arithmetize import CompileError, lookup_table
from .circuit import (
    CELL_COUNT,
    CELL_COUNTS,
    NO_OUTLIERS,
    MARK,
    MAX_CELLS,
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
    LookupTable,
    cell_values,
    encode_cell_columns,
    int_cells,
)
from .field import Field

_LAYOUT_VERSION = 7
_WITNESS_VERSION = 5

_LAYOUT_MAGIC = b"ZKLY"
_LAYOUT_PREFIX = struct.Struct("<4sII")
_WITNESS_MAGIC = b"ZKWT"
_HEADER = struct.Struct("<IIII")
_BIG = 1 << 63             # int64 holds the values in [-2**63, 2**63)


class FormatError(ValueError):
    pass


# --- cell columns ------------------------------------------------------------

# Where one cell column lies in a file: its length L, its assigned cells N,
# width w, where its bitmap (if N < L) and its cells start, and its outlier
# count K (0 for w = 32), whose list follows the count.
_Head = tuple[int, int, int, int, int, int]
_COLUMN_HEAD = struct.Struct(CELL_COUNTS.format + "B")    # L, N and w


def _cell_head(raw: bytes, pos: int, limit: int) -> tuple[_Head, int]:
    """The head of the cell column at raw[pos:], whose length L is at most
    `limit`, and the position after the column.  Every length the column
    claims is checked against raw; nothing is allocated for it."""
    size = len(raw)
    if pos + _COLUMN_HEAD.size > size:
        raise FormatError("truncated cell column header")
    n_rows, n, w = _COLUMN_HEAD.unpack_from(raw, pos)
    pos += _COLUMN_HEAD.size
    if n_rows > limit:
        raise FormatError(f"column of {n_rows} cells where at most {limit} fit")
    if n > n_rows:
        raise FormatError(f"{n} assigned cells in a column of {n_rows}")
    if w not in (1, 2, 4, 8, 32):
        raise FormatError(f"bad cell width {w}")
    bits = pos
    if n < n_rows:
        pos += (n_rows + 7) // 8
        if pos > size:
            raise FormatError("truncated presence bitmap")
    body, pos = pos, pos + n * w
    if pos > size:
        raise FormatError("truncated cell column")
    if w == 32:
        return (n_rows, n, w, bits, body, 0), pos
    if pos + CELL_COUNT.size > size:
        raise FormatError("truncated outlier count")
    (k,) = CELL_COUNT.unpack_from(raw, pos)
    pos += CELL_COUNT.size + 32 * k
    if pos > size:
        raise FormatError("truncated outlier list")
    return (n_rows, n, w, bits, body, k), pos


def _decode_columns(raw: bytes, heads: list[_Head], label=lambda j: "") -> tuple[list, list]:
    """The columns `_cell_head` read, as two lists: each column's
    assigned cells in row order as a `circuit.int_cells` form (32-byte
    cells as outliers alone, an object array of Python ints), and which
    of its L rows are assigned (a bool array of L, or None when every one
    is).  The bodies take one gather per width, the 32-byte cells one
    `int.from_bytes` pass, and the checks of the bitmaps and the outlier
    marks a few array operations over all columns; only the outliers take
    Python work each.  A listed outlier that int64 holds other than as
    MARK is stored in its cell, as the writer would have written it.  A
    fault of column j is refused with FormatError, its message led by
    label(j); of the faults found, the first column's is reported."""
    view = memoryview(raw)
    lens, counts, widths, bits, bodies, lists = zip(*heads) if heads else [()] * 6
    forms, present = [None] * len(heads), [None] * len(heads)
    faults: list[tuple[int, str]] = []
    by_width: dict[int, list[int]] = {}
    for j, w in enumerate(widths):
        by_width.setdefault(w, []).append(j)

    gapped = [j for j, (n_rows, n) in enumerate(zip(lens, counts)) if n < n_rows]
    if gapped:
        rows = np.array([lens[j] for j in gapped], np.int64)
        sizes = (rows + 7) // 8
        maps = np.frombuffer(b"".join([view[bits[j] : bits[j] + m] for j, m in zip(gapped, sizes.tolist())]), np.uint8)
        ends = np.cumsum(sizes)
        last = maps[ends - 1].astype(np.int64)
        past = (rows % 8 > 0) & (last >> (rows % 8) > 0)
        unset = (last >> ((rows - 1) % 8)) & 1 == 0
        set_bits = np.add.reduceat(np.bitwise_count(maps), ends - sizes, dtype=np.int64)
        wanted = np.array([counts[j] for j in gapped], np.int64)
        for i in np.flatnonzero(past | unset | (set_bits != wanted))[:1].tolist():
            if past[i]:
                faults.append((gapped[i], "presence bit set at or past the column's length"))
            elif unset[i]:
                faults.append((gapped[i], "a column's last written cell is unassigned"))
            else:
                faults.append((gapped[i], f"{wanted[i]} assigned cells, the presence bitmap sets {set_bits[i]}"))
        flags = np.unpackbits(maps, bitorder="little").view(bool)
        for j, at, n_rows in zip(gapped, (8 * (ends - sizes)).tolist(), rows.tolist()):
            present[j] = flags[at : at + n_rows]

    wide = by_width.get(32, ())
    if wide:
        body = b"".join([view[bodies[j] : bodies[j] + 32 * counts[j]] for j in wide])
        big = _big_ints(body)
        marks = np.full(len(big), MARK)
        at = 0
        for j in wide:
            forms[j] = marks[at : at + counts[j]], big[at : at + counts[j]]
            at += counts[j]

    for w in (1, 2, 4, 8):
        cols = by_width.get(w)
        if not cols:
            continue
        ns = [counts[j] for j in cols]
        vals = np.frombuffer(b"".join([view[bodies[j] : bodies[j] + w * n] for j, n in zip(cols, ns)]), f"<i{w}")
        cells = vals.astype(np.int64)
        at = 0
        for j, n in zip(cols, ns):
            forms[j] = cells[at : at + n], NO_OUTLIERS
            at += n
        mark = -1 << (8 * w - 1)   # the most negative w-byte integer
        listed = [j for j in cols if lists[j]]
        if not listed and not (vals == mark).any():
            continue
        # Per column: its outlier marks, which must match its list.
        ns = np.array(ns, np.int64)
        starts = (np.cumsum(ns) - ns)[ns > 0]
        marks = np.zeros(len(cols), np.int64)
        if len(starts):
            marks[ns > 0] = np.add.reduceat(vals == mark, starts, dtype=np.int64)
        want = np.array([lists[j] for j in cols], np.int64)
        for i in np.flatnonzero(marks != want)[:1].tolist():
            what = "outlier mark with no listed outlier" if marks[i] > want[i] else "listed outlier with no outlier mark"
            faults.append((cols[i], what))
        if faults:
            continue
        for j in listed:
            c = forms[j][0]
            at = bodies[j] + w * counts[j] + CELL_COUNT.size
            outliers = []
            for r, v in zip(np.flatnonzero(c == mark).tolist(), _big_ints(view[at : at + 32 * lists[j]])):
                if MARK < v < _BIG:
                    c[r] = v
                else:
                    c[r] = MARK
                    outliers.append(v)
            forms[j] = c, np.array(outliers, object) if outliers else NO_OUTLIERS

    if faults:
        j, what = min(faults, key=itemgetter(0))
        raise FormatError(f"{label(j)}{what}")
    return forms, present


def _big_ints(data) -> np.ndarray:
    """The 32-byte little-endian signed integers of data, as an object
    array: read unsigned, then the few whose top bit is set made
    negative."""
    out = np.fromiter(map(int.from_bytes, map(itemgetter(0), struct.iter_unpack("32s", data)), repeat("little")),
                      object, len(data) // 32)
    neg = np.flatnonzero(np.frombuffer(data, np.uint8)[31::32] >= 0x80)
    out[neg] -= 1 << 256
    return out


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


def _fixed_fault(forms: list, p: int) -> tuple[int, str] | None:
    """The first of the fixed columns' forms that holds a value other than
    a nonzero canonical signed residue r in (-p/2, p/2], and what it
    holds, or None: the int64 cells take a few array operations over all
    columns, the outliers Python work each."""
    lo, hi = -((p - 1) // 2), p // 2
    faults = []
    full = [j for j, (c, _) in enumerate(forms) if len(c)]
    if full:
        lens = np.array([len(forms[j][0]) for j in full], np.int64)
        cells = np.concatenate([forms[j][0] for j in full])
        bad = (cells == 0) | (cells > min(hi, _BIG - 1)) | ((cells < max(lo, MARK + 1)) & (cells != MARK))
        if bad.any():
            first = int(np.argmax(bad))
            j = full[int(np.searchsorted(np.cumsum(lens), first, side="right"))]
            faults.append((j, "zero cell listed" if cells[first] == 0 else "value not a canonical residue"))
    for j, (_, outliers) in enumerate(forms):
        if len(outliers):
            try:
                if lo <= min(outliers) and max(outliers) <= hi:
                    continue
            except TypeError:   # an unassigned value
                pass
            faults.append((j, "value not a canonical residue"))
            break
    return min(faults, default=None)


# The node table's operators and the Expr ops they build.
_OPERATORS = {"+": "add", "*": "mul", "-": "sub", "pow5": "pow5"}
_NODE_OPS = {op: name for name, op in _OPERATORS.items()}


def _canonical(text, p: int) -> bool:
    """text spells a residue in [0, p) as `str` does: a const's spelling."""
    return (type(text) is str and text.isascii() and text.isdigit() and len(text) <= len(str(p))
            and str(int(text)) == text and int(text) < p)


def _node_table(layout: CircuitLayout) -> tuple[list, list[int]]:
    """A validated layout's gate polynomials as one node table and each
    gate's root index.  Each distinct node object is numbered once, by its
    op and its payload or operands' numbers, so equal subtrees share one."""
    p = layout.field.modulus
    number: dict[tuple, int] = {}
    seen: dict[int, int] = {}

    def visit(e: Expr) -> int:
        k = seen.get(id(e))
        if k is None:
            if e.op == "const":
                key = ("const", str(e.value))
                _need(_canonical(key[1], p), f"node {len(number)}: const takes one canonical residue")
            elif e.op == "cell":
                key = ("col", e.col)
            else:
                key = (_NODE_OPS[e.op], *map(visit, e.args))
            k = seen[id(e)] = number.setdefault(key, len(number))
        return k

    roots = [visit(g.poly) for g in layout.gates]
    return list(map(list, number)), roots


def _read_nodes(nodes, p: int) -> list[Expr]:
    """Each node's Expr, built from its operands': a col of one id, a
    const of one canonical residue, or an operator over earlier nodes.
    validate() owns the operand counts, depth and size."""
    _need(type(nodes) is list, "nodes must be a list")
    built = []
    for k, node in enumerate(nodes):
        _need(type(node) is list and node and type(node[0]) is str, f"node {k} is not a list of an op and its operands")
        name, *args = node
        if name == "col" and len(args) == 1 and type(args[0]) is str:
            e = Expr("cell", col=args[0])
        elif name == "const":
            _need(len(args) == 1 and _canonical(args[0], p), f"node {k}: const takes one canonical residue")
            e = Expr("const", value=int(args[0]))
        else:
            _need(name in _OPERATORS and _typed(args, int)
                  and min(args, default=0) >= 0 and max(args, default=-1) < k,
                  f"node {k}: neither a col of one id nor an operator over earlier nodes")
            e = Expr(_OPERATORS[name], args=tuple(map(built.__getitem__, args)))
        built.append(e)
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
    """A validated layout's file; the format's own rules go first, as in load_layout."""
    p = layout.field.modulus
    if list(_tables([t.recipe for t in layout.tables.values()], p)) != list(layout.tables):
        raise FormatError("a table's id is not the one its recipe names")
    forms = [(v.cells, v.outliers) for v in layout.fixed.values()]
    fault = _fixed_fault(forms, p)
    if fault is not None:
        raise FormatError(f"fixed column {list(layout.fixed)[fault[0]]}: {fault[1]}")
    layout.validate()
    head = json.dumps(_layout_header(layout), sort_keys=True, separators=(",", ":")).encode("ascii")
    out = [_LAYOUT_PREFIX.pack(_LAYOUT_MAGIC, _LAYOUT_VERSION, len(head)), head]
    out.append(_encode_uints(layout.copies.flat, "copies"))
    values = encode_cell_columns([(form, len(v.rows), b"") for form, v in zip(forms, layout.fixed.values())])
    for (col_id, vals), cells in zip(layout.fixed.items(), values):
        out.append(_encode_uints(vals.rows, f"fixed column {col_id}"))
        out.append(cells)
    out.append(_encode_uints(layout.instance_map.flat, "instance bindings"))
    return b"".join(out)


def _tables(recipes: list, p: int) -> dict[str, LookupTable]:
    """The table of each recipe, by its id.  Refuses a recipe lookup_table
    refuses, one listed twice, and tables of over MAX_CELLS entries in
    all."""
    try:
        tables = [lookup_table(r, p) for r in recipes]
    except CompileError as e:
        raise FormatError(f"malformed layout: {e}") from None
    _need(len({t.id for t in tables}) == len(tables), "table recipe listed twice")
    _need(sum(t.recipe[-1] - t.recipe[-2] + 1 for t in tables) <= MAX_CELLS, f"tables of over {MAX_CELLS} entries")
    return {t.id: t for t in tables}


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

        nodes = _read_nodes(doc["nodes"], p)
        gates = []
        for g in doc["gates"]:
            _need(_typed([g["id"], g["name"], g["selector"]], str), "gate id, name and selector must be strings")
            _need(type(g["poly"]) is int and 0 <= g["poly"] < len(nodes), "gate poly must index a node")
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
        tables = _tables(list(map(tuple, recipes)), p)
        _need(_typed([n_copies, n_bindings], int) and min(n_copies, n_bindings) >= 0,
              "copy and binding counts must be integers >= 0")
    except (KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"malformed layout: {e!r}") from e

    flat, pos = _decode_uints(raw, pos, 4 * n_copies, "copies")
    rows, heads = [], []
    for col_id, n in fixed_counts:
        what = f"fixed column {col_id}"
        r, pos = _decode_uints(raw, pos, n, what)
        try:
            head, pos = _cell_head(raw, pos, n)
        except FormatError as e:
            raise FormatError(f"malformed layout: {what}: {e}") from None
        _need(head[0] == n, f"{what}: {head[0]} values, the header says {n}")
        _need(head[1] == n, f"{what}: unassigned value")
        rows.append(r)
        heads.append(head)
    bound, pos = _decode_uints(raw, pos, 3 * n_bindings, "instance bindings")
    _need(pos == len(raw), f"{len(raw) - pos} trailing bytes after the layout")
    forms, _ = _decode_columns(raw, heads, lambda j: f"malformed layout: fixed column {fixed_counts[j][0]}: ")
    # The columns of 32-byte cells, outliers alone, are split so that the
    # checker reads their cells as int64 where they fit.
    wide = [j for j, (c, o) in enumerate(forms) if len(o) and len(o) == len(c)]
    for j, form in zip(wide, int_cells([forms[j][1] for j in wide])):
        forms[j] = form
    fault = _fixed_fault(forms, p)
    if fault is not None:
        raise FormatError(f"malformed layout: fixed column {fixed_counts[fault[0]][0]}: {fault[1]}")
    fixed = {}
    for (col_id, _), r, form in zip(fixed_counts, rows, forms):
        # A row of 2**31 or more turns negative here; validate() refuses
        # it, as it refuses a row listed twice.
        fixed[col_id] = FixedColumn.from_cells(r.astype(np.int32), form, n_rows)
    layout = CircuitLayout(
        field=fld,
        columns=columns,
        n_rows=n_rows,
        n_rows_logical=n_logical,
        gates=gates,
        tables=tables,
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
        ((c.cells, c.outliers), c.length,
         b"" if c.present is None else np.packbits(c.present, bitorder="little").tobytes())
        for c, code in zip(columns, carried) if code is None
    ]
    try:
        forms.append((int_cells([assignment.instance])[0], len(assignment.instance), b""))
    except CircuitError as e:
        raise FormatError(f"instance {e}") from None
    try:
        encoded = iter(encode_cell_columns(forms))
    except CircuitError as e:
        raise FormatError(str(e)) from None
    out += [next(encoded) if code is None else code for code in [*carried, None]]   # the instance last
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
    heads = []
    for _ in cols:
        head, pos = _cell_head(raw, pos, n_rows)
        heads.append(head)
    head, pos = _cell_head(raw, pos, n_inst)
    if head[0] != n_inst:
        raise FormatError(f"instance vector of {head[0]} values, header says {n_inst}")
    if head[1] != n_inst:
        raise FormatError("instance values cannot be unassigned")
    if pos != len(raw):
        raise FormatError(f"{len(raw) - pos} trailing bytes after the witness")
    forms, present = _decode_columns(raw, [*heads, head])
    advice = {col: AdviceColumn(n_rows, h[0], mask, form) for col, h, form, mask in zip(cols, heads, forms, present)}
    return Assignment(advice=advice, instance=cell_values(*forms[-1]).tolist())
