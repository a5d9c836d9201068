"""On-disk formats for layouts (version 2) and witnesses (version 3).

Layout: a complete JSON description (columns, gate polynomials as
s-expressions, full table contents, fixed column values, copies, instance
map) so a layout written by `compile` can be checked in a separate
process.  The witness plan is deliberately not serialized; witnesses are
regenerated by recompiling, which is deterministic.  Copies are one flat
list `[a_col, a_row, b_col, b_row, ...]` whose column numbers index
`columns`; it is the in-memory `circuit.Copies` store itself, written as
it is and read back once its types are checked.  Each fixed column is a
flat `[row, value, ...]` list of its nonzero cells, rows strictly
increasing, values the signed representative in (-p/2, p/2] of the
canonical residue.

Witness: binary.  `ZKWT`, then version, row, column and instance counts
(`<IIII`), then the advice column ids (`<H` length + UTF-8) in sorted
order.  Each advice column in that order, then the instance vector, is
written as its assigned length L (`<I`: one past its last assigned row;
the instance vector's own length), a width byte w in {1, 2, 4, 8, 32},
a 32-byte little-endian base B and L w-byte cells.  The rows from L on
are unassigned; a column's cell L - 1 never is.  For w <= 8 a cell is a
little-endian signed integer d: the value is d when d >= 0 and B + d
otherwise, and the most negative w-byte integer marks an unassigned
cell.  For w = 32 (B = 0) a cell is the value as a 32-byte unsigned
integer and 32 bytes of 0xFF mark an unassigned cell.  The writer picks
the narrowest w, with B one above the column's largest value >= 2**63
(or 0 when there is none), so residues p - x of small negatives x take a
few bytes without the file knowing p.  Every cell in [0, 2**255) round
trips exactly.  Both loaders refuse a grid taller than
`circuit.MAX_ROWS` or whose columns of the file's kind (fixed in a
layout, advice in a witness) hold more than `circuit.MAX_CELLS` cells,
and the witness loader refuses versions 1 and 2.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import compress, repeat
from operator import itemgetter

from .circuit import (
    MAX_CELLS,
    MAX_ROWS,
    Assignment,
    CircuitLayout,
    Column,
    Copies,
    LookupArg,
    LookupTable,
    GateDef,
    parse_sexpr,
)
from .field import Field

_LAYOUT_VERSION = 2
_WITNESS_VERSION = 3

_MAGIC = b"ZKWT"
_HEADER = struct.Struct("<IIII")
_LENGTH = struct.Struct("<I")
_UNASSIGNED = b"\xff" * 32
_ALL_ONES = int.from_bytes(_UNASSIGNED, "little")
_LOW_BYTES = bytes(range(0x80))
_BIG = 1 << 63             # cells at or above this are stored relative to the base
_LIMIT = 1 << 255          # cells must lie in [0, _LIMIT)
_TYPECODE = {array(c).itemsize: c for c in "bhiq"}
_SWAP = sys.byteorder == "big"


class FormatError(ValueError):
    pass


# --- layout ------------------------------------------------------------------

def _interleave(*parts: list) -> list:
    out = [0] * sum(map(len, parts))
    for k, part in enumerate(parts):
        out[k :: len(parts)] = part
    return out


def _fixed_to_json(col_id: str, vals: list, p: int) -> list[int]:
    rows = list(compress(range(len(vals)), vals))
    nonzero = [vals[r] for r in rows]
    if len(rows) + vals.count(0) != len(vals) or (nonzero and not (min(nonzero) > 0 and max(nonzero) < p)):
        raise FormatError(f"fixed column {col_id} holds a value that is not a canonical residue")
    half = p // 2
    return _interleave(rows, [v - p if v > half else v for v in nonzero])


def _copies_to_json(layout: CircuitLayout) -> list[int]:
    if layout.copies.names != list(layout.columns):
        raise FormatError("copies do not number the layout's columns")
    return layout.copies.flat


def layout_to_json(layout: CircuitLayout) -> dict:
    p = layout.field.modulus
    return {
        "format": "zkgrid-layout",
        "version": _LAYOUT_VERSION,
        "modulus": str(p),
        "n_rows": layout.n_rows,
        "n_rows_logical": layout.n_rows_logical,
        "columns": [{"id": c.id, "kind": c.kind} for c in layout.columns.values()],
        "gates": [
            {"id": g.id, "name": g.name, "selector": g.selector, "poly": g.poly.to_sexpr()}
            for g in layout.gates
        ],
        "tables": {
            t.id: {"arity": t.arity, "rows": sorted(list(r) for r in t.rows)}
            for t in layout.tables.values()
        },
        "lookups": [
            {"id": l.id, "table": l.table, "columns": list(l.columns), "selector": l.selector}
            for l in layout.lookups
        ],
        "copies": _copies_to_json(layout),
        "fixed": {col: _fixed_to_json(col, vals, p) for col, vals in layout.fixed.items()},
        "instance_map": [[cell[0], cell[1], idx] for cell, idx in layout.instance_map],
    }


def _need(ok: bool, what: str) -> None:
    if not ok:
        raise FormatError(f"malformed layout document: {what}")


def _typed(xs, t: type) -> bool:
    """xs is a list of items of exactly type t (for int: no bools or floats)."""
    return type(xs) is list and set(map(type, xs)) <= {t}


def _copies_from_json(flat, names: list) -> Copies:
    """Copies over the flat list; validate() range-checks its columns and rows."""
    _need(_typed(flat, int) and len(flat) % 4 == 0, "copies must be a flat list of 4-tuples of integers")
    return Copies(flat, names)


def _fixed_from_json(col_id: str, flat, n_rows: int, p: int) -> list[int]:
    what = f"fixed column {col_id}"
    _need(_typed(flat, int) and len(flat) % 2 == 0, f"{what} must be a flat [row, value, ...] integer list")
    vals = [0] * n_rows
    if flat:
        rows, signed = flat[0::2], flat[1::2]
        _need(rows[0] >= 0 and rows[-1] < n_rows, f"{what}: row outside the grid")
        _need(all(map(int.__lt__, rows, rows[1:])), f"{what}: rows not strictly increasing")
        _need(-p < 2 * min(signed) and 2 * max(signed) <= p, f"{what}: value outside (-p/2, p/2]")
        _need(0 not in signed, f"{what}: zero cell listed")
        for row, v in zip(rows, signed):
            vals[row] = v % p
    return vals


def _table_from_json(tid: str, t, p: int) -> LookupTable:
    _need(type(t) is dict and type(t.get("arity")) is int, f"table {tid} needs an integer arity")
    rows = t.get("rows")
    _need(_typed(rows, list), f"table {tid} rows must be lists")
    cells = [v for r in rows for v in r]
    _need(_typed(cells, int), f"table {tid} values must be integers")
    _need(not cells or (min(cells) >= 0 and max(cells) < p), f"table {tid}: value not a canonical residue")
    return LookupTable(id=tid, arity=t["arity"], rows=frozenset(map(tuple, rows)))


def layout_from_json(doc: dict) -> CircuitLayout:
    """A validated layout from a version-2 document.

    Raises FormatError for a document that is not a well-formed v2
    layout and CircuitError for one that describes an inconsistent
    circuit.
    """
    if type(doc) is not dict or doc.get("format") != "zkgrid-layout" or doc.get("version") != _LAYOUT_VERSION:
        raise FormatError(f"not a v{_LAYOUT_VERSION} layout document")
    try:
        modulus, n_rows, n_logical = doc["modulus"], doc["n_rows"], doc["n_rows_logical"]
        _need(type(modulus) is str and modulus.isdigit(), "modulus must be a decimal string")
        _need(type(n_rows) is int and 0 <= n_rows <= MAX_ROWS, f"n_rows must be an integer in [0, {MAX_ROWS}]")
        _need(type(n_logical) is int and 0 <= n_logical <= n_rows, "n_rows_logical must lie in [0, n_rows]")
        try:
            fld = Field(int(modulus))
        except ValueError as e:
            raise FormatError(f"malformed layout document: {e}") from e
        p = fld.modulus

        columns = {}
        for c in doc["columns"]:
            _need(_typed([c["id"], c["kind"]], str), "column id and kind must be strings")
            columns[c["id"]] = Column(c["id"], c["kind"])
        names = list(columns)
        _need(len(names) == len(doc["columns"]), "duplicate column id")

        gates = []
        for g in doc["gates"]:
            _need(_typed([g["id"], g["name"], g["selector"], g["poly"]], str), "gate fields must be strings")
            gates.append(GateDef(id=g["id"], name=g["name"], selector=g["selector"], poly=parse_sexpr(g["poly"])))

        lookups = []
        for l in doc["lookups"]:
            _need(_typed(l["columns"], str) and _typed([l["id"], l["table"], l["selector"]], str),
                  "lookup fields must be strings")
            lookups.append(LookupArg(id=l["id"], table=l["table"], columns=tuple(l["columns"]), selector=l["selector"]))

        fixed = doc["fixed"]
        _need(type(fixed) is dict, "fixed must be an object")
        _need(len(fixed) * n_rows <= MAX_CELLS, f"fixed columns of over {MAX_CELLS} cells")
        bindings = doc["instance_map"]
        _need(_typed(bindings, list) and set(map(len, bindings)) <= {3},
              "instance bindings must be [column, row, index] triples")
        cols, rows, idxs = [m[0] for m in bindings], [m[1] for m in bindings], [m[2] for m in bindings]
        _need(_typed(cols, str) and _typed(rows, int) and _typed(idxs, int), "instance binding of the wrong type")
        layout = CircuitLayout(
            field=fld,
            columns=columns,
            n_rows=n_rows,
            n_rows_logical=n_logical,
            gates=gates,
            tables={tid: _table_from_json(tid, t, p) for tid, t in doc["tables"].items()},
            lookups=lookups,
            copies=_copies_from_json(doc["copies"], names),
            fixed={col: _fixed_from_json(col, flat, n_rows, p) for col, flat in fixed.items()},
            instance_map=list(zip(zip(cols, rows), idxs)),
        )
    except (KeyError, TypeError, AttributeError) as e:
        raise FormatError(f"malformed layout document: {e!r}") from e
    layout.validate()
    return layout


def dump_layout(layout: CircuitLayout) -> bytes:
    return json.dumps(layout_to_json(layout), sort_keys=True, separators=(",", ":")).encode("ascii")


def load_layout(raw: bytes | str) -> CircuitLayout:
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError(f"layout is not valid JSON: {e}") from e
    except RecursionError as e:
        raise FormatError("layout JSON nests too deeply") from e
    return layout_from_json(doc)


# --- witness -----------------------------------------------------------------

def _encode_column(vals: list) -> bytes:
    """Assigned length, width byte, base and cells of one column (see the
    module docstring)."""
    n = len(vals)
    while n and vals[n - 1] is None:
        n -= 1
    vals = vals[:n]
    head = _LENGTH.pack(len(vals))
    present = [v for v in vals if v is not None]
    lo, hi = min(present, default=0), max(present, default=0)
    if lo < 0 or hi >= _LIMIT:
        raise FormatError(f"cell value {lo if lo < 0 else hi} outside [0, 2**255)")
    base, span = 0, hi
    if hi >= _BIG:
        base = hi + 1
        span = max(
            max((v for v in present if v < _BIG), default=0),
            base - min(v for v in present if v >= _BIG),
        )
    for w in (1, 2, 4, 8):
        if span < 1 << (8 * w - 1):
            none = -1 << (8 * w - 1)
            cells = array(_TYPECODE[w], [none if v is None else v if v < _BIG else v - base for v in vals])
            if _SWAP:
                cells.byteswap()
            return head + bytes((w,)) + base.to_bytes(32, "little") + cells.tobytes()
    return head + bytes((32,)) + bytes(32) + b"".join(
        _UNASSIGNED if v is None else v.to_bytes(32, "little") for v in vals
    )


def dump_witness(assignment: Assignment) -> bytes:
    cols = sorted(assignment.advice)
    n_rows = assignment.n_rows()
    for col in cols:
        if len(assignment.advice[col]) != n_rows:
            raise FormatError("ragged advice columns")
    if None in assignment.instance:
        raise FormatError("instance values cannot be unassigned")
    out = [_MAGIC, _HEADER.pack(_WITNESS_VERSION, n_rows, len(cols), len(assignment.instance))]
    for col in cols:
        cid = col.encode("utf-8")
        out.append(struct.pack("<H", len(cid)))
        out.append(cid)
    out.extend(_encode_column(assignment.advice[col]) for col in cols)
    out.append(_encode_column(assignment.instance))
    return b"".join(out)


def _refuse(what: str) -> None:
    raise FormatError(f"witness cell {what}")


def _decode_column(raw: bytes, pos: int, limit: int) -> tuple[list, int]:
    """The assigned cells of the column at raw[pos:], at most `limit` of
    them, and the position after it."""
    if pos + 37 > len(raw):
        raise FormatError("truncated witness column header")
    (n,) = _LENGTH.unpack_from(raw, pos)
    w = raw[pos + 4]
    base = int.from_bytes(raw[pos + 5 : pos + 37], "little")
    pos += 37
    if n > limit:
        raise FormatError(f"column of {n} cells in a witness of {limit} rows")
    end = pos + n * w
    if w not in (1, 2, 4, 8, 32):
        raise FormatError(f"bad cell width {w}")
    if end > len(raw):
        raise FormatError("truncated witness column")
    if w == 32:
        if base:
            raise FormatError("32-byte cells take no base")
        cells = map(itemgetter(0), struct.iter_unpack("32s", raw[pos:end]))
        ints = list(map(int.from_bytes, cells, repeat("little")))
        # Every cell with its top bit set must be the unassigned mark.
        if len(raw[pos + 31 : end : 32].translate(None, _LOW_BYTES)) != ints.count(_ALL_ONES):
            raise FormatError("witness cell >= 2**255")
        vals = [None if v == _ALL_ONES else v for v in ints]
    else:
        if base and not _BIG < base <= _LIMIT:
            raise FormatError(f"column base {base} outside (2**63, 2**255]")
        cells = array(_TYPECODE[w])
        cells.frombytes(raw[pos:end])
        if _SWAP:
            cells.byteswap()
        none = -1 << (8 * w - 1)
        vals = [d if d >= 0 else None if d == none else base + d if base else _refuse(f"{d} < 0") for d in cells]
    if vals and vals[-1] is None:
        raise FormatError("a column's last written cell is unassigned")
    return vals, end


def load_witness(raw: bytes) -> Assignment:
    if len(raw) < 4 + _HEADER.size or raw[:4] != _MAGIC:
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
