"""Layout and witness files: exact round trips, the cell widths the
writers pick, and refusal of every malformed file with
FormatError (or CircuitError for an inconsistent circuit) and exit
code 2 from `zkgrid check`, never a traceback."""

import json
import random
import struct
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import layout_doc, layout_file, layout_sections
from zkgrid import serialize
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.circuit import (
    ADVICE,
    FIXED,
    LOOKUP_CAP,
    MAX_CELLS,
    MAX_EXPR_DEPTH,
    MAX_ROWS,
    Assignment,
    CircuitError,
    CircuitLayout,
    Column,
    Expr,
    GateDef,
    add,
    cell,
    const,
    mul,
    pow5,
    sub,
)
from zkgrid.cli import main
from zkgrid.commit import VisibilityMode
from zkgrid.field import DEFAULT_MODULUS, Field
from zkgrid.modelgen import random_input, random_model, two_tap_fc_model
from zkgrid.serialize import FormatError

P = DEFAULT_MODULUS
TOP = (1 << 255) - 1
HALVES = [1 << (8 * w - 1) for w in (1, 2, 4, 8)]
EDGES = [0, 1, P - 1, P, TOP, *(h + k for h in HALVES for k in (-1, 0, 1))]
# A version-1 witness: one advice column "a" of one 32-byte cell.
V1_WITNESS = b"ZKWT" + struct.pack("<IIII", 1, 1, 1, 0) + b"\x01\x00a" + (5).to_bytes(32, "little")
# A version-2 witness: column "a" and the instance vector, each one 1-byte cell 5.
V2_WITNESS = b"ZKWT" + struct.pack("<IIII", 2, 1, 1, 1) + b"\x01\x00a" + (b"\x01" + bytes(32) + b"\x05") * 2
# A version-3 witness: the same, each column led by its assigned length.
V3_WITNESS = b"ZKWT" + struct.pack("<IIII", 3, 1, 1, 1) + b"\x01\x00a" + (b"\x01\x00\x00\x00\x01" + bytes(32) + b"\x05") * 2


def cell_column(cells=b"", w=1, base=None, length=None, count=None, bitmap=b"", outliers=(), k=None) -> bytes:
    """A version-4 cell column from raw parts: `cells` are the assigned
    cells' bytes, w bytes each.  The length and the assigned count
    default to the number of cells, a base is written when given, and
    for w <= 8 the outlier count `k` defaults to the number of
    `outliers`."""
    n = len(cells) // w
    form = bytes((w | 0x80,)) + base.to_bytes(32, "little") if base is not None else bytes((w,))
    tail = b"" if w == 32 else struct.pack("<I", len(outliers) if k is None else k)
    tail += b"".join(v.to_bytes(32, "little") for v in outliers)
    return struct.pack("<II", n if length is None else length, n if count is None else count) + form + bitmap + cells + tail


def witness_bytes(n_rows, columns, instance=cell_column(b"\x05"), n_inst=None, version=4) -> bytes:
    """A witness file from raw parts: columns maps id -> cell column
    bytes, or lists such (id, bytes) pairs, and instance is one more cell
    column.  The instance count defaults to the instance column's
    length, ids are str or raw bytes."""
    items = list(columns.items() if isinstance(columns, dict) else columns)
    n_inst = struct.unpack_from("<I", instance)[0] if n_inst is None else n_inst
    out = [b"ZKWT", struct.pack("<IIII", version, n_rows, len(items), n_inst)]
    for cid, _ in items:
        cid = cid if isinstance(cid, bytes) else cid.encode()
        out += [struct.pack("<H", len(cid)), cid]
    out += [column for _, column in items]
    out.append(instance)
    return b"".join(out)


def column_heads(raw: bytes) -> list[dict]:
    """Each advice column's, then the instance vector's, offset, length,
    assigned count, width, base flag and outlier count, read by the
    version-4 rules restated."""
    _, n_rows, n_cols, n_inst = struct.unpack_from("<IIII", raw, 4)
    pos = 20
    for _ in range(n_cols):
        pos += 2 + struct.unpack_from("<H", raw, pos)[0]
    heads = []
    for _ in range(n_cols + 1):
        length, count = struct.unpack_from("<II", raw, pos)
        form = raw[pos + 8]
        head = dict(pos=pos, length=length, count=count, width=form & 0x7F, based=form >= 0x80, outliers=0)
        at = pos + 9 + 32 * head["based"] + ((length + 7) // 8 if count < length else 0) + count * head["width"]
        if head["width"] != 32:
            head["outliers"] = struct.unpack_from("<I", raw, at)[0]
            at += 4 + 32 * head["outliers"]
        heads.append(head)
        pos = at
    assert pos == len(raw)
    return heads


def column_widths(raw: bytes) -> list[int]:
    """The width of each advice column, then of the instance vector."""
    return [h["width"] for h in column_heads(raw)]


def assigned_length(vals) -> int:
    return max((i + 1 for i, v in enumerate(vals) if v is not None), default=0)


def cheapest_width(vals) -> tuple[int, int]:
    """The width rule, restated, and the outliers it leaves: values
    below 2**63 as themselves, the others as negatives against one above
    the largest of them; the width costs its cells, 32 bytes per outlier
    and 32 for the base, 32-byte cells cost only themselves, and the
    narrowest of equal costs wins."""
    present = [v for v in vals if v is not None]
    big = [v for v in present if v >= 1 << 63]
    base = max(big) + 1 if big else 0
    d = [v if v < 1 << 63 else v - base for v in present]
    costs = {}
    for w, half in zip((1, 2, 4, 8), HALVES):
        outs = sum(not -half < x < half for x in d)
        costs[w] = (32 * bool(base) + len(present) * w + 32 * outs, outs)
    costs[32] = (32 * len(present), 0)
    w = min(costs, key=lambda w: (costs[w][0], w))
    return w, costs[w][1]


# --- witness codec -----------------------------------------------------------

@pytest.mark.parametrize(
    "vals, width, outliers",
    [
        ([None, 0, 127], 1, 0),
        ([None, None], 1, 0),
        ([P - 1, P - 127, 3, None], 1, 0),  # base P: d = -1 and -127
        ([P - 1, P - 128, 3], 2, 0),        # -128 is the w=1 outlier mark: 2 bytes a cell beat 32 for it
        ([P - 1] * 40 + [P - 128], 1, 1),   # ... unless the column is long
        ([P, 0], 1, 0),                     # base P + 1: d = -1
        ([1 << 15], 4, 0),
        ([(1 << 31) - 1, P - 1], 4, 0),
        ([1 << 31], 8, 0),
        ([(1 << 63) - 1, TOP], 8, 0),   # base 2**255, d = -1
        ([1 << 63, None, 0], 1, 0),
        ([TOP, 1 << 63], 32, 0),
        ([P - 1, 1 << 63, None], 32, 0),
        ([200, 200, 1], 2, 0),
        ([1] * 40 + [1 << 40], 1, 1),                 # one stray big value
        ([1] * 40 + [1 << 200, 1 << 100, None], 1, 1),  # 2**200 is the base's, 2**100 an outlier
        ([P - 1, 1 << 100] * 20, 1, 20),
    ],
)
def test_witness_picks_cheapest_width(vals, width, outliers):
    asg = Assignment(advice={"a": vals, "b": [0] * len(vals)}, instance=[v for v in vals if v is not None])
    raw = serialize.dump_witness(asg)
    heads = column_heads(raw)
    assert [(h["width"], h["outliers"]) for h in heads] == [(width, outliers), (1, 0), (width, outliers)]
    assert cheapest_width(vals) == (width, outliers)
    assert serialize.load_witness(raw) == asg


@st.composite
def columns(draw, n_rows):
    """Cells up to `bits` wide or that far below `top`, edge values of
    each width, often runs of unassigned cells, an unassigned tail or no
    assigned cell at all; the bit choices make every width and outliers
    common."""
    bits = draw(st.sampled_from([7, 15, 31, 63, 255]))
    top = draw(st.sampled_from([P, P + 1, 1 << 63, 1 << 255]))
    cell = st.one_of(
        st.integers(0, (1 << bits) - 1).map(lambda v: min(v, TOP)),
        st.integers(1, 1 << bits).map(lambda d: top - d).filter(lambda v: v >= 0),
        st.sampled_from(EDGES),
        st.sampled_from([top - h + k for h in HALVES for k in (-1, 0, 1, 2)]).filter(lambda v: 0 <= v <= TOP),
    )
    cells = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
    for start, run in draw(st.lists(st.tuples(st.integers(0, n_rows), st.integers(1, 12)), max_size=4)):
        cells[start : start + run] = [None] * len(cells[start : start + run])
    cut = draw(st.sampled_from([n_rows, 0, draw(st.integers(0, n_rows))]))
    return cells[:cut] + [None] * (n_rows - cut)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(0, 40), data=st.data())
def test_witness_round_trip(n_rows, data):
    ids = data.draw(st.lists(st.text("abcxyz:", min_size=1, max_size=4), max_size=5, unique=True))
    advice = {c: data.draw(columns(n_rows)) for c in ids}
    instance = [v for v in data.draw(columns(12)) if v is not None]
    asg = Assignment(advice=advice, instance=instance)
    raw = serialize.dump_witness(asg)
    heads = column_heads(raw)
    vals = [advice[c] for c in sorted(advice)] + [instance]
    assert [(h["width"], h["outliers"]) for h in heads] == list(map(cheapest_width, vals))
    assert [h["length"] for h in heads] == list(map(assigned_length, vals))
    assert [h["count"] for h in heads] == [len(v) - v.count(None) for v in vals]
    loaded = serialize.load_witness(raw)
    assert loaded == asg
    assert {type(v) for v in [*loaded.instance, *(v for col in loaded.advice.values() for v in col)]} <= {int, type(None)}
    assert serialize.dump_witness(loaded) == raw


@pytest.mark.parametrize("bad", [1 << 255, (1 << 256) - 1, -1, -(1 << 70)])
def test_witness_refuses_cells_outside_255_bits(bad):
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={"a": [0, bad]}, instance=[]))
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={}, instance=[bad]))
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={"a": [None, 1 << 200, bad]}, instance=[]))


def _header_and(*parts: bytes) -> bytes:
    """A witness of 20 rows whose column "a" is `parts` and nothing more."""
    return b"ZKWT" + struct.pack("<IIII", 4, 20, 1, 0) + b"\x01\x00a" + b"".join(parts)


# A presence bitmap 0b101 over 3 rows: rows 0 and 2 assigned.
HOLE = dict(length=3, bitmap=b"\x05")

MALFORMED_WITNESSES = {
    "version 1": (V1_WITNESS, "version 1; run `zkgrid witness` again"),
    "version 2": (V2_WITNESS, "version 2; run `zkgrid witness` again"),
    "version 3": (V3_WITNESS, "version 3; run `zkgrid witness` again"),
    "version 5": (witness_bytes(1, {"a": cell_column(b"\x01")}, version=5), "unsupported witness version 5"),
    "column longer than the grid": (witness_bytes(1, {"a": cell_column(b"\x01\x02")}), "column of 2 cells where at most 1 fit"),
    "more cells than rows": (witness_bytes(2, {"a": cell_column(b"\x01", length=1, count=2)}), "2 assigned cells in a column of 1"),
    "bitmap truncated": (_header_and(struct.pack("<II", 20, 1), b"\x01", b"\x00"), "truncated presence bitmap"),
    "bit set at L": (witness_bytes(4, {"a": cell_column(b"\x01\x02", length=3, bitmap=b"\x0c")}), "presence bit set at or past"),
    "bit set past L": (witness_bytes(9, {"a": cell_column(b"\x01", length=2, bitmap=b"\x82")}), "presence bit set at or past"),
    "last bit clear": (witness_bytes(4, {"a": cell_column(b"\x01\x02", length=3, bitmap=b"\x03")}), "last written cell is unassigned"),
    "count not the popcount": (witness_bytes(4, {"a": cell_column(b"\x01", **HOLE)}), "1 assigned cells, the presence bitmap sets 2"),
    "outlier mark with no list entry": (witness_bytes(2, {"a": cell_column(b"\x05\x80")}), "outlier mark with no listed outlier"),
    "mark past the list": (witness_bytes(2, {"a": cell_column(b"\x80\x80", outliers=[7])}), "outlier mark with no listed outlier"),
    "list entry left over": (witness_bytes(1, {"a": cell_column(b"\x05", outliers=[7])}), "listed outlier with no outlier mark"),
    "outlier >= 2**255": (witness_bytes(1, {"a": cell_column(b"\x80", outliers=[1 << 255])}), "outlier >= 2\\*\\*255"),
    "outlier list truncated": (witness_bytes(1, {"a": cell_column(b"\x80", k=2, outliers=[7])}), "truncated"),
    "instance with a hole": (witness_bytes(1, {"a": cell_column(b"\x01")}, instance=cell_column(b"\x05\x05", **HOLE)), "instance values"),
    "instance count": (witness_bytes(1, {"a": cell_column(b"\x01")}, n_inst=2), "header says 2"),
    "width 3": (witness_bytes(1, {"a": cell_column(b"\x00\x00\x00", w=3)}), "bad cell width 3"),
    "width 0x41": (witness_bytes(1, {"a": cell_column(b"\x00", w=0x41)}), "bad cell width 65"),
    "32-byte cells with a base": (witness_bytes(1, {"a": cell_column(bytes(32), w=32, base=1 << 64)}), "32-byte cells take no base"),
    "base 2**63": (witness_bytes(1, {"a": cell_column(b"\x01", base=1 << 63)}), "base"),
    "base over 2**255": (witness_bytes(1, {"a": cell_column(bytes(8), w=8, base=(1 << 255) + 1)}), "base"),
    "negative cell with no base": (witness_bytes(1, {"a": cell_column(b"\xff")}), "cell -1 < 0 in a column with no base"),
    "32-byte cell >= 2**255": (witness_bytes(1, {"a": cell_column((1 << 255).to_bytes(32, "little"), w=32)}), ">= 2\\*\\*255"),
    "truncated": (witness_bytes(1, {"a": cell_column(b"\x01"), "b": cell_column(b"\x01")})[:-1], "truncated"),
    "trailing bytes": (witness_bytes(1, {"a": cell_column(b"\x01")}) + b"\x00", "trailing"),
    "id not UTF-8": (witness_bytes(0, {b"\xff": cell_column()}, instance=cell_column()), "UTF-8"),
    "duplicate id": (witness_bytes(0, [("a", cell_column()), ("a", cell_column())], instance=cell_column()), "duplicate"),
    "not a witness": (b"not a witness", "not a witness"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_WITNESSES))
def test_malformed_witness_refused(name):
    raw, match = MALFORMED_WITNESSES[name]
    with pytest.raises(FormatError, match=match):
        serialize.load_witness(raw)


def test_well_formed_fixtures_load():
    """The fixtures' parts load when nothing is wrong with them: a hole,
    an outlier, a base and a 32-byte cell."""
    raw = witness_bytes(4, {
        "a": cell_column(b"\x01\x02", **HOLE),
        "b": cell_column(b"\x05\x80\xff", base=P, outliers=[1 << 100]),
        "c": cell_column((P - 1).to_bytes(32, "little"), w=32),
    })
    asg = serialize.load_witness(raw)
    assert asg.advice == {"a": [1, None, 2, None], "b": [5, 1 << 100, P - 1, None], "c": [P - 1, None, None, None]}
    assert asg.instance == [5]
    assert serialize.dump_witness(asg) == raw


# --- files through the CLI ---------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("files")
    g = two_tap_fc_model()
    layout, _ = compile(g)
    asg = assign_witness(layout, g, random_input(random.Random(3), g))
    lay_raw, wit_raw = serialize.dump_layout(layout), serialize.dump_witness(asg)
    (tmp / "layout.bin").write_bytes(lay_raw)
    (tmp / "w.bin").write_bytes(wit_raw)
    assert main(["check", str(tmp / "layout.bin"), str(tmp / "w.bin")]) == 0
    return tmp, lay_raw, wit_raw


def _check(tmp, layout_raw: bytes, witness_raw: bytes) -> int:
    (tmp / "l.bin").write_bytes(layout_raw)
    (tmp / "x.bin").write_bytes(witness_raw)
    return main(["check", str(tmp / "l.bin"), str(tmp / "x.bin")])


def test_truncated_or_extended_files_exit_2(files):
    tmp, lay, wit = files
    for cut in range(len(wit)):
        with pytest.raises(FormatError):
            serialize.load_witness(wit[:cut])
    for cut in range(0, len(lay), 7):
        with pytest.raises(FormatError):
            serialize.load_layout(lay[:cut])
    for cut in (0, 10, len(wit) // 2, len(wit) - 1):
        assert _check(tmp, lay, wit[:cut]) == 2
    for cut in (0, 10, len(lay) // 2, len(lay) - 1):
        assert _check(tmp, lay[:cut], wit) == 2
    for tail in (b"\x00", b"\xff" * 40):
        with pytest.raises(FormatError, match="trailing"):
            serialize.load_witness(wit + tail)
        assert _check(tmp, lay, wit + tail) == 2
    for tail in (b"0", b"{}", b"\xff"):
        with pytest.raises(FormatError, match="trailing"):
            serialize.load_layout(lay + tail)
        assert _check(tmp, lay + tail, wit) == 2
    for doc in (b"[]", b"{}", b"null", b"[" * 100_000, b"ZKLY"):
        with pytest.raises(FormatError):
            serialize.load_layout(doc)


def test_layout_truncated_at_each_section_boundary_exits_2(files, capsys):
    """A file cut at, just before or just after the end of its header or
    of any section is refused; the reference file's sections mark the
    cuts."""
    tmp, lay, wit = files
    sections = layout_sections(layout_doc(serialize.load_layout(lay)))
    raw = b"".join(sections)
    ends = [sum(map(len, sections[: k + 1])) for k in range(len(sections))]
    assert ends[-1] == len(raw)
    for end in ends:
        for cut in sorted({end - 1, end, end + 1} & set(range(len(raw)))):
            with pytest.raises(FormatError, match="truncated|trailing"):
                serialize.load_layout(raw[:cut])
            assert _check(tmp, raw[:cut], wit) == 2
    assert "error: malformed layout" in capsys.readouterr().err


def test_flipped_witness_header_refused(files):
    """A flipped header byte, or a flipped low byte of a column's length
    or assigned count, or its form byte, is refused by the loader.  The
    row count is the one header field no cell bytes back: a larger one
    can load, as a witness with more unassigned rows, and `check` then
    refuses it against the layout."""
    tmp, lay, wit = files
    column_starts = [h["pos"] for h in column_heads(wit)]
    for pos in [*range(8), *range(12, 20), *(pos + k for pos in column_starts for k in (0, 4, 8))]:
        for mask in (0x01, 0x06, 0x80, 0xFF):
            bad = bytearray(wit)
            bad[pos] ^= mask
            with pytest.raises(FormatError):
                serialize.load_witness(bytes(bad))
    for pos in range(8, 12):
        for mask in (0x01, 0x06, 0x80, 0xFF):
            bad = bytearray(wit)
            bad[pos] ^= mask
            assert _check(tmp, lay, bytes(bad)) == 2
    bad = bytearray(wit)
    bad[0] ^= 1
    assert _check(tmp, lay, bytes(bad)) == 2


def test_flipped_layout_bytes_sweep(tmp_path):
    """Every byte of a layout file flipped in turn: the loader returns or
    raises FormatError or CircuitError.  Flips of the prefix and of each
    section's width byte and cell-column head also go through `check`,
    which exits 2 whenever loading failed.  The two-tap model keeps the
    file small."""
    g = two_tap_fc_model()
    layout, _ = compile(g)
    wit = serialize.dump_witness(assign_witness(layout, g, random_input(random.Random(3), g)))
    lay = serialize.dump_layout(layout)
    sections = layout_sections(layout_doc(layout))
    raw = b"".join(sections)
    starts = [sum(map(len, sections[:k])) for k in range(1, len(sections))]
    heads = {*range(12), *(s + k for s in starts for k in range(6))}
    for source in (lay, raw):
        for pos in range(len(source)) if source is lay else sorted(heads):
            for mask in (0xFF,) if source is lay else (0x01, 0xFF):
                bad = bytearray(source)
                bad[pos] ^= mask
                try:
                    serialize.load_layout(bytes(bad))
                    failed = False
                except (FormatError, CircuitError):
                    failed = True
                if source is raw:
                    code = _check(tmp_path, bytes(bad), wit)
                    assert code == 2 if failed else code in (0, 1, 2)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flipped_bytes_never_crash(files, data):
    """Any one byte changed: the loaders return or raise FormatError or
    CircuitError, and `check` exits 0, 1 or 2, 2 whenever loading failed."""
    tmp, lay, wit = files
    in_layout = data.draw(st.booleans())
    raw = bytearray(lay if in_layout else wit)
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    try:
        (serialize.load_layout if in_layout else serialize.load_witness)(bytes(raw))
        failed = False
    except (FormatError, CircuitError):
        failed = True
    code = _check(tmp, bytes(raw), wit) if in_layout else _check(tmp, lay, bytes(raw))
    assert code in (0, 1, 2)
    if failed:
        assert code == 2


# A version-2 layout: JSON with a one-row fixed selector "q" over advice "a".
V2_LAYOUT = json.dumps({
    "format": "zkgrid-layout", "version": 2, "modulus": str(P), "n_rows": 1, "n_rows_logical": 1,
    "columns": [{"id": "q", "kind": "fixed"}, {"id": "a", "kind": "advice"}],
    "gates": [{"id": "g", "name": "G", "selector": "q", "poly": "(col a)"}],
    "tables": {}, "lookups": [], "copies": [], "fixed": {"q": [0, 1]}, "instance_map": [],
}).encode()


def test_v1_and_v2_layouts_refused(files, capsys):
    tmp, _, wit = files
    v1 = json.loads(V2_LAYOUT)
    v1.update(version=1, fixed={"q": [1]})
    for raw in (V2_LAYOUT, json.dumps(v1).encode()):
        with pytest.raises(FormatError, match="JSON layout of version 1 or 2"):
            serialize.load_layout(raw)
        assert _check(tmp, raw, wit) == 2
        assert "compile the model again" in capsys.readouterr().err


def _edit(key, value):
    """A header edit: set the field at key path `key` (keys and list indices)."""
    def apply(doc):
        *head, last = key
        node = doc["header"]
        for k in head:
            node = node[k]
        node[last] = value(node[last]) if callable(value) else value
    return apply


def _copy_cell(i, value):
    return lambda doc: doc["copies"].__setitem__(i, value)


def _fixed(col, rows, vals):
    """Replace fixed column `col`'s cells."""
    def apply(doc):
        entry = next(f for f in doc["fixed"] if f[0] == col)
        entry[1:] = [rows, vals]
    return apply


def _width(key, w):
    """Write the section named `key`, or key(doc), with width byte w."""
    return lambda doc: doc["widths"].__setitem__(key(doc) if callable(key) else key, w)


def _first_fixed_values(doc):
    return "values:" + next(col for col, rows, _ in doc["fixed"] if rows)


def _root(*nodes):
    """Append `nodes` to the node table and make the last gate 0's
    polynomial.  In them operand -1 names the node just before the one
    it is in and -2 the one before that; other operands are kept (node 0
    of layout_doc's table is a col)."""
    def apply(doc):
        table = doc["header"]["nodes"]
        for node in nodes:
            at = len(table)
            table.append([at + x if type(x) is int and x < 0 else x for x in node])
        doc["header"]["gates"][0]["poly"] = len(table) - 1
    return apply


# Node-table entries the loader refuses, each made gate 0's polynomial.
BAD_NODES = {
    **{f"{op} of {len(args)} operands": [[op, *args]] for op, args in [
        ("+", []), ("+", [-1]), ("*", []), ("*", [-1]),
        ("-", []), ("-", [-1]), ("-", [-1, -2, -1]), ("pow5", []), ("pow5", [-1, -2]),
    ]},
    **{f"const {text!r}": [["const", text]] for text in ["1_0", "+5", "\u0663", "-7", "07", " 7", "", str(P)]},
    "const as a number": [["const", 7]],
    "const of two values": [["const", "1", "2"]],
    "col of two ids": [["col", "g0:x0", "g0:x1"]],
    "col id a number": [["col", 0]],
    "operand out of range": [["+", -1, 10**6]],
    "operand negative": [["+", 0, -10**6]],
    "operand a string": [["+", -1, "0"]],
    "operand a boolean": [["+", -1, True]],
    "unknown op": [["%", -1, -2]],
    "op not a string": [[["+"], -1, -2]],
    "not a list": ["g0:x0"],
    "empty list": [[]],
    "op alone": [["col"]],
    "chain one deeper than MAX_EXPR_DEPTH": [["+", 0, 0]] + [["+", -1, 0]] * MAX_EXPR_DEPTH,
    "tree of 2**64 - 1 nodes": [["col", "g0:x0"]] + [["+", -1, -1]] * (MAX_EXPR_DEPTH - 1),
}


def _operand(index):
    """Set the last operand of the table's first operator node, number
    k, to index(k)."""
    def apply(doc):
        nodes = doc["header"]["nodes"]
        k = next(k for k, node in enumerate(nodes) if node[0] not in ("col", "const"))
        nodes[k][-1] = index(k)
    return apply


U32_MAX = (1 << 32) - 1
SELECTOR = "g0:q_dot2"   # enables the model's one row

# The model's two table recipes, and table lists the loader refuses in
# their place, each with what its message says.
RANGE, CLIP = ["range", 0, 1], ["clip", 1, 2, 0, -5, 1143]
BAD_RECIPES = {
    "recipe of an unknown kind": ([["square", 0, 1], CLIP], "with integer parameters"),
    "recipe empty": ([[], CLIP], "with integer parameters"),
    "recipe of three bounds": ([["range", 0, 1, 2], CLIP], "with integer parameters"),
    "recipe boolean parameter": ([["range", False, 1], CLIP], "with integer parameters"),
    "recipe string parameter": ([RANGE, ["clip", 1, "2", 0, -5, 1143]], "with integer parameters"),
    "range lo > hi": ([["range", 1, 0], CLIP], "empty domain"),
    "range over LOOKUP_CAP": ([["range", 0, LOOKUP_CAP], CLIP], f"exceeds the cap {LOOKUP_CAP}"),
    "clip b = 0": ([RANGE, ["clip", 1, 0, 0, -5, 1143]], "must be positive"),
    "clip domain empty": ([RANGE, ["clip", 1, 2, 0, 5, -5]], "empty domain"),
    "listed twice": ([RANGE, CLIP, RANGE], "listed twice"),
    "entries over MAX_CELLS": (
        [RANGE, CLIP] + [["range", k << 20, ((k + 1) << 20) - 1] for k in range(1, (MAX_CELLS >> 20) + 1)],
        f"tables of over {MAX_CELLS} entries",
    ),
}


BAD_LAYOUTS = {
    "fixed value width 3": _width(_first_fixed_values, 3),
    "copy width 3": _width("copies", 3),
    "copy width 8": _width("copies", 8),
    "copy column index out of range": _copy_cell(0, 10_000),
    "copy column index 2**32 - 1": _copy_cell(2, U32_MAX),
    "copy row outside grid": _copy_cell(3, 1 << 20),
    "ragged copies": lambda doc: doc["copies"].pop(),
    "copy count above the section": _edit(["copies"], 1_000_000),
    **{f"node {name}": _root(*nodes) for name, nodes in BAD_NODES.items()},
    "gate poly index out of range": lambda doc: _edit(["gates", 0, "poly"], len(doc["header"]["nodes"]))(doc),
    "gate poly index negative": _edit(["gates", 0, "poly"], -1),
    "gate poly as s-expression": _edit(["gates", 0, "poly"], "(col g0:x0)"),
    "nodes not a list": _edit(["nodes"], {}),
    "node operand is itself": _operand(lambda k: k),
    "node operand points forward": _operand(lambda k: k + 1),
    "lookup selector is advice": _edit(["lookups", 0, "selector"], "g0:x0"),
    "fixed rows unsorted": _fixed(SELECTOR, [1, 0], [1, 1]),
    "fixed row repeated": _fixed(SELECTOR, [0, 0], [1, 1]),
    "fixed row outside grid": lambda doc: _fixed(SELECTOR, [0, doc["header"]["n_rows"]], [1, 1])(doc),
    "fixed row 2**32 - 1": _fixed(SELECTOR, [U32_MAX], [1]),
    "fixed value p": _fixed(SELECTOR, [0], [P]),
    "fixed value 2**255": _fixed(SELECTOR, [0], [1 << 255]),
    "fixed zero listed": _fixed(SELECTOR, [0], [0]),
    "fixed unassigned value": _fixed(SELECTOR, [0], [None]),
    "fixed more rows than values": _fixed(SELECTOR, [0, 1], [1]),
    "fixed more values than rows": _fixed(SELECTOR, [0], [1, 1]),
    "fixed count string": lambda doc: doc["header"].update(fixed=[[c, str(len(r))] for c, r, _ in doc["fixed"]]),
    "fixed for unknown column": lambda doc: doc["fixed"].append(["nope", [], []]),
    "fixed column listed twice": lambda doc: doc["fixed"].append(list(doc["fixed"][0])),
    **{f"table {name}": _edit(["tables"], recipes) for name, (recipes, _) in BAD_RECIPES.items()},
    "table recipe not a list": _edit(["tables", 0], "range:0:1"),
    "boolean n_rows": _edit(["n_rows"], True),
    "modulus not prime": _edit(["modulus"], str(P + 2)),
    "modulus as number": _edit(["modulus"], P),
    "duplicate column": lambda doc: doc["header"]["columns"].append(dict(doc["header"]["columns"][1])),
    "column kind": _edit(["columns", 1, "kind"], "advise"),
    "column kind instance": _edit(["columns", 1, "kind"], "instance"),
    "column not an object": _edit(["columns", 1], "io0"),
    "instance binding width 3": _width("bindings", 3),
    "instance binding count string": _edit(["bindings"], "1"),
    "instance binding short": lambda doc: doc["bindings"].pop(),
}


@pytest.mark.parametrize("name", sorted(BAD_LAYOUTS))
def test_malformed_layout_exit_2(files, name):
    tmp, lay, wit = files
    doc = layout_doc(serialize.load_layout(lay))
    BAD_LAYOUTS[name](doc)
    raw = layout_file(doc)
    with pytest.raises((FormatError, CircuitError)):
        serialize.load_layout(raw)
    assert _check(tmp, raw, wit) == 2


@pytest.mark.parametrize("raw, match", [
    (b"ZKLY" + struct.pack("<II", 7, 2) + b"{}", "unsupported layout version 7"),
    (b"ZKLY" + struct.pack("<II", 6, 2) + b"[]", "the header must be an object"),
    (b"ZKLY" + struct.pack("<II", 6, 2) + b"{\xff", "not valid JSON"),
    (b"ZKLY" + struct.pack("<II", 6, 3) + b"{}", "truncated header"),
    (b"ZKLY\x04\x00", "truncated header"),
])
def test_malformed_layout_prefix_refused(raw, match):
    with pytest.raises(FormatError, match=match):
        serialize.load_layout(raw)


def test_reference_file_loads_as_dump_writes_it(files):
    """The reference writer's 4-byte integers and 32-byte cells load to
    the same layout as dump_layout's narrowest widths."""
    _, lay, _ = files
    layout = serialize.load_layout(lay)
    raw = layout_file(layout_doc(layout))
    assert raw != lay
    assert serialize.load_layout(raw) == layout
    assert serialize.dump_layout(serialize.load_layout(raw)) == lay


def test_v1_witness_refused_by_cli(files):
    tmp, lay, _ = files
    assert _check(tmp, lay, V1_WITNESS) == 2


def test_v2_witness_refused_by_cli(files):
    tmp, lay, _ = files
    assert _check(tmp, lay, V2_WITNESS) == 2


def test_v3_witness_refused_by_cli(files, capsys):
    """A version-3 witness, whose unassigned cells were in-band marks, is
    refused with a message that says to make the witness again."""
    tmp, lay, _ = files
    assert _check(tmp, lay, V3_WITNESS) == 2
    assert "version 3; run `zkgrid witness` again to get a version-4 file" in capsys.readouterr().err


def test_layout_taller_than_max_rows_exits_2(files, capsys):
    """A layout's n_rows is refused before any column is sized by it."""
    tmp, lay, wit = files
    for n_rows in (MAX_ROWS + 1, 10**15):
        doc = layout_doc(serialize.load_layout(lay))
        doc["header"]["n_rows"] = n_rows
        assert _check(tmp, layout_file(doc), wit) == 2
        assert "n_rows must be an integer in" in capsys.readouterr().err


def test_witness_taller_than_max_rows_exits_2(files, capsys):
    """A witness header's row count is not backed by cell bytes, so the
    loader bounds it before padding columns to it."""
    tmp, lay, wit = files
    for n_rows in (MAX_ROWS + 1, (1 << 32) - 1):
        bad = wit[:8] + struct.pack("<I", n_rows) + wit[12:]
        assert _check(tmp, lay, bad) == 2
        assert "over the limit" in capsys.readouterr().err


def test_witness_of_many_empty_columns_exits_2(files, capsys):
    """Empty columns cost a few bytes each but would be padded to n_rows
    cells: 10,000 of them at MAX_ROWS rows are refused before padding."""
    tmp, lay, _ = files
    bad = witness_bytes(MAX_ROWS, [(f"c{i}", cell_column()) for i in range(10_000)])
    assert len(bad) < 500_000
    assert _check(tmp, lay, bad) == 2
    assert f"over the limit of {MAX_CELLS} cells" in capsys.readouterr().err


def test_layout_of_many_empty_fixed_columns_exits_2(files, capsys):
    """An empty fixed column costs a few bytes but the checker may make
    it n_rows cells: 10,000 of them at MAX_ROWS rows are refused."""
    tmp, lay, wit = files
    doc = layout_doc(serialize.load_layout(lay))
    doc["header"]["n_rows"] = MAX_ROWS
    doc["fixed"] += [[f"f{i}", [], []] for i in range(10_000)]
    assert _check(tmp, layout_file(doc), wit) == 2
    assert f"fixed columns of over {MAX_CELLS} cells" in capsys.readouterr().err


def test_witness_is_read_whole_before_padding():
    """A file with trailing bytes is refused before its one column is
    padded to the MAX_ROWS rows its header claims (8 MB of list slots)."""
    raw = witness_bytes(MAX_ROWS, [("a", cell_column(b"\x01"))]) + b"\x00"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="trailing bytes"):
            serialize.load_witness(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("mode", [None, *VisibilityMode])
def test_round_trips_are_exact_and_deterministic(mode):
    rng = random.Random(8)
    g = random_model(rng, max_hw=5, max_c=3, max_layers=3)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(rng, g))
    lay_raw, wit_raw = serialize.dump_layout(layout), serialize.dump_witness(asg)
    assert lay_raw == serialize.dump_layout(compile(g, CompileConfig(mode=mode))[0])
    assert serialize.load_layout(lay_raw) == layout
    assert serialize.load_witness(wit_raw) == asg
    assert serialize.dump_layout(serialize.load_layout(lay_raw)) == lay_raw
    assert serialize.dump_witness(serialize.load_witness(wit_raw)) == wit_raw
    widths = set(column_widths(wit_raw))
    assert 1 in widths and (32 in widths) == (mode is not None)


def test_v3_layout_refused(files, capsys):
    """A version-3 layout, whose gates were s-expressions, is refused
    with a message that says to compile the model again."""
    tmp, lay, wit = files
    v3 = lay[:4] + struct.pack("<I", 3) + lay[8:]
    with pytest.raises(FormatError, match="version 3; compile the model again"):
        serialize.load_layout(v3)
    assert _check(tmp, v3, wit) == 2
    assert "compile the model again" in capsys.readouterr().err


def test_v4_layout_refused(files, capsys):
    """A version-4 layout, which listed every table entry, is refused
    with a message that says to compile the model again."""
    tmp, lay, wit = files
    v4 = lay[:4] + struct.pack("<I", 4) + lay[8:]
    with pytest.raises(FormatError, match="version 4; compile the model again"):
        serialize.load_layout(v4)
    assert _check(tmp, v4, wit) == 2
    assert "compile the model again" in capsys.readouterr().err


def test_v5_layout_refused(files, capsys):
    """A version-5 layout, whose fixed values were cell columns of the
    version-3 witness codec, is refused with a message that says to
    compile the model again."""
    tmp, lay, wit = files
    v5 = lay[:4] + struct.pack("<I", 5) + lay[8:]
    with pytest.raises(FormatError, match="version 5; compile the model again to get a version-6 file"):
        serialize.load_layout(v5)
    assert _check(tmp, v5, wit) == 2
    assert "compile the model again" in capsys.readouterr().err


def _with_recipes(layout, recipes) -> CircuitLayout:
    """The layout with one table of each recipe, made from its first table."""
    first = next(iter(layout.tables.values()))
    return replace(layout, tables={str(k): replace(first, recipe=tuple(r)) for k, r in enumerate(recipes)})


@pytest.mark.parametrize("name", sorted(BAD_RECIPES))
def test_bad_table_recipes_refused_by_load_and_dump(files, capsys, name):
    """The loader refuses each table list with the builder's message or
    its own, `zkgrid check` exits 2 saying so, and dump_layout refuses
    the same list."""
    tmp, lay, wit = files
    recipes, match = BAD_RECIPES[name]
    layout = serialize.load_layout(lay)
    doc = layout_doc(layout)
    assert doc["header"]["tables"] == [RANGE, CLIP]
    doc["header"]["tables"] = recipes
    with pytest.raises(FormatError, match=match):
        serialize.load_layout(layout_file(doc))
    assert _check(tmp, layout_file(doc), wit) == 2
    assert match in capsys.readouterr().err
    with pytest.raises(FormatError, match=match):
        serialize.dump_layout(_with_recipes(layout, recipes))


def test_clip_domain_over_the_div_guard_refused(tmp_path, capsys):
    """On p = 65537 a clip domain of 32,769 quotients at b = 2 lets some
    DIV rows hold two (q, r) pairs: load_layout, `zkgrid check` and
    dump_layout refuse it.  The default field takes the same recipe."""
    g = two_tap_fc_model()
    wide = ["clip", 1, 2, 0, -5, 32763]
    small = compile(g, CompileConfig(field=Field(65537)))[0]
    doc = layout_doc(small)
    doc["header"]["tables"][1] = wide
    with pytest.raises(FormatError, match="exceed the modulus 65537"):
        serialize.load_layout(layout_file(doc))
    wit = serialize.dump_witness(assign_witness(small, g, random_input(random.Random(3), g)))
    assert _check(tmp_path, layout_file(doc), wit) == 2
    assert "exceed the modulus 65537" in capsys.readouterr().err
    with pytest.raises(FormatError, match="exceed the modulus 65537"):
        serialize.dump_layout(_with_recipes(small, [RANGE, wide]))
    doc = layout_doc(compile(g)[0])
    doc["header"]["tables"][1] = wide
    assert serialize.load_layout(layout_file(doc)).tables["clip:a1:b2:z0"].recipe == tuple(wide)


def test_dump_layout_refuses_a_table_under_another_id(files):
    """Each table is written as its recipe alone, so dump_layout refuses a
    table whose key is not the id its recipe names."""
    layout = serialize.load_layout(files[1])
    with pytest.raises(FormatError, match="not the one its recipe names"):
        serialize.dump_layout(_with_recipes(layout, [RANGE, CLIP]))


def _gates_layout(polys) -> CircuitLayout:
    """A one-row layout on the default field whose gates, all enabled by
    the selector q, are `polys` over the advice columns c0..c3."""
    return CircuitLayout(
        field=Field(P),
        columns={"q": Column("q", FIXED), **{f"c{i}": Column(f"c{i}", ADVICE) for i in range(4)}},
        n_rows=1, n_rows_logical=1,
        gates=[GateDef(id=f"g{k}", name="G", selector="q", poly=e) for k, e in enumerate(polys)],
        tables={}, lookups=[], copies=[], fixed={"q": [1]}, instance_map=[],
    )


def _random_poly(rng, depth):
    """A polynomial built by circuit.add, sub, mul and pow5 over c0..c3
    and constants in [0, p), nesting at most `depth` operators deep."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return cell(f"c{rng.randrange(4)}")
        return const(rng.choice([0, 1, P - 1, rng.randrange(P)]))
    op = rng.choice([add, sub, mul, pow5])
    n = {add: rng.randrange(2, 5), mul: rng.randrange(2, 5), sub: 2, pow5: 1}[op]
    return op(*(_random_poly(rng, depth - 1) for _ in range(n)))


def _reachable(gates) -> list:
    """Every distinct node object of the gates' polynomials."""
    seen = {}
    stack = [g.poly for g in gates]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.args)
    return list(seen.values())


def test_gate_polynomials_round_trip():
    """Random polynomials up to 6 deep load equal to the ones dumped,
    from dump_layout's deduplicated node table or from the reference
    writer's table of whole trees, and dump again to the same bytes."""
    rng = random.Random(4)
    layout = _gates_layout([_random_poly(rng, rng.randrange(0, 7)) for _ in range(300)])
    raw = serialize.dump_layout(layout)
    for loaded in (serialize.load_layout(raw), serialize.load_layout(layout_file(layout_doc(layout)))):
        assert loaded == layout
        assert serialize.dump_layout(loaded) == raw


def test_equal_subtrees_load_as_one_object():
    """Gates built apart from equal parts load sharing one object for each
    distinct subtree; so does a compiled layout, with one object for each
    entry of its node table."""
    part = lambda: add(cell("c0"), const(2))
    layout = _gates_layout([part(), mul(part(), cell("c0")), sub(mul(part(), cell("c0")), part())])
    g0, g1, g2 = serialize.load_layout(serialize.dump_layout(layout)).gates
    assert g1.poly.args[0] is g0.poly and g1.poly.args[1] is g0.poly.args[0]
    assert g2.poly.args[0] is g1.poly and g2.poly.args[1] is g0.poly

    raw = serialize.dump_layout(compile(two_tap_fc_model())[0])
    nodes = _reachable(serialize.load_layout(raw).gates)
    header = json.loads(raw[12 : 12 + struct.unpack_from("<I", raw, 8)[0]])
    assert len(set(nodes)) == len(nodes) == len(header["nodes"])


def test_expr_depth_limit_is_inclusive():
    """A chain of MAX_EXPR_DEPTH operators dumps and loads; one operator
    more is refused by dump_layout, and by load_layout from the reference
    writer's file."""
    chain = cell("c0")
    for _ in range(MAX_EXPR_DEPTH):
        chain = add(chain, const(1))
    layout = _gates_layout([chain])
    assert serialize.load_layout(serialize.dump_layout(layout)) == layout
    deeper = _gates_layout([add(chain, const(1))])
    for refuse in (serialize.dump_layout, lambda lay: serialize.load_layout(layout_file(layout_doc(lay)))):
        with pytest.raises(FormatError, match=f"nests over {MAX_EXPR_DEPTH} operators deep"):
            refuse(deeper)


@pytest.mark.parametrize("poly", [
    Expr("add", args=(cell("c0"),)),
    Expr("mul", args=()),
    Expr("sub", args=(cell("c0"),)),
    Expr("sub", args=(cell("c0"), cell("c1"), cell("c2"))),
    Expr("pow5", args=(cell("c0"), cell("c1"))),
    Expr("div", args=(cell("c0"), cell("c1"))),
    const(-7),
    const(P),
    const(True),
], ids=repr)
def test_dump_layout_refuses_what_load_refuses(poly):
    """dump_layout writes only the node forms and canonical constants
    that load_layout reads."""
    with pytest.raises(FormatError):
        serialize.dump_layout(_gates_layout([add(cell("c1"), poly)]))


def test_dump_layout_refuses_non_canonical_fixed_cell():
    g = two_tap_fc_model()
    layout, _ = compile(g)
    vals = list(layout.fixed["g0:q_dot2"])
    vals[0] = layout.field.modulus
    layout = replace(layout, fixed={**layout.fixed, "g0:q_dot2": vals})
    with pytest.raises(FormatError, match="canonical"):
        serialize.dump_layout(layout)


def test_fixed_values_at_the_residue_bounds_load(files):
    """1 and p - 1, the extreme nonzero residues, load as themselves
    (p and 0 are refused above)."""
    _, lay, _ = files
    doc = layout_doc(serialize.load_layout(lay))
    _fixed("g0:s0:w0", [0], [P - 1])(doc)
    _fixed("g0:s0:w1", [0], [1])(doc)
    layout = serialize.load_layout(layout_file(doc))
    assert (layout.fixed["g0:s0:w0"][0], layout.fixed["g0:s0:w1"][0]) == (P - 1, 1)
    assert serialize.load_layout(serialize.dump_layout(layout)) == layout


@pytest.mark.parametrize("seed, mode, witness_budget, layout_budget", [
    (110, None, 66_000, 220_287),
    (111, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, 240_000, 301_399),
])
def test_benchmark_models_fit_their_byte_budgets(seed, mode, witness_budget, layout_budget):
    """The two benchmark models (perfbench's prove_public and audit_batch:
    32/16/5 random models, the second with hidden weights) witnessed on
    one fixed input.  The witness budgets hold only when unassigned cells
    cost a bit and stray big values are outliers (version 3 wrote 81,557
    and 393,261 bytes); the layout budgets are what version 5 wrote."""
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    layout, _ = compile(g, CompileConfig(mode=mode))
    wit = serialize.dump_witness(assign_witness(layout, g, random_input(random.Random(1), g)))
    assert len(wit) <= witness_budget
    assert len(serialize.dump_layout(layout)) <= layout_budget
