"""Layout and witness files: exact round trips, the cell widths the
writers pick, and refusal of every malformed file with
FormatError (or CircuitError for an inconsistent circuit) and exit
code 2 from `zkgrid check`, never a traceback."""

import json
import random
import struct
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import layout_doc, layout_file, layout_sections, row_oracle_check
from zkgrid import serialize
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.checker import check
from zkgrid.circuit import (
    ADVICE,
    FIXED,
    LOOKUP_CAP,
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
    CopyConstraint,
    Expr,
    FixedColumn,
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
EDGES = [0, 1, -1, P - 1, P, -P, TOP, -TOP - 1, *(h + k for h in HALVES for k in (-1, 0, 1))]
# A version-1 witness: one advice column "a" of one 32-byte cell.
V1_WITNESS = b"ZKWT" + struct.pack("<IIII", 1, 1, 1, 0) + b"\x01\x00a" + (5).to_bytes(32, "little")
# A version-2 witness: column "a" and the instance vector, each one 1-byte cell 5.
V2_WITNESS = b"ZKWT" + struct.pack("<IIII", 2, 1, 1, 1) + b"\x01\x00a" + (b"\x01" + bytes(32) + b"\x05") * 2
# A version-3 witness: the same, each column led by its assigned length.
V3_WITNESS = b"ZKWT" + struct.pack("<IIII", 3, 1, 1, 1) + b"\x01\x00a" + (b"\x01\x00\x00\x00\x01" + bytes(32) + b"\x05") * 2


def cell_column(cells=b"", w=1, length=None, count=None, bitmap=b"", outliers=(), k=None) -> bytes:
    """A version-5 cell column from raw parts: `cells` are the assigned
    cells' bytes, w bytes each.  The length and the assigned count
    default to the number of cells, and for w <= 8 the outlier count `k`
    defaults to the number of `outliers`, each written as 32 signed
    bytes."""
    n = len(cells) // w
    tail = b"" if w == 32 else struct.pack("<I", len(outliers) if k is None else k)
    tail += b"".join(v.to_bytes(32, "little", signed=True) for v in outliers)
    return struct.pack("<II", n if length is None else length, n if count is None else count) + bytes((w,)) + bitmap + cells + tail


def witness_bytes(n_rows, columns, instance=cell_column(b"\x05"), n_inst=None, version=5) -> bytes:
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
    assigned count, width and outlier count, read by the version-5 rules
    restated."""
    _, n_rows, n_cols, n_inst = struct.unpack_from("<IIII", raw, 4)
    pos = 20
    for _ in range(n_cols):
        pos += 2 + struct.unpack_from("<H", raw, pos)[0]
    heads = []
    for _ in range(n_cols + 1):
        length, count, width = struct.unpack_from("<IIB", raw, pos)
        head = dict(pos=pos, length=length, count=count, width=width, outliers=0)
        at = pos + 9 + ((length + 7) // 8 if count < length else 0) + count * width
        if width != 32:
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
    """The width rule, restated, and the outliers it leaves: each value
    as itself, signed; w bytes hold the values of magnitude below
    2**(8w - 1), the others being outliers, and cost the cells and 32
    bytes per outlier; 32-byte cells cost only themselves, and the
    narrowest of equal costs wins."""
    present = [v for v in vals if v is not None]
    costs = {}
    for w, half in zip((1, 2, 4, 8), HALVES):
        outs = sum(not -half < v < half for v in present)
        costs[w] = (len(present) * w + 32 * outs, outs)
    costs[32] = (32 * len(present), 0)
    w = min(costs, key=lambda w: (costs[w][0], w))
    return w, costs[w][1]


# --- witness codec -----------------------------------------------------------

@pytest.mark.parametrize(
    "vals, width, outliers",
    [
        ([None, 0, 127], 1, 0),
        ([None, None], 1, 0),
        ([-1, -127, 3, None], 1, 0),
        ([-1, -128, 3], 2, 0),              # -128 is the w=1 outlier mark: 2 bytes a cell beat 32 for it
        ([-1] * 40 + [-128], 1, 1),         # ... unless the column is long
        ([128, 0], 2, 0),
        ([1 << 15], 4, 0),
        ([(1 << 31) - 1, -1], 4, 0),
        ([-(1 << 31)], 8, 0),
        ([(1 << 63) - 1, 1 - (1 << 63)], 8, 0),
        ([-(1 << 63), None, 0], 1, 1),      # -2**63 is the w=8 mark: an outlier at every width
        ([TOP, -TOP - 1], 32, 0),
        ([P - 1, 1 << 63, None], 32, 0),
        ([200, -200, 1], 2, 0),
        ([1] * 40 + [1 << 40], 1, 1),                      # one stray big value
        ([1] * 40 + [1 << 200, -(1 << 100), None], 1, 2),  # two stray wide values
        ([-1, 1 << 100] * 20, 1, 20),
        ([P - 1, P - 127, 3], 1, 2),        # residues p - x are wide: the prover writes -x
    ],
)
def test_witness_picks_cheapest_width(vals, width, outliers):
    asg = Assignment(advice={"a": vals, "b": [0] * len(vals)}, instance=[v for v in vals if v is not None])
    raw = serialize.dump_witness(asg)
    heads = column_heads(raw)
    assert [(h["width"], h["outliers"]) for h in heads] == [(width, outliers), (1, 0), (width, outliers)]
    assert cheapest_width(vals) == (width, outliers)
    assert serialize.load_witness(raw) == asg


# Each width's edges: the mark, the values beside it and the largest value.
WIDTH_EDGES = [v for h in HALVES for v in (-h, 1 - h, -h - 1, h - 1, h)]


@st.composite
def columns(draw, n_rows):
    """Cells up to `bits` wide of either sign, each width's edges and
    mark, the ends of the 32-byte range, often runs of unassigned cells,
    an unassigned tail or no assigned cell at all; the bit choices make
    every width and outliers common."""
    bits = draw(st.sampled_from([7, 15, 31, 63, 255]))
    cell = st.one_of(
        st.integers(-(1 << bits), (1 << bits) - 1),
        st.sampled_from(EDGES + WIDTH_EDGES),
    )
    cells = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
    for start, run in draw(st.lists(st.tuples(st.integers(0, n_rows), st.integers(1, 12)), max_size=4)):
        cells[start : start + run] = [None] * len(cells[start : start + run])
    cut = draw(st.sampled_from([n_rows, 0, draw(st.integers(0, n_rows))]))
    return cells[:cut] + [None] * (n_rows - cut)


@settings(max_examples=300, deadline=None)
@given(n_rows=st.integers(0, 40), data=st.data())
def test_witness_round_trip(n_rows, data):
    """Every value in [-2**255, 2**255) and None round trips through the
    witness file at the cheapest width, and a loaded witness writes the
    same bytes."""
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


@pytest.mark.parametrize("bad", [1 << 255, (1 << 256) - 1, -(1 << 255) - 1, -(1 << 300)])
def test_witness_refuses_cells_outside_255_bits(bad):
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={"a": [0, bad]}, instance=[]))
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={}, instance=[bad]))
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={"a": [None, 1 << 200, bad]}, instance=[]))


@pytest.mark.parametrize("bad", [14.5, 14.0, float(1 << 60), float(1 << 200), "14"])
def test_witness_refuses_an_instance_value_that_is_not_an_int(bad):
    """An instance value that is not an int is refused, wherever it sits
    among wide values, rather than written as the int its float reads."""
    for instance in ([3, bad, 5], [1 << 200, bad], [bad, 1 << 254]):
        with pytest.raises(FormatError, match="instance value .* is not an int"):
            serialize.dump_witness(Assignment(advice={"a": [0, 1]}, instance=instance))


def test_outlier_a_cell_could_hold_is_stored_in_its_cell():
    """A listed outlier that a cell of the column's width, or an int64,
    holds is normalised, not refused: it loads into its int64 cell, and
    the witness writes back as the writer would have written it."""
    raw = witness_bytes(4, {"a": cell_column(b"\x80\x05\x80\x80", outliers=[-3, 1000, -(1 << 70)])})
    asg = serialize.load_witness(raw)
    assert asg.advice["a"] == [-3, 5, 1000, -(1 << 70)]
    assert asg.advice["a"].cells.tolist() == [-3, 5, 1000, MARK]
    assert asg.advice["a"].outliers.tolist() == [-(1 << 70)]
    assert serialize.dump_witness(asg) == serialize.dump_witness(Assignment(advice={"a": [-3, 5, 1000, -(1 << 70)]}, instance=[5]))
    assert column_widths(serialize.dump_witness(asg))[0] == 2


def _header_and(*parts: bytes) -> bytes:
    """A witness of 20 rows whose column "a" is `parts` and nothing more."""
    return b"ZKWT" + struct.pack("<IIII", 5, 20, 1, 0) + b"\x01\x00a" + b"".join(parts)


# A presence bitmap 0b101 over 3 rows: rows 0 and 2 assigned.
HOLE = dict(length=3, bitmap=b"\x05")

MALFORMED_WITNESSES = {
    "version 1": (V1_WITNESS, "version 1; run `zkgrid witness` again"),
    "version 2": (V2_WITNESS, "version 2; run `zkgrid witness` again"),
    "version 3": (V3_WITNESS, "version 3; run `zkgrid witness` again"),
    "version 4": (witness_bytes(1, {"a": cell_column(b"\x01")}, version=4), "version 4; run `zkgrid witness` again to get a version-5 file"),
    "version 6": (witness_bytes(1, {"a": cell_column(b"\x01")}, version=6), "unsupported witness version 6"),
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
    "outlier list truncated": (witness_bytes(1, {"a": cell_column(b"\x80", k=2, outliers=[7])}), "truncated"),
    "instance with a hole": (witness_bytes(1, {"a": cell_column(b"\x01")}, instance=cell_column(b"\x05\x05", **HOLE)), "instance values"),
    "instance count": (witness_bytes(1, {"a": cell_column(b"\x01")}, n_inst=2), "header says 2"),
    "width 3": (witness_bytes(1, {"a": cell_column(b"\x00\x00\x00", w=3)}), "bad cell width 3"),
    "width 0x41": (witness_bytes(1, {"a": cell_column(b"\x00", w=0x41)}), "bad cell width 65"),
    "width byte with the base flag of version 4": (witness_bytes(1, {"a": cell_column(b"\x01", w=0x81)}), "bad cell width 129"),
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
    a negative cell, an outlier and a negative 32-byte cell."""
    raw = witness_bytes(4, {
        "a": cell_column(b"\x01\x02", **HOLE),
        "b": cell_column(b"\x05\x80\xff", outliers=[-(1 << 100)]),
        "c": cell_column((1 - P).to_bytes(32, "little", signed=True), w=32),
    })
    asg = serialize.load_witness(raw)
    assert asg.advice == {"a": [1, None, 2, None], "b": [5, -(1 << 100), -1, None], "c": [1 - P, None, None, None]}
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
    "chain 100,000 deep": [["+", 0, 0]] + [["+", -1, 0]] * 100_000,
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
    "fixed value p - 1": _fixed(SELECTOR, [0], [P - 1]),
    "fixed value p // 2 + 1": _fixed(SELECTOR, [0], [P // 2 + 1]),
    "fixed value -(p // 2) - 1": _fixed(SELECTOR, [0], [-(P // 2) - 1]),
    "fixed value 2**255 - 1": _fixed(SELECTOR, [0], [(1 << 255) - 1]),
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
    (b"ZKLY" + struct.pack("<II", 8, 2) + b"{}", "unsupported layout version 8"),
    (b"ZKLY" + struct.pack("<II", 7, 2) + b"[]", "the header must be an object"),
    (b"ZKLY" + struct.pack("<II", 7, 2) + b"{\xff", "not valid JSON"),
    (b"ZKLY" + struct.pack("<II", 7, 3) + b"{}", "truncated header"),
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
    assert "version 3; run `zkgrid witness` again to get a version-5 file" in capsys.readouterr().err


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


def test_loaded_witness_columns_stay_arrays():
    """load_witness holds each advice column at its used length as arrays
    and pads nothing; a column reads as the prover's list, compares equal
    to it, takes a write and writes the bytes the prover's list with the
    same write gives."""
    g = two_tap_fc_model()
    layout, _ = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    asg = assign_witness(layout, g, random_input(random.Random(2), g))
    raw = serialize.dump_witness(asg)
    loaded = serialize.load_witness(raw)
    assert type(loaded.instance) is list and loaded.instance == asg.instance
    for col_id, vals in asg.advice.items():
        col = loaded.advice[col_id]
        assert isinstance(col, AdviceColumn) and len(col) == len(vals) and col == vals and list(col) == vals
        assert col.length == max((r + 1 for r, v in enumerate(vals) if v is not None), default=0)
        assert len(col.cells) == len(vals) - vals.count(None)
    col_id, vals = next((c, v) for c, v in sorted(asg.advice.items()) if v.count(None) not in (0, len(v)))
    row = vals.index(None)
    for value in (vals[0] if vals[0] is not None else 1, None):
        asg.advice[col_id][row] = loaded.advice[col_id][row] = value
        assert loaded.advice[col_id][row] == value and serialize.dump_witness(loaded) == serialize.dump_witness(asg)
    assert serialize.dump_witness(loaded) == raw


def test_tall_witness_loads_without_padding():
    """A column of one cell in a grid of MAX_ROWS rows loads in a few
    bytes of memory: its unassigned rows are not stored."""
    raw = witness_bytes(MAX_ROWS, [("a", cell_column(b"\x01"))])
    tracemalloc.start()
    try:
        loaded = serialize.load_witness(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    col = loaded.advice["a"]
    assert len(col) == MAX_ROWS and (col[0], col[1], col[-1]) == (1, None, None)


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


def test_claimed_32_byte_column_is_refused_before_allocation():
    """A short file whose header claims a column of MAX_ROWS 32-byte
    cells (32 MB) is refused before anything is sized by the claim."""
    claim = struct.pack("<II", MAX_ROWS, MAX_ROWS) + b"\x20" + bytes(64)
    raw = witness_bytes(MAX_ROWS, [("a", claim)])
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated cell column"):
            serialize.load_witness(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


P31 = (1 << 31) - 1
# Each kind of column the differential test draws, by the values it holds
# and so the width and form the writer gives it.
_KINDS = {
    "w1": lambda p: st.integers(0, 100),
    "w2": lambda p: st.integers(0, 1 << 15),
    "w4": lambda p: st.integers(0, (1 << 31) - 1),
    "w8": lambda p: st.integers(0, 1 << 62),
    "w32": lambda p: st.integers(0, (1 << 254) - 1),
    "residues": lambda p: st.integers(1, 300).map(lambda x: p - x),
    "signed": lambda p: st.integers(-300, 300),
    "past int64": lambda p: st.one_of(st.integers(-50, 50), st.sampled_from([1, -1]).flatmap(
        lambda sign: st.integers(0, 300).map(lambda x: sign * ((1 << 63) + x)))),
    "ends of 32 bytes": lambda p: st.one_of(st.integers(-50, 50), st.integers(1, 300).map(lambda x: (1 << 255) - x),
                                            st.integers(0, 300).map(lambda x: x - (1 << 255))),
    "outliers": lambda p: st.one_of(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.sampled_from([1 << 100, 1 << 70])),
    "non-canonical": lambda p: st.integers(0, p - 1).map(lambda v: v + p * (1 + v % 3) if p == P31 else v + p),
}


@st.composite
def crafted_witnesses(draw):
    """A layout of advice columns, product and pow5 gates, copies and
    instance bindings over their assigned cells, and the cells: columns
    of every width and form, with sparse presence, only the last row
    assigned or no row at all; copies often join a cell to another
    representative of its residue, and bindings often hold its residue.
    Some columns are then written as 32-byte cells by hand."""
    p = draw(st.sampled_from([P, P31]))
    n_rows = draw(st.integers(2, 16))
    kinds = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=3, max_size=7))
    advice = {}
    for k, kind in enumerate(kinds):
        vals = [draw(_KINDS[kind](p)) for _ in range(n_rows)]
        shape = draw(st.sampled_from(["full", "full", "sparse", "last", "empty"]))
        if shape == "sparse":
            vals = [v if draw(st.booleans()) else None for v in vals]
        elif shape == "last":
            cut = draw(st.integers(2, n_rows))
            vals = [None] * (cut - 1) + [vals[cut - 1]] + [None] * (n_rows - cut)
        elif shape == "empty":
            vals = [None] * n_rows
        advice[f"a{k}"] = vals
    cells = [(c, r) for c, vals in advice.items() for r, v in enumerate(vals) if v is not None]
    copies, bindings, instance = [], [], []
    if cells:
        for _ in range(draw(st.integers(0, 8))):
            (ca, ra), (cb, rb) = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
            if (ca, ra) != (cb, rb) and draw(st.booleans()):
                v = advice[ca][ra] % p
                advice[cb][rb] = draw(st.sampled_from([u for u in (v, v + p, v + 2 * p) if u < 1 << 255]))
            copies.append(CopyConstraint((ca, ra), (cb, rb)))
        for _ in range(draw(st.integers(0, 6))):
            c, r = draw(st.sampled_from(cells))
            bindings.append(((c, r), len(instance)))
            instance.append(advice[c][r] % p if draw(st.booleans()) else draw(st.integers(0, p - 1)))
    names = sorted(advice)
    gates, fixed = [], {}
    for g, (x, y, z) in enumerate(zip(names, names[1:], names[2:])):
        rows = [r for r in range(n_rows) if None not in (advice[x][r], advice[y][r], advice[z][r])]
        fixed[f"q{g}"] = [int(r in rows) for r in range(n_rows)]
        poly = sub(mul(cell(x), cell(y)), cell(z)) if g % 2 == 0 else add(pow5(cell(x)), cell(y), const(3))
        gates.append(GateDef(id=f"g{g}", name="G", selector=f"q{g}", poly=poly))
    columns = {c: Column(c, ADVICE) for c in names}
    columns.update({q: Column(q, FIXED) for q in fixed})
    layout = CircuitLayout(
        field=Field(p), columns=columns, n_rows=n_rows, n_rows_logical=n_rows, gates=gates, tables={},
        lookups=[], copies=copies, fixed=fixed, instance_map=bindings,
    )
    wide = draw(st.sets(st.sampled_from(names)))
    return layout, advice, instance, wide


def _as_32_byte_cells(raw: bytes, advice: dict, wide: set) -> bytes:
    """The witness file with the columns named in `wide` written again as
    32-byte cells, each at its length, with its presence bitmap."""
    names = sorted(advice)
    heads = column_heads(raw)
    ends = [h["pos"] for h in heads[1:]] + [len(raw)]
    parts, at = [], heads[0]["pos"]
    for col, head, end in zip(names, heads, ends):
        parts.append(raw[at : head["pos"]])
        if col in wide:
            vals = advice[col]
            length = assigned_length(vals)
            present = [v is not None for v in vals[:length]]
            bitmap = np.packbits(present, bitorder="little").tobytes() if not all(present) else b""
            cells = b"".join(v.to_bytes(32, "little", signed=True) for v in vals[:length] if v is not None)
            parts.append(cell_column(cells, w=32, length=length, bitmap=bitmap))
        else:
            parts.append(raw[head["pos"] : end])
        at = end
    return raw[: heads[0]["pos"]] + b"".join(parts) + raw[at:]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(crafted_witnesses())
def test_loaded_cells_check_as_the_lists_do(case):
    """On crafted witness files (the default field and 2**31 - 1, every
    width and form of cell column, bitmaps, empty columns and cells that
    are not canonical residues), the checker's verdict on the loaded
    witness is the row oracle's and its verdict on the same cells passed
    as lists; the writer's files load and write back byte for byte."""
    layout, advice, instance, wide = case
    raw = serialize.dump_witness(Assignment(advice={c: list(v) for c, v in advice.items()}, instance=list(instance)))
    loaded = serialize.load_witness(raw)
    assert serialize.dump_witness(loaded) == raw
    want = row_oracle_check(layout, Assignment(advice={c: list(v) for c, v in advice.items()}, instance=list(instance)))
    assert check(layout, loaded) == want
    assert check(layout, Assignment(advice={c: list(v) for c, v in advice.items()}, instance=list(instance))) == want
    crafted = serialize.load_witness(_as_32_byte_cells(raw, advice, wide))
    assert all(len(crafted.advice[c].outliers) == len(crafted.advice[c].cells) for c in wide)
    assert crafted == Assignment(advice={c: list(v) for c, v in advice.items()}, instance=list(instance))
    assert check(layout, crafted) == want


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
    with pytest.raises(FormatError, match="version 5; compile the model again to get a version-7 file"):
        serialize.load_layout(v5)
    assert _check(tmp, v5, wit) == 2
    assert "compile the model again" in capsys.readouterr().err


def test_v6_layout_refused(files, capsys):
    """A version-6 layout, whose cell columns could carry a base and whose
    fixed values were residues in [1, p), is refused with a message that
    says to compile the model again."""
    tmp, lay, wit = files
    v6 = lay[:4] + struct.pack("<I", 6) + lay[8:]
    with pytest.raises(FormatError, match="version 6; compile the model again to get a version-7 file"):
        serialize.load_layout(v6)
    assert _check(tmp, v6, wit) == 2
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
    more is refused by validate(), by dump_layout, and by load_layout
    from the reference writer's file."""
    chain = cell("c0")
    for _ in range(MAX_EXPR_DEPTH):
        chain = add(chain, const(1))
    layout = _gates_layout([chain])
    assert serialize.load_layout(serialize.dump_layout(layout)) == layout
    deeper = _gates_layout([add(chain, const(1))])
    for refuse in (CircuitLayout.validate, serialize.dump_layout,
                   lambda lay: serialize.load_layout(layout_file(layout_doc(lay)))):
        with pytest.raises(CircuitError, match=f"nests over {MAX_EXPR_DEPTH} operators deep"):
            refuse(deeper)


def test_deep_chain_refused_without_recursing():
    """A chain 5,000 operators deep in memory is refused by validate()
    and by dump_layout with the depth message: the walk stops at
    MAX_EXPR_DEPTH, so neither raises RecursionError."""
    chain = cell("c0")
    for _ in range(5000):
        chain = add(chain, const(1))
    layout = _gates_layout([chain])
    for refuse in (CircuitLayout.validate, serialize.dump_layout):
        with pytest.raises(CircuitError, match=f"nests over {MAX_EXPR_DEPTH} operators deep"):
            refuse(layout)


def test_shared_subtrees_refused_by_size_at_once():
    """63 levels of e = add(e, e) hold 64 distinct nodes but a tree of
    2**64 - 1 nodes written out: validate() and dump_layout refuse it with
    the size message in well under a second, each walking every distinct
    node once."""
    e = cell("c0")
    for _ in range(MAX_EXPR_DEPTH - 1):
        e = add(e, e)
    layout = _gates_layout([e])
    for refuse in (CircuitLayout.validate, serialize.dump_layout):
        start = time.perf_counter()
        with pytest.raises(CircuitError, match=f"of over {MAX_EXPR_NODES} nodes written out as trees"):
            refuse(layout)
        assert time.perf_counter() - start < 0.5


def test_dump_layout_refuses_a_binding_past_its_names():
    """A packed binding whose column number lies past the two columns is
    refused by validate() and by dump_layout, not met with IndexError."""
    names = ["q", "c0"]
    layout = CircuitLayout(
        field=Field(P), columns={"q": Column("q", FIXED), "c0": Column("c0", ADVICE)},
        n_rows=1, n_rows_logical=1, gates=[], tables={}, lookups=[], copies=[], fixed={"q": [1]},
        instance_map=Bindings(np.array([5, 0, 0]), names),
    )
    for refuse in (CircuitLayout.validate, serialize.dump_layout):
        with pytest.raises(CircuitError, match="instance binding references column number 5 outside the 2 columns"):
            refuse(layout)


def test_dump_layout_refuses_copies_numbered_otherwise():
    """Copies whose column numbers index another order of the columns
    than the layout's are refused by validate() and by dump_layout."""
    layout = _gates_layout([cell("c0")])
    layout.copies = Copies(np.array([1, 0, 2, 0], np.int32), list(reversed(layout.columns)))
    for refuse in (CircuitLayout.validate, serialize.dump_layout):
        with pytest.raises(CircuitError, match="copies do not number the layout's columns"):
            refuse(layout)


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
    that load_layout reads: validate() refuses the polynomials the
    builders do not make, and the writer's spelling rule the constants
    that are not a canonical residue's decimal."""
    layout = _gates_layout([add(cell("c1"), poly)])
    if poly.op == "const":
        layout.validate()
        with pytest.raises(FormatError, match="const takes one canonical residue"):
            serialize.dump_layout(layout)
    else:
        for refuse in (CircuitLayout.validate, serialize.dump_layout):
            with pytest.raises(CircuitError, match="no builder makes"):
                refuse(layout)


def test_dump_layout_refuses_non_canonical_fixed_cell():
    g = two_tap_fc_model()
    layout, _ = compile(g)
    vals = list(layout.fixed["g0:q_dot2"])
    vals[0] = layout.field.modulus
    layout = replace(layout, fixed={**layout.fixed, "g0:q_dot2": vals})
    with pytest.raises(FormatError, match="canonical"):
        serialize.dump_layout(layout)


def test_fixed_values_at_the_residue_bounds_load(files):
    """-(p // 2), -1, 1 and p // 2, the extreme nonzero canonical signed
    residues, load as themselves (p // 2 + 1, p - 1, p and 0 are refused
    above)."""
    _, lay, _ = files
    doc = layout_doc(serialize.load_layout(lay))
    ends = {"g0:s0:w0": -(P // 2), "g0:s0:w1": -1, "g0:s0:w2": 1, "g0:s0:w3": P // 2}
    for col, v in ends.items():
        _fixed(col, [0], [v])(doc)
    layout = serialize.load_layout(layout_file(doc))
    assert {col: layout.fixed[col][0] for col in ends} == ends
    assert serialize.load_layout(serialize.dump_layout(layout)) == layout


@pytest.mark.parametrize("seed, mode, witness_budget, layout_budget", [
    (110, None, 66_000, 220_287),
    (111, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, 157_000, 301_399),
])
def test_benchmark_models_fit_their_byte_budgets(seed, mode, witness_budget, layout_budget):
    """The two benchmark models (perfbench's prove_public and audit_batch:
    32/16/5 random models, the second with hidden weights) witnessed on
    one fixed input.  The witness budgets hold only when unassigned cells
    cost a bit and stray big values are outliers (version 3 wrote 81,557
    and 393,261 bytes), and audit_batch's only when its sponge takes 37
    rows an absorb (at 66 it wrote 217,316 bytes); the layout budgets are
    what version 5 wrote."""
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    layout, _ = compile(g, CompileConfig(mode=mode))
    wit = serialize.dump_witness(assign_witness(layout, g, random_input(random.Random(1), g)))
    assert len(wit) <= witness_budget
    assert len(serialize.dump_layout(layout)) <= layout_budget


# Fixed values a round trip must keep exactly: the residue edges, the
# int64 edges and values in band of no width below 32 bytes.
H = P // 2
FIXED_EDGES = [1, 2, -1, 127, 128, -128, 255, 256, H, H - 1, -H, 1 - H, (1 << 63) - 1, 1 - (1 << 63),
               -(1 << 63), 1 << 63, (1 << 63) + 1, -(1 << 63) - 1, 1 << 200, -(1 << 200)]


@st.composite
def sparse_layouts(draw):
    """A layout of sparse fixed columns and flat copies, and no gates:
    empty and one-cell columns, rows 0 and n_rows - 1, small values of
    either sign, the edges above and a few outliers among small values,
    every value a canonical signed residue."""
    n_rows = draw(st.integers(1, 48))
    n_fixed, n_advice = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    columns = {f"f{k}": Column(f"f{k}", FIXED) for k in range(n_fixed)}
    columns.update({f"a{k}": Column(f"a{k}", ADVICE) for k in range(n_advice)})
    small = st.integers(1, 300)
    value = st.one_of(small, small.map(lambda x: -x), st.sampled_from(FIXED_EDGES), st.integers(-H, H).filter(bool))
    fixed = {}
    for col_id in list(columns)[:n_fixed]:
        rows = draw(st.sets(st.integers(0, n_rows - 1), max_size=n_rows))
        rows |= {r for r, keep in ((0, draw(st.booleans())), (n_rows - 1, draw(st.booleans()))) if keep}
        rows = sorted(rows)
        kind = draw(st.sampled_from(["small", "negative", "any", "outliers"]))
        if kind == "outliers":   # one-byte values and a few that take an outlier slot
            vals = [draw(st.integers(1, 100)) for _ in rows]
            for k in draw(st.sets(st.integers(0, max(len(rows) - 1, 0)), max_size=2)) if rows else ():
                vals[k] = draw(st.sampled_from([1 << 40, 1 << 63, -H, -(1 << 63)]))
        else:
            vals = [draw({"small": small, "negative": small.map(lambda x: -x), "any": value}[kind]) for _ in rows]
        fixed[col_id] = (rows, vals)
    names = list(columns)
    n_copies = draw(st.integers(0, 12))
    flat = [draw(st.integers(0, n - 1)) for _ in range(n_copies) for n in (len(names), n_rows) * 2]
    return columns, n_rows, fixed, flat


@settings(max_examples=200, deadline=None)
@given(sparse_layouts())
def test_sparse_fixed_columns_and_copies_round_trip(case):
    columns, n_rows, fixed, flat = case
    layout = CircuitLayout(
        field=Field(), columns=columns, n_rows=n_rows, n_rows_logical=n_rows, gates=[], tables={}, lookups=[],
        copies=Copies(flat, list(columns)),
        fixed={c: FixedColumn(np.array(rows, np.int32), vals, n_rows) for c, (rows, vals) in fixed.items()},
        instance_map=[],
    )
    layout.validate()
    raw = serialize.dump_layout(layout)
    loaded = serialize.load_layout(raw)
    assert loaded == layout
    assert serialize.dump_layout(loaded) == raw
    assert loaded.copies.flat.dtype == np.int32 and loaded.copies.flat.tolist() == flat
    for col_id, (rows, vals) in fixed.items():
        col = loaded.fixed[col_id]
        assert col.rows.dtype == np.int32 and col.rows.tolist() == rows
        assert col.values.dtype == (np.int64 if all(-(1 << 63) < v < 1 << 63 for v in vals) else object)
        assert col.values.tolist() == vals and {type(v) for v in col.values.tolist()} <= {int}
        dense = [0] * n_rows
        for r, v in zip(rows, vals):
            dense[r] = v
        assert list(col) == dense and [col[r] for r in range(n_rows)] == dense
        assert col.count(0) == n_rows - len(rows) and col.nonzero_rows() == rows


def test_fixed_column_pack_and_reads():
    """A full list packs to its nonzero cells; reads see the full column
    before and after the full-height list is built."""
    vals = [0, 5, 0, P - 1, 0, 1 << 63]
    col = FixedColumn.pack(vals)
    assert col.rows.tolist() == [1, 3, 5] and col.values.dtype == object
    assert col.values.tolist() == [5, P - 1, 1 << 63]
    assert (col[5], col[-1], col[0]) == (1 << 63, 1 << 63, 0)
    assert list(col) == vals == col.tolist() and col.count(0) == 3 and len(col) == 6
    assert col == FixedColumn(np.array([1, 3, 5], np.int32), np.array([5, P - 1, 1 << 63], object), 6)
    assert col != FixedColumn.pack([0, 5, 0, P - 1, 0, 0])
    assert FixedColumn.pack([0, 7, 1]).values.dtype == np.int64
    with pytest.raises(IndexError):
        col[6]
    # A packed None is an unassigned cell: kept, and not an enabled row.
    gap = FixedColumn.pack([1, None, 0, 2])
    assert gap.rows.tolist() == [0, 1, 3] and gap.nonzero_rows() == [0, 3] and list(gap) == [1, None, 0, 2]


def test_loads_give_equal_tables_per_recipe():
    """Compile and every load of its layout give equal tables, in the same
    order, one per recipe."""
    g = two_tap_fc_model()
    layout, _ = compile(g)
    first, second = (serialize.load_layout(serialize.dump_layout(layout)) for _ in range(2))
    assert first.tables and list(first.tables) == list(layout.tables)
    assert all(first.tables[t] == second.tables[t] == layout.tables[t] for t in layout.tables)


def test_crafted_table_recipes_build_no_entries(tmp_path):
    """A layout file that lists two extra 2^20-entry range recipes, which
    no lookup uses, loads and checks an honest witness in a few MB, since
    no table entry is built; `zkgrid check` accepts the pair too."""
    g = two_tap_fc_model()
    layout, _ = compile(g)
    doc = layout_doc(layout)
    extra = [["range", lo, lo + 2**20 - 1] for lo in (1 << 30, 1 << 40)]
    doc["header"]["tables"] += extra
    lay, wit = tmp_path / "layout.bin", tmp_path / "witness.bin"
    lay.write_bytes(layout_file(doc))
    wit.write_bytes(serialize.dump_witness(assign_witness(layout, g, random_input(random.Random(3), g))))
    tracemalloc.start()
    try:
        loaded = serialize.load_layout(lay.read_bytes())
        violations = check(loaded, serialize.load_witness(wit.read_bytes()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [list(t.recipe) for t in loaded.tables.values()][-2:] == extra and violations == []
    assert peak < 16 << 20
    assert main(["check", str(lay), str(wit)]) == 0
