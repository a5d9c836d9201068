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
from zkgrid.circuit import MAX_CELLS, MAX_ROWS, Assignment, CircuitError
from zkgrid.cli import main
from zkgrid.commit import VisibilityMode
from zkgrid.field import DEFAULT_MODULUS
from zkgrid.modelgen import random_input, random_model, two_tap_fc_model
from zkgrid.serialize import FormatError

P = DEFAULT_MODULUS
TOP = (1 << 255) - 1
EDGES = [0, 1, P - 1, P, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, TOP]
# A version-1 witness: one advice column "a" of one 32-byte cell.
V1_WITNESS = b"ZKWT" + struct.pack("<IIII", 1, 1, 1, 0) + b"\x01\x00a" + (5).to_bytes(32, "little")
# A version-2 witness: column "a" and the instance vector, each one 1-byte cell 5.
V2_WITNESS = b"ZKWT" + struct.pack("<IIII", 2, 1, 1, 1) + b"\x01\x00a" + (b"\x01" + bytes(32) + b"\x05") * 2


def column_heads(raw: bytes) -> list[tuple[int, int, int]]:
    """(offset, assigned length, width) of each advice column, then of the
    instance vector."""
    _, n_rows, n_cols, n_inst = struct.unpack_from("<IIII", raw, 4)
    pos = 20
    for _ in range(n_cols):
        pos += 2 + struct.unpack_from("<H", raw, pos)[0]
    heads = []
    for _ in range(n_cols + 1):
        (n,) = struct.unpack_from("<I", raw, pos)
        heads.append((pos, n, raw[pos + 4]))
        pos += 37 + n * raw[pos + 4]
    assert pos == len(raw)
    return heads


def column_widths(raw: bytes) -> list[int]:
    """The width byte of each advice column, then of the instance vector."""
    return [w for _, _, w in column_heads(raw)]


def assigned_length(vals) -> int:
    return max((i + 1 for i, v in enumerate(vals) if v is not None), default=0)


def witness_bytes(n_rows, columns, instance=(1, 0, b"\x05"), n_inst=None) -> bytes:
    """A version-3 witness file from raw parts: columns maps id -> (width,
    base, cells) or (width, base, cells, assigned length), or lists such
    (id, tuple) pairs; instance is one more such tuple.  The length
    defaults to the number of cells, ids are str or raw bytes."""
    items = list(columns.items() if isinstance(columns, dict) else columns)
    parts = [(*t, len(t[2]) // t[0])[:4] for t in [*(t for _, t in items), instance]]
    n_inst = parts[-1][3] if n_inst is None else n_inst
    out = [b"ZKWT", struct.pack("<IIII", 3, n_rows, len(items), n_inst)]
    for cid, _ in items:
        cid = cid if isinstance(cid, bytes) else cid.encode()
        out += [struct.pack("<H", len(cid)), cid]
    for w, base, cells, n in parts:
        out += [struct.pack("<I", n), bytes((w,)), base.to_bytes(32, "little"), cells]
    return b"".join(out)


# --- witness codec -----------------------------------------------------------

@pytest.mark.parametrize(
    "vals, width",
    [
        ([None, 0, 127], 1),
        ([None, None], 1),
        ([P - 1, P - 127, 3, None], 1),  # base P: d = -1 and -127
        ([P - 1, P - 128, 3], 2),        # -128 is the w=1 unassigned mark
        ([P, 0], 1),                     # base P + 1: d = -1
        ([1 << 15], 4),
        ([(1 << 31) - 1, P - 1], 4),
        ([1 << 31], 8),
        ([(1 << 63) - 1, TOP], 8),   # base 2**255, d = -1
        ([1 << 63, None, 0], 1),
        ([TOP, 1 << 63], 32),
        ([P - 1, 1 << 63, None], 32),
    ],
)
def test_witness_picks_narrowest_width(vals, width):
    asg = Assignment(advice={"a": vals, "b": [0] * len(vals)}, instance=[v for v in vals if v is not None])
    raw = serialize.dump_witness(asg)
    widths = column_widths(raw)
    assert widths[:2] == [width, 1]
    assert serialize.load_witness(raw) == asg


def narrowest_width(vals) -> int:
    """The width rule, restated: small values as themselves, values
    >= 2**63 as negatives against one above the largest of them."""
    present = [v for v in vals if v is not None]
    big = [v for v in present if v >= 1 << 63]
    base = max(big) + 1 if big else 0
    span = max([v for v in present if v < 1 << 63] + [base - v for v in big], default=0)
    return next((w for w in (1, 2, 4, 8) if span < 1 << (8 * w - 1)), 32)


@st.composite
def columns(draw, n_rows):
    """Cells up to `bits` wide or that far below `top`, plus edge values,
    often with an unassigned tail; the bit choices make every width
    common."""
    bits = draw(st.sampled_from([7, 15, 31, 63, 255]))
    top = draw(st.sampled_from([P, P + 1, 1 << 63, 1 << 255]))
    cell = st.one_of(
        st.none(),
        st.integers(0, (1 << bits) - 1).map(lambda v: min(v, TOP)),
        st.integers(1, 1 << bits).map(lambda d: top - d).filter(lambda v: v >= 0),
        st.sampled_from(EDGES),
    )
    cells = draw(st.lists(cell, min_size=n_rows, max_size=n_rows))
    cut = draw(st.integers(0, n_rows))
    return cells[:cut] + [None] * (n_rows - cut)


@settings(max_examples=200, deadline=None)
@given(n_rows=st.integers(0, 12), data=st.data())
def test_witness_round_trip(n_rows, data):
    ids = data.draw(st.lists(st.text("abcxyz:", min_size=1, max_size=4), max_size=5, unique=True))
    advice = {c: data.draw(columns(n_rows)) for c in ids}
    instance = [v for v in data.draw(columns(6)) if v is not None]
    asg = Assignment(advice=advice, instance=instance)
    raw = serialize.dump_witness(asg)
    heads = column_heads(raw)
    assert [w for _, _, w in heads] == [narrowest_width(advice[c]) for c in sorted(advice)] + [narrowest_width(instance)]
    assert [n for _, n, _ in heads] == [assigned_length(advice[c]) for c in sorted(advice)] + [len(instance)]
    assert serialize.load_witness(raw) == asg
    assert serialize.dump_witness(serialize.load_witness(raw)) == raw


@pytest.mark.parametrize("bad", [1 << 255, (1 << 256) - 1, -1])
def test_witness_refuses_cells_outside_255_bits(bad):
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={"a": [0, bad]}, instance=[]))
    with pytest.raises(FormatError, match="outside"):
        serialize.dump_witness(Assignment(advice={}, instance=[bad]))


@pytest.mark.parametrize(
    "raw, match",
    [
        (V1_WITNESS, "unsupported witness version 1"),
        (V2_WITNESS, "unsupported witness version 2"),
        (witness_bytes(1, {"a": (1, 0, b"\x01\x02", 2)}), "column of 2 cells where at most 1 fit"),
        (witness_bytes(2, {"a": (1, 0, b"\x01\x80")}), "last written cell is unassigned"),
        (witness_bytes(1, {"a": (1, 0, b"\x01")}, n_inst=2), "header says 2"),
        (witness_bytes(1, {"a": (3, 0, b"\x00\x00\x00")}), "bad cell width 3"),
        (witness_bytes(1, {"a": (32, 1, bytes(32))}), "32-byte cells take no base"),
        (witness_bytes(1, {"a": (1, 1 << 63, b"\x01")}), "base"),
        (witness_bytes(1, {"a": (8, (1 << 255) + 1, bytes(8))}), "base"),
        (witness_bytes(1, {"a": (1, 0, b"\xff")}), "-1 < 0"),
        (witness_bytes(1, {"a": (32, 0, (1 << 255).to_bytes(32, "little"))}), ">= 2\\*\\*255"),
        (witness_bytes(1, {"a": (1, 0, b"\x01"), "b": (1, 0, b"\x01")})[:-1], "truncated"),
        (witness_bytes(1, {"a": (1, 0, b"\x01")}) + b"\x00", "trailing"),
        (witness_bytes(0, {b"\xff": (1, 0, b"")}, instance=(1, 0, b"")), "UTF-8"),
        (witness_bytes(1, {"a": (1, 0, b"\x01")}, instance=(1, 0, b"\x80\x05")), "instance values"),
        (witness_bytes(0, [("a", (1, 0, b"")), ("a", (1, 0, b""))], instance=(1, 0, b"")), "duplicate"),
        (b"not a witness", "not a witness"),
    ],
)
def test_malformed_witness_refused(raw, match):
    with pytest.raises(FormatError, match=match):
        serialize.load_witness(raw)


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
    """A flipped header byte, assigned-length byte or width byte is
    refused by the loader.  The row count is the one header field no
    cell bytes back: a larger one can load, as a witness with more
    unassigned rows, and `check` then refuses it against the layout."""
    tmp, lay, wit = files
    column_starts = [pos for pos, _, _ in column_heads(wit)]
    for pos in [*range(8), *range(12, 20), *column_starts, *(pos + 4 for pos in column_starts)]:
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


def _add_table_row(doc, value):
    tid, arity, entries = doc["tables"][0]
    entries += [value] * arity


def _width(key, w):
    """Write the section named `key`, or key(doc), with width byte w."""
    return lambda doc: doc["widths"].__setitem__(key(doc) if callable(key) else key, w)


def _first_fixed_values(doc):
    return "values:" + next(col for col, rows, _ in doc["fixed"] if rows)


def _first_table(doc):
    return "table:" + doc["tables"][0][0]


U32_MAX = (1 << 32) - 1
SELECTOR = "g0:q_dot2"   # enables the model's one row

BAD_LAYOUTS = {
    "fixed value width 3": _width(_first_fixed_values, 3),
    "copy width 3": _width("copies", 3),
    "copy width 8": _width("copies", 8),
    "copy column index out of range": _copy_cell(0, 10_000),
    "copy column index 2**32 - 1": _copy_cell(2, U32_MAX),
    "copy row outside grid": _copy_cell(3, 1 << 20),
    "ragged copies": lambda doc: doc["copies"].pop(),
    "copy count above the section": _edit(["copies"], 1_000_000),
    "truncated s-expression": _edit(["gates", 0, "poly"], lambda s: s[:-1]),
    "s-expression bad constant": _edit(["gates", 0, "poly"], lambda s: "(+ 1 x)"),
    "deep s-expression": _edit(["gates", 0, "poly"], lambda s: "(+ " * 500 + s + ")" * 500),
    "unclosed s-expression": _edit(["gates", 0, "poly"], lambda s: "(+ " * 5000),
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
    "table value p": lambda doc: _add_table_row(doc, P),
    "table value width 3": _width(_first_table, 3),
    "table arity 0": lambda doc: doc["header"].update(tables=[[t, 0, 0] for t, _, _ in doc["tables"]]),
    "table listed twice": lambda doc: doc["tables"].append(list(doc["tables"][0])),
    "boolean n_rows": _edit(["n_rows"], True),
    "modulus not prime": _edit(["modulus"], str(P + 2)),
    "modulus as number": _edit(["modulus"], P),
    "duplicate column": lambda doc: doc["header"]["columns"].append(dict(doc["header"]["columns"][1])),
    "column kind": _edit(["columns", 1, "kind"], "advise"),
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
    (b"ZKLY" + struct.pack("<II", 4, 2) + b"{}", "unsupported layout version 4"),
    (b"ZKLY" + struct.pack("<II", 3, 2) + b"[]", "the header must be an object"),
    (b"ZKLY" + struct.pack("<II", 3, 2) + b"{\xff", "not valid JSON"),
    (b"ZKLY" + struct.pack("<II", 3, 3) + b"{}", "truncated header"),
    (b"ZKLY\x03\x00", "truncated header"),
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
    bad = witness_bytes(MAX_ROWS, [(f"c{i}", (1, 0, b"")) for i in range(10_000)])
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
    raw = witness_bytes(MAX_ROWS, [("a", (1, 0, b"\x01"))]) + b"\x00"
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
