"""Layout and witness files: exact round trips, the cell widths the
witness writer picks, and refusal of every malformed file with
FormatError (or CircuitError for an inconsistent circuit) and exit
code 2 from `zkgrid check`, never a traceback."""

import json
import random
import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        (witness_bytes(1, {"a": (1, 0, b"\x01\x02", 2)}), "column of 2 cells in a witness of 1 rows"),
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
    (tmp / "layout.json").write_bytes(lay_raw)
    (tmp / "w.bin").write_bytes(wit_raw)
    assert main(["check", str(tmp / "layout.json"), str(tmp / "w.bin")]) == 0
    return tmp, lay_raw, wit_raw


def _check(tmp, layout_raw: bytes, witness_raw: bytes) -> int:
    (tmp / "l.json").write_bytes(layout_raw)
    (tmp / "x.bin").write_bytes(witness_raw)
    return main(["check", str(tmp / "l.json"), str(tmp / "x.bin")])


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
        with pytest.raises(FormatError):
            serialize.load_layout(lay + tail)
        assert _check(tmp, lay + tail, wit) == 2
    for doc in (b"[]", b"{}", b"null", b"[" * 100_000):
        with pytest.raises(FormatError):
            serialize.load_layout(doc)


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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flipped_bytes_never_crash(files, data):
    """Any one byte changed: the loaders return or raise FormatError or
    CircuitError, and `check` exits 0, 1 or 2, 2 whenever loading failed."""
    tmp, lay, wit = files
    in_layout = data.draw(st.booleans())
    raw = bytearray(lay if in_layout else wit)
    pos = data.draw(st.integers(0, len(raw) - 1))
    if in_layout:
        raw[pos] = data.draw(st.sampled_from(b'0123456789-"[]{},:ax '))
    else:
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


def _v1_layout(doc: dict) -> dict:
    """The same layout in the version-1 shape: per-copy lists and full
    fixed columns."""
    names = [c["id"] for c in doc["columns"]]
    n, p = doc["n_rows"], int(doc["modulus"])
    fixed = {}
    for col, flat in doc["fixed"].items():
        fixed[col] = [0] * n
        for row, v in zip(flat[0::2], flat[1::2]):
            fixed[col][row] = v % p
    flat = doc["copies"]
    copies = [[names[flat[i]], flat[i + 1], names[flat[i + 2]], flat[i + 3]] for i in range(0, len(flat), 4)]
    return {**doc, "version": 1, "fixed": fixed, "copies": copies}


def _edit(path: str, value):
    """A layout edit: set the field at `path` (keys and list indices)."""
    def apply(doc):
        *head, last = path
        node = doc
        for k in head:
            node = node[k]
        node[last] = value(node[last]) if callable(value) else value
    return apply


def _add_table_row(doc, value):
    table = next(iter(doc["tables"].values()))
    table["rows"].append([value] * table["arity"])


def _first_nonempty_fixed(doc):
    return next(c for c, flat in sorted(doc["fixed"].items()) if len(flat) >= 2)


BAD_LAYOUTS = {
    "v1 layout": lambda doc: doc.update(_v1_layout(doc)),
    "string fixed value": lambda doc: doc["fixed"][_first_nonempty_fixed(doc)].__setitem__(1, "1"),
    "string copy row": _edit(["copies", 1], str),
    "float copy row": _edit(["copies", 1], lambda r: r + 0.0),
    "copy column index out of range": _edit(["copies", 0], 10_000),
    "negative copy column index": _edit(["copies", 2], -1),
    "copy row outside grid": _edit(["copies", 3], 1 << 20),
    "ragged copies": lambda doc: doc["copies"].pop(),
    "truncated s-expression": _edit(["gates", 0, "poly"], lambda s: s[:-1]),
    "s-expression bad constant": _edit(["gates", 0, "poly"], lambda s: "(+ 1 x)"),
    "deep s-expression": _edit(["gates", 0, "poly"], lambda s: "(+ " * 500 + s + ")" * 500),
    "unclosed s-expression": _edit(["gates", 0, "poly"], lambda s: "(+ " * 5000),
    "lookup selector is advice": _edit(["lookups", 0, "selector"], "g0:x0"),
    "fixed rows unsorted": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [1, 1, 0, 1]),
    "fixed row repeated": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, 1, 0, 1]),
    "fixed row outside grid": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, 1, 4, 1]),
    "fixed negative row": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [-1, 1]),
    "fixed value above p/2": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, P // 2 + 1]),
    "fixed value at -p/2": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, -(P // 2) - 1]),
    "fixed zero listed": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, 0]),
    "fixed odd length": lambda doc: doc["fixed"].__setitem__("g0:q_dot2", [0, 1, 2]),
    "fixed for unknown column": lambda doc: doc["fixed"].__setitem__("nope", []),
    "table value p": lambda doc: _add_table_row(doc, P),
    "table value string": lambda doc: _add_table_row(doc, "1"),
    "boolean n_rows": _edit(["n_rows"], True),
    "modulus not prime": _edit(["modulus"], str(P + 2)),
    "modulus as number": _edit(["modulus"], P),
    "duplicate column": lambda doc: doc["columns"].append(dict(doc["columns"][1])),
    "column kind": _edit(["columns", 1, "kind"], "advise"),
    "column not an object": _edit(["columns", 1], "io0"),
    "instance binding row string": _edit(["instance_map", 0, 1], "0"),
    "instance binding short": _edit(["instance_map", 0], ["io0", 0]),
}


@pytest.mark.parametrize("name", sorted(BAD_LAYOUTS))
def test_malformed_layout_exit_2(files, name):
    tmp, lay, wit = files
    doc = json.loads(lay)
    BAD_LAYOUTS[name](doc)
    raw = json.dumps(doc).encode()
    with pytest.raises((FormatError, CircuitError)):
        serialize.load_layout(raw)
    assert _check(tmp, raw, wit) == 2


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
        doc = json.loads(lay)
        doc["n_rows"] = n_rows
        assert _check(tmp, json.dumps(doc).encode(), wit) == 2
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
    """Likewise each `[]` fixed column would become n_rows zeros."""
    tmp, lay, wit = files
    doc = json.loads(lay)
    doc["n_rows"] = MAX_ROWS
    doc["fixed"].update({f"f{i}": [] for i in range(10_000)})
    assert _check(tmp, json.dumps(doc).encode(), wit) == 2
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


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_round_trips_are_exact_and_deterministic(mode):
    rng = random.Random(8)
    g = random_model(rng, max_hw=5, max_c=3, max_layers=3)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(rng, g))
    lay_raw, wit_raw = serialize.dump_layout(layout), serialize.dump_witness(asg)
    assert serialize.load_layout(lay_raw) == layout
    assert serialize.load_witness(wit_raw) == asg
    assert serialize.dump_layout(serialize.load_layout(lay_raw)) == lay_raw
    assert serialize.dump_witness(serialize.load_witness(wit_raw)) == wit_raw
    widths = set(column_widths(wit_raw))
    assert 1 in widths and (32 in widths) == (mode is not None)


def test_dump_layout_refuses_non_canonical_fixed_cell():
    g = two_tap_fc_model()
    layout, _ = compile(g)
    layout.fixed["g0:q_dot2"][0] = layout.field.modulus
    with pytest.raises(FormatError, match="canonical"):
        serialize.dump_layout(layout)


def test_fixed_values_at_the_signed_bounds_load(files):
    _, lay, _ = files
    doc = json.loads(lay)
    doc["fixed"]["g0:w0"] = [0, P // 2]
    doc["fixed"]["g0:w1"] = [0, -(P // 2)]
    layout = serialize.load_layout(json.dumps(doc))
    assert (layout.fixed["g0:w0"][0], layout.fixed["g0:w1"][0]) == (P // 2, P // 2 + 1)
