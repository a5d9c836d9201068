import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import eval_gate
from zkgrid import circuit
from zkgrid.circuit import (
    ADVICE,
    FIXED,
    AdviceColumn,
    Assignment,
    Bindings,
    CircuitError,
    CircuitLayout,
    Column,
    GateColumns,
    GateDef,
    LookupArg,
    SlotColumns,
    add,
    builtin_gates,
    MARK,
    NO_OUTLIERS,
    cell,
    cell_value,
    cell_values,
    const,
    encode_cell_columns,
    int_cells,
    mul,
    pow5,
    signed_cells,
    sub,
)
from zkgrid.field import DEFAULT_MODULUS, Field

F = Field(65537)


def _mult_layout(n_rows=4):
    return CircuitLayout(
        field=F,
        columns={
            "q": Column("q", FIXED),
            "a": Column("a", ADVICE),
            "b": Column("b", ADVICE),
            "c": Column("c", ADVICE),
        },
        n_rows=n_rows,
        n_rows_logical=n_rows,
        gates=[GateDef(id="mult", name="MULT", selector="q", poly=sub(mul(cell("a"), cell("b")), cell("c")))],
        tables={},
        lookups=[],
        copies=[],
        fixed={"q": [1, 1, 0, 0]},
        instance_map=[],
    )


def test_eval_gate_satisfied_row():
    layout = _mult_layout()
    asg = Assignment(advice={"a": [3, 0, None, None], "b": [4, 0, None, None], "c": [12, 0, None, None]}, instance=[])
    assert eval_gate(layout, layout.gates[0], asg, 0).value == 0


def test_eval_gate_violated_row():
    layout = _mult_layout()
    asg = Assignment(advice={"a": [3, 0, None, None], "b": [4, 0, None, None], "c": [11, 0, None, None]}, instance=[])
    assert eval_gate(layout, layout.gates[0], asg, 0).value == 1


def test_eval_gate_disabled_row_ignores_cells():
    layout = _mult_layout()
    # row 2 has selector 0 and unassigned cells: must evaluate to 0
    asg = Assignment(advice={"a": [3, 0, None, None], "b": [4, 0, None, None], "c": [12, 0, None, None]}, instance=[])
    assert eval_gate(layout, layout.gates[0], asg, 2).value == 0


def test_eval_gate_unassigned_enabled_cell_raises():
    layout = _mult_layout()
    asg = Assignment(advice={"a": [None, 0, None, None], "b": [4, 0, None, None], "c": [12, 0, None, None]}, instance=[])
    with pytest.raises(CircuitError, match="unassigned"):
        eval_gate(layout, layout.gates[0], asg, 0)


def test_selector_linearity_random():
    """selector 0 forces 0 regardless of the assignment."""
    import random

    rng = random.Random(2)
    layout = _mult_layout()
    for _ in range(50):
        asg = Assignment(
            advice={k: [rng.randrange(F.modulus) for _ in range(4)] for k in ("a", "b", "c")},
            instance=[],
        )
        assert eval_gate(layout, layout.gates[0], asg, 2).value == 0
        assert eval_gate(layout, layout.gates[0], asg, 3).value == 0


def _gate_cols(n):
    return GateColumns(
        xs=tuple(f"x{j}" for j in range(n)),
        z="z",
        div_a="da",
        div_b="db",
        div_off="off",
        q_dots=tuple(f"q_dot{k}" for k in range(1, n + 1)),
        q_div="q_div",
        slots=(SlotColumns(ws=tuple(f"w{j}" for j in range(n)), carry="carry", out="out", r="r", q="q", act="act"),),
    )


def _family_layout(n):
    cols = {}
    for j in range(n):
        cols[f"x{j}"] = Column(f"x{j}", ADVICE)
        cols[f"w{j}"] = Column(f"w{j}", FIXED)
    for cid in ("carry", "out", "r", "q", "act"):
        cols[cid] = Column(cid, ADVICE)
    for cid in ("z", "da", "db", "off", "q_div", *(f"q_dot{k}" for k in range(1, n + 1))):
        cols[cid] = Column(cid, FIXED)
    gates = builtin_gates(_gate_cols(n))
    return cols, gates


def _family_row(n, fixed):
    """A one-row layout over the gate families of width n."""
    cols, gates = _family_layout(n)
    base = {c: [0] for c, col in cols.items() if col.kind == FIXED}
    layout = CircuitLayout(
        field=F, columns=cols, n_rows=1, n_rows_logical=1,
        gates=gates, tables={}, lookups=[], copies=[], fixed=base | fixed, instance_map=[],
    )
    return layout, {g.name: g for g in gates}


def _row(**advice):
    return Assignment(advice={c: [v] for c, v in advice.items()}, instance=[])


def test_dot4_gate_row():
    """x=[2,3,9,1], w=[4,5,0,0], z=1, carry 0: the output must be 14;
    padded weights are zero so the padded inputs cannot matter."""
    layout, by_name = _family_row(4, {"w0": [4], "w1": [5], "z": [1], "q_dot4": [1]})
    dot = by_name["DOT_4"]
    xs = {"x0": 2, "x1": 3, "x2": 9, "x3": 1}
    assert eval_gate(layout, dot, _row(**xs, carry=0, out=14), 0).value == 0
    assert eval_gate(layout, dot, _row(**xs, carry=0, out=15), 0).value != 0


def test_dot3_gate_adds_its_carry():
    """The carry is added to the row's dot product: a chain of rows sums
    a long dot product, and the first carry holds the bias."""
    layout, by_name = _family_row(3, {"w0": [1], "w1": [2], "w2": [3], "q_dot3": [1]})
    dot = by_name["DOT_3"]
    xs = {"x0": 14, "x1": 9, "x2": 2}  # 14 + 18 + 6 = 38
    assert eval_gate(layout, dot, _row(**xs, carry=-7 % F.modulus, out=31), 0).value == 0
    assert eval_gate(layout, dot, _row(**xs, carry=0, out=31), 0).value != 0
    assert eval_gate(layout, dot, _row(**xs, carry=-7 % F.modulus, out=32), 0).value != 0


def test_div_gate_row():
    """out=7, a=3, b=4: 21 = 5*4 + 1, so (q, r) = (5, 1)."""
    layout, by_name = _family_row(2, {"da": [3], "db": [4], "q_div": [1]})
    div = by_name["DIV"]
    assert eval_gate(layout, div, _row(out=7, q=5, r=1), 0).value == 0
    # (4, 5) also satisfies the raw equation 21 = 4*4 + 5; rejecting it is
    # the remainder range lookup's job, covered by the uniqueness test.
    for q, r in [(5, 2), (6, 1), (4, 0)]:
        assert eval_gate(layout, div, _row(out=7, q=q, r=r), 0).value != 0


def test_builtin_gates_require_width_two():
    with pytest.raises(CircuitError):
        builtin_gates(_gate_cols(1))


def test_div_with_range_is_unique_over_integers():
    """For every c in [-100, 100] and a, b <= 8, exactly one pair (d, r)
    with 0 <= r < b and d in the bounded quotient domain satisfies
    c*a == d*b + r."""
    for b in range(1, 9):
        for a in range(1, 9):
            d_min, d_max = (-100 * a) // b, (100 * a) // b
            for c in range(-100, 101):
                ca = c * a
                sols = [
                    (d, ca - d * b)
                    for d in range(d_min, d_max + 1)
                    if 0 <= ca - d * b < b
                ]
                assert len(sols) == 1
                d, r = sols[0]
                assert d == ca // b and r == ca - d * b


def test_slots_share_x_lanes_and_selectors():
    """Two slots over the same x lanes: one gate per slot and width, named
    DOT_k / DIV with the slot in the id, on the shared selectors; each
    slot's gate reads only its own weights, carry and out."""
    slots = tuple(
        SlotColumns(ws=(f"w{m}_0", f"w{m}_1"), carry=f"c{m}", out=f"o{m}", r=f"r{m}", q=f"q{m}", act=f"a{m}")
        for m in range(2)
    )
    cols = GateColumns(
        xs=("x0", "x1"), z="z", div_a="da", div_b="db", div_off="off",
        q_dots=("q_dot1", "q_dot2"), q_div="q_div", slots=slots,
    )
    gates = builtin_gates(cols, prefix="g0:")
    assert [(g.id, g.name, g.selector) for g in gates] == [
        ("g0:s0:dot1", "DOT_1", "q_dot1"), ("g0:s0:dot2", "DOT_2", "q_dot2"), ("g0:s0:div", "DIV", "q_div"),
        ("g0:s1:dot1", "DOT_1", "q_dot1"), ("g0:s1:dot2", "DOT_2", "q_dot2"), ("g0:s1:div", "DIV", "q_div"),
    ]
    shared = {"x0", "x1", "z", "da", "db", "off"}
    for g, m in zip(gates, [0] * 3 + [1] * 3):
        own = g.poly.columns() - shared
        assert own and own <= {*slots[m].ws, slots[m].carry, slots[m].out, slots[m].r, slots[m].q}, g.id


def test_degree_accounting():
    cols, gates = _family_layout(4)
    by_name = {g.name: g for g in gates}
    assert sorted(by_name) == ["DIV", "DOT_1", "DOT_2", "DOT_3", "DOT_4"]
    assert by_name["DOT_4"].poly.degree() == 2
    assert by_name["DIV"].poly.degree() == 2
    assert sub(mul(cell("a"), pow5(cell("b"))), cell("c")).degree() == 6


def test_gate_degree_walks_shared_nodes_once():
    """A gate reading one pow5 subtree three times: its degree counts
    every use, and the memo holds one entry per distinct inner node."""
    shared = pow5(add(cell("a"), const(3)))
    poly = sub(mul(shared, shared), add(shared, cell("b")))
    memo = {}
    assert poly.degree(memo) == 10
    assert len(memo) == 5   # sub, mul, the outer add, pow5 and its add
    layout = _mult_layout()
    layout.gates = [GateDef(id="shared", name="SHARED", selector="q", poly=poly)]
    assert layout.max_gate_degree() == 11


def test_column_eval_matches_tree_eval():
    """The checker's column-wise evaluation agrees with the eval_gate
    oracle on every row, for canonical cells, cells >= p and cells equal to p - 1."""
    import random

    from zkgrid.checker import check

    rng = random.Random(8)
    p = F.modulus
    n = 256
    e = sub(mul(cell("a"), pow5(cell("b"))), cell("c"))
    layout = CircuitLayout(
        field=F,
        columns={c: Column(c, ADVICE) for c in "abc"} | {"q": Column("q", FIXED)},
        n_rows=n, n_rows_logical=n,
        gates=[GateDef(id="g", name="G", selector="q", poly=e)],
        tables={}, lookups=[], copies=[],
        fixed={"q": [rng.choice([0, 1, 2, p - 1]) for _ in range(n)]},
        instance_map=[],
    )
    pick = lambda: rng.choice([rng.randrange(p), p - 1, p + rng.randrange(p), 3 * p])
    asg = Assignment(advice={c: [pick() for _ in range(n)] for c in "abc"}, instance=[])
    got = {v.row: v.detail for v in check(layout, asg, cap=n)}
    for row in range(n):
        a, b, c = (asg.advice[k][row] for k in "abc")
        expected = layout.fixed["q"][row] * (a * pow(b, 5, p) - c) % p
        assert eval_gate(layout, layout.gates[0], asg, row).value == expected
        assert got.get(row) == (f"G evaluates to {expected}" if expected else None)


def test_table_on_another_field_refused():
    """A lookup into a table made on another field is refused: a table
    tests keys mod its own modulus."""
    from zkgrid.arithmetize import lookup_table

    layout = _mult_layout()
    byte = lookup_table(("range", 0, 255), DEFAULT_MODULUS)
    layout.tables[byte.id] = byte
    layout.lookups.append(LookupArg(id="lk", table=byte.id, columns=("a",), selector="q"))
    with pytest.raises(CircuitError, match="another field"):
        layout.validate()
    layout.tables[byte.id] = lookup_table(byte.recipe, F.modulus)
    layout.validate()


def test_debug_dump_shape():
    import random

    from zkgrid.arithmetize import compile as _compile
    from zkgrid.modelgen import random_model

    g = random_model(random.Random(1), max_hw=4, max_c=2)
    layout, stats = _compile(g)
    doc = layout.debug_dump()
    assert doc["n_rows"] == stats.n_rows_padded
    assert {c["id"] for c in doc["columns"]} == set(layout.columns)
    assert [gd["poly"] for gd in doc["gates"]] == [g.poly.to_sexpr() for g in layout.gates]
    assert doc["max_gate_degree"] == stats.max_gate_degree
    for tid, t in doc["tables"].items():
        assert t["size"] == len(layout.tables[tid].rows)
        assert t["recipe"] == list(layout.tables[tid].recipe)
    # Each clip table's domain shows beside its size.
    clips = [t for tid, t in doc["tables"].items() if tid.startswith("clip:")]
    assert clips and all(t["recipe"][0] == "clip" and t["size"] == t["recipe"][5] - t["recipe"][4] + 1 for t in clips)


def _residue(v: int, p: int) -> int:
    """v's canonical signed residue mod p, in (-p/2, p/2]."""
    r = v % p
    return r - p if r > p // 2 else r


@pytest.mark.parametrize("p", [DEFAULT_MODULUS, (1 << 31) - 1, 65537])
def test_signed_cells_match_python_residues(p):
    """signed_cells gives every value's canonical signed residue and the
    greatest magnitude among them, from int_cells forms of signed and
    unsigned values, and None for a column holding an outlier."""
    import random

    rng = random.Random(p)
    columns = [
        [], [0], [1, 2, 3], [-1, -5], [p - 1], [p - 1, 1 << 30, 5], [p // 2, p // 2 + 1], [-(p // 2), -(p // 2) - 1],
        [rng.randrange(p) for _ in range(50)], [p - rng.randrange(1 << 20) for _ in range(30)] + [1 << 29],
        [p], [3, p + 3, -p - 3], [1 << 100, 1 << 101], [-(1 << 63)], [(1 << 63) - 1, 1 - (1 << 63)],
    ]
    forms = int_cells(columns)
    signed, starts, held, bounds = signed_cells(forms, p)
    for vals, s, bound in zip(columns, starts.tolist(), bounds):
        want = [_residue(v, p) for v in vals]
        if any(not -(1 << 63) < v < 1 << 63 for v in vals):
            assert bound is None, vals
        else:
            assert signed[s : s + len(vals)].tolist() == want and held[s : s + len(vals)].all()
            assert bound == max(map(abs, want), default=0)


# The fields signed_cells is tested on: both sides of 2**63 and 2**64.
RESIDUE_FIELDS = [DEFAULT_MODULUS, (1 << 63) + 29, (1 << 61) - 1, (1 << 31) - 1, 65537]
_EDGES = [0, 1, -1, 127, -128, (1 << 62) - 1, 1 - (1 << 62), 1 << 62, -(1 << 62), (1 << 63) - 1, -(1 << 63)]
_INT64 = (-(1 << 63), (1 << 63) - 1)


@st.composite
def _int_columns(draw):
    """Columns as int_cells takes them: int64 arrays, lists and object
    arrays of small values, int64 edges (-2**63 among them), values near
    +-2**62 and wide values on both sides."""
    small = st.integers(-300, 300)
    i64 = st.integers(*_INT64)
    near = st.sampled_from([-(1 << 62), 1 << 62]).flatmap(lambda e: st.integers(e - 3, e + 3))
    wide = st.one_of(
        st.integers(-(1 << 300), 1 << 300),
        st.sampled_from([1 << 63, (1 << 64) - 1, 1 << 64, -(1 << 63) - 1, -(1 << 63), DEFAULT_MODULUS]),
    )
    edge = st.sampled_from(_EDGES)
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["int64", "edges", "object", "list", "wide list"]))
        if kind in ("object", "wide list"):
            vals = draw(st.lists(st.one_of(wide, small, edge), max_size=8))
            columns.append(np.array(vals, object) if kind == "object" else vals)
            continue
        vals = draw(st.lists(edge if kind == "edges" else st.one_of(small, edge, near, i64), max_size=10))
        columns.append(vals if kind == "list" else np.array(vals, np.int64))
    return columns


@settings(max_examples=400, deadline=None)
@given(_int_columns())
@example([np.array([-(1 << 63), 5, -(1 << 63)], np.int64), [-(1 << 63)], np.array([-(1 << 63), 1 << 63], object)])
@example([np.array([3, -4], object), np.array([-(1 << 63), 7], object), [1 << 70, -(1 << 70), 2, 3, 4]])
def test_int_cells_split_at_int64(columns):
    """On random int64, list and object columns, each column's form holds
    every value inside (-2**63, 2**63) as its own int64 cell and every
    other value as an outlier, in order, behind a MARK cell."""
    forms = int_cells(columns)
    assert len(forms) == len(columns)
    for vals, (cells, outliers) in zip(columns, forms):
        vals = [int(v) for v in vals]
        inside = [_INT64[0] < v <= _INT64[1] for v in vals]
        assert cells.dtype == np.int64 and outliers.dtype == object
        assert cells.tolist() == [v if ok else MARK for v, ok in zip(vals, inside)]
        assert outliers.tolist() == [v for v, ok in zip(vals, inside) if not ok]
        assert {type(v) for v in outliers.tolist()} <= {int}
        assert cell_values(cells, outliers).tolist() == vals
        assert [cell_value(cells, outliers, k) for k in range(len(vals))] == vals


@st.composite
def _signed_forms(draw):
    """int_cells forms on one of the residue fields: int64 cells, often at
    the edges of the rule (+-p // 2, +-p, the int64 edges), forms with
    outliers, all-outlier forms and empty ones."""
    p = draw(st.sampled_from(RESIDUE_FIELDS))
    half = p // 2
    edges = [0, 1, -1, half, half + 1, -half, -half - 1, p - 1, p, -p, 1 - p, _INT64[1], _INT64[0] + 1]
    edges = [e for e in edges if _INT64[0] < e <= _INT64[1]]
    cell = st.one_of(st.sampled_from(edges), st.integers(_INT64[0] + 1, _INT64[1]), st.integers(-300, 300))
    forms = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["plain", "plain", "outliers", "all outliers", "empty"]))
        n = 0 if kind == "empty" else draw(st.integers(1, 8))
        cells = [MARK if kind == "all outliers" else draw(cell) for _ in range(n)]
        if kind == "outliers":
            cells = [MARK if draw(st.booleans()) else c for c in cells]
        outliers = [draw(st.integers(-(1 << 256), 1 << 256)) for c in cells if c == MARK]
        forms.append((np.array(cells, np.int64), np.array(outliers, object) if outliers else NO_OUTLIERS))
    return forms, p


@settings(max_examples=400, deadline=None)
@given(_signed_forms())
@example(([(np.array([-5, 3, MARK]), np.array([7], object))], DEFAULT_MODULUS))
@example(([(np.array([-(1 << 62) - 100, 5, (1 << 62) + 15, (1 << 63) - 1, MARK + 1]), NO_OUTLIERS)], (1 << 63) + 29))
@example(([(np.array([(1 << 62) + 14, -(1 << 62) - 14]), NO_OUTLIERS)], (1 << 63) + 29))
def test_signed_cells_hold_exactly_the_residues_that_fit(case):
    """signed_cells' mask holds every cell but MARK, and such a cell holds
    its value's canonical signed residue; a form's bound is the greatest
    magnitude of its residues exactly when it has no outlier."""
    forms, p = case
    signed, starts, held, bounds = signed_cells(forms, p)
    assert len(signed) == len(held) == sum(len(c) for c, _ in forms)
    for (cells, outliers), s, bound in zip(forms, starts.tolist(), bounds):
        want = [None if c == MARK else _residue(c, p) for c in cells.tolist()]
        got = held[s : s + len(cells)].tolist()
        assert got == [r is not None for r in want], cells
        assert [x for x, ok in zip(signed[s : s + len(cells)].tolist(), got) if ok] == [r for r in want if r is not None]
        assert bound == (max(map(abs, want), default=0) if None not in want else None)


@pytest.mark.parametrize("build", [list, lambda vals: np.array(vals, np.int64)])
def test_a_cell_of_minus_2_63_is_an_outlier(build):
    """-2**63 is the MARK cell, so a column holding it keeps it as an
    outlier, from a list or an int64 array: it reads cell by cell, with
    tolist() and through the witness file as itself."""
    from zkgrid import serialize

    vals = [5, MARK, -7, MARK]
    asg = Assignment(advice={"a": AdviceColumn(4, 4, None, int_cells([build(vals)])[0]), "b": vals}, instance=[])
    for col in (asg.advice["a"], asg.advice["b"]):
        assert [col[r] for r in range(4)] == col.tolist() == vals
        assert col.outliers.tolist() == [MARK, MARK]
    loaded = serialize.load_witness(serialize.dump_witness(asg))
    assert loaded == asg and [loaded.advice["a"][r] for r in range(4)] == vals


def test_binding_to_a_column_number_past_the_columns_refused():
    """validate() refuses a packed binding whose column number lies outside
    the layout's columns, as the layout loader does, rather than failing
    to name its column."""
    layout = _mult_layout()
    names = list(layout.columns)
    for number in (len(names), 5, -1):
        layout.instance_map = Bindings(np.array([number, 0, 0]), names)
        with pytest.raises(CircuitError, match=f"column number {number} outside the {len(names)} columns"):
            layout.validate()


def test_a_cell_that_is_not_an_int_is_refused():
    """A column write refuses a value that is not an int as building the
    column refuses it, rather than reading it through a float."""
    for bad in (64.5, 64.0, float(1 << 60), "64"):
        with pytest.raises(CircuitError, match="is not an int"):
            Assignment(advice={"a": [1, bad, None]}, instance=[])
        asg = Assignment(advice={"a": [1, 2, None]}, instance=[])
        with pytest.raises(CircuitError, match="is not an int"):
            asg.advice["a"][1] = bad
        assert asg.advice["a"] == [1, 2, None]
    asg.advice["a"][2] = np.int64(7)
    assert asg.advice["a"] == [1, 2, 7]


def test_carried_cell_bytes_hold_while_the_arrays_do():
    """A column built with its cell column bytes gives them while it holds
    the arrays and length they came from: replacing its cells or
    outliers, changing its length or writing a cell drops them."""
    col = AdviceColumn.of_list([5, None, DEFAULT_MODULUS - 3, 7] + [None] * 4)
    bitmap = np.packbits(col.present, bitorder="little").tobytes()
    [code] = encode_cell_columns([((col.cells, col.outliers), col.length, bitmap)])
    assert AdviceColumn.of_list(col.tolist()).encoded() is None

    def carried():
        return AdviceColumn(col.n_rows, col.length, col.present, (col.cells, col.outliers), encoded=code)

    assert carried().encoded() == code
    c = carried()
    c.cells = c.cells.copy()
    assert c.encoded() is None
    c = carried()
    c.outliers = c.outliers.copy()
    assert c.encoded() is None
    c = carried()
    c.length += 1
    assert c.encoded() is None
    c = carried()
    c[0] = 5
    assert c.encoded() is None and c == col
