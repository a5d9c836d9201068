import copy
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import row_oracle_check
from zkgrid import serialize
from zkgrid.bench import make_synthetic_grid
from zkgrid.checker import KERNEL, CheckError, Violation, _eval, _Grid, check, check_parallel
from zkgrid.circuit import (
    ADVICE,
    FIXED,
    Assignment,
    CircuitLayout,
    Column,
    CopyConstraint,
    GateDef,
    LookupArg,
    LookupTable,
    add,
    cell,
    const,
    mul,
    pow5,
    sub,
)
from zkgrid.arithmetize import CompileConfig, CompileError, assign_witness, compile, lookup_table
from zkgrid.commit import VisibilityMode
from zkgrid.field import DEFAULT_MODULUS, MIN_MODULUS, Field
from zkgrid.modelgen import random_input, random_model, random_parameterized_model


def test_honest_witness_accepts():
    rng = random.Random(1)
    g = random_model(rng, max_hw=6, max_c=3)
    inp = random_input(rng, g)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []


def test_single_tamper_names_constraint_and_row():
    rng = random.Random(2)
    g = random_model(rng, max_hw=5, max_c=2)
    inp = random_input(rng, g)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    plan = layout.plan
    site = plan.site_plans[0]
    first = site.rows[0]  # a single-row site has no dot_rows before its div
    col, row = first.cell("out")
    asg.advice[col][row] = (asg.advice[col][row] + 1) % layout.field.modulus
    vs = check(layout, asg)
    assert vs
    assert any(v.kind == "gate" and v.row == row for v in vs)


def test_empty_layout_accepts():
    layout = CircuitLayout(
        field=Field(65537), columns={}, n_rows=0, n_rows_logical=0,
        gates=[], tables={}, lookups=[], copies=[], fixed={}, instance_map=[],
    )
    assert check(layout, Assignment(advice={}, instance=[])) == []


def test_shards_zero_rejected():
    layout, asg = make_synthetic_grid(64)
    with pytest.raises(CheckError):
        check_parallel(layout, asg, shards=0)


@pytest.mark.parametrize("shards", [1, 2, 3, 8, 64])
def test_violations_invariant_to_shards(shards):
    layout, asg = make_synthetic_grid(4096, violations=23)
    base = check_parallel(layout, asg, shards=1)
    assert len(base) == 23
    assert check_parallel(layout, asg, shards=shards) == base


@pytest.mark.parametrize("shards", [1, 4, 16])
def test_cap_is_shard_invariant(shards):
    layout, asg = make_synthetic_grid(4096, violations=100)
    capped = check_parallel(layout, asg, shards=shards, cap=17)
    assert len(capped) == 17
    assert capped == check_parallel(layout, asg, shards=1, cap=17)


def test_violation_ordering_is_canonical():
    layout, asg = make_synthetic_grid(2048, violations=40)
    # also break some lookups and a copy to mix kinds
    for i in (5, 99, 1000):
        asg.advice["d"][i] = 999
    cp = layout.copies[0]
    asg.advice[cp.a[0]][cp.a[1]] = (asg.advice[cp.a[0]][cp.a[1]] + 1) % layout.field.modulus
    vs = check(layout, asg, cap=10_000)
    keys = [v.sort_key() for v in vs]
    assert keys == sorted(keys)
    kinds = {v.kind for v in vs}
    assert {"gate", "lookup", "copy"} <= kinds


def test_dimension_mismatch_rejected():
    layout, asg = make_synthetic_grid(64)
    del asg.advice["d"]
    with pytest.raises(CheckError, match="advice columns mismatch"):
        check(layout, asg)
    layout2, asg2 = make_synthetic_grid(64)
    asg2 = Assignment(advice={**asg2.advice, "a": list(asg2.advice["a"])[:-1]}, instance=asg2.instance)
    with pytest.raises(CheckError, match="rows"):
        check(layout2, asg2)


def test_unassigned_cell_in_enabled_row_is_error():
    layout, asg = make_synthetic_grid(64)
    asg.advice["a"][3] = None
    with pytest.raises(CheckError, match="unassigned"):
        check(layout, asg)


def test_instance_binding_checked():
    rng = random.Random(3)
    g = random_model(rng, max_hw=4, max_c=2)
    inp = random_input(rng, g)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    asg.instance[0] = (asg.instance[0] + 1) % layout.field.modulus
    vs = check(layout, asg)
    assert any(v.kind == "instance" for v in vs)


@pytest.mark.parametrize(
    "mode",
    [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS],
)
def test_every_instance_binding_compared(mode):
    """Tampering each instance value in turn gives exactly one violation,
    the instance binding of that index: no binding goes unchecked."""
    rng = random.Random(6)
    g = random_parameterized_model(rng, max_hw=3, max_c=2, max_layers=2)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(rng, g))
    p = layout.field.modulus
    assert check(layout, asg) == []
    assert sorted(i for _, i in layout.instance_map) == list(range(len(asg.instance)))
    for idx, (cell_ref, inst_idx) in enumerate(layout.instance_map):
        honest = asg.instance[inst_idx]
        asg.instance[inst_idx] = (honest + 1) % p
        vs = check(layout, asg)
        assert [(v.kind, v.id, v.row) for v in vs] == [("instance", f"{idx:09d}", cell_ref[1])]
        asg.instance[inst_idx] = honest


@pytest.mark.parametrize("shift", ["+p", "p", "negative", "2**255-1"])
def test_non_canonical_instance_value_refused(shift):
    """The instance vector is public input, compared as given: a value
    outside [0, p) is refused outright, never reduced to a residue that
    happens to match."""
    rng = random.Random(3)
    g = random_model(rng, max_hw=4, max_c=2)
    inp = random_input(rng, g)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    p = layout.field.modulus
    assert check(layout, asg) == []
    v = asg.instance[0]
    asg.instance[0] = {"+p": v + p, "p": p, "negative": v - p, "2**255-1": (1 << 255) - 1}[shift]
    with pytest.raises(CheckError, match="not a canonical residue"):
        check(layout, asg)


@pytest.mark.parametrize("bad", [14.5, 14.0, float(1 << 60), "14"])
def test_instance_value_that_is_not_an_int_refused(bad):
    """An instance value that is not an int is refused, not read as the
    int its float would give."""
    rng = random.Random(3)
    g = random_model(rng, max_hw=4, max_c=2)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, random_input(rng, g))
    assert check(layout, asg) == []
    asg.instance[0] = bad
    with pytest.raises(CheckError, match="instance value .* is not an int"):
        check(layout, asg)


def test_checker_agrees_with_row_oracle():
    """Column-wise checking and the row-by-row oracle report the same
    violations on the synthetic grid, at every shard count."""
    layout, asg = make_synthetic_grid(2000, violations=13)
    asg.advice["d"][77] = 1 << 20
    expect = row_oracle_check(layout, asg)
    assert [v.kind for v in expect].count("gate") == 13
    assert [v.row for v in expect if v.kind == "lookup"] == [77]
    for shards in (1, 3, 8):
        assert check_parallel(layout, asg, shards=shards) == expect


@pytest.fixture(scope="module")
def hidden_layout():
    """A small both-hidden layout: sponge rounds share their S-box terms."""
    rng = random.Random(21)
    g = random_model(rng, max_hw=4, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    layout, _ = compile(g, CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS))
    asg = assign_witness(layout, g, inp)
    assert any(gd.name.startswith("POSE_FULL_") for gd in layout.gates)
    return layout, asg


def test_tampered_hidden_witness_matches_row_oracle(hidden_layout):
    layout, honest = hidden_layout
    p = layout.field.modulus
    rng = random.Random(5)
    sponge_cells = [(c, r) for c in sorted(honest.advice) if c.startswith("sp:") for r in range(layout.n_rows)]
    all_cells = [(c, r) for c in sorted(honest.advice) for r in range(layout.n_rows)]
    pair_rows = layout.fixed["sp:q_pair"].nonzero_rows()
    caught = 0
    hit_gates = set()
    for trial in range(12):
        asg = copy.deepcopy(honest)
        for _ in range(rng.choice([1, 3, 10])):
            col, row = rng.choice(sponge_cells if trial % 2 else all_cells)
            if asg.advice[col][row] is not None:
                asg.advice[col][row] = rng.randrange(p)
        if trial % 4 == 1:
            asg.advice["sp:in1"][rng.choice(pair_rows)] += 1
        if trial % 4 == 3:
            asg.advice["sp:u"][rng.choice(pair_rows)] += 1
        cap = rng.choice([1000, 7])
        expect = row_oracle_check(layout, asg, cap=cap)
        caught += bool(expect)
        hit_gates |= {v.id for v in expect if v.kind == "gate"}
        for shards in (1, 4):
            assert check_parallel(layout, asg, shards=shards, cap=cap) == expect
    assert caught >= 6
    assert {g[:7] for g in hit_gates} >= {"sp:full", "sp:pair"}


def test_non_canonical_cells_reduce_exactly(hidden_layout):
    """Cells >= p and cells equal to p - 1: gates, lookups and copies all
    compare residues mod p, exactly as the oracle does, so an honest
    witness with cells moved by multiples of p is still accepted."""
    layout, honest = hidden_layout
    p = layout.field.modulus
    asg = copy.deepcopy(honest)
    for col in sorted(asg.advice):
        vals = asg.advice[col]
        for row in range(0, layout.n_rows, 3):
            if vals[row] is not None:
                vals[row] += p * (1 + row % 4)
    assert check(layout, asg, cap=10_000) == row_oracle_check(layout, asg, cap=10_000) == []
    sponge_asg = Assignment(advice={
        col: [None if v is None else v + p for v in vals] if col.startswith("sp:") else vals
        for col, vals in honest.advice.items()
    }, instance=list(honest.instance))
    assert check(layout, sponge_asg) == []
    edge = copy.deepcopy(honest)
    col = sorted(c for c in edge.advice if c.startswith("sp:in"))[0]
    for row in range(0, layout.n_rows, 5):
        edge.advice[col][row] = p - 1
    got = check(layout, edge, cap=10_000)
    assert got and got == row_oracle_check(layout, edge, cap=10_000)


@pytest.mark.parametrize("col, selector", [
    ("sp:in0", "sp:q_absorb"), ("sp:m1", "sp:q_absorb"), ("sp:in2", "sp:q_full"),
    ("sp:u", "sp:q_pair"), ("sp:out1", "sp:q_pair"), ("sp:rcb0", "sp:q_pair"), ("sp:rc0", "sp:q_part"),
])
def test_unassigned_sponge_cell_is_error(hidden_layout, col, selector):
    """A cell that an enabled round gate reads, on each kind of sponge row."""
    layout, honest = hidden_layout
    asg = copy.deepcopy(honest)
    row = layout.fixed[selector].nonzero_rows()[1]
    if col in asg.advice:
        asg.advice[col][row] = None
    else:
        vals = list(layout.fixed[col])
        vals[row] = None
        layout = replace(layout, fixed={**layout.fixed, col: vals})
    with pytest.raises(CheckError, match=f"unassigned cell in enabled row {row}"):
        check(layout, asg)


def _sponge_cell(layout, which):
    """(column, row) of one sponge cell: the u or a state out of a pair
    row, a message lane of a later chunk's round-0 row, or a state in of
    the sponge's first row."""
    sp = layout.plan.sponges[0]
    pair_row = layout.fixed["sp:q_pair"].nonzero_rows()[3]
    return {
        "u": ("sp:u", pair_row),
        "pair s_out": ("sp:out1", pair_row),
        "round-0 msg": ("sp:m0", sp.absorb_rows[-1]),
        "first s_in": ("sp:in2", sp.absorb_rows[0]),
    }[which]


@pytest.mark.parametrize("which, gates, copied", [
    ("u", ["sp:pair0", "sp:pair_u"], False),
    ("pair s_out", ["sp:pair0", "sp:pair1", "sp:pair2"], True),
    ("round-0 msg", ["sp:absorb0", "sp:absorb1", "sp:absorb2"], True),
    ("first s_in", ["sp:absorb0", "sp:absorb1", "sp:absorb2"], True),
])
def test_raised_sponge_cell_is_caught(hidden_layout, which, gates, copied):
    """Raising one sponge cell by 1 breaks the round gates of its own row,
    and, when a copy binds the cell, that copy: the next row's state in,
    the absorbed message cell or the zero column."""
    layout, honest = hidden_layout
    col, row = _sponge_cell(layout, which)
    asg = copy.deepcopy(honest)
    asg.advice[col][row] += 1
    got = check(layout, asg)
    assert got == row_oracle_check(layout, asg)
    assert [(v.id, v.row) for v in got if v.kind == "gate"] == [(g, row) for g in gates]
    assert [v.kind for v in got if v.kind != "gate"] == ["copy"] * copied


def test_unassigned_lookup_and_copy_cells_are_errors():
    layout, asg = make_synthetic_grid(64)
    asg.advice["d"][9] = None
    with pytest.raises(CheckError, match="lookup lk_byte: unassigned cell in enabled row 9"):
        check(layout, asg)
    layout, asg = make_synthetic_grid(64)
    layout = replace(layout, fixed={**layout.fixed, "q": [0] * 64})   # only the copies still read column a
    asg.advice["a"][1] = None
    with pytest.raises(CheckError, match="copy 0: unassigned"):
        check(layout, asg)


@pytest.mark.parametrize("where", ["copy", "binding"])
def test_unassigned_wide_cells_are_errors(where):
    """A copy or a binding that reads a column of wide cells past its last
    assigned row is an unassigned read, for the prover's lists and for a
    loaded witness whose 32-byte columns are all outliers."""
    p = DEFAULT_MODULUS
    wide = {"a": [pow(7907, 40 + 9 * i, p) for i in range(2)], "b": [pow(7919, 40 + 9 * i, p) for i in range(3)]}
    layout = CircuitLayout(
        field=Field(), columns={c: Column(c, ADVICE) for c in wide}, n_rows=8, n_rows_logical=8, gates=[],
        tables={}, lookups=[], fixed={},
        copies=[CopyConstraint(("a", 0), ("b", 0)), CopyConstraint(("a", 1), ("b", 7))] if where == "copy" else [],
        instance_map=[(("a", 0), 0), (("b", 6), 1)] if where == "binding" else [],
    )
    asg = Assignment(advice={c: v + [None] * (8 - len(v)) for c, v in wide.items()}, instance=[wide["a"][0], 1])
    loaded = serialize.load_witness(serialize.dump_witness(asg))
    assert all(len(col.outliers) == len(col.cells) == 2 + (c == "b") for c, col in loaded.advice.items())
    message = "copy 1: unassigned cell" if where == "copy" else r"instance binding 1: unassigned cell \('b', 6\)"
    for witness in (asg, loaded):
        with pytest.raises(CheckError, match=message):
            check(layout, witness)


def test_negative_instance_index_rejected():
    rng = random.Random(3)
    g = random_model(rng, max_hw=4, max_c=2)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, random_input(rng, g))
    (ref, _), *rest = layout.instance_map
    layout = replace(layout, instance_map=[(ref, -1), *rest])
    with pytest.raises(CheckError, match="negative instance binding index"):
        check(layout, asg)


def test_checker_name_exported():
    assert KERNEL == "python"


def _edge_layout():
    """Eight rows whose selector q enables rows 0, 3 and 7, the grid's
    first and last, for the gate a = c + k over fixed c and k; copies and
    an instance binding read k as well.  Returns it with its honest
    witness."""
    p = DEFAULT_MODULUS
    columns = {c: Column(c, FIXED) for c in ("q", "c", "k")}
    columns.update({c: Column(c, ADVICE) for c in ("a", "b")})
    fixed = {"q": [1, 0, 0, 1, 0, 0, 0, 1], "c": [p - 5, 0, 0, 7, 0, 0, 0, p - 1], "k": [3, 0, 9, 0, 0, 0, 0, 4]}
    layout = CircuitLayout(
        field=Field(), columns=columns, n_rows=8, n_rows_logical=8,
        gates=[GateDef(id="sum", name="SUM", selector="q", poly=sub(cell("a"), add(cell("c"), cell("k"))))],
        tables={}, lookups=[],
        copies=[CopyConstraint(("b", r), ("k", r)) for r in (0, 2, 7)],
        fixed=fixed, instance_map=[(("k", 7), 0)],
    )
    layout.validate()
    a = [(c + k) % p for c, k in zip(fixed["c"], fixed["k"])]
    return layout, Assignment(advice={"a": a, "b": list(fixed["k"])}, instance=[4])


@pytest.mark.parametrize("col, row, value", [
    ("c", 0, 1), ("c", 7, 2), ("c", 3, 0), ("c", 1, 5), ("k", 0, 1), ("k", 2, 8), ("k", 7, 0), ("q", 2, 1), ("q", 7, 0),
])
def test_tampered_fixed_cells_match_row_oracle(col, row, value):
    """A changed fixed cell, on an enabled row at either end of the grid,
    on a disabled row, in a copy source or a binding, or in the selector
    itself, gives the row oracle's violations, read first from a new
    column and then from the reading the column kept."""
    layout, honest = _edge_layout()
    assert check(layout, honest) == []
    vals = list(layout.fixed[col])
    vals[row] = value
    tampered = replace(layout, fixed={**layout.fixed, col: vals})
    want = row_oracle_check(tampered, honest)
    assert check(tampered, honest) == want
    assert check(tampered, honest) == want
    # Row 1 is disabled, row 2 satisfies the gate it gets, and disabling
    # row 7 leaves a satisfied grid.
    assert (want != []) == ((col, row) not in {("c", 1), ("q", 2), ("q", 7)})


def test_tampered_fixed_operands_of_compiled_layout_match_row_oracle():
    """Each fixed column a compiled gate reads, changed on the first and on
    the last row its selector enables, gives the row oracle's violations."""
    rng = random.Random(21)
    g = random_model(rng, max_hw=6, max_c=3, max_layers=3)
    layout, _ = compile(g)
    honest = assign_witness(layout, g, random_input(rng, g))
    p = layout.field.modulus
    reads = sorted({
        (c, gate.selector) for gate in layout.gates for c in gate.poly.columns()
        if layout.columns[c].kind == FIXED and layout.fixed[gate.selector].nonzero_rows()
    })
    assert {c.split(":")[-1] for c, _ in reads} >= {"z", "da", "db", "off", "w0"}
    for col, selector in reads[:: max(1, len(reads) // 12)]:
        enabled = layout.fixed[selector].nonzero_rows()
        vals = list(layout.fixed[col])
        for row in (enabled[0], enabled[-1]):
            vals[row] = (vals[row] + 1) % p
        tampered = replace(layout, fixed={**layout.fixed, col: vals})
        want = row_oracle_check(tampered, honest)
        assert want and check(tampered, honest) == want == check(tampered, honest)


def test_fresh_layout_is_checked_on_its_arrays():
    """Checking a just-loaded layout, honest and tampered, against a loaded
    witness builds no full-height list of a fixed column."""
    rng = random.Random(4)
    g = random_model(rng, max_hw=6, max_c=3, max_layers=3)
    layout, _ = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    asg = assign_witness(layout, g, random_input(rng, g))
    loaded = serialize.load_layout(serialize.dump_layout(layout))
    witness = serialize.load_witness(serialize.dump_witness(asg))
    assert check(loaded, witness) == []
    col, row = next((c, r) for c, vals in asg.advice.items() for r, v in enumerate(vals) if v)
    witness.advice[col][row] += 1
    assert check(loaded, witness)
    assert all(f._dense is None for f in loaded.fixed.values())


# Each recipe on each field that check_recipe accepts: ranges inside and
# wider than p (on 257 and 65537), one across p/2 on the prime 2^63 + 29,
# and clip domains below 0, across 0, across 0 and 255, above 255, and at
# 2^200, and zero points past int64.
_RECIPES = [
    ("range", 0, 255), ("range", -128, 127), ("range", -300, 700), ("range", 0, 70000),
    ("range", 2**62 - 500, 2**62 + 500), ("range", 2**200, 2**200 + 3),
    ("clip", 1, 1, 7, -300, -10), ("clip", 1, 1, 0, -40, 40), ("clip", 1, 1, 250, -100, 100),
    ("clip", 1, 3, 200, -50, 100), ("clip", 1, 1, 0, 260, 900), ("clip", 1, 1, -6, 2**200, 2**200 + 5),
    ("clip", 1, 1, 2**70, -5, 5), ("clip", 1, 1, -2**70, -5, 5),
]
_TABLE_CASES = []
for _p in (DEFAULT_MODULUS, 2**63 + 29, 2**61 - 1, 2**31 - 1, 65537, 257):
    for _recipe in _RECIPES:
        try:
            _TABLE_CASES.append(lookup_table(_recipe, _p))
        except CompileError:
            pass
# Keys that are canonical residues, then keys that are not or are 2^63 or
# more; a column holding one of the latter is read as Python ints.
_KEY_KINDS = ["entry", "plus1", "minus1", "residue", "small", "plus_p", "big_entry", "big"]


def _field(p: int) -> Field:
    """Field(p), or for a modulus below Field's minimum, which compile and
    the file loaders enforce, a Field that holds it as it is: the checker
    reads only the modulus."""
    if p >= MIN_MODULUS:
        return Field(p)
    fld = object.__new__(Field)
    fld.modulus = p
    return fld


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_TABLE_CASES), st.data())
def test_lookup_verdicts_equal_the_row_oracle(table, data):
    """The checker's lookup verdicts, tested against the recipe, equal the
    oracle's membership in the enumerated entries, on the default 254-bit
    field, 2^63 + 29, 2^61 - 1, 2^31 - 1, 65537 and 257.  Keys are
    entries, an entry with a cell moved by +1, -1 or +p, or by a multiple
    of p to 2^63 or more, values of 2^63 and more, random residues and
    small signed values, so that keys run in int64 and on Python ints."""
    p = table.p
    rows = table.rows
    entries = sorted(rows)
    kinds = _KEY_KINDS if data.draw(st.booleans()) else _KEY_KINDS[:5]
    drawn = data.draw(st.lists(
        st.tuples(st.sampled_from(kinds), st.integers(0, 2**70), st.integers(0, table.arity - 1), st.booleans()),
        min_size=1, max_size=24,
    ))
    keys = []
    for kind, r, j, _ in drawn:
        key = list(entries[r % len(entries)])
        key[j] = {
            "entry": key[j],
            "plus1": (key[j] + 1) % p,
            "minus1": (key[j] - 1) % p,
            "plus_p": key[j] + p,
            "big_entry": key[j] + (2**63 // p + 1) * p,
            "big": 2**63 + r,
            "residue": r % p,
            "small": (r % 2**20 - 2**19) % p,
        }[kind]
        keys.append(key)
    cols = "kv"[: table.arity]
    n = len(keys)
    layout = CircuitLayout(
        field=_field(p), columns={"q": Column("q", FIXED), **{c: Column(c, ADVICE) for c in cols}},
        n_rows=n, n_rows_logical=n, gates=[], tables={table.id: table},
        lookups=[LookupArg(id="lk", table=table.id, columns=tuple(cols), selector="q")],
        copies=[], fixed={"q": [int(on) for *_, on in drawn]}, instance_map=[],
    )
    asg = Assignment(advice={c: [key[j] for key in keys] for j, c in enumerate(cols)}, instance=[])
    assert check(layout, asg) == row_oracle_check(layout, asg)
    # holds itself, on each key column's signed residues as int64 when
    # they all fit, whichever way the checker's reading stores them.
    signed = [[v % p - p if v % p > p // 2 else v % p for v in col] for col in zip(*keys)]
    as_read = [np.array(col, np.int64 if max(map(abs, col)) < 2**63 else object) for col in signed]
    want = [tuple(v % p for v in key) in rows for key in keys]
    assert table.holds(as_read).tolist() == want


@pytest.mark.parametrize("seed", [110, 111])
@pytest.mark.parametrize("mode", [None, *VisibilityMode], ids=lambda m: m.value if m else "public")
def test_no_table_entry_is_listed(seed, mode, monkeypatch):
    """Compile, dump_layout, load_layout and check, of an honest witness
    and of one with a clip act moved by one, never list a table's
    entries."""
    def listed(table):
        raise AssertionError(f"the entries of {table.id} were listed")

    monkeypatch.setattr(LookupTable, "rows", property(listed))
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(random.Random(1), g))
    loaded = serialize.load_layout(serialize.dump_layout(layout))
    witness = serialize.load_witness(serialize.dump_witness(asg))
    assert check(loaded, witness) == []
    lk = min((lk for lk in loaded.lookups if lk.table.startswith("clip:")), key=lambda lk: lk.id)
    row = int(loaded.fixed[lk.selector].enabled_rows()[0])
    witness.advice[lk.columns[1]][row] += 1
    assert ("lookup", lk.id, row) in [(v.kind, v.id, v.row) for v in check(loaded, witness)]


@pytest.mark.parametrize("recipe", [("range", 2**200, 2**200 + 3), ("clip", 1, 1, 0, 2**200, 2**200 + 3)])
def test_lookup_beyond_an_int64_packing_runs_on_ints(recipe, tmp_path):
    """A table whose keys no int64 holds, written to a layout file and
    loaded back, is tested on Python ints: an honest witness checks clean,
    and a key moved by 7 gives exactly one lookup violation, on its row."""
    table = lookup_table(recipe, DEFAULT_MODULUS)
    entries = sorted(table.rows)
    n = len(entries)
    cols = "kv"[: table.arity]
    layout = CircuitLayout(
        field=Field(), columns={"q": Column("q", FIXED), **{c: Column(c, ADVICE) for c in cols}},
        n_rows=n, n_rows_logical=n, gates=[], tables={table.id: table},
        lookups=[LookupArg(id="lk", table=table.id, columns=tuple(cols), selector="q")],
        copies=[], fixed={"q": [1] * n}, instance_map=[],
    )
    path = tmp_path / "layout.bin"
    path.write_bytes(serialize.dump_layout(layout))
    loaded = serialize.load_layout(path.read_bytes())
    asg = Assignment(advice={c: [e[j] for e in entries] for j, c in enumerate(cols)}, instance=[])
    assert check(loaded, asg) == []
    asg.advice["k"][2] += 7
    assert [(v.kind, v.id, v.row) for v in check(loaded, asg)] == [("lookup", "lk", 2)]


def _grid(layout, witness):
    """The checker's reading of a witness's columns."""
    return _Grid(layout, witness.advice)


def _product_layout(cells, p=DEFAULT_MODULUS):
    """Rows of the gate a * b - c, all enabled, and the witness whose a
    and b are `cells` with c their product mod p."""
    n = len(cells)
    columns = {"q": Column("q", FIXED), **{c: Column(c, ADVICE) for c in "abc"}}
    layout = CircuitLayout(
        field=Field(p), columns=columns, n_rows=n, n_rows_logical=n,
        gates=[GateDef(id="prod", name="PROD", selector="q", poly=sub(mul(cell("a"), cell("b")), cell("c")))],
        tables={}, lookups=[], copies=[], fixed={"q": [1] * n}, instance_map=[],
    )
    return layout, Assignment(advice={"a": list(cells), "b": list(cells), "c": [v * v % p for v in cells]}, instance=[])


@pytest.mark.parametrize("big", [1 << 62, (1 << 63) - 1, -(1 << 62), 1 - (1 << 63)])
def test_large_cells_take_the_object_path(big):
    """A cell of 2**62 or more (or its negative) fits int64, but its
    square does not: the product runs on objects and a tampered row is
    still reported, as the row oracle reports it."""
    layout, asg = _product_layout([3, big, 5, big])
    for witness in (asg, serialize.load_witness(serialize.dump_witness(asg))):
        grid = _grid(layout, witness)
        assert grid.bounds[grid.number["a"]] is not None
        _, bound, _ = _eval(layout.gates[0].poly, np.arange(4), grid, {}, layout.field.modulus)
        assert bound is None
        assert check(layout, witness) == []
        witness.advice["c"][1] += 1
        assert check(layout, witness) == row_oracle_check(layout, witness) != []


def test_non_canonical_cell_takes_the_object_path():
    """A cell written as v + p is no canonical residue: its column is
    read as objects, an honest witness still checks clean and a tamper is
    still reported."""
    p = DEFAULT_MODULUS
    layout, asg = _product_layout([3, 7, 5, 2])
    asg.advice["a"][2] += p
    for witness in (asg, serialize.load_witness(serialize.dump_witness(asg))):
        grid = _grid(layout, witness)
        assert grid.is_object[grid.number["a"]] and not grid.is_object[grid.number["b"]]
        assert check(layout, witness) == []
        witness.advice["b"][2] += 1
        assert check(layout, witness) == row_oracle_check(layout, witness) != []


_EDGES = st.one_of(
    st.sampled_from([0, 1, 2, 255, (1 << 31) - 2, 1 << 62, (1 << 62) + 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1]),
    st.integers(0, 1 << 64),
)


@st.composite
def _gate_trees(draw, depth=3):
    """A gate polynomial over the cells of x, y and z and constants near
    +-2**62 and +-2**63."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return cell(draw(st.sampled_from("xyz")))
        return const(draw(st.one_of(_EDGES, _EDGES.map(lambda v: -v))))
    op = draw(st.sampled_from(["add", "sub", "mul", "pow5"]))
    if op == "pow5":
        return pow5(draw(_gate_trees(depth - 1)))
    args = [draw(_gate_trees(depth - 1)) for _ in range(2 if op == "sub" else draw(st.integers(2, 3)))]
    return {"add": add, "sub": sub, "mul": mul}[op](*args)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([DEFAULT_MODULUS, (1 << 31) - 1]))
def test_gate_trees_near_the_int64_edge_match_the_oracle(data, p):
    """Random gates over cells near +-2**62 and +-2**63 (residues p - v
    of the edges on the default field; on 2**31 - 1 mostly non-canonical
    cells) report what the row oracle reports, row by row."""
    n = 6
    cells = st.one_of(_EDGES, _EDGES.map(lambda v: -v % p)) if p > 1 << 64 else st.one_of(_EDGES, st.integers(0, p - 1))
    columns = {"q": Column("q", FIXED), **{c: Column(c, ADVICE) for c in "xyz"}}
    layout = CircuitLayout(
        field=Field(p), columns=columns, n_rows=n, n_rows_logical=n,
        gates=[GateDef(id=f"g{i}", name=f"G{i}", selector="q", poly=data.draw(_gate_trees())) for i in range(2)],
        tables={}, lookups=[], copies=[], fixed={"q": [1, 0, 2, 1, 1, p - 1]}, instance_map=[],
    )
    asg = Assignment(advice={c: data.draw(st.lists(cells, min_size=n, max_size=n)) for c in "xyz"}, instance=[])
    assert check(layout, asg) == row_oracle_check(layout, asg)


def _error_order_case():
    """Eight rows over a 31-bit field: gates g0 (a = 1) and g1 (e = 0), a
    byte lookup on d, a copy of f's row 1 to its row 2 and a binding of
    h's row 0; and a witness that violates g0 on row 0 and satisfies the
    rest."""
    p = (1 << 31) - 1
    byte = lookup_table(("range", 0, 255), p)
    columns = {c: Column(c, FIXED) for c in ("q", "one")}
    columns.update({c: Column(c, ADVICE) for c in "adefh"})
    layout = CircuitLayout(
        field=Field(p), columns=columns, n_rows=8, n_rows_logical=8,
        gates=[GateDef(id="g0", name="ONE", selector="q", poly=sub(cell("a"), cell("one"))),
               GateDef(id="g1", name="ZERO", selector="q", poly=cell("e"))],
        tables={byte.id: byte}, lookups=[LookupArg(id="lk", table=byte.id, columns=("d",), selector="q")],
        copies=[CopyConstraint(("f", 1), ("f", 2))], fixed={"q": [1] * 8, "one": [1] * 8},
        instance_map=[(("h", 0), 0)],
    )
    asg = Assignment(advice={"a": [2] + [1] * 7, "d": [9] * 8, "e": [0] * 8, "f": [4] * 8, "h": [6] * 8}, instance=[6])
    return layout, asg


@pytest.mark.parametrize("col, row, message", [
    ("e", 5, "gate g1: unassigned cell in enabled row 5"),
    ("d", 3, "lookup lk: unassigned cell in enabled row 3"),
    ("f", 2, "copy 0: unassigned cell"),
    ("h", 0, r"instance binding 0: unassigned cell \('h', 0\)"),
])
def test_unassigned_cell_messages_and_the_cap(col, row, message):
    """An unassigned cell that a gate, a lookup, a copy or a binding reads
    is refused with its message, on lists and on a loaded witness, unless
    the cap is reached by violations found before it."""
    layout, asg = _error_order_case()
    assert check(layout, asg) == [Violation("gate", "g0", 0, "ONE evaluates to 1")]
    asg.advice[col][row] = None
    for witness in (asg, serialize.load_witness(serialize.dump_witness(asg))):
        assert check(layout, witness, cap=1) == [Violation("gate", "g0", 0, "ONE evaluates to 1")]
        with pytest.raises(CheckError, match=f"^{message}$"):
            check(layout, witness, cap=2)


@pytest.mark.parametrize("order, message", [
    ((1, 0, -1), "instance vector too short for binding index 1"),
    ((0, -1, 1), "negative instance binding index -1"),
])
def test_first_bad_binding_index_is_named(order, message):
    """The binding indices are compared with the instance's length as one
    array; the first offending binding in map order is named."""
    layout, asg = _error_order_case()
    layout = replace(layout, instance_map=[(("h", r), idx) for r, idx in enumerate(order)])
    with pytest.raises(CheckError, match=f"^{message}$"):
        check(layout, asg)


@pytest.fixture(scope="module")
def audit_files():
    """perfbench's audit_batch model (seed 111, 32/16/5, hidden weights),
    its layout file and a prover's witness builder: each tampered
    witness file with the rows its tamper touches."""
    g = random_model(random.Random(111), max_hw=32, max_c=16, max_layers=5)
    layout, _ = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    p = layout.field.modulus
    [sp] = [s for s in layout.plan.sponges if s.label == "weights"]
    [(s_col, s_row)] = layout.plan.cells(sp.state_at[5:6])
    inputs = [random_input(random.Random(seed), g) for seed in (31, 32)]

    def witness(tamper: str, k: int = 0) -> tuple[bytes, list]:
        asg = assign_witness(layout, g, inputs[k])
        rows = [0]
        if tamper == "sponge cell":
            asg.advice[s_col][s_row] = (asg.advice[s_col][s_row] + 1) % p
            rows = [s_row]
        elif tamper == "logit":
            asg.instance[0] = (asg.instance[0] + 1) % p
        elif tamper == "sponge cell + p":
            asg.advice[s_col][s_row] += p
            rows = [s_row]
        return serialize.dump_witness(asg), rows

    return layout, serialize.dump_layout(layout), witness


def test_reused_loaded_layout_checks_as_a_fresh_one(audit_files):
    """One loaded layout checks, in turn, an honest witness, a tampered
    weight-digest sponge cell, a tampered logit, a sponge cell written as
    v + p and an honest witness again, each as a fresh load of the same
    layout bytes and the row oracle do: nothing the checker keeps between
    calls (a column's reading, a lazily split form) carries over."""
    _, raw, witness = audit_files
    reused = serialize.load_layout(raw)
    verdicts = []
    for tamper, k in [("honest", 0), ("sponge cell", 1), ("logit", 0), ("sponge cell + p", 1), ("honest", 1)]:
        wit, rows = witness(tamper, k)
        got = check(reused, serialize.load_witness(wit))
        assert got == check(serialize.load_layout(raw), serialize.load_witness(wit))
        assert got == row_oracle_check(reused, serialize.load_witness(wit), rows=rows)
        verdicts.append(bool(got))
    assert verdicts == [False, True, True, False, False]


def test_loaded_witness_is_checked_without_splitting_python_ints(audit_files, monkeypatch):
    """Against a layout already loaded, loading, checking and writing back
    audit_batch witnesses, honest and tampered, splits no column of Python
    ints (`circuit._wide_split`): the 32-byte columns stay outliers, are
    written back as they were read, and the instance is compared as int64
    but for its wide values."""
    from zkgrid import circuit

    _, raw, witness = audit_files
    loaded = serialize.load_layout(raw)
    files = [witness(tamper)[0] for tamper in ("honest", "sponge cell", "logit", "sponge cell + p")]
    want = [check(loaded, serialize.load_witness(wit)) for wit in files]
    assert [bool(v) for v in want] == [False, True, True, False]

    def refuse(objs):
        raise AssertionError("a column of Python ints was split")

    monkeypatch.setattr(circuit, "_wide_split", refuse)
    assert [check(loaded, serialize.load_witness(wit)) for wit in files] == want
    assert [serialize.dump_witness(serialize.load_witness(wit)) for wit in files] == files
