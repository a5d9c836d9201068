import copy
import random

import pytest

from helpers import row_oracle_check
from zkgrid.bench import make_synthetic_grid
from zkgrid.checker import KERNEL, CheckError, check, check_parallel
from zkgrid.circuit import Assignment, CircuitLayout
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.commit import VisibilityMode
from zkgrid.field import Field
from zkgrid.modelgen import random_input, random_model


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
    col = f"g{first.group}:out"
    row = first.row
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
    asg2.advice["a"] = asg2.advice["a"][:-1]
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
    full_rows = [r for r, q in enumerate(layout.fixed["sp:q_full"]) if q]
    caught = 0
    hit_gates = set()
    for trial in range(12):
        asg = copy.deepcopy(honest)
        for _ in range(rng.choice([1, 3, 10])):
            col, row = rng.choice(sponge_cells if trial % 2 else all_cells)
            if asg.advice[col][row] is not None:
                asg.advice[col][row] = rng.randrange(p)
        if trial % 4 == 1:
            asg.advice["sp:in1"][rng.choice(full_rows)] += 1
        cap = rng.choice([1000, 7])
        expect = row_oracle_check(layout, asg, cap=cap)
        caught += bool(expect)
        hit_gates |= {v.id for v in expect if v.kind == "gate"}
        for shards in (1, 4):
            assert check_parallel(layout, asg, shards=shards, cap=cap) == expect
    assert caught >= 6
    assert {g[:7] for g in hit_gates} >= {"sp:full", "sp:part"}


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
    sponge_asg = copy.deepcopy(honest)
    for col in sorted(sponge_asg.advice):
        if col.startswith("sp:"):
            sponge_asg.advice[col] = [None if v is None else v + p for v in sponge_asg.advice[col]]
    assert check(layout, sponge_asg) == []
    edge = copy.deepcopy(honest)
    col = sorted(c for c in edge.advice if c.startswith("sp:in"))[0]
    for row in range(0, layout.n_rows, 5):
        edge.advice[col][row] = p - 1
    got = check(layout, edge, cap=10_000)
    assert got and got == row_oracle_check(layout, edge, cap=10_000)


@pytest.mark.parametrize("col", ["sp:in0", "sp:out1", "sp:rc0"])
def test_unassigned_sponge_cell_is_error(hidden_layout, col):
    layout, honest = hidden_layout
    asg = copy.deepcopy(honest)
    row = layout.plan.sponges[0].round_rows[0][1]
    if col in asg.advice:
        asg.advice[col][row] = None
    else:
        layout = copy.deepcopy(layout)
        layout.fixed[col][row] = None
    with pytest.raises(CheckError, match=f"unassigned cell in enabled row {row}"):
        check(layout, asg)


def test_unassigned_lookup_and_copy_cells_are_errors():
    layout, asg = make_synthetic_grid(64)
    asg.advice["d"][9] = None
    with pytest.raises(CheckError, match="lookup lk_byte: unassigned cell in enabled row 9"):
        check(layout, asg)
    layout, asg = make_synthetic_grid(64)
    layout.fixed["q"] = [0] * 64   # only the copies still read column a
    asg.advice["a"][1] = None
    with pytest.raises(CheckError, match="copy 0: unassigned"):
        check(layout, asg)


def test_negative_instance_index_rejected():
    rng = random.Random(3)
    g = random_model(rng, max_hw=4, max_c=2)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, random_input(rng, g))
    layout.instance_map[0] = (layout.instance_map[0][0], -1)
    with pytest.raises(CheckError, match="negative instance binding index"):
        check(layout, asg)


def test_checker_name_exported():
    assert KERNEL == "python"
