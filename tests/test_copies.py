"""The packed copy store: `circuit.Copies` against the CopyConstraint
pairs it stands for, its validation, and the claim that compiling,
writing, reading and checking an honest witness build no CopyConstraint."""

import copy
import random
from dataclasses import replace

import numpy as np
import pytest

from helpers import row_oracle_check
from zkgrid import serialize
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.checker import check
from zkgrid.circuit import ADVICE, CircuitError, Copies, CopyConstraint
from zkgrid.commit import VisibilityMode
from zkgrid.modelgen import random_input, random_model


@pytest.fixture(scope="module")
def small():
    rng = random.Random(21)
    g = random_model(rng, max_hw=6, max_c=3, max_layers=3)
    layout, _ = compile(g, CompileConfig())
    return g, layout, assign_witness(layout, g, random_input(rng, g))


def _pairs(layout):
    """The copies as ((col, row), (col, row)) pairs, read from the flat list."""
    names, flat = layout.copies.names, layout.copies.flat.tolist()
    return [
        ((names[flat[k]], flat[k + 1]), (names[flat[k + 2]], flat[k + 3]))
        for k in range(0, len(flat), 4)
    ]


def _copy_bound_advice(layout):
    return sorted({
        ref for a, b in _pairs(layout) for ref in (a, b) if layout.columns[ref[0]].kind == "advice"
    })


def test_layout_from_constraint_list_equals_packed(small):
    """The dataclasses.replace path (a list of CopyConstraint) packs to an
    equal layout with the same column numbers and the same check results."""
    _, layout, honest = small
    listed = replace(layout, copies=list(layout.copies))
    assert isinstance(listed.copies, Copies)
    assert listed.copies.flat.dtype == layout.copies.flat.dtype == np.int32
    assert listed.copies.flat.tolist() == layout.copies.flat.tolist()
    assert listed == layout
    p = layout.field.modulus
    for col, row in _copy_bound_advice(layout)[:6]:
        asg = copy.deepcopy(honest)
        asg.advice[col][row] = (asg.advice[col][row] + 1) % p
        assert check(listed, asg) == check(layout, asg) != []
    assert check(listed, honest) == check(layout, honest) == []


@pytest.mark.parametrize("mode", [None, *VisibilityMode])
@pytest.mark.parametrize("seed", range(6))
def test_copies_are_target_then_source(seed, mode):
    """Every copy is (target, source): the target is an advice cell, no
    cell is the target of two copies and no source is another copy's
    target.  The witness fills the targets in one pass on this."""
    g = random_model(random.Random(seed), max_hw=8, max_c=12, max_layers=4)
    layout, _ = compile(g, CompileConfig(mode=mode))
    targets, sources = set(), set()
    for target, source in _pairs(layout):
        assert layout.columns[target[0]].kind == ADVICE, target
        assert target not in targets, target
        targets.add(target)
        sources.add(source)
    assert not targets & sources, sorted(targets & sources)[:3]


def test_sequence_agrees_with_pairs(small):
    _, layout, _ = small
    copies = layout.copies
    pairs = _pairs(layout)
    assert len(copies) == len(pairs) > 0
    assert [(cp.a, cp.b) for cp in copies] == pairs
    for i in (0, 1, len(pairs) - 1, -1, -len(pairs)):
        assert (copies[i].a, copies[i].b) == pairs[i]
    for i in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            copies[i]
    assert [(cp.a, cp.b) for cp in copies[2:7]] == pairs[2:7]
    assert copies[-1] in copies and copies.index(copies[3]) == pairs.index(pairs[3])


def test_equality_compares_resolved_names():
    ordered = Copies([0, 1, 1, 2], ["x", "y"])
    renumbered = Copies([1, 1, 0, 2], ["y", "x"])
    assert ordered == renumbered
    assert ordered != Copies([0, 1, 1, 3], ["x", "y"])
    assert ordered != Copies([0, 1, 1, 2, 0, 0, 0, 0], ["x", "y"])
    assert Copies.pack([CopyConstraint(("x", 1), ("y", 2))], ["x", "y"]) == ordered


@pytest.mark.parametrize("cap", [1, 5, 1000])
def test_copy_tampers_match_row_oracle(small, cap):
    _, layout, honest = small
    p = layout.field.modulus
    cells = _copy_bound_advice(layout)
    rng = random.Random(cap)
    for _ in range(8):
        asg = copy.deepcopy(honest)
        for col, row in rng.sample(cells, 1 + rng.randrange(6)):
            asg.advice[col][row] = (asg.advice[col][row] + rng.choice([1, p - 1])) % p
        got = check(layout, asg, cap=cap)
        assert got == row_oracle_check(layout, asg, cap=cap)
        assert any(v.kind == "copy" for v in got) or len(got) == cap


def _with_flat(layout, edit):
    flat = layout.copies.flat.tolist()
    edit(flat)
    return replace(layout, copies=Copies(flat, list(layout.columns)))


@pytest.mark.parametrize("edit, message", [
    (lambda f: f.__setitem__(0, 10_000), "column number 10000 outside"),
    (lambda f: f.__setitem__(2, -1), "column number -1 outside"),
    (lambda f: f.__setitem__(1, -1), "row -1 outside grid"),
    (lambda f: f.__setitem__(3, 1 << 20), f"row {1 << 20} outside grid"),
])
def test_validate_range_checks_flat_copies(small, edit, message):
    _, layout, _ = small
    with pytest.raises(CircuitError, match=message):
        _with_flat(layout, edit).validate()


def test_validate_refuses_unknown_column_name(small):
    _, layout, _ = small
    bad = replace(layout, copies=[*layout.copies, CopyConstraint(("no_such_column", 0), ("zero", 0))])
    assert bad.copies.names[-1] == "no_such_column"
    with pytest.raises(CircuitError, match="unknown column no_such_column"):
        bad.validate()
    with pytest.raises(CircuitError, match="unknown column no_such_column"):
        serialize.dump_layout(bad)


def test_pipeline_builds_no_copy_constraint(small, monkeypatch):
    g, _, honest = small
    made = []
    real_init = CopyConstraint.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CopyConstraint, "__init__", counting_init)
    layout, _ = compile(g, CompileConfig())
    raw = serialize.dump_layout(layout)
    loaded = serialize.load_layout(raw)
    assert check(loaded, honest) == []
    assert made == []
    loaded.copies[0]
    assert made == [1]   # the count does see constructions
