import dataclasses
import random

import pytest

from helpers import tamper_trials
from zkgrid import arithmetize
from zkgrid.arithmetize import (
    CompileConfig,
    CompileError,
    assign_witness,
    build_clip_table,
    compile,
)
from zkgrid.checker import check
from zkgrid.commit import VisibilityMode, commit_model_io, weight_elements
from zkgrid.field import Field
from zkgrid.interpreter import run_inference
from zkgrid.model import (
    INPUT_REF,
    Layer,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    validate,
)
from zkgrid.modelgen import identity_model, random_input, random_model, random_parameterized_model


def _fc_model(units=1, feat=10, b=2, weights=None, bias=None):
    """fc over `feat` inputs; weights default to all 1 and biases to 0."""
    w = bytes(v % 256 for v in weights) if weights is not None else bytes([1] * (units * feat))
    fc = Layer(
        kind="fully_connected",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(zero_point=0, scale=ScaleFactor(1, b)),
        weights=QuantTensor(shape=(units, feat), data=w, quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=tuple(bias) if bias is not None else tuple([0] * units),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=fc.out_quant)
    return validate(
        ModelGraph(
            layers=(fc, out),
            input_shape=(1, 1, feat),
            input_quant=QuantParams(0, ScaleFactor(1, b)),
        )
    )


def test_fc_k10_n4_row_counts():
    """k=10 with gate width 4: a chain of 3 DOT rows per output neuron,
    the last padded and carrying DIV.  The bias is the first row's carry,
    a copy of a const cell; each later carry copies the previous out."""
    biases = [5, -6, 7]
    g = _fc_model(units=3, feat=10, bias=biases)
    layout, stats = compile(g, CompileConfig(gate_width=4))
    copies = {cp.a: cp.b for cp in layout.copies}
    p = layout.field.modulus
    plan = layout.plan
    assert len(plan.site_plans) == 3
    for site, bias in zip(plan.site_plans, biases):
        rows = site.rows
        assert [len(r.x_srcs) for r in rows] == [4, 4, 2]  # 10 = 4 + 4 + 2
        assert rows[-1] is site.div and site.add_rows == ()
        first = rows[0]
        const = copies[(f"g{first.group}:carry", first.row)]
        assert const == (f"g{first.group}:const", first.row)
        assert layout.fixed[const[0]][const[1]] == bias % p
        for prev, cur in zip(rows, rows[1:]):
            assert copies[(f"g{cur.group}:carry", cur.row)] == (f"g{prev.group}:out", prev.row)
    assert stats.n_rows == 9
    inp = random_input(random.Random(1), g)
    assert check(layout, assign_witness(layout, g, inp)) == []


@pytest.mark.parametrize(
    "mode",
    [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS],
)
def test_one_row_per_dot_chunk(mode):
    """Every site takes ceil(max(k, 1) / N) rows of the DOT chain, the
    layout has no ADD gate, and the honest witness checks clean."""
    rng = random.Random(21)
    cfg = CompileConfig(gate_width=4, mode=mode)
    for _ in range(4):
        g = random_parameterized_model(rng, max_hw=5, max_c=3, max_layers=3)
        layout, stats = compile(g, cfg)
        for site in layout.plan.site_plans:
            layer = g.layers[site.layer]
            taps = arithmetize._site_taps(g, layer, g.output_shapes[site.layer], site.flat)[0]
            assert len(site.rows) == -(-max(len(taps), 1) // 4)
        assert sorted({gd.name for gd in layout.gates if gd.id.startswith("g")}) == ["DIV", "DOT_4"]
        assert not any(gd.name.startswith("ADD_") for gd in layout.gates)
        assert not any(col.endswith("q_add") for col in layout.columns)
        assert check(layout, assign_witness(layout, g, random_input(rng, g))) == []


def test_row_padding_to_power_of_two():
    g = _fc_model(units=2, feat=5)
    _, stats = compile(g, CompileConfig(gate_width=4))
    assert stats.n_rows_padded >= stats.n_rows
    assert stats.n_rows_padded & (stats.n_rows_padded - 1) == 0


def test_empty_passthrough_graph():
    q = QuantParams(0, ScaleFactor(1, 1))
    out = Layer(kind="output", input_refs=(INPUT_REF,), out_quant=q)
    g = validate(ModelGraph(layers=(out,), input_shape=(1, 2, 2), input_quant=q))
    layout, stats = compile(g)
    assert stats.n_gates == 0
    assert stats.n_lookup_tables == 0
    assert stats.n_lookup_args == 0
    assert stats.n_copy_constraints == 0
    assert len(layout.instance_map) == 8  # 4 logits + 4 raw inputs
    inp = QuantTensor(shape=(1, 2, 2), data=bytes([9, 8, 7, 6]), quant=q)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    assert asg.instance == [9, 8, 7, 6, 9, 8, 7, 6]


# --- clip tables -------------------------------------------------------------

def test_build_clip_table_identity_domain():
    t = build_clip_table((0, 3), ScaleFactor(1, 1), 0)
    assert t.rows == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})


def test_build_clip_table_negative_domain_offset():
    t = build_clip_table((-2, 2), ScaleFactor(1, 1), 0)
    # keys shifted by 2: clip of negatives is 0
    assert t.rows == frozenset({(0, 0), (1, 0), (2, 0), (3, 1), (4, 2)})


def test_build_clip_table_saturates_at_255():
    t = build_clip_table((0, 600), ScaleFactor(1, 1), 0)
    as_map = dict(t.rows)
    assert len(as_map) == 601
    assert as_map[255] == 255
    assert all(as_map[k] == 255 for k in range(256, 601))
    assert as_map[254] == 254


def test_build_clip_table_cap():
    with pytest.raises(CompileError, match="cap"):
        build_clip_table((0, 1 << 22), ScaleFactor(1, 1), 0, cap=1 << 20)


def _three_layer_same_scale(b2=None):
    """Three 1x1 convs; all share (a, b, z_out) unless b2 overrides one."""
    q = QuantParams(zero_point=0, scale=ScaleFactor(1, 4))
    layers = []
    ref = INPUT_REF
    for i in range(3):
        scale = ScaleFactor(1, 4 if b2 is None or i != 1 else b2)
        layers.append(
            Layer(
                kind="conv2d",
                input_refs=(ref,),
                out_quant=QuantParams(zero_point=0, scale=scale),
                weights=QuantTensor(shape=(1, 1, 1, 1), data=bytes([2]), quant=QuantParams(0, ScaleFactor(1, 1))),
                bias=(0,),
            )
        )
        ref = i
    layers.append(Layer(kind="output", input_refs=(2,), out_quant=layers[-1].out_quant))
    return validate(ModelGraph(layers=tuple(layers), input_shape=(2, 2, 1), input_quant=q))


def test_clip_table_shared_across_identical_scales():
    g = _three_layer_same_scale()
    _, stats = compile(g)
    assert stats.n_clip_tables == 1


def test_clip_table_split_when_one_scale_differs():
    g = _three_layer_same_scale(b2=2)  # exact renormalization: 1/2 -> 2/4
    _, stats = compile(g)
    assert stats.n_clip_tables == 2


def test_table_sharing_bound():
    rng = random.Random(55)
    for _ in range(10):
        g = random_model(rng, max_hw=6, max_c=3, max_layers=4)
        layout, stats = compile(g)
        keys = set()
        for tid in layout.tables:
            if tid.startswith("clip:"):
                keys.add(tid)
        distinct = set()
        for site in layout.plan.site_plans:
            distinct.add((site.div.a, site.div.b, site.div.z_out))
        assert stats.n_clip_tables == len(keys) <= len(distinct)


def test_mixed_divisors_renormalized_exactly():
    # denominators 2 and 4: 1/2 becomes 2/4; compiles to one divisor
    g = _three_layer_same_scale(b2=2)
    layout, _ = compile(g)
    divisors = {site.div.b for site in layout.plan.site_plans}
    assert divisors == {4}


def test_mixed_divisors_without_common_form_rejected():
    g = _three_layer_same_scale(b2=3)  # 3 does not divide 4
    with pytest.raises(CompileError, match="mixed scale divisors"):
        compile(g)


def test_modulus_too_small_rejected():
    g = _fc_model(units=1, feat=10, b=2)
    small = Field(65537)
    # bounds: 10 taps * 255 = 2550; 2550 * a * 4 < p fails for a large enough
    big_a = Layer(
        kind="fully_connected",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(zero_point=0, scale=ScaleFactor(1 << 14, 1 << 14)),
        weights=g.layers[0].weights,
        bias=(0,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=big_a.out_quant)
    g2 = validate(
        ModelGraph(layers=(big_a, out), input_shape=(1, 1, 10), input_quant=QuantParams(0, ScaleFactor(1, 1 << 14)))
    )
    with pytest.raises(CompileError, match="modulus"):
        compile(g2, CompileConfig(field=small, lookup_cap=1 << 24))


def test_lookup_cap_exceeded_rejected():
    g = _fc_model(units=1, feat=10, b=2)
    with pytest.raises(CompileError, match="cap"):
        compile(g, CompileConfig(lookup_cap=64))


# --- witness / oracle equivalence --------------------------------------------

def test_identity_conv_witness_roundtrip():
    g = identity_model()
    inp = QuantTensor(shape=(1, 1, 1), data=bytes([7]), quant=g.input_quant)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    site = layout.plan.site_plans[0]
    act_cell = asg.advice[f"g{site.div.group}:act"][site.div.row]
    assert act_cell == 7


def test_zero_input_matches_bias_only_accumulators():
    rng = random.Random(99)
    g = random_model(rng, max_hw=5, max_c=3, max_layers=2)
    n = 1
    for d in g.input_shape:
        n *= d
    z = g.input_quant.zero_point
    inp = QuantTensor(shape=g.input_shape, data=bytes([0] * n), quant=g.input_quant)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    tr = run_inference(g, inp)
    for site in layout.plan.site_plans:
        got = asg.advice[f"g{site.div.group}:act"][site.div.row]
        assert got == int(tr.layers[site.layer].act.reshape(-1)[site.flat])


def test_oracle_equivalence_random_models():
    rng = random.Random(2024)
    for _ in range(15):
        g = random_model(rng, max_hw=8, max_c=4, max_layers=4)
        inp = random_input(rng, g)
        layout, _ = compile(g)
        asg = assign_witness(layout, g, inp)
        assert check(layout, asg) == []
        tr = run_inference(g, inp)
        for site in layout.plan.site_plans:
            got = asg.advice[f"g{site.div.group}:act"][site.div.row]
            assert got == int(tr.layers[site.layer].act.reshape(-1)[site.flat])


def test_tamper_detection_sampled():
    rng = random.Random(13)
    g = random_model(rng, max_hw=6, max_c=3, max_layers=3)
    inp = random_input(rng, g)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    caught, total = tamper_trials(layout, asg, rng, 50)
    assert caught == total == 50


def test_stats_deterministic():
    rng = random.Random(21)
    g = random_model(rng, max_hw=6, max_c=3)
    s1 = compile(g)[1]
    s2 = compile(g)[1]
    assert s1 == s2


def test_multi_group_when_rows_exhausted():
    rng = random.Random(17)
    g = random_model(rng, max_hw=8, max_c=4, max_layers=3)
    base_layout, base_stats = compile(g)
    tiny_layout, tiny_stats = compile(g, CompileConfig(max_rows=16))
    if base_stats.n_rows > 16:
        assert tiny_stats.n_gates > base_stats.n_gates
        assert tiny_stats.n_columns > base_stats.n_columns
    inp = random_input(rng, g)
    asg = assign_witness(tiny_layout, g, inp)
    assert check(tiny_layout, asg) == []


@pytest.mark.parametrize(
    "mode",
    [
        None,
        VisibilityMode.HIDDEN_INPUT_PUBLIC_WEIGHTS,
        VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS,
        VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS,
    ],
)
def test_instance_agrees_with_commitment_module(mode):
    rng = random.Random(6)
    g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    cfg = CompileConfig(mode=mode)
    layout, _ = compile(g, cfg)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    expected = commit_model_io(
        g, inp, mode, cfg.sponge_params() if mode else None, cfg.field
    )
    assert asg.instance == expected


def test_weight_columns_fixed_when_public_advice_when_hidden():
    rng = random.Random(14)
    g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=1)
    pub, _ = compile(g, CompileConfig(mode=None))
    hid, _ = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    assert pub.columns["g0:w0"].kind == "fixed"
    assert hid.columns["g0:w0"].kind == "advice"


# --- hidden weights: PACK chains and bias range checks ------------------------

HIDDEN_W = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)


def _pack_rows(layout) -> list[int]:
    return [r for r, q in enumerate(layout.fixed["io:q_pack"]) if q]


def _fc_input(g, rng):
    return QuantTensor(shape=g.input_shape, data=bytes(rng.randrange(256) for _ in range(g.input_shape[2])), quant=g.input_quant)


@pytest.mark.parametrize(
    "gate_width, fld, rows_per_chunk, rows_per_bias",
    [(8, Field(), 4, 1), (4, Field(), 8, 1), (3, Field(), 11, 2), (4, Field(65537), 1, 1)],
)
def test_hidden_weights_pack_chunks(gate_width, fld, rows_per_chunk, rows_per_bias):
    """Weight chunks of k = pack_width(p) int8 values (31 on the default
    field, 2 on p = 65537) span ceil(k / N) PACK rows, each bias
    ceil(4 / N); the absorbed cells hold `weight_elements` and the
    instance equals `commit_model_io`."""
    rng = random.Random(gate_width)
    units, feat = 2, 31
    weights = [rng.randint(-3, 3) for _ in range(units * feat)]
    weights[:2] = [-128, 127] if fld.modulus.bit_length() > 64 else [-3, 3]
    g = _fc_model(units=units, feat=feat, weights=weights, bias=(-5, 7))
    cfg = CompileConfig(gate_width=gate_width, field=fld, mode=HIDDEN_W.mode)
    layout, _ = compile(g, cfg)
    inp = _fc_input(g, rng)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    assert asg.instance == commit_model_io(g, inp, cfg.mode, cfg.sponge_params(), fld)
    elements = weight_elements(g, fld.modulus)
    n_chunks = len(elements) - units
    assert len(_pack_rows(layout)) == n_chunks * rows_per_chunk + units * rows_per_bias
    sp = next(s for s in layout.plan.sponges if s.label == "weights")
    assert [asg.advice[c][r] for c, r in sp.message_cells] == elements


@pytest.mark.parametrize("bias", [1 << 31, -(1 << 31) - 1])
def test_bias_outside_int32_rejected(bias):
    """A bias just outside int32 in an otherwise consistent witness: the
    ADD rows, PACK chain, digest and instance all agree with it, and only
    the byte lookup on its staging row objects."""
    base = _fc_model(units=2, feat=3, weights=[1, -2, 3, 4, 5, -6])
    fc = dataclasses.replace(base.layers[0], bias=(bias, bias))   # past validate()
    g = dataclasses.replace(base, layers=(fc, base.layers[1]))
    layout, _ = compile(g, HIDDEN_W)
    inp = _fc_input(g, random.Random(1))
    asg = assign_witness(layout, g, inp)
    assert asg.instance == commit_model_io(g, inp, HIDDEN_W.mode, HIDDEN_W.sponge_params())
    violations = check(layout, asg)
    assert violations and {(v.kind, v.id.split(":")[2]) for v in violations} == {("lookup", "byte")}


@pytest.mark.parametrize("bias", [-(1 << 31), (1 << 31) - 1])
def test_int32_bias_extremes_accepted(bias):
    g = _fc_model(units=2, feat=3, weights=[1, -2, 3, 4, 5, -6], bias=(bias, bias))
    layout, _ = compile(g, HIDDEN_W)
    assert check(layout, assign_witness(layout, g, _fc_input(g, random.Random(2)))) == []


def test_every_pack_row_cell_tamper_caught():
    """Each advice cell a PACK row reads (staged int8 weights and bias
    bytes, pk_in, pk_out), moved by +1, gives a violation."""
    rng = random.Random(31)
    g = _fc_model(units=3, feat=31, weights=[rng.randint(-128, 127) for _ in range(93)], bias=(-9, 0, 9))
    layout, _ = compile(g, HIDDEN_W)
    asg = assign_witness(layout, g, _fc_input(g, rng))
    assert check(layout, asg) == []
    pack = next(gd for gd in layout.gates if gd.name == "ABSORB_PACK")
    cols = sorted(pack.poly.columns() & set(asg.advice))
    p = layout.field.modulus
    cells = [(c, r) for r in _pack_rows(layout) for c in cols]
    assert len(cells) >= 100
    for col, row in cells:
        old = asg.advice[col][row]
        asg.advice[col][row] = (old + 1) % p
        assert check(layout, asg, cap=1), (col, row)
        asg.advice[col][row] = old


def test_div_rows_leave_unread_cells_free():
    """The remainder and quotient cells of each site are pinned by the
    DIV polynomial and its lookups alone: no copy touches them."""
    rng = random.Random(4)
    g = random_model(rng, max_hw=5, max_c=3, max_layers=3)
    layout, _ = compile(g)
    div_cells = {
        (f"g{site.div.group}:{col}", site.div.row)
        for site in layout.plan.site_plans
        for col in ("r", "q")
    }
    touched = {ref for cp in layout.copies for ref in (cp.a, cp.b)}
    assert not div_cells & touched
    assert check(layout, assign_witness(layout, g, random_input(rng, g))) == []


def test_weight_sponge_filled_once_at_compile(monkeypatch):
    """The weight digest depends only on the model: witnesses fill no
    sponge rows in hidden-weights mode, and every witness carries the
    same sponge cells."""
    rng = random.Random(8)
    g = random_parameterized_model(rng, max_hw=5, max_c=3, max_layers=3)
    layout, _ = compile(g, HIDDEN_W)
    calls = []
    fill = arithmetize._fill_sponge
    monkeypatch.setattr(arithmetize, "_fill_sponge", lambda *a: calls.append(a) or fill(*a))
    inputs = [random_input(rng, g) for _ in range(2)]
    asgs = [assign_witness(layout, g, inp) for inp in inputs]
    assert calls == []
    sponge_cols = [c for c in asgs[0].advice if c.startswith("sp:")]
    assert sponge_cols
    assert all(asgs[0].advice[c] == asgs[1].advice[c] for c in sponge_cols)
    for asg, inp in zip(asgs, inputs):
        assert check(layout, asg) == []
        assert asg.instance == commit_model_io(g, inp, HIDDEN_W.mode, HIDDEN_W.sponge_params())


def test_grid_over_max_rows_rejected(monkeypatch):
    g = _fc_model(units=3, feat=10)
    rows = compile(g)[1].n_rows_padded
    monkeypatch.setattr(arithmetize, "MAX_ROWS", rows // 2)
    with pytest.raises(CompileError, match="over the limit"):
        compile(g)


def test_grid_over_max_cells_rejected(monkeypatch):
    g = _fc_model(units=3, feat=10)
    layout, stats = compile(g)
    n_advice = sum(col.kind == "advice" for col in layout.columns.values())
    cells = stats.n_rows_padded * max(n_advice, len(layout.fixed))
    monkeypatch.setattr(arithmetize, "MAX_CELLS", cells)
    compile(g)
    monkeypatch.setattr(arithmetize, "MAX_CELLS", cells - 1)
    with pytest.raises(CompileError, match="cells"):
        compile(g)
