import dataclasses
import math
import random
import re

import pytest

from helpers import constrained_advice_cells, tamper_trials
from zkgrid import arithmetize, serialize
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


def test_fc_k18_row_counts():
    """k=18 at N = 8: one chain of 3 DOT rows whose 3 slots are the 3
    output neurons, the last row carrying DIV.  Each slot's bias is its
    first carry, a copy of its const cell; each later carry copies the
    slot's previous out."""
    biases = [5, -6, 7]
    g = _fc_model(units=3, feat=18, bias=biases)
    layout, stats = compile(g)
    copies = {cp.a: cp.b for cp in layout.copies}
    p = layout.field.modulus
    plan = layout.plan
    assert len(plan.site_plans) == 3
    for site, bias in zip(plan.site_plans, biases):
        rows = site.rows
        assert [len(r.x_srcs) for r in rows] == [8, 8, 2]  # 18 = 8 + 8 + 2
        assert rows[-1] is site.div and site.add_rows == ()
        first = rows[0]
        const = copies[first.cell("carry")]
        assert const == first.cell("const")
        assert layout.fixed[const[0]][const[1]] == bias % p
        for prev, cur in zip(rows, rows[1:]):
            assert copies[cur.cell("carry")] == prev.cell("out")
    assert [site.div.slot for site in plan.site_plans] == [0, 1, 2]
    assert stats.n_rows == 3
    assert stats.groups == [{"slots": 3, "rows": 3}]
    inp = random_input(random.Random(1), g)
    assert check(layout, assign_witness(layout, g, inp)) == []


def _naive_site_taps(g, i, flat, cells):
    """(source cell, weight) taps of one output element of layer i, found
    window position by window position; cells maps each tensor ref to
    its cells.  The reference the compiler's per-layer tap tables must
    match, tap for tap and in order."""
    layer = g.layers[i]
    ref = layer.input_refs[0]
    src = cells[ref]
    if layer.kind in ("conv2d", "depthwise_conv2d"):
        h, w, c = g.shape_of_ref(ref)
        oh, ow, oc = g.output_shapes[i]
        if layer.kind == "conv2d":
            _, kh, kw, ic = layer.weights.shape
        else:
            kh, kw, _ = layer.weights.shape
        o_i, rem = divmod(flat, ow * oc)
        o_j, o_c = divmod(rem, oc)
        top = left = 0
        if layer.padding == "same":
            top = max((oh - 1) * layer.stride + kh - h, 0) // 2
            left = max((ow - 1) * layer.stride + kw - w, 0) // 2
        wvals = layer.weights.signed_values()
        taps = []
        for r in range(kh):
            for s in range(kw):
                ih = o_i * layer.stride - top + r
                iw = o_j * layer.stride - left + s
                if not (0 <= ih < h and 0 <= iw < w):
                    continue
                if layer.kind == "conv2d":
                    for ci in range(ic):
                        taps.append((src[(ih * w + iw) * c + ci], wvals[((o_c * kh + r) * kw + s) * ic + ci]))
                else:
                    taps.append((src[(ih * w + iw) * c + o_c], wvals[(r * kw + s) * oc + o_c]))
        return taps
    if layer.kind == "fully_connected":
        _, feat = layer.weights.shape
        wvals = layer.weights.signed_values()
        return [(src[j], wvals[flat * feat + j]) for j in range(feat)]
    if layer.kind == "residual_add":
        return [(src[flat], 1), (cells[layer.input_refs[1]][flat], 1)]
    h, w, c = g.shape_of_ref(ref)   # average_pool
    return [(src[(r * w + s) * c + flat], 1) for r in range(h) for s in range(w)]


@pytest.mark.parametrize(
    "mode",
    [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS],
)
def test_one_row_per_dot_chunk(mode):
    """Every site takes ceil(max(k, 1) / N) rows of the DOT chain, the
    layout has no ADD gate, and the honest witness checks clean.  Some
    sites need more than one row."""
    rng = random.Random(21)
    cfg = CompileConfig(mode=mode)
    n = arithmetize.GATE_WIDTH
    multi_row = 0
    for _ in range(4):
        g = random_parameterized_model(rng, max_hw=5, max_c=3, max_layers=3)
        layout, stats = compile(g, cfg)
        # Each tensor's elements stand in for its cells.
        cells = {ref: range(math.prod(g.shape_of_ref(ref))) for ref in range(INPUT_REF, len(g.layers))}
        for site in layout.plan.site_plans:
            taps = _naive_site_taps(g, site.layer, site.flat, cells)
            assert len(site.rows) == -(-max(len(taps), 1) // n)
            multi_row += len(site.rows) > 1
        assert sorted({gd.name for gd in layout.gates if gd.id.startswith("g")}) == [
            "DIV", *(f"DOT_{k}" for k in range(1, n + 1))
        ]
        assert not any(gd.name.startswith("ADD_") for gd in layout.gates)
        assert not any(col.endswith("q_add") for col in layout.columns)
        assert check(layout, assign_witness(layout, g, random_input(rng, g))) == []
    assert multi_row


def _table_models():
    """Three models that between them hold conv2d and depthwise layers with
    "same" and "valid" padding at strides 1 and 2 (odd and even kernels,
    so "same" pads unevenly), a residual add, an average pool and an fc."""
    rng = random.Random(5)
    unit = QuantParams(0, ScaleFactor(1, 1))

    def conv(kind, ref, in_c, kh, kw, oc, stride, padding, quant):
        shape = (oc, kh, kw, in_c) if kind == "conv2d" else (kh, kw, in_c)
        oc = oc if kind == "conv2d" else in_c
        data = bytes(rng.randint(-5, 5) % 256 for _ in range(math.prod(shape)))
        bias = tuple(rng.randint(-50, 50) for _ in range(oc))
        return Layer(kind, (ref,), quant, QuantTensor(shape, data, unit), bias, stride, padding)

    q_in, q1, q2 = (QuantParams(z, ScaleFactor(1, 64)) for z in (3, 9, 20))
    a = (
        conv("conv2d", INPUT_REF, 3, 3, 3, 4, 2, "same", q1),                 # (7,6,3) -> (4,3,4)
        conv("depthwise_conv2d", 0, 4, 3, 3, 4, 1, "same", q1),               # -> (4,3,4)
        Layer("residual_add", (0, 1), QuantParams(9, ScaleFactor(1, 1))),     # -> (4,3,4)
        conv("conv2d", 2, 4, 2, 2, 2, 2, "valid", q2),                        # -> (2,1,2)
        conv("depthwise_conv2d", 3, 2, 2, 1, 2, 1, "valid", q2),              # -> (1,1,2)
    )
    b = (
        conv("depthwise_conv2d", INPUT_REF, 2, 3, 3, 2, 2, "valid", q1),      # (7,7,2) -> (3,3,2)
        conv("conv2d", 0, 2, 2, 2, 3, 1, "same", q2),                         # -> (3,3,3)
        conv("conv2d", 1, 3, 3, 3, 3, 1, "valid", q2),                        # -> (1,1,3)
    )
    c = (
        conv("depthwise_conv2d", INPUT_REF, 2, 3, 3, 2, 2, "same", q1),       # (7,7,2) -> (4,4,2)
        conv("conv2d", 0, 2, 1, 3, 3, 1, "same", q2),                         # -> (4,4,3)
        Layer("average_pool", (1,), q2),                                      # -> (1,1,3)
        Layer(
            "fully_connected", (2,), q1,
            QuantTensor((5, 3), bytes(rng.randint(-9, 9) % 256 for _ in range(15)), unit),
            tuple(rng.randint(-50, 50) for _ in range(5)),
        ),
    )
    models = []
    for layers, shape in ((a, (7, 6, 3)), (b, (7, 7, 2)), (c, (7, 7, 2))):
        out = Layer("output", (len(layers) - 1,), layers[-1].out_quant)
        models.append(validate(ModelGraph(layers=(*layers, out), input_shape=shape, input_quant=q_in)))
    return models


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_layer_tables_match_naive_taps(mode):
    """For every site of every layer kind, the per-layer tap table gives
    the same (x source cell, weight) taps, in the same order, as the
    window-by-window enumeration, and the site spans ceil(k / N) rows."""
    kinds = set()
    multi_row = 0
    for g in _table_models():
        layout, _ = compile(g, CompileConfig(mode=mode))
        plan = layout.plan
        cells = {INPUT_REF: plan.input_cells}
        sites = {(site.layer, site.flat): site for site in plan.site_plans}
        for lp in plan.layer_plans:
            layer = g.layers[lp.layer]
            kinds.add((layer.kind, layer.padding, layer.stride))
            assert len(lp.sites) == math.prod(g.output_shapes[lp.layer])
            for flat, (x_srcs, w_ints, *_) in enumerate(lp.sites):
                want = _naive_site_taps(g, lp.layer, flat, cells)
                assert list(zip(x_srcs, w_ints)) == want, (lp.layer, flat)
                n_rows = len(sites[(lp.layer, flat)].rows)
                assert n_rows == -(-len(want) // arithmetize.GATE_WIDTH)
                multi_row += n_rows > 1
            cells[lp.layer] = [site.div.cell("act") for site in plan.site_plans if site.layer == lp.layer]
        assert check(layout, assign_witness(layout, g, random_input(random.Random(7), g))) == []
    assert kinds == {
        (kind, padding, stride)
        for kind in ("conv2d", "depthwise_conv2d") for padding in ("same", "valid") for stride in (1, 2)
    } | {("residual_add", "valid", 1), ("average_pool", "valid", 1), ("fully_connected", "valid", 1)}
    assert multi_row


@pytest.mark.parametrize("units", [1, 3])
@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_carry_chain_stays_in_one_group(mode, units):
    """One 18-tap chain at N = 8: its M = units slots share g0 rows 0..2,
    the only group, and each slot's later carries copy its own out cell
    on the row before.  The honest witness checks clean, and one slot's
    last carry moved by one is caught by that copy and that slot's DOT
    gate."""
    g = _fc_model(
        units=units, feat=18, weights=[(-1) ** j * (j % 7) for j in range(18 * units)], bias=(3, -4, 5)[:units]
    )
    layout, stats = compile(g, CompileConfig(mode=mode))
    assert stats.groups == [{"slots": units, "rows": 3}]
    assert [site[3:] for site in layout.plan.layer_plans[0].sites] == [(s, 0, 0) for s in range(units)]
    copies = {cp.a: cp.b for cp in layout.copies}
    for s in range(units):
        assert [copies[(f"g0:s{s}:carry", r)] for r in (1, 2)] == [(f"g0:s{s}:out", 0), (f"g0:s{s}:out", 1)]
    asg = assign_witness(layout, g, _fc_input(g, random.Random(3)))
    assert check(layout, asg) == []
    carry = asg.advice[f"g0:s{units - 1}:carry"]
    carry[2] = (carry[2] + 1) % layout.field.modulus
    violations = check(layout, asg)
    assert {(v.kind, v.row) for v in violations} == {("copy", 2), ("gate", 2)}
    assert [v.id for v in violations if v.kind == "gate"] == [f"g0:s{units - 1}:dot2"]


@pytest.mark.parametrize(
    "seed, mode",
    [(110, None), (111, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS), (3, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS)],
)
def test_region_stats_partition_the_grid(seed, mode):
    """The per-layer, staging and sponge lines of CircuitStats.regions
    split the copies and the gate-group rows exactly, and each line's
    lookup rows are the enabled lookup rows in its part of the grid."""
    g = random_model(random.Random(seed), max_hw=32 if seed > 100 else 6, max_c=16, max_layers=5)
    layout, stats = compile(g, CompileConfig(mode=mode))
    regions = stats.regions
    layers = [f"layer{lp.layer}" for lp in layout.plan.layer_plans]
    assert list(regions) == ["staging", *layers, "sponge"]
    assert sum(line["copies"] for line in regions.values()) == stats.n_copy_constraints
    dot_rows = sum(len(layout.fixed[c].nonzero_rows()) for c in layout.columns if ":q_dot" in c)
    assert sum(regions[name]["rows"] for name in layers) == dot_rows

    owner = {}
    for site in layout.plan.site_plans:
        owner.update(((d.group, d.row), f"layer{site.layer}") for d in site.rows)
    lookup_rows = dict.fromkeys(regions, 0)
    for lk in layout.lookups:
        col = lk.columns[0]
        for row in layout.fixed[lk.selector].nonzero_rows():
            region = "staging" if col.startswith("io") else owner[(int(col[1 : col.index(":")]), row)]
            lookup_rows[region] += 1
    assert {name: line.get("lookup_rows", 0) for name, line in regions.items()} == lookup_rows
    assert regions["staging"]["rows"] == len({row for _, row in layout.plan.input_cells + (layout.plan.weight_cells or [])})
    assert regions["sponge"]["rows"] == sum(
        len(sp.absorb_rows) + sum(map(len, sp.round_rows)) for sp in layout.plan.sponges
    )


@pytest.mark.parametrize("seed, mode", [(110, None), (111, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)])
def test_dot_rows_hold_only_their_taps(seed, mode):
    """On the benchmark models each DOT row enables exactly DOT_k for its k
    taps, no copy pins an x or w lane to the zero column, the honest
    witness leaves lanes k..N-1 unassigned, and tampering a live lane
    cell is caught."""
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    n = arithmetize.GATE_WIDTH
    layout, _ = compile(g, CompileConfig(mode=mode))
    lanes = {c for c in layout.columns if re.fullmatch(r"g\d+:(s\d+:)?[xw]\d+", c)}
    assert lanes
    assert not [cp for cp in layout.copies if cp.a[0] in lanes and cp.b[0] == "zero"]
    assert not [cp for cp in layout.copies if cp.b[0] in lanes and cp.a[0] == "zero"]

    asg = assign_witness(layout, g, random_input(random.Random(1), g))
    assert check(layout, asg) == []
    lane_kinds = "xw" if mode is not None else "x"
    live = set()
    dot_rows = set()
    for site in layout.plan.site_plans:
        for d in site.rows:
            dot_rows.add((d.group, d.row))
            k = len(d.x_srcs)
            assert [j for j in range(1, n + 1) if layout.fixed[f"g{d.group}:q_dot{j}"][d.row]] == [k]
            for kind in lane_kinds:
                cells = [d.x_cell(j) if kind == "x" else d.cell(f"w{j}") for j in range(n)]
                assert [asg.advice[c][r] is None for c, r in cells] == [j >= k for j in range(n)]
                live.update(cells[:k])
    assert sum(sum(map(bool, layout.fixed[c])) for c in layout.columns if ":q_dot" in c) == len(dot_rows)

    p = layout.field.modulus
    for col, row in random.Random(seed).sample(sorted(live), 64):
        v = asg.advice[col][row]
        asg.advice[col][row] = (v + 1) % p
        assert check(layout, asg), (col, row)
        asg.advice[col][row] = v


def test_row_padding_to_power_of_two():
    """18 features: a 3-row chain and 3 staging rows, padded to 4."""
    g = _fc_model(units=2, feat=18)
    _, stats = compile(g)
    assert (stats.n_rows, stats.n_rows_padded) == (3, 4)


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


@pytest.mark.parametrize(
    "bounds, z_out",
    [((0, 3), 0), ((-300, -10), 7), ((-50, 40), 200), ((260, 900), 0), ((-700, 700), 128), ((5, 5), -6)],
)
def test_build_clip_table_matches_per_entry_clip(bounds, z_out):
    """Every domain shape (all below 0, straddling 0 or 255, all above
    255, one entry) against clip(d + z_out, 0, 255) entry by entry."""
    d_lo, d_hi = bounds
    off = max(0, -d_lo)
    want = frozenset((d + off, min(255, max(0, d + z_out))) for d in range(d_lo, d_hi + 1))
    assert build_clip_table(bounds, ScaleFactor(1, 1), z_out).rows == want


def test_build_clip_table_cap(monkeypatch):
    monkeypatch.setattr(arithmetize, "LOOKUP_CAP", 1 << 20)
    with pytest.raises(CompileError, match="cap"):
        build_clip_table((0, 1 << 22), ScaleFactor(1, 1), 0)


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
    g = _three_layer_same_scale(b2=2)  # 1/4, 1/2, 1/4
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


def test_mixed_divisors_kept_per_layer():
    # denominators 2 and 4: each layer's DIV rows divide by its own b
    g = _three_layer_same_scale(b2=2)
    layout, _ = compile(g)
    divisors = {site.div.b for site in layout.plan.site_plans}
    assert divisors == {2, 4}
    assert {site.div.b for site in layout.plan.site_plans if site.layer == 1} == {2}


def test_coprime_divisors_compile_and_match_interpreter():
    """1/4, 1/3, 1/4: no common denominator is needed.  The grid checks
    clean and its logits are the interpreter's on every input."""
    g = _three_layer_same_scale(b2=3)
    layout, stats = compile(g)
    assert {(s.layer, s.div.a, s.div.b) for s in layout.plan.site_plans} == {
        (0, 1, 4), (1, 1, 3), (2, 1, 4)
    }
    assert stats.n_clip_tables == 2
    assert {"range:0:2", "range:0:3"} <= set(layout.tables)
    rng = random.Random(13)
    p = layout.field.modulus
    n_logits = math.prod(g.output_shapes[-1])
    for _ in range(20):
        inp = random_input(rng, g)
        asg = assign_witness(layout, g, inp)
        assert check(layout, asg) == []
        assert asg.instance[:n_logits] == [int(v) % p for v in run_inference(g, inp).logits]


def test_modulus_too_small_rejected(monkeypatch):
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
    monkeypatch.setattr(arithmetize, "LOOKUP_CAP", 1 << 24)
    with pytest.raises(CompileError, match="modulus"):
        compile(g2, CompileConfig(field=small))


def test_lookup_cap_exceeded_rejected(monkeypatch):
    g = _fc_model(units=1, feat=10, b=2)
    monkeypatch.setattr(arithmetize, "LOOKUP_CAP", 64)
    with pytest.raises(CompileError, match="cap"):
        compile(g)


def test_remainder_range_table_capped():
    """A divisor b needs the remainder table {0..b-1}: over LOOKUP_CAP
    entries it is refused before it is built."""
    g = _fc_model(units=1, feat=10, b=arithmetize.LOOKUP_CAP + 1)
    with pytest.raises(CompileError, match="range:0:.* exceeds the cap"):
        compile(g)


def test_divisor_times_quotient_domain_over_modulus_rejected():
    """On p = 65537 a divisor of 70000 makes the remainder table wrap: the
    honest (q, r) = (0, 10) for input (10, 0) and a forged (-1, 70010 mod p)
    would both satisfy DIV, and the forgery clips to act 0 instead of 1.
    Compile refuses any key whose quotients times b exceed p."""
    fc = Layer(
        kind="fully_connected",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(zero_point=1, scale=ScaleFactor(1, 70000)),
        weights=QuantTensor(shape=(1, 2), data=bytes([1, 255]), quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=(0,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=fc.out_quant)
    g = validate(ModelGraph(layers=(fc, out), input_shape=(1, 1, 2), input_quant=QuantParams(0, ScaleFactor(1, 1))))
    with pytest.raises(CompileError, match="modulus 65537"):
        compile(g, CompileConfig(field=Field(65537)))
    compile(g)   # the default field is wide enough


# --- witness / oracle equivalence --------------------------------------------

def test_identity_conv_witness_roundtrip():
    g = identity_model()
    inp = QuantTensor(shape=(1, 1, 1), data=bytes([7]), quant=g.input_quant)
    layout, _ = compile(g)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    site = layout.plan.site_plans[0]
    col, row = site.div.cell("act")
    act_cell = asg.advice[col][row]
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
        col, row = site.div.cell("act")
        got = asg.advice[col][row]
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
            col, row = site.div.cell("act")
            got = asg.advice[col][row]
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
    assert pub.columns["g0:s0:w0"].kind == "fixed"
    assert hid.columns["g0:s0:w0"].kind == "advice"


# --- hidden weights: PACK chains and bias range checks ------------------------

HIDDEN_W = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)


def _pack_rows(layout) -> list[int]:
    return [r for r, q in enumerate(layout.fixed["io:q_pack"]) if q]


def _fc_input(g, rng):
    return QuantTensor(shape=g.input_shape, data=bytes(rng.randrange(256) for _ in range(g.input_shape[2])), quant=g.input_quant)


@pytest.mark.parametrize(
    "fld, pack_rows",
    [
        (Field(), 2 * 4 + 2),                   # chunks 31 + 31
        (Field((1 << 89) - 1), 5 * 2 + 1 + 2),  # chunks 5 x 11 + 7
        (Field(65537), 31 * 1 + 2),             # chunks 31 x 2
    ],
)
def test_hidden_weights_pack_chunks(fld, pack_rows):
    """The 62 weights split into chunks of k = pack_width(p) int8 values
    (31 on the default field, 11 on p = 2^89 - 1, 2 on p = 65537), each
    spanning ceil(k / N) PACK rows at N = 8, and each of the 2 biases
    takes one; the absorbed cells hold `weight_elements` and the
    instance equals `commit_model_io`.  The PACK gate's constants
    256^j are canonical residues, so the layout file round-trips."""
    rng = random.Random(pack_rows)
    units, feat = 2, 31
    weights = [rng.randint(-3, 3) for _ in range(units * feat)]
    weights[:2] = [-128, 127] if fld.modulus.bit_length() > 64 else [-3, 3]
    g = _fc_model(units=units, feat=feat, weights=weights, bias=(-5, 7))
    cfg = CompileConfig(field=fld, mode=HIDDEN_W.mode)
    layout, _ = compile(g, cfg)
    inp = _fc_input(g, rng)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    assert asg.instance == commit_model_io(g, inp, cfg.mode, cfg.sponge_params(), fld)
    elements = weight_elements(g, fld.modulus)
    assert len(_pack_rows(layout)) == pack_rows
    sp = next(s for s in layout.plan.sponges if s.label == "weights")
    assert [asg.advice[c][r] for c, r in sp.message_cells] == elements
    assert serialize.load_layout(serialize.dump_layout(layout)) == layout


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
        site.div.cell(col)
        for site in layout.plan.site_plans
        for col in ("r", "q")
    }
    touched = {ref for cp in layout.copies for ref in (cp.a, cp.b)}
    assert not div_cells & touched
    assert check(layout, assign_witness(layout, g, random_input(rng, g))) == []


def test_weight_sponge_filled_once_at_compile(monkeypatch):
    """The weight digest depends only on the model: witnesses compute no
    sponge states in hidden-weights mode, and every witness carries the
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


# --- multi-output rows: slots over shared x lanes ------------------------------

MODES = [None, *VisibilityMode]


def _slot_case_model(seed, mode):
    """The benchmark models for seeds 110 and 111 when the input is public
    (a hidden input's sponge alone would take 131,072 rows), smaller
    models from the same seeds otherwise."""
    if seed >= 100:
        big = mode is None or not mode.input_hidden
        return random_model(random.Random(seed), max_hw=32 if big else 8, max_c=16, max_layers=5)
    return random_model(random.Random(seed), max_hw=8, max_c=12, max_layers=4)


@pytest.mark.parametrize("seed, mode", [(seed, mode) for seed in (110, 111, *range(12)) for mode in MODES])
def test_slot_rows_match_the_interpreter(seed, mode):
    """On every model and mode the honest witness checks clean, every
    site's out and act cells equal the interpreter's accumulator and
    activation, each group's rows fill all its slots, there is one group
    per slot count, and every site's chain is consecutive rows of one
    group."""
    _assert_slot_rows_match(_slot_case_model(seed, mode), mode, seed)


@pytest.mark.parametrize("seed, mode", [(seed, mode) for seed in range(6) for mode in MODES])
def test_wide_slot_rows_match_the_interpreter(seed, mode):
    """The same checks on models of up to 24 channels, whose output
    channels over one patch split into several slot counts (5 + 4, say)."""
    g = random_model(random.Random(seed), max_hw=6, max_c=24, max_layers=3)
    _assert_slot_rows_match(g, mode, seed)


@pytest.mark.parametrize("seed, mode", [(seed, mode) for seed in (110, 111, *range(6)) for mode in MODES])
def test_witness_assigns_exactly_the_constrained_cells(seed, mode):
    """The honest witness leaves no advice cell empty that an enabled
    gate row, an enabled lookup row, a copy or a binding reads, and
    assigns no other advice cell."""
    g = _slot_case_model(seed, mode)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(random.Random(seed), g))
    assigned = sorted(
        (col, row) for col, vals in asg.advice.items() for row, v in enumerate(vals) if v is not None
    )
    assert assigned == constrained_advice_cells(layout)


def _assert_slot_rows_match(g, mode, seed):
    layout, stats = compile(g, CompileConfig(mode=mode))
    inp = random_input(random.Random(seed), g)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    tr = run_inference(g, inp)
    p = layout.field.modulus
    slots = {}
    for site in layout.plan.site_plans:
        out_col, row = site.div.cell("out")
        act_col, _ = site.div.cell("act")
        assert asg.advice[out_col][row] == int(tr.layers[site.layer].acc.reshape(-1)[site.flat]) % p
        assert asg.advice[act_col][row] == int(tr.layers[site.layer].act.reshape(-1)[site.flat])
        first = site.rows[0]
        assert [(d.group, d.row) for d in site.rows] == [
            (first.group, first.row + r) for r in range(len(site.rows))
        ]
        for d in site.rows:
            slots.setdefault((d.group, d.row), set()).add(d.slot)
    for gi, group in enumerate(stats.groups):
        rows = [r for (gj, r), s in slots.items() if gj == gi]
        assert sorted(rows) == list(range(group["rows"]))
        assert all(slots[(gi, r)] == set(range(group["slots"])) for r in rows)
        assert 1 <= group["slots"] <= arithmetize.GATE_WIDTH
    assert sorted(group["slots"] for group in stats.groups) == sorted({len(s) for s in slots.values()})


def _three_unit_fc(mode):
    """fc with 3 units over 18 features at N = 8: one chain of 3 rows
    whose 3 slots are the units."""
    weights = [(j * 7) % 5 + 1 if j % 2 else -((j * 3) % 7 + 1) for j in range(54)]   # none is 0
    g = _fc_model(units=3, feat=18, b=4, weights=weights, bias=(9, -20, 31))
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, _fc_input(g, random.Random(11)))
    assert check(layout, asg) == []
    return layout, asg


def _raised(layout, asg, cell):
    col, row = cell
    old = asg.advice[col][row]
    asg.advice[col][row] = (old + 1) % layout.field.modulus
    try:
        return check(layout, asg)
    finally:
        asg.advice[col][row] = old


@pytest.mark.parametrize(
    "mode, name",
    [(mode, name) for mode in (None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS) for name in ("carry", "out", "act", "q", "r")]
    + [(VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, "w1")],   # public weight lanes are fixed cells
)
def test_raised_slot_cell_names_its_slot(mode, name):
    """Raising one slot's carry (the last row's, a copy of the previous
    row's out), out, act, q, r or (hidden) weight lane by one is rejected
    by a gate or lookup of that slot, and by no other slot's."""
    layout, asg = _three_unit_fc(mode)
    for site in layout.plan.site_plans:
        d = site.div if name != "w1" else site.rows[0]
        violations = _raised(layout, asg, d.cell(name))
        named = {v.id for v in violations if v.kind in ("gate", "lookup")}
        assert named, (site.flat, name)
        assert all(i.startswith(f"g{d.group}:s{d.slot}:") for i in named), named
        if name == "carry":
            assert "copy" in {v.kind for v in violations}


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_raised_shared_x_lane_breaks_every_slot(mode):
    """An x lane is read by every slot of its row: raising it by one breaks
    each slot's DOT gate on that row, and its copy."""
    layout, asg = _three_unit_fc(mode)
    site = layout.plan.site_plans[0]
    for d in site.rows:
        k = len(d.x_srcs)
        for j in range(k):
            violations = _raised(layout, asg, d.x_cell(j))
            gates = {(v.id, v.row) for v in violations if v.kind == "gate"}
            assert gates == {(f"g{d.group}:s{m}:dot{k}", d.row) for m in range(3)}
            assert [v.kind for v in violations if v.kind != "gate"] == ["copy"]


@pytest.mark.parametrize("units, groups", [(10, [(5, 2)]), (11, [(6, 1), (5, 1)]), (8, [(8, 1)]), (9, [(5, 1), (4, 1)])])
def test_channels_split_into_equal_chunks(units, groups):
    """C channels that share a patch at N = 8 take ceil(C/8) chunks as
    equal as possible, each in the group of its slot count: C = 10 gives
    two chunks of 5 in one group, C = 11 a group of 6 slots and one of 5."""
    g = _fc_model(units=units, feat=6, weights=[(j % 9) - 4 for j in range(6 * units)])
    layout, stats = compile(g)
    assert [(grp["slots"], grp["rows"]) for grp in stats.groups] == groups
    slots = [site.div.slot for site in layout.plan.site_plans]
    sizes = [m for m, rows in groups for _ in range(rows)]
    assert slots == [s for m in sizes for s in range(m)]
    assert check(layout, assign_witness(layout, g, _fc_input(g, random.Random(units)))) == []


def test_depthwise_residual_and_pool_channels_take_one_slot():
    """Channels with their own source base (depthwise, residual, pool)
    share no patch: their sites take rows of M = 1 slot."""
    for g in _table_models():
        layout, _ = compile(g)
        for site in layout.plan.site_plans:
            kind = g.layers[site.layer].kind
            if kind not in ("conv2d", "fully_connected"):
                assert site.div.slot == 0
                assert layout.columns.get(f"g{site.div.group}:s1:out") is None, kind


def test_slot_stats_report_cells_and_groups():
    """advice_cells is advice columns times padded rows, and groups list
    each group's slot count and rows in column order."""
    g = random_model(random.Random(110), max_hw=32, max_c=16, max_layers=5)
    layout, stats = compile(g)
    n_advice = sum(col.kind == "advice" for col in layout.columns.values())
    assert stats.advice_cells == n_advice * stats.n_rows_padded
    assert stats.groups == [{"slots": 3, "rows": 934}, {"slots": 1, "rows": 391}]
    assert (stats.n_rows_padded, stats.n_copy_constraints) == (1024, 12243)
    assert stats.to_json()["groups"] == stats.groups
