import copy
import dataclasses
import math
import random
import re

import numpy as np
import pytest

from helpers import constrained_advice_cells, poly_columns, row_oracle_check, table_models, tamper_trials
from zkgrid import arithmetize, circuit, serialize
from zkgrid.arithmetize import (
    CompileConfig,
    CompileError,
    assign_witness,
    compile,
    lookup_table,
)
from zkgrid.checker import check
from zkgrid.circuit import AdviceColumn, Assignment
from zkgrid.cli import main as cli_main
from zkgrid.commit import VisibilityMode, commit_model_io, weight_elements
from zkgrid.field import DEFAULT_MODULUS, Field
from zkgrid.interpreter import run_inference
from zkgrid.model import (
    INPUT_REF,
    Layer,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    save_model,
    save_tensor,
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
        assert layout.fixed[const[0]][const[1]] % p == bias % p
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


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_layer_tables_match_naive_taps(mode):
    """For every site of every layer kind, the plan's index arrays give
    the same (x source cell, weight) taps, in the same order, as the
    window-by-window enumeration, every pad tap has weight 0, and the
    site_plans view holds those taps over ceil(k / N) rows."""
    kinds = set()
    multi_row = 0
    for g in table_models():
        layout, _ = compile(g, CompileConfig(mode=mode))
        plan = layout.plan
        cells = {INPUT_REF: plan.input_cells}
        sites = {(site.layer, site.flat): site for site in plan.site_plans}
        for lp in plan.layer_plans:
            layer = g.layers[lp.layer]
            kinds.add((layer.kind, layer.padding, layer.stride))
            assert len(lp.chain) == math.prod(g.output_shapes[lp.layer])
            assert lp.src.shape[1] == lp.weights.shape[1] and lp.src.shape[1] % arithmetize.GATE_WIDTH == 0
            src_cells = [c for ref in lp.refs for c in cells[ref]]
            for flat, ch in enumerate(lp.chain.tolist()):
                k = int(lp.taps[ch])
                want = _naive_site_taps(g, lp.layer, flat, cells)
                got = [(src_cells[j], w) for j, w in zip(lp.src[ch, :k].tolist(), lp.weights[flat, :k].tolist())]
                assert got == want, (lp.layer, flat)
                assert not lp.weights[flat, k:].any()
                site = sites[(lp.layer, flat)]
                assert [(x, w) for d in site.rows for x, w in zip(d.x_srcs, d.w_ints)] == want
                n_rows = len(site.rows)
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
    lp = layout.plan.layer_plans[0]
    assert lp.slot.tolist() == list(range(units))
    assert lp.group.tolist() == lp.first_row.tolist() == lp.chain.tolist() == [0] * units
    assert lp.taps.tolist() == [18]
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


def test_audit_model_sponge_rows():
    """An absorb takes 37 rows at the default params: round 0 adds the
    chunk, so there is no absorb row, and the 57 partial rounds go two to
    a row (4 + 28 + 1 + 4).  On audit_batch's model (seed 111, hidden
    weights) the weight digest's 13 absorbs take 481 rows, which sit
    under its 1,428 model rows; 1,440 of the copies chain a row's state in
    to the state out before it."""
    g = random_model(random.Random(111), max_hw=32, max_c=16, max_layers=5)
    _, stats = compile(g, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))
    assert stats.regions["sponge"] == {"rows": 481, "copies": 1440 + 13 * 2 + 3, "absorbs": 13}
    assert (stats.n_rows, stats.n_rows_padded) == (1428, 2048)


@pytest.mark.parametrize("seed", [110, 111])
def test_both_hidden_benchmark_models_fit_65536_rows(seed):
    """With both tensors hidden the input digest sizes the grid (1,714 and
    1,315 absorbs); at 37 rows an absorb both models fit 2^16 rows."""
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    _, stats = compile(g, CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS))
    sponge = stats.regions["sponge"]
    assert sponge["rows"] == 37 * sponge["absorbs"] == stats.n_rows
    assert stats.n_rows_padded == 65536


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

def _clip(bounds, z_out):
    """The clip table at scale 1/1 over the quotients `bounds`."""
    return lookup_table(("clip", 1, 1, z_out, *bounds), DEFAULT_MODULUS)


def test_clip_table_identity_domain():
    t = _clip((0, 3), 0)
    assert (t.id, t.arity) == ("clip:a1:b1:z0", 2)
    assert t.rows == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})


def test_clip_table_negative_domain_offset():
    t = _clip((-2, 2), 0)
    # keys shifted by 2: clip of negatives is 0
    assert t.rows == frozenset({(0, 0), (1, 0), (2, 0), (3, 1), (4, 2)})


def test_clip_table_saturates_at_255():
    t = _clip((0, 600), 0)
    as_map = dict(t.rows)
    assert len(as_map) == 601
    assert as_map[255] == 255
    assert all(as_map[k] == 255 for k in range(256, 601))
    assert as_map[254] == 254


@pytest.mark.parametrize(
    "bounds, z_out",
    [((0, 3), 0), ((-300, -10), 7), ((-50, 40), 200), ((260, 900), 0), ((-700, 700), 128), ((5, 5), -6)],
)
def test_clip_table_matches_per_entry_clip(bounds, z_out):
    """Every domain shape (all below 0, straddling 0 or 255, all above
    255, one entry) against clip(d + z_out, 0, 255) entry by entry."""
    d_lo, d_hi = bounds
    off = max(0, -d_lo)
    want = frozenset((d + off, min(255, max(0, d + z_out))) for d in range(d_lo, d_hi + 1))
    assert _clip(bounds, z_out).rows == want


def test_clip_table_cap(monkeypatch):
    monkeypatch.setattr(arithmetize, "LOOKUP_CAP", 1 << 20)
    with pytest.raises(CompileError, match="cap"):
        _clip((0, 1 << 22), 0)


def test_range_table_entries_are_residues():
    t = lookup_table(("range", -2, 1), 65537)
    assert (t.id, t.arity, t.rows) == ("range:-2:1", 1, frozenset({(65535,), (65536,), (0,), (1,)}))


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
    assert [asg.advice[c][r] % fld.modulus for c, r in layout.plan.cells(sp.message_at)] == elements
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
    cols = sorted(poly_columns(pack.poly) & set(asg.advice))
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


@pytest.mark.parametrize("seed, mode", [(seed, mode) for seed in (110, 111, 14, *range(8)) for mode in MODES])
def test_every_table_comes_from_its_recipe(seed, mode):
    """Compiled and loaded layouts hold exactly the tables the one builder
    makes from their recipes."""
    layout, _ = compile(_slot_case_model(seed, mode), CompileConfig(mode=mode))
    p = layout.field.modulus
    loaded = serialize.load_layout(serialize.dump_layout(layout))
    assert loaded == layout
    for lay in (layout, loaded):
        assert lay.tables == {t.id: lookup_table(t.recipe, p) for t in lay.tables.values()}


def _oracle_tampers(layout, asg, rng):
    """Three single changes to an honest witness: a cell an enabled gate
    reads, an advice cell a copy binds and an instance value, each with
    the rows whose gates, lookups and copies it can break."""
    p = layout.field.modulus
    advice = {c for c, col in layout.columns.items() if col.kind == "advice"}
    read = sorted(
        (c, int(layout.fixed[g.selector].enabled_rows()[0]))
        for g in layout.gates for c in poly_columns(g.poly)
        if c in advice and len(layout.fixed[g.selector].enabled_rows())
    )
    flat, names = layout.copies.flat, layout.copies.names
    bound = np.flatnonzero([names[k] in advice for k in flat[0::4].tolist()])
    k = 4 * int(rng.choice(bound.tolist()))
    out = []
    for col, row in (rng.choice(read), (names[flat[k]], int(flat[k + 1]))):
        cells = list(asg.advice[col])
        cells[row] = (cells[row] + 1) % p
        out.append((Assignment({**asg.advice, col: cells}, asg.instance), {row}))
    instance = list(asg.instance)
    k = rng.randrange(len(instance))
    instance[k] = (instance[k] + 1) % p
    out.append((Assignment(asg.advice, instance), set()))
    return out


@pytest.mark.parametrize("seed, mode", [(seed, mode) for seed in (110, 111, 14, *range(8)) for mode in MODES])
def test_checker_matches_row_oracle_on_every_case(seed, mode):
    """A loaded layout writes the same bytes.  On the honest witness and
    three tampers (a gate-read cell, a copy-bound cell, an instance value)
    the checker gives the row oracle's violations exactly, at cap 1000
    and cap 1, on the prover's lists against the compiled layout and on
    their file round trip against the loaded layout."""
    g = _slot_case_model(seed, mode)
    layout, _ = compile(g, CompileConfig(mode=mode))
    asg = assign_witness(layout, g, random_input(random.Random(seed), g))
    raw = serialize.dump_layout(layout)
    loaded = serialize.load_layout(raw)
    assert serialize.dump_layout(loaded) == raw
    assert check(loaded, serialize.load_witness(serialize.dump_witness(asg))) == []
    assert row_oracle_check(layout, asg, rows=()) == []
    for tampered, rows in _oracle_tampers(layout, asg, random.Random(seed)):
        want = row_oracle_check(layout, tampered, rows=rows)
        assert want
        round_trip = serialize.load_witness(serialize.dump_witness(tampered))
        for cap in (1000, 1):
            assert check(layout, tampered, cap=cap) == want[:cap]
            assert check(loaded, round_trip, cap=cap) == want[:cap]


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
        assert asg.advice[out_col][row] % p == int(tr.layers[site.layer].acc.reshape(-1)[site.flat]) % p
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
    for g in table_models():
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


def _with_layer(g, i, **changes):
    """g with layer i's fields replaced, validated again."""
    layers = list(g.layers)
    layers[i] = dataclasses.replace(layers[i], **changes)
    return validate(ModelGraph(layers=tuple(layers), input_shape=g.input_shape, input_quant=g.input_quant))


def _first_difference(a, b) -> int:
    return next(f for f, (u, v) in enumerate(zip(a.reshape(-1).tolist(), b.reshape(-1).tolist())) if u != v)


@pytest.mark.parametrize("change", ["weight", "zero_point"])
@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_witness_for_another_model_names_layer_and_site(tmp_path, capsys, monkeypatch, mode, change):
    """A layout compiled for G witnessed with G', which differs in one
    weight, or with G'', which differs in one layer's output zero point:
    the witness refuses at the first site whose accumulator (G') or
    activation (G'') disagrees with the plan, naming its layer and site,
    and `zkgrid witness` exits 2 with that message and no traceback.  The
    CLI compiles the layout from the model it is given, so the stale plan
    is put in by compiling G in its place."""
    # conv2d, depthwise, conv2d, depthwise: G' changes layer 0's last
    # weight, G'' layer 2's zero point, so layers 0 and 1 still agree.
    g = random_model(random.Random(9), max_hw=6, max_c=4, max_layers=4)
    i = {"weight": 0, "zero_point": 2}[change]
    layer = g.layers[i]
    if change == "weight":
        data = bytearray(layer.weights.data)
        data[-1] = (data[-1] + 1) % 256
        other = _with_layer(g, i, weights=dataclasses.replace(layer.weights, data=bytes(data)))
    else:
        q = layer.out_quant
        other = _with_layer(g, i, out_quant=dataclasses.replace(q, zero_point=(q.zero_point + 1) % 256))
    inp = random_input(random.Random(2), g)
    mine, theirs = run_inference(g, inp).layers[i], run_inference(other, inp).layers[i]
    if change == "weight":
        site = _first_difference(mine.acc, theirs.acc)
        assert site > 0     # the last weight is the last channel's
        want = f"internal mismatch at layer {i} site {site}: {int(mine.acc.reshape(-1)[site])} vs trace"
    else:
        assert (mine.acc == theirs.acc).all()
        want = f"internal activation mismatch at layer {i} site {_first_difference(mine.act, theirs.act)}"

    layout, _ = compile(g, CompileConfig(mode=mode))
    with pytest.raises(arithmetize.WitnessError) as err:
        assign_witness(layout, other, inp)
    assert str(err.value).startswith(want)

    model_path, inp_path = tmp_path / "other.json", tmp_path / "input.json"
    model_path.write_bytes(save_model(other))
    inp_path.write_bytes(save_tensor(inp))
    monkeypatch.setattr(arithmetize, "compile", lambda graph, cfg=None: (layout, None))
    assert cli_main(["witness", str(model_path), str(inp_path), "-o", str(tmp_path / "w.bin")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"error: {want}") and "Traceback" not in stderr
    assert not (tmp_path / "w.bin").exists()


@pytest.mark.parametrize("units, other_units", [(2, 3), (3, 2)])
def test_witness_for_a_model_of_other_shape_is_refused(units, other_units):
    """A model whose layer has another number of sites than the layout's
    plan is refused by name, whichever has more."""
    layout, _ = compile(_fc_model(units=units))
    other = _fc_model(units=other_units)
    with pytest.raises(arithmetize.WitnessError, match="layer 0 of the model does not match the layout's plan"):
        assign_witness(layout, other, _fc_input(other, random.Random(1)))


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
@pytest.mark.parametrize("seed", [110, 111, 14])
def test_site_plans_agree_with_region_rows(seed, mode):
    """The site_plans view, which the benchmark's row attribution reads,
    agrees with compile's own counts: per layer its distinct (group, row)
    pairs are the region's rows, and each site spans ceil(k / N) rows
    for its k taps, every row but the last holding N of them."""
    n = arithmetize.GATE_WIDTH
    g = random_model(random.Random(seed), max_hw=32, max_c=16, max_layers=5)
    layout, stats = compile(g, CompileConfig(mode=mode))
    rows: dict[int, set] = {}
    taps = {lp.layer: lp.taps[lp.chain].tolist() for lp in layout.plan.layer_plans}
    for site in layout.plan.site_plans:
        rows.setdefault(site.layer, set()).update((d.group, d.row) for d in site.rows)
        k = taps[site.layer][site.flat]
        assert [len(d.x_srcs) for d in site.rows] == [n] * (len(site.rows) - 1) + [k - n * (len(site.rows) - 1)]
        assert [len(d.w_ints) for d in site.rows] == [len(d.x_srcs) for d in site.rows]
        assert len(site.rows) == -(-k // n)
        assert [d.row for d in site.rows] == list(range(site.rows[0].row, site.div.row + 1))
    layers = [f"layer{lp.layer}" for lp in layout.plan.layer_plans]
    assert {f"layer{i}": len(r) for i, r in rows.items()} == {name: stats.regions[name]["rows"] for name in layers}


# --- array emission and the row budget -----------------------------------------

def _odd_chunk_model():
    """conv2d to C = 11 channels (chunks 6 + 5, two groups), a depthwise
    layer at stride 2 with uneven "same" padding, an fc to
    13 units (chunks 7 + 6) and the output."""
    rng = random.Random(11)
    unit = QuantParams(0, ScaleFactor(1, 1))
    q_in, q1, q2 = (QuantParams(z, ScaleFactor(1, 64)) for z in (5, 7, 11))

    def tensor(shape):
        return QuantTensor(shape, bytes(rng.randint(-6, 6) % 256 for _ in range(math.prod(shape))), unit)

    def bias(n):
        return tuple(rng.choice([0, rng.randint(-60, 60)]) for _ in range(n))

    layers = (
        Layer("conv2d", (INPUT_REF,), q1, tensor((11, 3, 2, 3)), bias(11), 1, "same"),   # (5,4,3) -> (5,4,11)
        Layer("depthwise_conv2d", (0,), q2, tensor((2, 3, 11)), bias(11), 2, "same"),   # -> (3,2,11)
        Layer("fully_connected", (1,), q1, tensor((13, 66)), bias(13)),                 # -> (1,1,13)
    )
    out = Layer("output", (2,), q1)
    return validate(ModelGraph(layers=(*layers, out), input_shape=(5, 4, 3), input_quant=q_in))


@pytest.mark.parametrize("mode", [None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS])
def test_array_emission_invariants_on_odd_chunks(mode):
    """A layer whose chunks fall in two groups (C = 11 -> 6 + 5, 13 -> 7 +
    6) emits its copies in order: per chain and row, its live x lanes,
    then per slot its w lanes (hidden weights) and its carry.  Each fixed
    column's rows strictly increase, a layer's region counts exactly its
    copies, and the honest witness checks clean."""
    g = _odd_chunk_model()
    layout, stats = compile(g, CompileConfig(mode=mode))
    assert {grp["slots"] for grp in stats.groups} >= {6, 5, 7, 1}
    for col in layout.fixed.values():
        rows = col.rows.tolist()
        assert rows == sorted(set(rows))
    names = layout.copies.names
    flat = layout.copies.flat.tolist()
    targets = list(zip((names[k] for k in flat[0::4]), flat[1::4]))
    hidden = mode is not None and mode.weights_hidden
    start = stats.regions["staging"]["copies"]
    n = arithmetize.GATE_WIDTH
    for lp in layout.plan.layer_plans:
        # The targets in copy order, written out one chain, row and slot
        # at a time.
        want = []
        for ch in range(len(lp.taps)):
            sites = np.flatnonzero(lp.chain == ch)
            grp, first, k = int(lp.group[sites[0]]), int(lp.first_row[sites[0]]), int(lp.taps[ch])
            for r, lo in enumerate(range(0, k, n)):
                lanes = range(min(n, k - lo))
                want += [(f"g{grp}:x{j}", first + r) for j in lanes]
                for s in range(len(sites)):
                    want += [(f"g{grp}:s{s}:w{j}", first + r) for j in lanes if hidden]
                    want.append((f"g{grp}:s{s}:carry", first + r))
        assert stats.regions[f"layer{lp.layer}"]["copies"] == len(want)
        assert targets[start : start + len(want)] == want
        start += len(want)
    assert check(layout, assign_witness(layout, g, random_input(random.Random(3), g))) == []


def _grid_row_cases():
    fields = (Field(), Field((1 << 89) - 1), Field(65537))
    fc = _fc_model(units=2, feat=31, weights=[(j % 7) - 3 for j in range(62)], bias=[5, -9])
    cases = [(g, mode, Field()) for g in [*table_models(), _odd_chunk_model()] for mode in MODES]
    cases += [(random_model(random.Random(seed)), mode, Field()) for seed in range(8) for mode in MODES]
    return cases + [(fc, mode, fld) for fld in fields for mode in MODES]


def test_row_budget_is_the_compiled_height():
    """The rows compile works out from the shapes before lowering are the
    logical rows it then spends, on every layer kind and mode and on
    fields of three pack widths."""
    for g, mode, fld in _grid_row_cases():
        cfg = CompileConfig(field=fld, mode=mode)
        keys = [i for i, layer in enumerate(g.layers) if layer.kind != "output"]
        sponge = cfg.sponge_params() if mode is not None else None
        assert arithmetize._grid_rows(g, keys, mode, sponge) == compile(g, cfg)[1].n_rows


def _oversize_model():
    """A (1100, 1100, 1) input and a 1x1 depthwise conv: 1,210,000 rows of
    one slot, a grid of 2^21 rows."""
    q = QuantParams(3, ScaleFactor(1, 64))
    dw = Layer("depthwise_conv2d", (INPUT_REF,), q, QuantTensor((1, 1, 1), bytes([2]), QuantParams(0, ScaleFactor(1, 1))), (5,), 1, "valid")
    return validate(ModelGraph(layers=(dw, Layer("output", (0,), q)), input_shape=(1100, 1100, 1), input_quant=q))


def test_oversize_grid_refused_before_lowering(monkeypatch, tmp_path):
    """compile refuses a grid over MAX_ROWS from the model's shapes,
    before it stages an input cell or lowers a layer; the CLI exits 2."""
    g = _oversize_model()

    def never(*args, **kwargs):
        raise AssertionError("lowering ran")

    monkeypatch.setattr(arithmetize, "_lower_layer", never)
    monkeypatch.setattr(arithmetize._Builder, "stage", never)
    with pytest.raises(CompileError, match=f"over the limit of MAX_ROWS = {arithmetize.MAX_ROWS}"):
        compile(g)
    model = tmp_path / "big.json"
    model.write_bytes(save_model(g))
    assert cli_main(["compile", str(model), "--layout", str(tmp_path / "big.layout")]) == 2
    assert not (tmp_path / "big.layout").exists()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
def test_prover_columns_check_as_their_file(seed, mode):
    """assign_witness gives each advice column as a `circuit.AdviceColumn`
    at its used length, the witness loader's form, and check reads the
    prover's assignment as it reads its file round trip: the honest
    witness and three tampered ones (two constrained advice cells and one
    instance value)."""
    rng = random.Random(seed)
    g = random_model(rng, max_hw=6, max_c=4, max_layers=3)
    layout, _ = compile(g, CompileConfig(mode=mode))
    p = layout.field.modulus
    honest = assign_witness(layout, g, random_input(rng, g))
    for vals in honest.advice.values():
        assert isinstance(vals, AdviceColumn) and len(vals) == layout.n_rows
        cells = vals.tolist()
        used = max((r + 1 for r, v in enumerate(cells) if v is not None), default=0)
        assert vals.length == used
        assert (vals.present is None) == (None not in cells[:used])
    witnesses = []
    for col, row in rng.sample(constrained_advice_cells(layout), 2):
        asg = copy.deepcopy(honest)
        asg.advice[col][row] = (asg.advice[col][row] + 1) % p
        witnesses.append(asg)
    asg = copy.deepcopy(honest)
    asg.instance[0] = (asg.instance[0] + 1) % p
    witnesses.append(asg)
    assert check(layout, honest) == []
    for asg in [honest, *witnesses]:
        loaded = serialize.load_witness(serialize.dump_witness(asg))
        got = check(layout, asg, cap=10_000)
        assert got == check(layout, loaded, cap=10_000)
        assert bool(got) == (asg is not honest)


# The golden digest table's models and modes (tests/test_golden_digests.py):
# seeds 0-7 at the default shapes in every mode, and seeds 110 and 111 at
# 32 x 16 x 5, public and hidden-weights.
GOLDEN_CASES = [(seed, None, mode) for seed in range(8) for mode in MODES] + [
    (seed, (32, 16, 5), mode) for seed in (110, 111) for mode in (None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
]


def _golden_model(seed, shape):
    rng = random.Random(seed)
    if shape is None:
        return random_model(rng)
    max_hw, max_c, max_layers = shape
    return random_model(rng, max_hw=max_hw, max_c=max_c, max_layers=max_layers)


def _naive_degree(e) -> int:
    """The degree by plain recursion, walking a shared subtree again at
    each of its uses."""
    if e.op in ("const", "cell"):
        return int(e.op == "cell")
    ds = [_naive_degree(a) for a in e.args]
    return {"add": max, "sub": max, "mul": sum}.get(e.op, lambda d: 5 * d[0])(ds)


@pytest.mark.parametrize("seed, shape, mode", GOLDEN_CASES)
def test_max_gate_degree_is_the_naive_degree(seed, shape, mode):
    layout, stats = compile(_golden_model(seed, shape), CompileConfig(mode=mode))
    want = max(1 + _naive_degree(g.poly) for g in layout.gates)
    assert layout.max_gate_degree() == stats.max_gate_degree == want


@pytest.mark.parametrize("seed, shape, mode", GOLDEN_CASES)
def test_witness_numbers_its_assigned_cells(seed, shape, mode):
    """The plan numbers the witness's cells 0 .. n-1, column by column in
    row order, each once; they are exactly the honest witness's assigned
    cells.  Each prover column has the form `AdviceColumn.of_list` gives
    its cells, and check reads the prover's assignment as its file round
    trip, honest and with three tampered cells (one in a column the model
    alone fixes, when there is one)."""
    g = _golden_model(seed, shape)
    layout, _ = compile(g, CompileConfig(mode=mode))
    plan, p = layout.plan, layout.field.modulus
    rng = random.Random(seed)
    honest = assign_witness(layout, g, random_input(rng, g))

    n = plan.n_cells
    cells = plan.cells(range(n))
    order = [(plan.advice_ids.index(c), r) for c, r in cells]
    assert order == sorted(set(order))
    assigned = [(c, r) for c, col in honest.advice.items() for r, v in enumerate(col.tolist()) if v is not None]
    assert sorted(cells) == sorted(assigned)
    for col_id in plan.advice_ids:
        got, want = honest.advice[col_id], AdviceColumn.of_list(honest.advice[col_id].tolist())
        assert (got.n_rows, got.length) == (want.n_rows, want.length)
        assert (got.present is None) == (want.present is None)
        assert got.present is None or np.array_equal(got.present, want.present)
        assert np.array_equal(got.cells, want.cells) and got.cells.dtype == want.cells.dtype
        assert got.outliers.tolist() == want.outliers.tolist()

    targets = rng.sample(cells, 3)
    model_cells = [(c, r) for c, r in cells if plan.advice_ids.index(c) in plan.model_forms]
    if model_cells:
        targets[0] = rng.choice(model_cells)
    assert check(layout, honest) == []
    for asg in [honest, *(copy.deepcopy(honest) for _ in targets)]:
        if asg is not honest:
            col, row = targets.pop()
            asg.advice[col][row] = (asg.advice[col][row] + 1) % p
        loaded = serialize.load_witness(serialize.dump_witness(asg))
        assert check(layout, asg, cap=10_000) == check(layout, loaded, cap=10_000)


def test_model_columns_are_shared_read_only():
    """On the benchmark's audit model, the columns the model alone fixes
    are split once at compile and shared by every witness: tampering one
    witness's cell there, as the benchmark does, leaves the next witness
    of the same layout as a fresh layout's, and writing into the shared
    cells in place raises."""
    g = random_model(random.Random(111), max_hw=32, max_c=16, max_layers=5)
    cfg = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
    layout, _ = compile(g, cfg)
    plan, p = layout.plan, layout.field.modulus
    assert len(plan.model_forms) == 83
    rng = random.Random(3)
    first, second = random_input(rng, g), random_input(rng, g)

    asg = assign_witness(layout, g, first)
    model_cells = [(c, r) for c, r in plan.cells(range(plan.n_cells)) if plan.advice_ids.index(c) in plan.model_forms]
    for col, row in model_cells[::500]:
        asg.advice[col][row] = (asg.advice[col][row] + 1) % p
    assert check(layout, asg) != []

    asg = assign_witness(layout, g, second)
    fresh, _ = compile(g, cfg)
    assert serialize.dump_witness(asg) == serialize.dump_witness(assign_witness(fresh, g, second))
    assert check(layout, asg) == []
    for col, _ in model_cells[::500]:
        cells, outliers = plan.model_forms[plan.advice_ids.index(col)]
        assert asg.advice[col].cells is cells and asg.advice[col].outliers is outliers
        with pytest.raises(ValueError, match="read-only"):
            asg.advice[col].cells[0] = 5



def _without_bytes(asg: Assignment) -> Assignment:
    """The same columns, arrays shared, carrying no cell column bytes."""
    return Assignment(
        advice={c: AdviceColumn(col.n_rows, col.length, col.present, (col.cells, col.outliers))
                for c, col in asg.advice.items()},
        instance=list(asg.instance),
    )


@pytest.mark.parametrize("seed, shape, mode", GOLDEN_CASES)
def test_carried_model_bytes_are_a_fresh_encoding(seed, shape, mode):
    """The columns the model alone fixes carry their bytes, encoded at
    compile, and every witness file equals the one written from the same
    columns with no bytes carried."""
    g = _golden_model(seed, shape)
    layout, _ = compile(g, CompileConfig(mode=mode))
    plan = layout.plan
    for inp in (random_input(random.Random(seed), g), random_input(random.Random(seed + 1), g)):
        asg = assign_witness(layout, g, inp)
        carrying = {plan.advice_ids.index(c) for c, col in asg.advice.items() if col.encoded() is not None}
        assert carrying == set(plan.model_forms)
        assert serialize.dump_witness(asg) == serialize.dump_witness(_without_bytes(asg))


def test_model_column_bytes_follow_a_tamper():
    """On the benchmark's audit model: a model column's cell written as
    the benchmark's tamper writes it is in the file and check reports it;
    the next witness of the layout is byte-equal to a fresh layout's; a
    column whose cells array is replaced is written from the new array."""
    g = random_model(random.Random(111), max_hw=32, max_c=16, max_layers=5)
    cfg = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
    layout, _ = compile(g, cfg)
    plan, p = layout.plan, layout.field.modulus
    rng = random.Random(27)
    first, second = random_input(rng, g), random_input(rng, g)
    model_cells = [(c, r) for c, r in plan.cells(range(plan.n_cells)) if plan.advice_ids.index(c) in plan.model_forms]

    asg = assign_witness(layout, g, first)
    col, row = rng.choice(model_cells)
    v = (asg.advice[col][row] + 1) % p
    asg.advice[col][row] = v
    assert asg.advice[col].encoded() is None
    loaded = serialize.load_witness(serialize.dump_witness(asg))
    assert loaded.advice[col][row] == v
    assert check(layout, loaded) != []

    asg = assign_witness(layout, g, second)
    fresh, _ = compile(g, cfg)
    assert serialize.dump_witness(asg) == serialize.dump_witness(assign_witness(fresh, g, second))

    column = asg.advice[col]
    k = int(np.count_nonzero(column.present[:row])) if column.present is not None else row
    cells = column.cells.copy()
    cells[k] = 0 if cells[k] != 0 else 1
    column.cells = cells
    assert column.encoded() is None
    loaded = serialize.load_witness(serialize.dump_witness(asg))
    assert loaded.advice[col] == column and loaded.advice[col][row] != assign_witness(layout, g, second).advice[col][row]


def test_fixed_cells_zero_mod_p_set_nothing():
    """A fixed value that is 0 mod p sets no cell: a bias equal to p on
    p = 65537 (lowered alone, since compile refuses an accumulator that
    large on such a field), a zero point z_in of 0 and a piece of one int
    that is a multiple of p."""
    p = 65537
    g = _fc_model(units=2, feat=2, bias=(p, 3))
    bld = arithmetize._Builder(g, CompileConfig(field=Field(p)))
    _, _, input_cells = bld.stage(np.array([2]), None)
    arithmetize._lower_layer(bld, 0, ("clip", 1, 2, 0, 0, 300), {INPUT_REF: input_cells})
    const = {c: [v.tolist() for _, v in bld.fixed[c]] for c in ("g0:s0:const", "g0:s1:const")}
    assert const == {"g0:s0:const": [[]], "g0:s1:const": [[], [3]]}
    zero = bld.col_number["zero"]
    for v in (0, p, -2 * p):
        bld.put_fixed([(np.array([zero]), np.array([0]), v)])
    assert [len(r) for r, _ in bld.fixed["zero"]] == [0]

    for z, rows in ((0, 0), (7, 1)):
        gz = dataclasses.replace(g, input_quant=QuantParams(z, g.input_quant.scale))
        gz = validate(dataclasses.replace(gz, layers=(dataclasses.replace(gz.layers[0], bias=(1, 3)), gz.layers[1])))
        layout, _ = compile(gz, CompileConfig(field=Field(p)))
        assert len(layout.fixed["g0:z"].rows) == rows
        assert check(layout, assign_witness(layout, gz, _fc_input(gz, random.Random(z)))) == []
        serialize.load_layout(serialize.dump_layout(layout))


def test_small_values_stay_off_the_python_int_split(monkeypatch):
    """The fast path stays on: with `circuit._wide_split` raising, prove_public's
    model compiles and witnesses, and so does audit_batch's witness, whose
    file hands the encoder only its 56 columns the model does not fix and
    the instance."""
    g_pub = random_model(random.Random(110), max_hw=32, max_c=16, max_layers=5)
    g_audit = random_model(random.Random(111), max_hw=32, max_c=16, max_layers=5)
    audit, _ = compile(g_audit, CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS))

    def refuse(objs):
        raise AssertionError("split on Python ints")

    monkeypatch.setattr(circuit, "_wide_split", refuse)
    layout, _ = compile(g_pub)
    assert check(layout, assign_witness(layout, g_pub, random_input(random.Random(1), g_pub))) == []
    asg = assign_witness(audit, g_audit, random_input(random.Random(1), g_audit))
    monkeypatch.undo()

    handed = []

    def encode(columns):
        handed.append(columns)
        return circuit.encode_cell_columns(columns)

    monkeypatch.setattr(serialize, "encode_cell_columns", encode)
    raw = serialize.dump_witness(asg)
    [columns] = handed
    assert len(asg.advice) == 139 and len(audit.plan.model_forms) == 83 and len(columns) == 57
    own = [col for j, col in enumerate(audit.plan.advice_ids) if j not in audit.plan.model_forms]
    assert all(form[0] is asg.advice[c].cells for (form, _, _), c in zip(columns, sorted(own)))
    assert raw == serialize.dump_witness(_without_bytes(asg))
