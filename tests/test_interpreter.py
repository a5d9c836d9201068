import json
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import naive_layer_oracle, table_models
from zkgrid.arithmetize import assign_witness, compile
from zkgrid.checker import check
from zkgrid.cli import main
from zkgrid.interpreter import InferenceError, clip_and_scale, run_inference, scale_fits_int64
from zkgrid.model import (
    INPUT_REF,
    Layer,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    accumulator_bounds,
    save_model,
    save_tensor,
    validate,
)
from zkgrid.modelgen import identity_model, random_input, random_model, two_tap_fc_model


def test_clip_and_scale_examples():
    assert clip_and_scale(100, ScaleFactor(1, 3), 0) == 33
    assert clip_and_scale(-50, ScaleFactor(2, 4), 0) == 0
    assert clip_and_scale(1000, ScaleFactor(1, 2), 10) == 255


def test_clip_and_scale_floors_toward_minus_infinity():
    # -7/2 floors to -4, clipping to 0; 7/2 floors to 3
    assert clip_and_scale(-7, ScaleFactor(1, 2), 4) == 0  # -4 + 4 = 0
    assert clip_and_scale(7, ScaleFactor(1, 2), 0) == 3
    assert clip_and_scale(-1, ScaleFactor(1, 3), 1) == 0  # floor(-1/3) = -1


@given(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=1024),
    st.integers(min_value=0, max_value=255),
)
def test_clip_and_scale_monotone_in_c(c, a, b, z):
    s = ScaleFactor(a, b)
    assert clip_and_scale(c, s, z) <= clip_and_scale(c + 1, s, z)


def test_identity_conv():
    g = identity_model()
    inp = QuantTensor(shape=(1, 1, 1), data=bytes([7]), quant=g.input_quant)
    tr = run_inference(g, inp)
    assert tr.layers[0].act.reshape(-1).tolist() == [7]
    assert tr.logits.tolist() == [7]


def test_two_tap_fc_worked_example():
    g = two_tap_fc_model()
    inp = QuantTensor(shape=(1, 1, 2), data=bytes([2, 3]), quant=g.input_quant)
    tr = run_inference(g, inp)
    assert tr.layers[0].acc.tolist() == [14]  # (2-1)*4 + (3-1)*5
    assert tr.layers[0].act.tolist() == [7]   # floor(14/2)
    assert tr.logits.tolist() == [14]


def test_input_shape_mismatch_raises():
    g = identity_model()
    bad = QuantTensor(shape=(1, 1, 2), data=bytes([1, 2]), quant=g.input_quant)
    with pytest.raises(InferenceError):
        run_inference(g, bad)


def test_trace_matches_naive_oracle_on_random_models():
    """Independently written nested-loop inference agrees exactly, on
    random models and on the models that hold even kernels, uneven "same"
    padding and stride 2."""
    rng = random.Random(123)

    def models():
        for _ in range(25):
            yield random_model(rng, max_hw=8, max_c=4, max_layers=4)
        yield from table_models()

    for g in models():
        inp = random_input(rng, g)
        tr = run_inference(g, inp)
        accs, acts, logits = naive_layer_oracle(g, list(inp.data))
        for li in range(len(g.layers)):
            assert tr.layers[li].acc.reshape(-1).tolist() == list(accs[li]), f"layer {li} acc"
            assert tr.layers[li].act.reshape(-1).tolist() == list(acts[li]), f"layer {li} act"
        assert tr.logits.tolist() == list(logits)


def test_determinism():
    rng = random.Random(9)
    g = random_model(rng, max_hw=6, max_c=3)
    inp = random_input(rng, g)
    t1 = run_inference(g, inp)
    t2 = run_inference(g, inp)
    for a, b in zip(t1.layers, t2.layers):
        assert np.array_equal(a.acc, b.acc)
        assert np.array_equal(a.act, b.act)
    assert np.array_equal(t1.logits, t2.logits)


def test_accumulators_within_bounds_property():
    """Cross-module property: every observed accumulator sits inside the
    worst-case interval, over random models and 100 random inputs."""
    rng = random.Random(31337)
    g = random_model(rng, max_hw=6, max_c=4, max_layers=3)
    bounds = accumulator_bounds(g)
    for _ in range(100):
        inp = random_input(rng, g)
        tr = run_inference(g, inp)
        for li, layer in enumerate(g.layers):
            if layer.kind == "output":
                continue
            lo, hi = bounds[li]
            acc = tr.layers[li].acc
            assert acc.min() >= lo and acc.max() <= hi


def test_activations_are_bytes():
    rng = random.Random(4)
    for _ in range(5):
        g = random_model(rng, max_hw=6, max_c=3)
        inp = random_input(rng, g)
        tr = run_inference(g, inp)
        for lt in tr.layers:
            assert lt.act.dtype == np.uint8


def test_bounds_worked_out_once_per_graph(monkeypatch):
    """A validated graph keeps its accumulator bounds and signed weights:
    two inferences give the same trace and only the first calls
    `model.dot_bounds`.  An unvalidated copy keeps nothing."""
    from dataclasses import replace

    from zkgrid import model

    calls = []
    real = model.dot_bounds
    monkeypatch.setattr(model, "dot_bounds", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(12)
    g = random_model(rng, max_hw=6, max_c=3, max_layers=4)
    inp = random_input(rng, g)
    first = run_inference(g, inp)
    n = len(calls)
    assert n == sum(layer.weights is not None for layer in g.layers) > 0
    second = run_inference(g, inp)
    assert len(calls) == n
    assert np.array_equal(first.logits, second.logits)
    for a, b in zip(first.layers, second.layers):
        assert np.array_equal(a.acc, b.acc) and np.array_equal(a.act, b.act)
    assert g.bounds == accumulator_bounds(g)
    assert list(g.signed_weights) == [None if l.weights is None else l.weights.signed_values() for l in g.layers]
    bare = replace(g, output_shapes=())
    assert bare.signed_weights == g.signed_weights and "_signed_weights" not in bare.__dict__


def _wide_scale_model(a: int, b: int):
    """One fc unit with zero weights and bias 2^30 at scale a/b: the
    accumulator is 2^30 on every input, so acc * a leaves int64 once
    a >= 2^33."""
    fc = Layer(
        kind="fully_connected",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(0, ScaleFactor(a, b)),
        weights=QuantTensor(shape=(1, 2), data=bytes(2), quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=(1 << 30,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=fc.out_quant)
    return validate(ModelGraph(layers=(fc, out), input_shape=(1, 1, 2), input_quant=QuantParams(0, ScaleFactor(1, 1))))


@pytest.mark.parametrize("a, b", [(1 << 40, 1 << 20), (1 << 71, 1 << 20)])
def test_scale_step_exact_past_int64(tmp_path, capsys, a, b):
    """The scale step gives the exact activations where acc * a leaves
    int64 (it used to wrap to act 0 at a = 2^40, and to raise
    OverflowError at a = 2^71), in the interpreter and through `infer`,
    and the honest witness, whose DIV step follows the same rule, checks
    clean."""
    g = _wide_scale_model(a, b)
    assert not scale_fits_int64(g.bounds[0], a)
    want = [clip_and_scale(1 << 30, ScaleFactor(a, b), 0)]
    assert want == [255]
    inp = QuantTensor(shape=(1, 1, 2), data=bytes([9, 200]), quant=g.input_quant)
    assert run_inference(g, inp).layers[0].act.reshape(-1).tolist() == want

    model_path, inp_path, out = tmp_path / "model.json", tmp_path / "input.json", tmp_path / "trace.json"
    model_path.write_bytes(save_model(g))
    inp_path.write_bytes(save_tensor(inp))
    assert main(["infer", str(model_path), str(inp_path), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["layers"][0]["act"] == want
    assert capsys.readouterr().err == ""
    layout, _ = compile(g)
    assert check(layout, assign_witness(layout, g, inp)) == []


def test_scale_fits_int64_boundary():
    assert scale_fits_int64((-(1 << 31), 1 << 31), 1 << 31) is True
    assert scale_fits_int64((-(1 << 31), 1 << 31), 1 << 32) is False
    assert scale_fits_int64((-3, 2), (1 << 63) // 3) is True
    assert scale_fits_int64((-3, 2), (1 << 63) // 3 + 1) is False
    # a must fit even when every accumulator is 0
    assert scale_fits_int64((0, 0), 1 << 63) is False
