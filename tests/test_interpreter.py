import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import naive_layer_oracle
from zkgrid.interpreter import InferenceError, clip_and_scale, run_inference
from zkgrid.model import QuantTensor, ScaleFactor, accumulator_bounds
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
    """Independently written nested-loop inference agrees exactly."""
    rng = random.Random(123)
    for _ in range(25):
        g = random_model(rng, max_hw=8, max_c=4, max_layers=4)
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
