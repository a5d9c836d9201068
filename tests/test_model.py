import base64
import json

import pytest

from zkgrid.model import (
    INPUT_REF,
    Layer,
    ModelFormatError,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    accumulator_bounds,
    load_model,
    save_model,
    validate,
)


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def _minimal_fc_doc():
    return {
        "version": 1,
        "input_shape": [1, 1, 2],
        "input_quant": {"zero_point": 0, "scale": {"a": 1, "b": 1}},
        "layers": [
            {
                "kind": "fully_connected",
                "inputs": [-1],
                "weights": {"shape": [1, 2], "data_b64": _b64(bytes([1, 2]))},
                "bias": [0],
                "out_quant": {"zero_point": 0, "scale": {"a": 1, "b": 1}},
            },
            {
                "kind": "output",
                "inputs": [0],
                "out_quant": {"zero_point": 0, "scale": {"a": 1, "b": 1}},
            },
        ],
    }


def test_load_minimal_fc():
    g = load_model(json.dumps(_minimal_fc_doc()))
    assert [l.kind for l in g.layers] == ["fully_connected", "output"]
    assert g.output_shapes == ((1,), (1,))


def test_zero_scale_denominator_rejected():
    doc = _minimal_fc_doc()
    doc["layers"][0]["out_quant"]["scale"]["b"] = 0
    with pytest.raises(ModelFormatError, match="invalid scale factor"):
        load_model(json.dumps(doc))


def test_conv_channel_mismatch_rejected():
    doc = {
        "version": 1,
        "input_shape": [4, 4, 3],
        "input_quant": {"zero_point": 0, "scale": {"a": 1, "b": 1}},
        "layers": [
            {
                "kind": "conv2d",
                "inputs": [-1],
                # weights claim 2 input channels; the tensor has 3
                "weights": {"shape": [1, 3, 3, 2], "data_b64": _b64(bytes(18))},
                "bias": [0],
                "stride": 1,
                "padding": "valid",
                "out_quant": {"zero_point": 0, "scale": {"a": 1, "b": 4}},
            },
            {"kind": "output", "inputs": [0], "out_quant": {"zero_point": 0, "scale": {"a": 1, "b": 1}}},
        ],
    }
    with pytest.raises(ModelFormatError, match="channels"):
        load_model(json.dumps(doc))


def test_unknown_fields_rejected():
    doc = _minimal_fc_doc()
    doc["surprise"] = 1
    with pytest.raises(ModelFormatError, match="unknown top-level"):
        load_model(json.dumps(doc))
    doc = _minimal_fc_doc()
    doc["layers"][0]["extra"] = True
    with pytest.raises(ModelFormatError, match="unknown fields"):
        load_model(json.dumps(doc))


def test_activation_field_rejected():
    """Layers have no activation tag: the clip to [0, 255] is part of
    every requantizing layer, so the key is refused like any other."""
    doc = _minimal_fc_doc()
    doc["layers"][0]["activation"] = "clip_relu"
    with pytest.raises(ModelFormatError, match="activation"):
        load_model(json.dumps(doc))
    assert b"activation" not in save_model(load_model(json.dumps(_minimal_fc_doc())))


def test_dangling_ref_rejected():
    doc = _minimal_fc_doc()
    doc["layers"][0]["inputs"] = [5]
    with pytest.raises(ModelFormatError, match="dangling"):
        load_model(json.dumps(doc))


def test_save_load_round_trip():
    g = load_model(json.dumps(_minimal_fc_doc()))
    blob = save_model(g)
    g2 = load_model(blob)
    assert g2 == g
    assert save_model(g2) == blob  # byte-normalized fixed point


def test_save_load_round_trip_random_models():
    import random

    from zkgrid.modelgen import random_model

    rng = random.Random(77)
    for _ in range(20):
        g = random_model(rng, max_hw=8, max_c=4)
        blob = save_model(g)
        g2 = load_model(blob)
        assert g2 == g
        assert save_model(g2) == blob


# --- shape inference ---------------------------------------------------------

def _conv_graph(in_shape, kind, wshape, stride, padding):
    n = 1
    for d in wshape:
        n *= d
    oc = wshape[0] if kind == "conv2d" else wshape[2]
    layers = (
        Layer(
            kind=kind,
            input_refs=(INPUT_REF,),
            out_quant=QuantParams(0, ScaleFactor(1, 16)),
            weights=QuantTensor(shape=wshape, data=bytes([1] * n), quant=QuantParams(0, ScaleFactor(1, 1))),
            bias=tuple([0] * oc),
            stride=stride,
            padding=padding,
        ),
        Layer(kind="output", input_refs=(0,), out_quant=QuantParams(0, ScaleFactor(1, 16))),
    )
    return validate(
        ModelGraph(layers=layers, input_shape=in_shape, input_quant=QuantParams(0, ScaleFactor(1, 16)))
    )


def test_conv_shape_valid_padding():
    g = _conv_graph((8, 8, 1), "conv2d", (5, 3, 3, 1), 1, "valid")
    assert g.output_shapes[0] == (6, 6, 5)


def test_depthwise_shape_same_stride2():
    # ceil(96 / 2) = 48 in both spatial dims
    g = _conv_graph((96, 96, 8), "depthwise_conv2d", (3, 3, 8), 2, "same")
    assert g.output_shapes[0] == (48, 48, 8)


def test_fc_shape_after_flatten():
    doc = _minimal_fc_doc()
    doc["input_shape"] = [6, 6, 4]
    doc["layers"][0]["weights"] = {"shape": [10, 144], "data_b64": _b64(bytes(1440))}
    doc["layers"][0]["bias"] = [0] * 10
    g = load_model(json.dumps(doc))
    assert g.output_shapes[0] == (10,)


def test_nonpositive_output_dim_rejected():
    with pytest.raises(ModelFormatError, match="non-positive"):
        _conv_graph((2, 2, 1), "conv2d", (1, 3, 3, 1), 1, "valid")


# --- accumulator bounds ------------------------------------------------------

def _single_tap_graph(z, w_byte):
    layers = (
        Layer(
            kind="conv2d",
            input_refs=(INPUT_REF,),
            out_quant=QuantParams(0, ScaleFactor(1, 16)),
            weights=QuantTensor(shape=(1, 1, 1, 1), data=bytes([w_byte]), quant=QuantParams(0, ScaleFactor(1, 1))),
            bias=(0,),
        ),
        Layer(kind="output", input_refs=(0,), out_quant=QuantParams(0, ScaleFactor(1, 16))),
    )
    return validate(
        ModelGraph(layers=layers, input_shape=(1, 1, 1), input_quant=QuantParams(z, ScaleFactor(1, 16)))
    )


def test_bounds_single_tap_z0():
    g = _single_tap_graph(0, 1)
    assert accumulator_bounds(g)[0] == (0, 255)


def test_bounds_single_tap_z255():
    g = _single_tap_graph(255, 1)
    assert accumulator_bounds(g)[0] == (-255, 0)


def test_bounds_nine_tap_conv_z128():
    # 9 unit weights, z = 128: extremes -9*128 and 9*127
    layers = (
        Layer(
            kind="conv2d",
            input_refs=(INPUT_REF,),
            out_quant=QuantParams(0, ScaleFactor(1, 16)),
            weights=QuantTensor(shape=(1, 3, 3, 1), data=bytes([1] * 9), quant=QuantParams(0, ScaleFactor(1, 1))),
            bias=(0,),
        ),
        Layer(kind="output", input_refs=(0,), out_quant=QuantParams(0, ScaleFactor(1, 16))),
    )
    g = validate(
        ModelGraph(layers=layers, input_shape=(3, 3, 1), input_quant=QuantParams(128, ScaleFactor(1, 16)))
    )
    assert accumulator_bounds(g)[0] == (-9 * 128, 9 * 127)


def test_bounds_match_bruteforce_oracle():
    """Interval arithmetic equals brute force over x in {0, 255} per tap."""
    import itertools
    import random

    rng = random.Random(5)
    for _ in range(30):
        z = rng.randint(0, 255)
        taps = [rng.randint(-127, 127) for _ in range(rng.randint(1, 6))]
        data = bytes(t & 0xFF for t in taps)
        layers = (
            Layer(
                kind="fully_connected",
                input_refs=(INPUT_REF,),
                out_quant=QuantParams(0, ScaleFactor(1, 64)),
                weights=QuantTensor(shape=(1, len(taps)), data=data, quant=QuantParams(0, ScaleFactor(1, 1))),
                bias=(0,),
            ),
            Layer(kind="output", input_refs=(0,), out_quant=QuantParams(0, ScaleFactor(1, 64))),
        )
        g = validate(
            ModelGraph(
                layers=layers,
                input_shape=(1, 1, len(taps)),
                input_quant=QuantParams(z, ScaleFactor(1, 64)),
            )
        )
        lo, hi = accumulator_bounds(g)[0]
        vals = [
            sum((x - z) * w for x, w in zip(xs, taps))
            for xs in itertools.product((0, 255), repeat=len(taps))
        ]
        assert lo == min(vals)
        assert hi == max(vals)


def test_residual_quant_mismatch_rejected():
    q1 = QuantParams(10, ScaleFactor(1, 16))
    q2 = QuantParams(11, ScaleFactor(1, 16))
    conv = Layer(
        kind="conv2d",
        input_refs=(INPUT_REF,),
        out_quant=q2,
        weights=QuantTensor(shape=(1, 1, 1, 1), data=bytes([1]), quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=(0,),
    )
    res = Layer(kind="residual_add", input_refs=(INPUT_REF, 0), out_quant=QuantParams(10, ScaleFactor(1, 1)))
    out = Layer(kind="output", input_refs=(1,), out_quant=q1)
    with pytest.raises(ModelFormatError, match="share quant"):
        validate(ModelGraph(layers=(conv, res, out), input_shape=(1, 1, 1), input_quant=q1))


def test_weight_zero_point_must_be_zero():
    conv = Layer(
        kind="conv2d",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(0, ScaleFactor(1, 16)),
        weights=QuantTensor(shape=(1, 1, 1, 1), data=bytes([1]), quant=QuantParams(3, ScaleFactor(1, 1))),
        bias=(0,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=QuantParams(0, ScaleFactor(1, 16)))
    graph = ModelGraph(
        layers=(conv, out), input_shape=(1, 1, 1), input_quant=QuantParams(0, ScaleFactor(1, 16))
    )
    with pytest.raises(ModelFormatError, match="zero point must be 0"):
        validate(graph)
