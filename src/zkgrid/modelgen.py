"""Random small model graphs and inputs for property testing and the
bundled self test.

Generated models keep every layer on one global scale denominator and
pick numerators so activations use most of the byte range, which keeps
clip tables small and exercises saturation on both ends.
"""

from __future__ import annotations

import random

from .model import (
    INPUT_REF,
    Layer,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    dot_bounds,
    validate,
)


def _i8_bytes(rng: random.Random, n: int, lim: int = 127) -> bytes:
    return bytes((rng.randint(-lim, lim)) & 0xFF for _ in range(n))


def _pick_scale(rng: random.Random, b: int, lo: int, hi: int) -> ScaleFactor:
    span = max(hi - lo, 1)
    target = rng.randint(120, 300)
    a = max(1, (b * target) // span)
    return ScaleFactor(a=a, b=b)


def random_model(
    rng: random.Random,
    max_hw: int = 16,
    max_c: int = 8,
    max_layers: int = 4,
    scale_denom: int | None = None,
) -> ModelGraph:
    """A random 1..max_layers model over conv, depthwise, fc, residual
    and global average pooling, with consistent shapes and quant params."""
    b = scale_denom or rng.choice([64, 128, 256, 512, 1024])
    # Bias toward small dims so property runs stay quick.
    h = min(rng.randint(2, max_hw), rng.randint(2, max_hw))
    w = min(rng.randint(2, max_hw), rng.randint(2, max_hw))
    c = min(rng.randint(1, max_c), rng.randint(1, max_c))
    input_quant = QuantParams(zero_point=rng.randint(0, 255), scale=ScaleFactor(1, b))
    n_layers = rng.randint(1, max_layers)

    layers: list[Layer] = []
    cur_ref, cur_shape, cur_quant = INPUT_REF, (h, w, c), input_quant

    def conv_like(kind: str) -> Layer:
        nonlocal cur_ref, cur_shape, cur_quant
        ch, cw, cc = cur_shape
        k = rng.choice([1, 3]) if min(ch, cw) >= 3 else 1
        stride = rng.choice([1, 2]) if min(ch, cw) > k else 1
        padding = rng.choice(["same", "valid"])
        z_in = cur_quant.zero_point
        if kind == "conv2d":
            oc = min(rng.randint(1, max_c), rng.randint(1, max_c))
            wt = _i8_bytes(rng, oc * k * k * cc)
            shape = (oc, k, k, cc)
        else:
            oc = cc
            wt = _i8_bytes(rng, k * k * cc)
            shape = (k, k, cc)
        signed = [v - 256 if v >= 128 else v for v in wt]
        bias = tuple(rng.randint(-4000, 4000) for _ in range(oc))
        lo, hi = dot_bounds(kind, shape, signed, bias, z_in)
        out_quant = QuantParams(
            zero_point=rng.randint(0, 160), scale=_pick_scale(rng, b, lo, hi)
        )
        # This draw once picked a per-layer activation tag, which the model
        # format no longer has.  It stays so that every seeded model (the
        # benchmark's seeds 110, 111 and 14, and every test seed) is
        # unchanged: dropping it would shift the rest of the rng stream.
        rng.choice(("clip_relu", "none"))
        return Layer(
            kind=kind,
            input_refs=(cur_ref,),
            out_quant=out_quant,
            weights=QuantTensor(shape=shape, data=wt, quant=QuantParams(0, ScaleFactor(1, 1))),
            bias=bias,
            stride=stride,
            padding=padding,
        )

    budget = n_layers
    while budget > 0:
        ch, cw, cc = cur_shape if len(cur_shape) == 3 else (0, 0, 0)
        options = []
        if len(cur_shape) == 3:
            options += ["conv2d", "depthwise_conv2d"]
            if budget >= 2 and cur_ref != INPUT_REF and min(ch, cw) >= 1:
                options.append("resblock")
            if ch * cw > 1:
                options.append("average_pool")
        options.append("fully_connected")
        choice = rng.choice(options)

        if choice in ("conv2d", "depthwise_conv2d"):
            layer = conv_like(choice)
            layers.append(layer)
            cur_ref = len(layers) - 1
            # recompute shape via a cheap local inference
            g = ModelGraph(
                layers=tuple(layers) + (Layer(kind="output", input_refs=(cur_ref,), out_quant=layer.out_quant),),
                input_shape=(h, w, c),
                input_quant=input_quant,
            )
            cur_shape = validate(g).output_shapes[cur_ref]
            cur_quant = layer.out_quant
            budget -= 1
        elif choice == "resblock":
            # shape-preserving conv matching the current quant, then add
            base_ref, base_shape, base_quant = cur_ref, cur_shape, cur_quant
            ch, cw, cc = base_shape
            k = 1
            wt = _i8_bytes(rng, cc * k * k * cc, lim=32)
            bias = tuple(rng.randint(-500, 500) for _ in range(cc))
            conv = Layer(
                kind="conv2d",
                input_refs=(base_ref,),
                out_quant=base_quant,
                weights=QuantTensor(shape=(cc, k, k, cc), data=wt, quant=QuantParams(0, ScaleFactor(1, 1))),
                bias=bias,
                stride=1,
                padding="same",
            )
            layers.append(conv)
            res = Layer(
                kind="residual_add",
                input_refs=(base_ref, len(layers) - 1),
                out_quant=QuantParams(zero_point=base_quant.zero_point, scale=ScaleFactor(1, 1)),
            )
            layers.append(res)
            cur_ref = len(layers) - 1
            cur_quant = res.out_quant
            budget -= 2
        elif choice == "average_pool":
            pool = Layer(kind="average_pool", input_refs=(cur_ref,), out_quant=cur_quant)
            layers.append(pool)
            cur_ref = len(layers) - 1
            cur_shape = (1, 1, cur_shape[2])
            budget -= 1
        else:  # fully_connected
            feat = 1
            for d in cur_shape:
                feat *= d
            units = rng.randint(1, 10)
            wt = _i8_bytes(rng, units * feat)
            signed = [v - 256 if v >= 128 else v for v in wt]
            bias = tuple(rng.randint(-4000, 4000) for _ in range(units))
            z_in = cur_quant.zero_point
            lo, hi = dot_bounds("fully_connected", (units, feat), signed, bias, z_in)
            fc = Layer(
                kind="fully_connected",
                input_refs=(cur_ref,),
                out_quant=QuantParams(zero_point=rng.randint(0, 160), scale=_pick_scale(rng, b, lo, hi)),
                weights=QuantTensor(shape=(units, feat), data=wt, quant=QuantParams(0, ScaleFactor(1, 1))),
                bias=bias,
            )
            layers.append(fc)
            cur_ref = len(layers) - 1
            cur_shape = (units,)
            cur_quant = fc.out_quant
            budget = 0  # fc ends the feature extractor

    out = Layer(kind="output", input_refs=(cur_ref,), out_quant=cur_quant)
    layers.append(out)
    graph = ModelGraph(layers=tuple(layers), input_shape=(h, w, c), input_quant=input_quant)
    return validate(graph)


def random_parameterized_model(rng: random.Random, **kwargs) -> ModelGraph:
    """Like random_model, but guaranteed to carry at least one weight
    tensor, as hidden-weights compilation requires."""
    while True:
        g = random_model(rng, **kwargs)
        if any(l.weights is not None for l in g.layers):
            return g


def random_input(rng: random.Random, graph: ModelGraph) -> QuantTensor:
    n = 1
    for d in graph.input_shape:
        n *= d
    return QuantTensor(
        shape=graph.input_shape,
        data=bytes(rng.randint(0, 255) for _ in range(n)),
        quant=graph.input_quant,
    )


def identity_model() -> ModelGraph:
    """1x1 unit conv: activation equals the input pixel."""
    conv = Layer(
        kind="conv2d",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(zero_point=0, scale=ScaleFactor(1, 1)),
        weights=QuantTensor(shape=(1, 1, 1, 1), data=bytes([1]), quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=(0,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=conv.out_quant)
    return validate(
        ModelGraph(
            layers=(conv, out),
            input_shape=(1, 1, 1),
            input_quant=QuantParams(zero_point=0, scale=ScaleFactor(1, 1)),
        )
    )


def two_tap_fc_model() -> ModelGraph:
    """fc over [x1, x2] with z=1, w=[4, 5], halving scale: a worked example."""
    fc = Layer(
        kind="fully_connected",
        input_refs=(INPUT_REF,),
        out_quant=QuantParams(zero_point=0, scale=ScaleFactor(1, 2)),
        weights=QuantTensor(shape=(1, 2), data=bytes([4, 5]), quant=QuantParams(0, ScaleFactor(1, 1))),
        bias=(0,),
    )
    out = Layer(kind="output", input_refs=(0,), out_quant=fc.out_quant)
    return validate(
        ModelGraph(
            layers=(fc, out),
            input_shape=(1, 1, 2),
            input_quant=QuantParams(zero_point=1, scale=ScaleFactor(1, 2)),
        )
    )
