"""Integer-exact quantized inference.

This is the behavioral oracle the compiled circuit must agree with.  All
arithmetic is exact: int64 accumulators, floor division toward minus
infinity for the scale step, saturation to [0, 255] for activations.
The scale step acc * a runs in int64 only when it cannot overflow, that
is when max(1, max|bound|) * a < 2^63 for the layer's accumulator
bound, and on Python ints otherwise (`scale_fits_int64`).

A conv or depthwise layer is one windowed product: a sliding-window view
of the padded input, then one int64 `tensordot` or `einsum` over every
output position.  Integer products do not go through BLAS, so they are
exact.  Being the oracle, the interpreter reads nothing compile derives
(no tap table, no witness plan).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import INPUT_REF, ModelGraph, QuantTensor, ScaleFactor


class InferenceError(ValueError):
    pass


def clip_and_scale(c: int, s: ScaleFactor, z_out: int, lo: int = 0, hi: int = 255) -> int:
    """clip(floor(c * a / b) + z_out, lo, hi); floor is toward -inf."""
    return min(hi, max(lo, (c * s.a) // s.b + z_out))


def scale_fits_int64(bound: tuple[int, int], a: int) -> bool:
    """Whether a and acc * a fit int64 for every accumulator within `bound`."""
    return max(1, *map(abs, bound)) * a < 1 << 63


def _clip_and_scale_arr(acc: np.ndarray, s: ScaleFactor, z_out: int, bound: tuple[int, int]) -> np.ndarray:
    if not scale_fits_int64(bound, s.a):
        acc = acc.astype(object)
    d = (acc * s.a) // s.b  # np floor_divide rounds toward -inf, matching //
    return np.clip(d + z_out, 0, 255).astype(np.uint8)


@dataclass(frozen=True)
class LayerTrace:
    acc: np.ndarray  # signed accumulators, layer output shape
    act: np.ndarray  # uint8 activations, layer output shape


@dataclass(frozen=True)
class InferenceTrace:
    layers: tuple[LayerTrace, ...]
    logits: np.ndarray  # signed ints, flattened output accumulators


def _pad_same(x: np.ndarray, kh: int, kw: int, stride: int, fill: int) -> tuple[np.ndarray, int, int]:
    h, w = x.shape[0], x.shape[1]
    oh, ow = -(-h // stride), -(-w // stride)
    ph = max((oh - 1) * stride + kh - h, 0)
    pw = max((ow - 1) * stride + kw - w, 0)
    top, left = ph // 2, pw // 2
    pad = ((top, ph - top), (left, pw - left)) + ((0, 0),) * (x.ndim - 2)
    return np.pad(x, pad, constant_values=fill), oh, ow


def _windows(x: np.ndarray, kh: int, kw: int, z: int, stride: int, padding: str) -> np.ndarray:
    """Every kernel window of x - z, as a (oh, ow, c, kh, kw) view."""
    if padding == "same":
        # Padding with the zero point makes padded taps contribute zero.
        x, oh, ow = _pad_same(x, kh, kw, stride, z)
    else:
        oh = (x.shape[0] - kh) // stride + 1
        ow = (x.shape[1] - kw) // stride + 1
    win = np.lib.stride_tricks.sliding_window_view(x.astype(np.int64) - z, (kh, kw), axis=(0, 1))
    return win[: (oh - 1) * stride + 1 : stride, : (ow - 1) * stride + 1 : stride]


def _conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray, z: int, stride: int, padding: str) -> np.ndarray:
    _, kh, kw, _ = w.shape
    # One int64 product over every window; integer products skip BLAS, so
    # it is exact.
    return np.tensordot(_windows(x, kh, kw, z, stride, padding), w, axes=([2, 3, 4], [3, 1, 2])) + bias


def _depthwise(x: np.ndarray, w: np.ndarray, bias: np.ndarray, z: int, stride: int, padding: str) -> np.ndarray:
    kh, kw, _ = w.shape
    return np.einsum("ijcrs,rsc->ijc", _windows(x, kh, kw, z, stride, padding), w) + bias


def run_inference(graph: ModelGraph, inp: QuantTensor) -> InferenceTrace:
    """Run the graph and return the full per-layer trace plus logits.
    Every accumulator is checked against its layer's worst-case bounds."""
    if tuple(inp.shape) != tuple(graph.input_shape):
        raise InferenceError(f"input shape {inp.shape} != graph input {graph.input_shape}")
    if inp.quant != graph.input_quant:
        raise InferenceError("input quant params do not match the graph")
    bounds = graph.bounds

    x_in = np.frombuffer(inp.data, dtype=np.uint8).reshape(inp.shape)
    traces: list[LayerTrace] = []
    logits: np.ndarray | None = None

    def act_of_ref(ref: int) -> np.ndarray:
        return x_in if ref == INPUT_REF else traces[ref].act

    for i, layer in enumerate(graph.layers):
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected"):
            x = act_of_ref(layer.input_refs[0])
            z = graph.quant_of_ref(layer.input_refs[0]).zero_point
            bias = np.asarray(layer.bias, dtype=np.int64)
            w = np.asarray(graph.signed_weights[i], dtype=np.int64).reshape(layer.weights.shape)
            if layer.kind == "conv2d":
                acc = _conv2d(x, w, bias, z, layer.stride, layer.padding)
            elif layer.kind == "depthwise_conv2d":
                acc = _depthwise(x, w, bias, z, layer.stride, layer.padding)
            else:
                acc = w @ (x.reshape(-1).astype(np.int64) - z) + bias
            act = _clip_and_scale_arr(acc, layer.out_quant.scale, layer.out_quant.zero_point, bounds[i])
        elif layer.kind == "residual_add":
            # Shared zero point z: out = clip(x1 + x2 - z).  Expressed through
            # the common pipeline as acc = x1 + x2 - 2z, then unit scale with
            # z_out = z, which keeps the circuit lowering uniform.
            z = layer.out_quant.zero_point
            x1 = act_of_ref(layer.input_refs[0]).astype(np.int64)
            x2 = act_of_ref(layer.input_refs[1]).astype(np.int64)
            acc = x1 + x2 - 2 * z
            act = _clip_and_scale_arr(acc, ScaleFactor(1, 1), z, bounds[i])
        elif layer.kind == "average_pool":
            x = act_of_ref(layer.input_refs[0]).astype(np.int64)
            h, w_, c = x.shape
            acc = np.sum(x, axis=(0, 1), keepdims=True)
            act = (acc // (h * w_)).astype(np.uint8)
        else:  # output
            ref = layer.input_refs[0]
            if ref == INPUT_REF:
                acc = x_in.astype(np.int64)
            else:
                acc = traces[ref].acc
            act = act_of_ref(ref)
            logits = acc.reshape(-1).copy()
        if layer.kind != "output":
            lo, hi = bounds[i]
            if acc.size and (acc.min() < lo or acc.max() > hi):
                raise InferenceError(
                    f"layer {i}: accumulator outside bounds [{lo}, {hi}]"
                )
        traces.append(LayerTrace(acc=acc, act=act))

    return InferenceTrace(layers=tuple(traces), logits=logits)


def trace_to_json(trace: InferenceTrace) -> dict:
    return {
        "layers": [
            {"acc": t.acc.reshape(-1).tolist(), "act": t.act.reshape(-1).tolist()}
            for t in trace.layers
        ],
        "logits": trace.logits.tolist(),
    }
