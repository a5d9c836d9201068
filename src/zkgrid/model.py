"""Quantized model graphs: the on-disk format, shape inference, and
worst-case accumulator bounds.

A model is a topologically ordered list of layers over uint8 activation
tensors.  Weights are symmetric int8 (zero point 0, bytes stored two's
complement); activations carry a free zero point in [0, 255].  Scale
factors are exact integer rationals a/b.  Biases are int32 values already
in accumulator scale.

The special input reference ``-1`` denotes the graph input tensor.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace

INPUT_REF = -1

LAYER_KINDS = (
    "conv2d",
    "depthwise_conv2d",
    "fully_connected",
    "residual_add",
    "average_pool",
    "output",
)

MAX_SCALE_DENOM = 1 << 24


class ModelFormatError(ValueError):
    """Raised for malformed model files or inconsistent graphs."""


@dataclass(frozen=True, slots=True)
class ScaleFactor:
    """Exact rational scale a/b with positive integer parts."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ModelFormatError(f"invalid scale factor {self.a}/{self.b}")
        if self.b > MAX_SCALE_DENOM:
            raise ModelFormatError(f"scale denominator {self.b} exceeds {MAX_SCALE_DENOM}")


@dataclass(frozen=True, slots=True)
class QuantParams:
    zero_point: int
    scale: ScaleFactor

    def __post_init__(self):
        if not 0 <= self.zero_point <= 255:
            raise ModelFormatError(f"zero point {self.zero_point} outside [0, 255]")


@dataclass(frozen=True, slots=True)
class QuantTensor:
    """Row-major uint8 payload with its quantization parameters."""

    shape: tuple[int, ...]
    data: bytes
    quant: QuantParams

    def __post_init__(self):
        if any(d <= 0 for d in self.shape):
            raise ModelFormatError(f"non-positive dim in shape {self.shape}")
        n = math.prod(self.shape)
        if len(self.data) != n:
            raise ModelFormatError(
                f"tensor data length {len(self.data)} != prod(shape) {n}"
            )

    def num_elements(self) -> int:
        return math.prod(self.shape)

    def signed_values(self) -> list[int]:
        """Bytes read as two's-complement int8 (weight convention)."""
        return [b - 256 if b >= 128 else b for b in self.data]


@dataclass(frozen=True, slots=True)
class Layer:
    kind: str
    input_refs: tuple[int, ...]
    out_quant: QuantParams
    weights: QuantTensor | None = None
    bias: tuple[int, ...] | None = None
    stride: int = 1
    padding: str = "valid"

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ModelFormatError(f"unknown layer kind {self.kind!r}")
        if self.padding not in ("same", "valid"):
            raise ModelFormatError(f"unknown padding {self.padding!r}")
        if self.stride < 1:
            raise ModelFormatError("stride must be >= 1")


@dataclass(frozen=True)
class ModelGraph:
    layers: tuple[Layer, ...]
    input_shape: tuple[int, ...]
    input_quant: QuantParams
    # Filled by shape inference during validation; aligned with layers.
    output_shapes: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def output_layer_index(self) -> int:
        for i, layer in enumerate(self.layers):
            if layer.kind == "output":
                return i
        raise ModelFormatError("graph has no output layer")

    def shape_of_ref(self, ref: int) -> tuple[int, ...]:
        if ref == INPUT_REF:
            return self.input_shape
        return self.output_shapes[ref]

    def quant_of_ref(self, ref: int) -> QuantParams:
        if ref == INPUT_REF:
            return self.input_quant
        return self.layers[ref].out_quant


def _conv_out_hw(in_hw: int, k: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-in_hw // stride)  # ceil
    out = (in_hw - k) // stride + 1
    if out <= 0:
        raise ModelFormatError(
            f"non-positive output dim: input {in_hw}, kernel {k}, stride {stride}, valid padding"
        )
    return out


def shape_inference(graph: ModelGraph) -> tuple[tuple[int, ...], ...]:
    """Per-layer output shapes; raises on any inconsistency."""
    shapes: list[tuple[int, ...]] = []

    def ref_shape(ref: int) -> tuple[int, ...]:
        if ref == INPUT_REF:
            return graph.input_shape
        return shapes[ref]

    for i, layer in enumerate(graph.layers):
        for r in layer.input_refs:
            if r != INPUT_REF and not 0 <= r < i:
                raise ModelFormatError(f"layer {i}: dangling input ref {r}")
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected") and (
            layer.weights is None or layer.bias is None
        ):
            raise ModelFormatError(f"layer {i}: {layer.kind} requires weights and bias")
        if layer.kind in ("residual_add", "average_pool", "output") and (
            layer.weights is not None or layer.bias is not None
        ):
            raise ModelFormatError(f"layer {i}: {layer.kind} takes no weights or bias")
        if layer.kind not in ("conv2d", "depthwise_conv2d") and (
            layer.stride != 1 or layer.padding != "valid"
        ):
            raise ModelFormatError(
                f"layer {i}: {layer.kind} takes no stride or padding (only convolutions do)"
            )
        if layer.kind != "residual_add" and len(layer.input_refs) != 1:
            raise ModelFormatError(f"layer {i}: {layer.kind} takes exactly one input")

        if layer.kind == "conv2d":
            h, w, c = ref_shape(layer.input_refs[0])
            oc, kh, kw, ic = layer.weights.shape
            if ic != c:
                raise ModelFormatError(
                    f"layer {i}: conv weight input channels {ic} != input channels {c}"
                )
            if len(layer.bias) != oc:
                raise ModelFormatError(f"layer {i}: bias length {len(layer.bias)} != {oc}")
            oh = _conv_out_hw(h, kh, layer.stride, layer.padding)
            ow = _conv_out_hw(w, kw, layer.stride, layer.padding)
            shapes.append((oh, ow, oc))
        elif layer.kind == "depthwise_conv2d":
            h, w, c = ref_shape(layer.input_refs[0])
            kh, kw, wc = layer.weights.shape
            if wc != c:
                raise ModelFormatError(
                    f"layer {i}: depthwise weight channels {wc} != input channels {c}"
                )
            if len(layer.bias) != c:
                raise ModelFormatError(f"layer {i}: bias length {len(layer.bias)} != {c}")
            oh = _conv_out_hw(h, kh, layer.stride, layer.padding)
            ow = _conv_out_hw(w, kw, layer.stride, layer.padding)
            shapes.append((oh, ow, c))
        elif layer.kind == "fully_connected":
            in_shape = ref_shape(layer.input_refs[0])
            features = math.prod(in_shape)
            units, wf = layer.weights.shape
            if wf != features:
                raise ModelFormatError(
                    f"layer {i}: fc weight features {wf} != flattened input {features}"
                )
            if len(layer.bias) != units:
                raise ModelFormatError(f"layer {i}: bias length {len(layer.bias)} != {units}")
            shapes.append((units,))
        elif layer.kind == "residual_add":
            if len(layer.input_refs) != 2:
                raise ModelFormatError(f"layer {i}: residual_add takes two inputs")
            ra, rb = layer.input_refs
            sa, sb = ref_shape(ra), ref_shape(rb)
            if sa != sb:
                raise ModelFormatError(f"layer {i}: residual shapes differ: {sa} vs {sb}")
            shapes.append(sa)
        elif layer.kind == "average_pool":
            in_shape = ref_shape(layer.input_refs[0])
            if len(in_shape) != 3:
                raise ModelFormatError(f"layer {i}: average_pool needs an HWC input")
            h, w, c = in_shape
            shapes.append((1, 1, c))
        elif layer.kind == "output":
            shapes.append(ref_shape(layer.input_refs[0]))
    return tuple(shapes)


def _validate_quant_consistency(graph: ModelGraph) -> None:
    for i, layer in enumerate(graph.layers):
        if layer.kind == "residual_add":
            qa = graph.quant_of_ref(layer.input_refs[0])
            qb = graph.quant_of_ref(layer.input_refs[1])
            if qa != qb:
                raise ModelFormatError(
                    f"layer {i}: residual inputs must share quant params (got {qa} vs {qb})"
                )
            if layer.out_quant.zero_point != qa.zero_point:
                raise ModelFormatError(
                    f"layer {i}: residual output zero point must match its inputs"
                )
            s = layer.out_quant.scale
            if s.a != s.b:
                raise ModelFormatError(
                    f"layer {i}: residual scale must equal one (got {s.a}/{s.b})"
                )
        if layer.kind == "average_pool":
            q_in = graph.quant_of_ref(layer.input_refs[0])
            if layer.out_quant != q_in:
                raise ModelFormatError(
                    f"layer {i}: average_pool must preserve quant params"
                )
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected"):
            if layer.weights.quant.zero_point != 0:
                raise ModelFormatError(
                    f"layer {i}: weight zero point must be 0 (symmetric weights)"
                )
            for b in layer.bias:
                if not -(1 << 31) <= b < (1 << 31):
                    raise ModelFormatError(f"layer {i}: bias {b} outside int32 range")


def validate(graph: ModelGraph) -> ModelGraph:
    """Run all structural checks and attach inferred shapes."""
    if len(graph.input_shape) != 3:
        raise ModelFormatError("input shape must be (H, W, C)")
    if any(type(d) is not int or d < 1 for d in graph.input_shape):
        raise ModelFormatError(f"input shape {list(graph.input_shape)} must hold positive integers")
    n_output = sum(1 for l in graph.layers if l.kind == "output")
    if n_output != 1:
        raise ModelFormatError(f"graph must have exactly one output layer, found {n_output}")
    if graph.layers[-1].kind != "output":
        raise ModelFormatError("output layer must be last")
    shapes = shape_inference(graph)
    graph = replace(graph, output_shapes=shapes)
    _validate_quant_consistency(graph)
    return graph


# ---------------------------------------------------------------------------
# Worst-case accumulator bounds (interval arithmetic over actual weights)

def _dot_extremes(weights: list[int], z: int) -> tuple[int, int]:
    """Extremes of sum((x_t - z) * w_t) with each x_t free in [0, 255]."""
    lo = hi = 0
    for w in weights:
        # (x - z) * w is linear in x, so extremes sit at x in {0, 255}.
        at0 = -z * w
        at255 = (255 - z) * w
        lo += min(at0, at255)
        hi += max(at0, at255)
    return lo, hi


def accumulator_bounds(graph: ModelGraph) -> list[tuple[int, int]]:
    """Per-layer (min, max) for the pre-scale accumulator.

    Used to size the clip lookup tables and to validate that the field
    modulus is large enough that no accumulator can wrap.
    """
    bounds: list[tuple[int, int]] = []
    for i, layer in enumerate(graph.layers):
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected"):
            z = graph.quant_of_ref(layer.input_refs[0]).zero_point
            w = layer.weights.signed_values()
            lo, hi = None, None
            if layer.kind == "conv2d":
                oc, kh, kw, ic = layer.weights.shape
                per = kh * kw * ic
                for o in range(oc):
                    l, h = _dot_extremes(w[o * per : (o + 1) * per], z)
                    l, h = l + layer.bias[o], h + layer.bias[o]
                    lo = l if lo is None else min(lo, l)
                    hi = h if hi is None else max(hi, h)
            elif layer.kind == "depthwise_conv2d":
                kh, kw, c = layer.weights.shape
                for ch in range(c):
                    taps = [w[(r * kw + s) * c + ch] for r in range(kh) for s in range(kw)]
                    l, h = _dot_extremes(taps, z)
                    l, h = l + layer.bias[ch], h + layer.bias[ch]
                    lo = l if lo is None else min(lo, l)
                    hi = h if hi is None else max(hi, h)
            else:
                units, feat = layer.weights.shape
                for u in range(units):
                    l, h = _dot_extremes(w[u * feat : (u + 1) * feat], z)
                    l, h = l + layer.bias[u], h + layer.bias[u]
                    lo = l if lo is None else min(lo, l)
                    hi = h if hi is None else max(hi, h)
            bounds.append((lo, hi))
        elif layer.kind == "residual_add":
            z = layer.out_quant.zero_point
            bounds.append((-2 * z, 510 - 2 * z))
        elif layer.kind == "average_pool":
            h, w_, c = graph.shape_of_ref(layer.input_refs[0])
            bounds.append((0, 255 * h * w_))
        else:  # output: exposes the referenced layer's accumulators
            ref = layer.input_refs[0]
            bounds.append((0, 255) if ref == INPUT_REF else bounds[ref])
    return bounds


# ---------------------------------------------------------------------------
# JSON serialization

_LAYER_KEYS = {
    "kind", "weights", "bias", "stride", "padding", "inputs", "out_quant",
}


def _quant_to_json(q: QuantParams) -> dict:
    return {"zero_point": q.zero_point, "scale": {"a": q.scale.a, "b": q.scale.b}}


def _int(v, where: str) -> int:
    """v itself when it is an integer: no bool, float or string."""
    if type(v) is not int:
        raise ModelFormatError(f"{where} must be an integer, not {type(v).__name__}")
    return v


def _ints(v, where: str) -> tuple[int, ...]:
    if type(v) is not list:
        raise ModelFormatError(f"{where} must be a list of integers, not {type(v).__name__}")
    return tuple(_int(x, where) for x in v)


def _object(v, where: str) -> dict:
    if type(v) is not dict:
        raise ModelFormatError(f"{where} must be an object, not {type(v).__name__}")
    return v


def _quant_from_json(obj, where: str) -> QuantParams:
    obj = _object(obj, f"{where} quant params")
    scale = _object(obj.get("scale"), f"{where} scale")
    return QuantParams(
        zero_point=_int(obj.get("zero_point"), f"{where} zero point"),
        scale=ScaleFactor(a=_int(scale.get("a"), f"{where} scale a"), b=_int(scale.get("b"), f"{where} scale b")),
    )


def _tensor_from_json(obj, quant: QuantParams, where: str) -> QuantTensor:
    obj = _object(obj, where)
    shape = _ints(obj.get("shape"), f"{where} shape")
    try:
        data = base64.b64decode(obj["data_b64"], validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"{where}: malformed tensor ({e})") from e
    return QuantTensor(shape=shape, data=data, quant=quant)


def load_model(raw: bytes | str) -> ModelGraph:
    """Parse and validate the JSON model format.  Unknown fields rejected."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ModelFormatError("top level must be an object")
    extra = set(doc) - {"version", "input_shape", "input_quant", "layers"}
    if extra:
        raise ModelFormatError(f"unknown top-level fields: {sorted(extra)}")
    if type(doc.get("version")) is not int or doc["version"] != 1:
        raise ModelFormatError(f"unsupported version {doc.get('version')!r}")
    input_shape = doc.get("input_shape")
    if not isinstance(input_shape, list):
        raise ModelFormatError("input_shape must be a list")
    if "input_quant" not in doc:
        raise ModelFormatError("missing input_quant")
    input_quant = _quant_from_json(doc["input_quant"], "input_quant")
    layer_objs = doc.get("layers", [])
    if type(layer_objs) is not list:
        raise ModelFormatError(f"layers must be a list, not {type(layer_objs).__name__}")
    layers = []
    for i, lobj in enumerate(layer_objs):
        if not isinstance(lobj, dict):
            raise ModelFormatError(f"layer {i}: must be an object")
        extra = set(lobj) - _LAYER_KEYS
        if extra:
            raise ModelFormatError(f"layer {i}: unknown fields {sorted(extra)}")
        kind = lobj.get("kind")
        out_quant = _quant_from_json(lobj["out_quant"], f"layer {i}") if "out_quant" in lobj else None
        if out_quant is None:
            raise ModelFormatError(f"layer {i}: missing out_quant")
        weights = None
        if "weights" in lobj:
            # Weights are symmetric: zero point 0, unit scale on disk.
            wq = QuantParams(zero_point=0, scale=ScaleFactor(1, 1))
            weights = _tensor_from_json(lobj["weights"], wq, f"layer {i} weights")
        bias = _ints(lobj["bias"], f"layer {i} bias") if "bias" in lobj else None
        layers.append(
            Layer(
                kind=kind,
                input_refs=_ints(lobj.get("inputs", []), f"layer {i} inputs"),
                out_quant=out_quant,
                weights=weights,
                bias=bias,
                stride=_int(lobj.get("stride", 1), f"layer {i} stride"),
                padding=lobj.get("padding", "valid"),
            )
        )
    graph = ModelGraph(
        layers=tuple(layers),
        input_shape=tuple(input_shape),
        input_quant=input_quant,
    )
    return validate(graph)


def save_model(graph: ModelGraph) -> bytes:
    """Canonical JSON bytes; load_model(save_model(g)) == g."""
    layers = []
    for layer in graph.layers:
        lobj: dict = {"kind": layer.kind, "inputs": list(layer.input_refs)}
        if layer.weights is not None:
            lobj["weights"] = {
                "shape": list(layer.weights.shape),
                "data_b64": base64.b64encode(layer.weights.data).decode("ascii"),
            }
        if layer.bias is not None:
            lobj["bias"] = list(layer.bias)
        if layer.kind in ("conv2d", "depthwise_conv2d"):
            lobj["stride"] = layer.stride
            lobj["padding"] = layer.padding
        lobj["out_quant"] = _quant_to_json(layer.out_quant)
        layers.append(lobj)
    doc = {
        "version": 1,
        "input_shape": list(graph.input_shape),
        "input_quant": _quant_to_json(graph.input_quant),
        "layers": layers,
    }
    return json.dumps(doc, indent=1, sort_keys=True).encode("ascii")


def load_tensor(raw: bytes | str, quant: QuantParams) -> QuantTensor:
    """Input tensor file: same JSON tensor encoding as weights."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not valid JSON: {e}") from e
    extra = set(_object(doc, "input tensor")) - {"shape", "data_b64"}
    if extra:
        raise ModelFormatError(f"unknown tensor fields: {sorted(extra)}")
    return _tensor_from_json(doc, quant, "input tensor")


def save_tensor(t: QuantTensor) -> bytes:
    doc = {
        "shape": list(t.shape),
        "data_b64": base64.b64encode(t.data).decode("ascii"),
    }
    return json.dumps(doc, indent=1, sort_keys=True).encode("ascii")
