"""Which source cells and weights each output site of a layer reads, as
integer arrays, and how many gate rows its DOT chains take, from the
layer's shapes alone.

A window is one output position.  Its taps are the source offsets it
reads (padding clipped) and the matching weight offsets, shared by every
output channel; a channel adds its own source base and weight base.
Conv and fully connected channels all read one patch, so they share rows
in slot chunks (`split`); any other kind gives each channel a chunk of
one slot.  A chain over k taps takes ceil(k/N) rows of N = GATE_WIDTH x
lanes.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .model import ModelGraph

# The x lanes of a gate row and the cells of a staging row.
GATE_WIDTH = 8


def chain_rows(k):
    """The rows of a DOT chain over k taps (an int or an array of them)."""
    return -(-k // GATE_WIDTH)


# The kinds whose output channels all read one patch: their channels share
# rows, split into slot chunks; any other kind gives each channel its own.
SHARED = ("conv2d", "fully_connected")


def split(c: int) -> list[int]:
    """The slot counts of the chunks c channels over one patch take:
    ceil(c/N) chunks as equal as possible (C = 10 at N = 8 gives 5 + 5,
    C = 11 gives 6 + 5)."""
    parts = -(-c // GATE_WIDTH)
    size, extra = divmod(c, parts)
    return [size + 1] * extra + [size] * (parts - extra)


def _conv_axes(graph: ModelGraph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """A conv or depthwise layer's input row per (output row, kernel row)
    and input column per (output column, kernel column); "same" padding
    puts some of them outside the input."""
    layer = graph.layers[i]
    h, w, _ = graph.shape_of_ref(layer.input_refs[0])
    oh, ow, _ = graph.output_shapes[i]
    kh, kw = layer.weights.shape[1:3] if layer.kind == "conv2d" else layer.weights.shape[:2]
    top = left = 0
    if layer.padding == "same":
        top = max((oh - 1) * layer.stride + kh - h, 0) // 2
        left = max((ow - 1) * layer.stride + kw - w, 0) // 2
    ih = np.arange(oh)[:, None] * layer.stride - top + np.arange(kh)
    iw = np.arange(ow)[:, None] * layer.stride - left + np.arange(kw)
    return ih, iw


def _compact(live: np.ndarray, *offsets) -> tuple:
    """Per window (row of `live`), its live taps' offsets moved to the
    front in order and padded with 0 to K taps, a multiple of N; the
    windows' tap counts first."""
    taps = live.sum(1)
    width = GATE_WIDTH * int(chain_rows(taps.max()))
    win = np.nonzero(live)[0]
    pos = np.cumsum(live, 1)[live] - 1
    out = []
    for off in offsets:
        padded = np.zeros((len(live), width), np.int64)
        padded[win, pos] = np.broadcast_to(off, live.shape)[live]
        out.append(padded)
    return taps, *out


def layer_taps(graph: ModelGraph, i: int) -> tuple:
    """Layer i's taps as arrays: (taps, x_offs, w_offs, x_base, w_base, z_in).

    Per window (output position) its tap count, and its source and weight
    offsets padded with 0 to K taps (`_compact`); per output channel a
    source base and a weight base.  Site (window, ch), flat index
    window * channels + ch, reads the source cells base + o for o in the
    window's source offsets against the weights base + o for o in its
    weight offsets; w_offs and w_base None mean unit weights.  Every
    channel shares its window's offsets, and padded window positions are
    left out: padding with the input zero point makes their contribution
    exactly zero.
    """
    layer = graph.layers[i]
    ref = layer.input_refs[0]
    z_in = graph.quant_of_ref(ref).zero_point
    if layer.kind in ("conv2d", "depthwise_conv2d"):
        h, w, c = graph.shape_of_ref(ref)
        oc = graph.output_shapes[i][2]
        ih, iw = _conv_axes(graph, i)
        (oh, kh), (ow, kw) = ih.shape, iw.shape
        if layer.kind == "conv2d":
            lanes, w_step = np.arange(c), c
            x_base, w_base = np.zeros(oc, np.int64), np.arange(oc) * (kh * kw * c)
        else:
            lanes, w_step = np.zeros(1, np.int64), oc
            x_base = w_base = np.arange(oc)
        # Axes (output row, output column, kernel row, kernel column, lane),
        # in tap order.
        ih, iw = ih[:, None, :, None, None], iw[None, :, None, :, None]
        live = np.broadcast_to((ih >= 0) & (ih < h) & (iw >= 0) & (iw < w), (oh, ow, kh, kw, len(lanes)))
        x_offs = (ih * w + iw) * c + lanes
        w_offs = (np.arange(kh)[:, None, None] * kw + np.arange(kw)[:, None]) * w_step + lanes
        n_win = oh * ow
        taps, x_offs, w_offs = _compact(live.reshape(n_win, -1), x_offs.reshape(n_win, -1), np.reshape(w_offs, -1))
        return taps, x_offs, w_offs, x_base, w_base, z_in
    if layer.kind == "fully_connected":
        units, feat = layer.weights.shape
        taps, offs = _compact(np.ones((1, feat), bool), np.arange(feat))
        return taps, offs, offs, np.zeros(units, np.int64), np.arange(units) * feat, z_in
    if layer.kind == "residual_add":
        n = math.prod(graph.shape_of_ref(ref))
        taps, offs = _compact(np.ones((1, 2), bool), np.array([0, n]))
        return taps, offs, None, np.arange(n), None, layer.out_quant.zero_point
    # average_pool (global): sum over H x W at this channel, unit weights.
    h, w, c = graph.shape_of_ref(ref)
    taps, offs = _compact(np.ones((1, h * w), bool), np.arange(h * w) * c)
    return taps, offs, None, np.arange(c), None, 0


def layer_rows(graph: ModelGraph, i: int) -> Counter:
    """Layer i's DOT chain rows per slot count M, from its shapes alone."""
    layer = graph.layers[i]
    shape = graph.shape_of_ref(layer.input_refs[0])
    if layer.kind in ("conv2d", "depthwise_conv2d"):
        h, w, c = shape
        ih, iw = _conv_axes(graph, i)
        # The windows by tap count: live kernel rows times live kernel
        # columns times lanes.
        per_r = np.bincount(((ih >= 0) & (ih < h)).sum(1))
        per_s = np.bincount(((iw >= 0) & (iw < w)).sum(1))
        k = np.arange(len(per_r))[:, None] * np.arange(len(per_s)) * (c if layer.kind == "conv2d" else 1)
        rows = int((np.outer(per_r, per_s) * chain_rows(k)).sum())
        n_ch = graph.output_shapes[i][2]
    elif layer.kind == "fully_connected":
        n_ch, feat = layer.weights.shape
        rows = chain_rows(feat)
    elif layer.kind == "residual_add":
        rows, n_ch = 1, math.prod(shape)
    else:
        rows, n_ch = chain_rows(shape[0] * shape[1]), shape[2]
    if layer.kind not in SHARED:
        return Counter({1: rows * n_ch})
    return Counter({m: rows * count for m, count in Counter(split(n_ch)).items()})
