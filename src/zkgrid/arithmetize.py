"""Translate a model graph into a constraint grid and produce honest
witnesses for it.

Lowering scheme, per activation site (one output element of one layer):

  * the dot product is split into ceil(k/N) rows of one carry-chained DOT
    gate of width N, out = carry + sum_j (x_j - z) * w_j; short rows pad
    with weight 0 and pin padded cells to a zero column
  * the first row's carry is the bias: a copy of the zero column, of a
    const cell holding a public bias, or of the staged hidden bias; each
    later row's carry is a copy of the previous row's out, so the last
    out is the accumulator
  * the last row also carries DIV, out * a = (q - off) * b + r, with the
    remainder r range-checked against {0..b-1}
  * a clip lookup (q, act) against a table shared by every layer with
    the same (a, b, z_out) pins the quotient range and the activation

The paper lowers a site to DOT rows, an ADD reduction tree and a DIV row;
folding the sum into the carry and the division into the last row spends
one row per N taps instead.

Residual adds lower to a two-tap DOT with unit weights; global average
pooling lowers to unit-weight DOT rows with zero z and divisor equal to
the pool area.  Two packing rules keep layouts small: a new gate group
(fresh columns and gates) is opened only when the current group's rows
are exhausted, and clip tables are shared whenever the scale key matches,
widening the key's domain to the union of the requesting layers' ranges.

Hidden tensors get staging rows, byte or int8 range checks, and sponge
rows binding them to a public digest in the instance vector.  Hidden
inputs are absorbed one code per element.  Hidden weights are packed
first by a PACK gate on the staging rows,

    pk_out = pk_in + pk_scale * sum_j 256^j * io_j + pk_off,

chained through pk_in within a chunk (the first row's pk_in is pinned to
zero).  A chunk of k = commit.pack_width(p) int8 weights spans fresh
rows under the int8 lookup, with pk_scale = 256^(N*r) on its r-th row
and pk_off adding 128 per live cell, so its last pk_out is
sum_i (w_i + 128) * 256^i.  Each hidden bias is the four bytes of
b + 2^31 on rows under the byte lookup with pk_off = -2^31, so its last
pk_out is b itself, range-checked to int32; that cell is both the first
carry of the site's DOT chain and one absorbed element.  The absorbed
sequence is exactly `commit.weight_elements`, so the weight digest's
sponge rows are filled once, at compile.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .circuit import (
    ADVICE,
    FIXED,
    MAX_CELLS,
    MAX_ROWS,
    Assignment,
    CircuitLayout,
    Column,
    Copies,
    GateColumns,
    GateDef,
    LookupArg,
    LookupTable,
    add,
    builtin_gates,
    cell,
    const,
    mul,
    pow5,
    sub,
)
from .commit import (
    SpongeParams,
    VisibilityMode,
    pack_width,
    round_function,
)
from .field import Field
from .interpreter import run_inference
from .model import (
    INPUT_REF,
    ModelGraph,
    QuantTensor,
    ScaleFactor,
    accumulator_bounds,
)


class CompileError(ValueError):
    pass


class WitnessError(ValueError):
    pass


@dataclass(frozen=True)
class CompileConfig:
    gate_width: int = 8
    max_rows: int = 1 << 20
    lookup_cap: int = 1 << 20
    field: Field = dc_field(default_factory=Field)
    mode: VisibilityMode | None = None
    sponge: SpongeParams | None = None

    def __post_init__(self):
        if self.gate_width < 2:
            raise CompileError("gate width must be >= 2")
        if self.max_rows < 4 or self.lookup_cap < 1:
            raise CompileError("max_rows and lookup_cap must be positive (max_rows >= 4)")

    def sponge_params(self) -> SpongeParams:
        if self.sponge is not None:
            if self.sponge.modulus != self.field.modulus:
                raise CompileError("sponge params disagree with field modulus")
            return self.sponge
        return SpongeParams(modulus=self.field.modulus)


@dataclass(frozen=True)
class CircuitStats:
    n_rows: int
    n_rows_padded: int
    n_columns: int
    n_gates: int
    n_lookup_tables: int
    n_clip_tables: int
    n_lookup_args: int
    n_copy_constraints: int
    max_gate_degree: int

    def to_json(self) -> dict:
        return dict(self.__dict__)


# --- witness plan -----------------------------------------------------------

# Value sources: ("in", flat) input code | ("act", layer, flat) activation.
Source = tuple


@dataclass(frozen=True)
class DotRowSpec:
    group: int
    row: int
    x_srcs: tuple
    w_ints: tuple


@dataclass(frozen=True)
class DivRowSpec(DotRowSpec):
    """The chain's last row: its DOT chunk plus the DIV relation."""

    a: int
    b: int
    off: int
    z_out: int


@dataclass(frozen=True)
class SitePlan:
    layer: int
    flat: int
    z_in: int
    bias: int             # 0 for residual adds and pooling
    dot_rows: tuple       # the chain's rows before the last
    div: DivRowSpec       # the chain's last row
    # Always empty: the chain needs no reduction rows.  Kept because the
    # benchmark's row attribution reads the old row roles.
    add_rows = ()

    @property
    def rows(self) -> tuple:
        return (*self.dot_rows, self.div)


@dataclass(frozen=True)
class SpongePlan:
    label: str            # "input" | "weights"
    message_cells: tuple  # the absorbed cells, in order
    absorb_rows: tuple    # one row per rate-sized chunk
    round_rows: tuple     # per chunk: tuple of round row indices
    digest_cell: tuple
    # {column: {row: value}} when the message is fixed by the model and
    # the rows were filled at compile; None when they depend on the input.
    filled: dict | None = None


@dataclass
class WitnessPlan:
    mode: VisibilityMode | None
    sponge: SpongeParams | None
    gate_width: int
    n_inputs: int
    input_cells: list
    io_pad_cells: list
    # Every cell the weight staging assigns (int8 weights, bias bytes and
    # PACK chains) with its value; none of it depends on the input.
    weight_cells: list | None
    weight_values: list | None
    site_plans: list
    sponges: list
    instance_sections: list


# --- grid builder -----------------------------------------------------------

class _Group:
    """One gate-column group; its rows hold DOT chains, DIV on each last row."""

    def __init__(self, builder: "_Builder", index: int):
        self.index = index
        self.cursor = 0
        n = builder.cfg.gate_width
        g = f"g{index}"
        self.xs = tuple(builder.new_column(f"{g}:x{j}", ADVICE) for j in range(n))
        wkind = ADVICE if builder.weights_advice else FIXED
        self.ws = tuple(builder.new_column(f"{g}:w{j}", wkind) for j in range(n))
        self.carry = builder.new_column(f"{g}:carry", ADVICE)
        self.out = builder.new_column(f"{g}:out", ADVICE)
        self.r = builder.new_column(f"{g}:r", ADVICE)
        self.q = builder.new_column(f"{g}:q", ADVICE)
        self.act = builder.new_column(f"{g}:act", ADVICE)
        self.z = builder.new_column(f"{g}:z", FIXED)
        self.div_a = builder.new_column(f"{g}:da", FIXED)
        self.div_b = builder.new_column(f"{g}:db", FIXED)
        self.div_off = builder.new_column(f"{g}:off", FIXED)
        self.const = builder.new_column(f"{g}:const", FIXED)
        self.q_dot = builder.new_column(f"{g}:q_dot", FIXED)
        self.q_div = builder.new_column(f"{g}:q_div", FIXED)
        cols = GateColumns(
            xs=self.xs, ws=self.ws, carry=self.carry, out=self.out, r=self.r, q=self.q,
            act=self.act, z=self.z, div_a=self.div_a, div_b=self.div_b, div_off=self.div_off,
            q_dot=self.q_dot, q_div=self.q_div,
        )
        builder.gates.extend(builtin_gates(n, cols, prefix=f"{g}:"))
        self.lookup_selectors: dict[str, str] = {}


class _Builder:
    def __init__(self, graph: ModelGraph, cfg: CompileConfig):
        self.graph = graph
        self.cfg = cfg
        self.p = cfg.field.modulus
        self.columns: dict[str, Column] = {}
        self.col_number: dict[str, int] = {}
        self.fixed: dict[str, dict[int, int]] = {}
        self.gates: list[GateDef] = []
        self.tables: dict[str, LookupTable] = {}
        self.lookups: list[LookupArg] = []
        self.copies: list[int] = []  # packed, as in circuit.Copies
        self.instance_map: list[tuple[tuple, int]] = []
        self.groups: list[_Group] = []
        self.io_cursor = 0
        self.sponge_cursor = 0
        self.io_cols: tuple | None = None
        self.io_pad_cells: list[tuple] = []
        self.sponge_cols: dict | None = None
        self.weights_advice = cfg.mode is not None and cfg.mode.weights_hidden
        self.weight_cells: list[tuple] = []
        self.weight_values: list[int] = []
        # layer index -> (staged int8 weight cells, bias cells)
        self.param_cells: dict[int, tuple[list, list]] = {}
        self.pack_cols: tuple | None = None
        self.zero_col = self.new_column("zero", FIXED)

    def new_column(self, col_id: str, kind: str) -> str:
        self.col_number.setdefault(col_id, len(self.col_number))
        self.columns[col_id] = Column(col_id, kind)
        if kind == FIXED:
            self.fixed[col_id] = {}
        return col_id

    def set_fixed(self, col_id: str, row: int, value: int) -> None:
        self.fixed[col_id][row] = value % self.p

    def gate_row(self) -> _Group:
        if not self.groups or self.groups[-1].cursor >= self.cfg.max_rows:
            self.groups.append(_Group(self, len(self.groups)))
        return self.groups[-1]

    def copy(self, a: tuple, b: tuple) -> None:
        num = self.col_number
        self.copies += (num[a[0]], a[1], num[b[0]], b[1])

    def io_columns(self) -> tuple:
        if self.io_cols is None:
            n = self.cfg.gate_width
            self.io_cols = tuple(self.new_column(f"io{j}", ADVICE) for j in range(n))
        return self.io_cols

    def stage(self, count: int, range_selector: str | None) -> list[tuple]:
        """Staging cells for `count` values, gate_width per row.

        On range-checked rows the lookup applies to the whole row, so
        unused trailing cells are pinned to zero (and later assigned 0);
        rows without a row-wide lookup leave their tail unconstrained.
        """
        cols = self.io_columns()
        n = self.cfg.gate_width
        cells: list[tuple] = []
        while len(cells) < count:
            row = self.io_cursor
            self.io_cursor += 1
            if range_selector is not None:
                self.set_fixed(range_selector, row, 1)
            for j in range(n):
                if len(cells) < count:
                    cells.append((cols[j], row))
                elif range_selector is not None:
                    pad = (cols[j], row)
                    self.copy(pad, (self.zero_col, row))
                    self.io_pad_cells.append(pad)
        return cells

    def io_lookup(self, name: str, table_id: str) -> str:
        """A selector applying `table_id` to every staging column."""
        sel = self.new_column(f"io:q_{name}", FIXED)
        for j, col in enumerate(self.io_columns()):
            self.lookups.append(
                LookupArg(id=f"io:lk:{name}:{j}", table=table_id, columns=(col,), selector=sel)
            )
        return sel

    def pack_columns(self) -> tuple:
        if self.pack_cols is None:
            pk_in = self.new_column("io:pk_in", ADVICE)
            pk_out = self.new_column("io:pk_out", ADVICE)
            scale = self.new_column("io:pk_scale", FIXED)
            off = self.new_column("io:pk_off", FIXED)
            q_pack = self.new_column("io:q_pack", FIXED)
            weighted = [
                cell(col) if j == 0 else mul(const(256**j), cell(col))
                for j, col in enumerate(self.io_columns())
            ]
            poly = sub(cell(pk_out), add(cell(pk_in), mul(cell(scale), add(*weighted)), cell(off)))
            self.gates.append(GateDef(id="io:pack", name="ABSORB_PACK", selector=q_pack, poly=poly))
            self.pack_cols = (pk_in, pk_out, scale, off, q_pack)
        return self.pack_cols

    def pack(self, values: list[int], range_selector: str, shift: int, const_term: int) -> tuple[list, tuple]:
        """Stage `values` on fresh rows under `range_selector` and chain
        PACK rows over them.  Returns the staged cells and the last row's
        pk_out cell, which holds sum_i 256^i * (v_i + shift) + const_term.
        Every assigned cell and value is recorded as weight staging."""
        pk_in, pk_out, scale_col, off_col, q_pack = self.pack_columns()
        n = self.cfg.gate_width
        p = self.p
        cells = self.stage(len(values), range_selector)
        prev = None
        acc = 0
        for r, lo in enumerate(range(0, len(values), n)):
            live = values[lo : lo + n]
            row = cells[lo][1]
            scale = 256 ** (n * r)
            ones = (256 ** len(live) - 1) // 255    # sum_j 256^j over the live cells
            off = scale * shift * ones + (const_term if r == 0 else 0)
            self.set_fixed(q_pack, row, 1)
            self.set_fixed(scale_col, row, scale)
            self.set_fixed(off_col, row, off)
            self.copy((pk_in, row), prev or (self.zero_col, row))
            out = acc + scale * sum(v << (8 * j) for j, v in enumerate(live)) + off
            self.weight_cells += [(pk_in, row), (pk_out, row)]
            self.weight_values += [acc % p, out % p]
            acc = out
            prev = (pk_out, row)
        self.weight_cells += cells
        self.weight_values += [v % p for v in values]
        return cells, prev

    def range_table(self, lo: int, hi: int) -> str:
        tid = f"range:{lo}:{hi}"
        if tid not in self.tables:
            self.tables[tid] = LookupTable(
                id=tid, arity=1, rows=frozenset((v % self.p,) for v in range(lo, hi + 1))
            )
        return tid

    def group_lookup_selector(self, group: _Group, table_id: str, columns: tuple) -> str:
        sel = group.lookup_selectors.get(table_id)
        if sel is None:
            sel = self.new_column(f"g{group.index}:q:{table_id}", FIXED)
            group.lookup_selectors[table_id] = sel
            self.lookups.append(
                LookupArg(
                    id=f"g{group.index}:lk:{table_id}",
                    table=table_id,
                    columns=columns,
                    selector=sel,
                )
            )
        return sel


def _next_pow2(n: int) -> int:
    out = 1
    while out < n:
        out *= 2
    return out


def _flatten_index(shape: tuple[int, ...], idx: tuple[int, ...]) -> int:
    flat = 0
    for d, i in zip(shape, idx):
        flat = flat * d + i
    return flat


def build_clip_table(
    bounds: tuple[int, int],
    s: ScaleFactor,
    z_out: int,
    fld: Field | None = None,
    cap: int = 1 << 20,
) -> LookupTable:
    """Clip table over the quotient domain implied by accumulator bounds.

    Keys are offset-shifted so negative quotients become small canonical
    field values; pairs are (d + off, clip(d + z_out, 0, 255)).
    """
    fld = fld or Field()
    lo_c, hi_c = bounds
    d_lo = (lo_c * s.a) // s.b
    d_hi = (hi_c * s.a) // s.b
    size = d_hi - d_lo + 1
    if size > cap:
        raise CompileError(f"clip table size {size} exceeds cap {cap}")
    return _clip_table(s.a, s.b, z_out, d_lo, d_hi, fld.modulus)[0]


def _clip_table(a: int, b: int, z_out: int, d_lo: int, d_hi: int, p: int) -> tuple[LookupTable, int]:
    """The clip table for scale a/b and output zero point z_out over the
    quotients [d_lo, d_hi], and its key offset off = max(0, -d_lo)."""
    off = max(0, -d_lo)
    rows = frozenset(((d + off) % p, min(255, max(0, d + z_out))) for d in range(d_lo, d_hi + 1))
    return LookupTable(id=f"clip:a{a}:b{b}:z{z_out}", arity=2, rows=rows), off


# --- pass one: scale renormalization and table domains ----------------------

@dataclass
class _LayerLower:
    scale_a: int      # renormalized numerator
    divisor: int      # renormalized denominator (global b, or pool area)
    z_out: int
    table_key: tuple
    bounds: tuple


def _renormalize_scales(graph: ModelGraph, bounds: list) -> dict[int, _LayerLower]:
    """Bring every requantizing layer onto one scale divisor.

    Mixed denominators are accepted only when the largest is an exact
    common multiple of the rest (a/b becomes (a*B/b)/B, exactly); other
    mixes are rejected so producers renormalize up front.  Average
    pooling divides by the pool area instead and is exempt.
    """
    lowers: dict[int, _LayerLower] = {}
    denoms = set()
    for layer in graph.layers:
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected", "residual_add"):
            denoms.add(layer.out_quant.scale.b)
    b_global = max(denoms) if denoms else 1
    for b in denoms:
        if b_global % b != 0:
            raise CompileError(
                f"mixed scale divisors {sorted(denoms)}: no exact common denominator; "
                f"renormalize the model first"
            )
    for i, layer in enumerate(graph.layers):
        if layer.kind in ("conv2d", "depthwise_conv2d", "fully_connected", "residual_add"):
            s = layer.out_quant.scale
            a = s.a * (b_global // s.b)
            z = layer.out_quant.zero_point
            lowers[i] = _LayerLower(a, b_global, z, (a, b_global, z), bounds[i])
        elif layer.kind == "average_pool":
            h, w, _ = graph.shape_of_ref(layer.input_refs[0])
            lowers[i] = _LayerLower(1, h * w, 0, (1, h * w, 0), bounds[i])
    return lowers


def _src_of(ref: int, flat: int) -> Source:
    return ("in", flat) if ref == INPUT_REF else ("act", ref, flat)


def _conv_taps(graph, layer, out_shape, flat, kind):
    """Tap list (source, weight, weight-index) for one output element.

    Padded window positions are omitted entirely: padding with the input
    zero point makes their contribution exactly zero.
    """
    ref = layer.input_refs[0]
    in_shape = graph.shape_of_ref(ref)
    h, w, c = in_shape
    if kind == "conv2d":
        _, kh, kw, ic = layer.weights.shape
    else:
        kh, kw = layer.weights.shape[0], layer.weights.shape[1]
    oh, ow, oc = out_shape
    o_i, rem = divmod(flat, ow * oc)
    o_j, o_c = divmod(rem, oc)
    if layer.padding == "same":
        ph = max((oh - 1) * layer.stride + kh - h, 0)
        pw = max((ow - 1) * layer.stride + kw - w, 0)
        top, left = ph // 2, pw // 2
    else:
        top = left = 0
    wvals = layer.weights.signed_values()
    taps = []
    for r in range(kh):
        for s_ in range(kw):
            ih = o_i * layer.stride - top + r
            iw = o_j * layer.stride - left + s_
            if not (0 <= ih < h and 0 <= iw < w):
                continue
            if kind == "conv2d":
                for ci in range(ic):
                    widx = ((o_c * kh + r) * kw + s_) * ic + ci
                    src = _src_of(ref, _flatten_index(in_shape, (ih, iw, ci)))
                    taps.append((src, wvals[widx], widx))
            else:
                widx = (r * kw + s_) * oc + o_c
                src = _src_of(ref, _flatten_index(in_shape, (ih, iw, o_c)))
                taps.append((src, wvals[widx], widx))
    return taps


def _site_taps(graph, layer, out_shape, flat):
    """(taps, z_in, bias) for one site; taps are (source, w, widx|None)."""
    if layer.kind in ("conv2d", "depthwise_conv2d"):
        taps = _conv_taps(graph, layer, out_shape, flat, layer.kind)
        z = graph.quant_of_ref(layer.input_refs[0]).zero_point
        return taps, z, layer.bias[flat % out_shape[2]]
    if layer.kind == "fully_connected":
        ref = layer.input_refs[0]
        _, feat = layer.weights.shape
        wvals = layer.weights.signed_values()
        taps = [
            (_src_of(ref, j), wvals[flat * feat + j], flat * feat + j)
            for j in range(feat)
        ]
        return taps, graph.quant_of_ref(ref).zero_point, layer.bias[flat]
    if layer.kind == "residual_add":
        ra, rb = layer.input_refs
        taps = [(_src_of(ra, flat), 1, None), (_src_of(rb, flat), 1, None)]
        return taps, layer.out_quant.zero_point, 0
    # average_pool (global): sum over H x W at this channel, unit weights.
    ref = layer.input_refs[0]
    h, w, c = graph.shape_of_ref(ref)
    taps = [
        (_src_of(ref, (r * w + s) * c + flat), 1, None)
        for r in range(h)
        for s in range(w)
    ]
    return taps, 0, 0


# --- compile ----------------------------------------------------------------

def compile(graph: ModelGraph, cfg: CompileConfig | None = None) -> tuple[CircuitLayout, CircuitStats]:
    """Compile a validated model graph into a grid layout plus stats."""
    cfg = cfg or CompileConfig()
    fld = cfg.field
    p = fld.modulus
    bounds = accumulator_bounds(graph)
    lowers = _renormalize_scales(graph, bounds)
    mode = cfg.mode
    sponge = cfg.sponge_params() if mode is not None else None

    # Clip-table domains, unioned per (a, b, z_out) key.
    domains: dict[tuple, tuple[int, int]] = {}
    for i, lw in lowers.items():
        lo_c, hi_c = lw.bounds
        if max(abs(lo_c), abs(hi_c)) * lw.scale_a * 4 >= p:
            raise CompileError(
                f"layer {i}: accumulator range times scale exceeds modulus/4; "
                f"use a larger field"
            )
        d_lo = (lo_c * lw.scale_a) // lw.divisor
        d_hi = (hi_c * lw.scale_a) // lw.divisor
        if lw.table_key in domains:
            a, b = domains[lw.table_key]
            domains[lw.table_key] = (min(a, d_lo), max(b, d_hi))
        else:
            domains[lw.table_key] = (d_lo, d_hi)
    for key, (d_lo, d_hi) in domains.items():
        if d_hi - d_lo + 1 > cfg.lookup_cap:
            raise CompileError(
                f"clip table (a={key[0]}, b={key[1]}, z={key[2]}) needs "
                f"{d_hi - d_lo + 1} entries, over the cap {cfg.lookup_cap}"
            )
    for b in {lw.divisor for lw in lowers.values()}:
        if b > cfg.lookup_cap:
            raise CompileError(f"remainder range table of size {b} exceeds the cap")

    bld = _Builder(graph, cfg)

    offsets: dict[tuple, int] = {}
    for key, (d_lo, d_hi) in domains.items():
        table, offsets[key] = _clip_table(*key, d_lo, d_hi, p)
        bld.tables[table.id] = table

    # Input staging (always present; instance-bound or sponge-bound).
    n_inputs = 1
    for d in graph.input_shape:
        n_inputs *= d
    # Hidden inputs and hidden biases are range-checked bytes.
    input_hidden = mode is not None and mode.input_hidden
    q_byte = None
    if input_hidden or bld.weights_advice:
        q_byte = bld.io_lookup("byte", bld.range_table(0, 255))
    input_cells = bld.stage(n_inputs, q_byte if input_hidden else None)

    # Weight chunks and biases, staged and packed, when hidden.
    absorbed_cells: list[tuple] = []
    if bld.weights_advice:
        if not any(layer.weights is not None for layer in graph.layers):
            raise CompileError("hidden-weights mode needs at least one parameterized layer")
        q_i8 = bld.io_lookup("w", bld.range_table(-128, 127))
        k = pack_width(p)
        for i, layer in enumerate(graph.layers):
            if layer.weights is None:
                continue
            ws = layer.weights.signed_values()
            w_cells: list[tuple] = []
            for lo in range(0, len(ws), k):
                cells, packed = bld.pack(ws[lo : lo + k], q_i8, 128, 0)
                w_cells += cells
                absorbed_cells.append(packed)
            b_cells = []
            for b in layer.bias:
                u = b + (1 << 31)
                # The top byte takes any excess, so only the lookup
                # objects to a bias outside int32.
                u_bytes = [u & 0xFF, (u >> 8) & 0xFF, (u >> 16) & 0xFF, u >> 24]
                b_cells.append(bld.pack(u_bytes, q_byte, 0, -(1 << 31))[1])
            absorbed_cells += b_cells
            bld.param_cells[i] = (w_cells, b_cells)

    # Per-layer lowering into rows.
    site_plans: list[SitePlan] = []
    act_cells: dict[int, list] = {}
    acc_cells: dict[int, list] = {}   # each site's last out: its accumulator

    def src_cell(src: Source) -> tuple:
        if src[0] == "in":
            return input_cells[src[1]]
        return act_cells[src[1]][src[2]]

    for i, layer in enumerate(graph.layers):
        if layer.kind == "output":
            continue
        out_shape = graph.output_shapes[i]
        lw = lowers[i]
        n_sites = 1
        for d in out_shape:
            n_sites *= d
        layer_acts: list[tuple] = []
        layer_accs: list[tuple] = []
        for flat in range(n_sites):
            taps, z_in, bias = _site_taps(graph, layer, out_shape, flat)
            plan = _lower_site(bld, i, flat, taps, z_in, bias, lw, offsets[lw.table_key], src_cell)
            site_plans.append(plan)
            g = bld.groups[plan.div.group]
            layer_acts.append((g.act, plan.div.row))
            layer_accs.append((g.out, plan.div.row))
        act_cells[i] = layer_acts
        acc_cells[i] = layer_accs

    # Output wiring: logits are the referenced layer's accumulators.
    out_layer = graph.layers[graph.output_layer_index]
    ref = out_layer.input_refs[0]
    logit_cells = list(input_cells) if ref == INPUT_REF else list(acc_cells[ref])

    instance_sections: list[tuple] = [("logits", len(logit_cells))]
    idx = 0
    for c in logit_cells:
        bld.instance_map.append((c, idx))
        idx += 1

    sponge_plans: list[SpongePlan] = []
    if not input_hidden:
        instance_sections.append(("raw_input", n_inputs))
        for c in input_cells:
            bld.instance_map.append((c, idx))
            idx += 1
    else:
        sp = _build_sponge(bld, sponge, "input", input_cells)
        sponge_plans.append(sp)
        bld.instance_map.append((sp.digest_cell, idx))
        instance_sections.append(("input_digest",))
        idx += 1
    if bld.weights_advice:
        sp = _build_sponge(bld, sponge, "weights", absorbed_cells)
        # The weight digest depends only on the model: fill its rows once.
        staged = dict(zip(bld.weight_cells, bld.weight_values))
        filled = defaultdict(dict)
        _fill_sponge(filled, sp, [staged[c] for c in absorbed_cells], sponge, p)
        sp = replace(sp, filled=dict(filled))
        sponge_plans.append(sp)
        bld.instance_map.append((sp.digest_cell, idx))
        instance_sections.append(("weight_digest",))
        idx += 1

    layout, stats = _finalize(bld)
    layout.plan = WitnessPlan(
        mode=mode,
        sponge=sponge,
        gate_width=cfg.gate_width,
        n_inputs=n_inputs,
        input_cells=input_cells,
        io_pad_cells=bld.io_pad_cells,
        weight_cells=bld.weight_cells if bld.weights_advice else None,
        weight_values=bld.weight_values if bld.weights_advice else None,
        site_plans=site_plans,
        sponges=sponge_plans,
        instance_sections=instance_sections,
    )
    return layout, stats


def _lower_site(bld: _Builder, layer_idx, flat, taps, z_in, bias, lw, off, src_cell):
    n = bld.cfg.gate_width
    p = bld.p
    a, b, z_out = lw.table_key

    specs = []
    carry_src = None
    n_rows = -(-max(len(taps), 1) // n)
    for r in range(n_rows):
        chunk = taps[r * n : (r + 1) * n]
        g = bld.gate_row()
        row = g.cursor
        g.cursor += 1
        bld.set_fixed(g.q_dot, row, 1)
        bld.set_fixed(g.z, row, z_in)
        for j in range(n):
            if j < len(chunk):
                src, w, widx = chunk[j]
                bld.copy((g.xs[j], row), src_cell(src))
                if bld.weights_advice:
                    if widx is not None:
                        bld.copy((g.ws[j], row), bld.param_cells[layer_idx][0][widx])
                    else:
                        # structural unit weight (residual / pooling)
                        bld.set_fixed(g.const, row, 1)
                        bld.copy((g.ws[j], row), (g.const, row))
                else:
                    bld.set_fixed(g.ws[j], row, w % p)
            else:
                bld.copy((g.xs[j], row), (bld.zero_col, row))
                if bld.weights_advice:
                    bld.copy((g.ws[j], row), (bld.zero_col, row))
                # fixed weight columns default to zero: w_{k+1..N} = 0
        if carry_src is None:
            # The bias enters through the first carry, not through const:
            # in hidden-weights mode const already holds unit weights.
            if layer_idx in bld.param_cells:
                b_cells = bld.param_cells[layer_idx][1]
                carry_src = b_cells[flat % len(b_cells)]
            elif bias:
                bld.set_fixed(g.const, row, bias % p)
                carry_src = (g.const, row)
            else:
                carry_src = (bld.zero_col, row)
        bld.copy((g.carry, row), carry_src)
        carry_src = (g.out, row)
        x_srcs = tuple(c[0] for c in chunk)
        w_ints = tuple(c[1] for c in chunk)
        if r < n_rows - 1:
            specs.append(DotRowSpec(group=g.index, row=row, x_srcs=x_srcs, w_ints=w_ints))

    # The last row carries DIV, its remainder range check and the clip lookup.
    bld.set_fixed(g.q_div, row, 1)
    bld.set_fixed(g.div_a, row, lw.scale_a)
    bld.set_fixed(g.div_b, row, lw.divisor)
    bld.set_fixed(g.div_off, row, off)
    rtab = bld.range_table(0, lw.divisor - 1)
    bld.set_fixed(bld.group_lookup_selector(g, rtab, (g.r,)), row, 1)
    ctab = f"clip:a{a}:b{b}:z{z_out}"
    bld.set_fixed(bld.group_lookup_selector(g, ctab, (g.q, g.act)), row, 1)

    div = DivRowSpec(
        group=g.index, row=row, x_srcs=x_srcs, w_ints=w_ints,
        a=lw.scale_a, b=lw.divisor, off=off, z_out=z_out,
    )
    return SitePlan(layer=layer_idx, flat=flat, z_in=z_in, bias=bias, dot_rows=tuple(specs), div=div)


def _build_sponge(bld: _Builder, params: SpongeParams, label: str, message_cells: list) -> SpongePlan:
    """Absorb rows plus permutation round rows for one committed tensor."""
    p = bld.p
    t = params.t
    rate = params.rate
    if bld.sponge_cols is None:
        sc = {
            "s_in": tuple(bld.new_column(f"sp:in{j}", ADVICE) for j in range(t)),
            "s_out": tuple(bld.new_column(f"sp:out{j}", ADVICE) for j in range(t)),
            "msg": tuple(bld.new_column(f"sp:m{j}", ADVICE) for j in range(rate)),
            "rc": tuple(bld.new_column(f"sp:rc{j}", FIXED) for j in range(t)),
            "q_absorb": bld.new_column("sp:q_absorb", FIXED),
            "q_full": bld.new_column("sp:q_full", FIXED),
            "q_part": bld.new_column("sp:q_part", FIXED),
        }
        bld.sponge_cols = sc
        for j in range(rate):
            bld.gates.append(
                GateDef(
                    id=f"sp:absorb{j}", name=f"ABSORB_{j}", selector=sc["q_absorb"],
                    poly=sub(cell(sc["s_out"][j]), add(cell(sc["s_in"][j]), cell(sc["msg"][j]))),
                )
            )
        for j in range(rate, t):
            bld.gates.append(
                GateDef(
                    id=f"sp:absorb{j}", name=f"ABSORB_{j}", selector=sc["q_absorb"],
                    poly=sub(cell(sc["s_out"][j]), cell(sc["s_in"][j])),
                )
            )
        for k in range(t):
            full_terms = [
                mul(const(params.mds[k][j]), pow5(add(cell(sc["s_in"][j]), cell(sc["rc"][j]))))
                for j in range(t)
            ]
            part_terms = [
                mul(const(params.mds[k][0]), pow5(add(cell(sc["s_in"][0]), cell(sc["rc"][0]))))
            ] + [
                mul(const(params.mds[k][j]), add(cell(sc["s_in"][j]), cell(sc["rc"][j])))
                for j in range(1, t)
            ]
            bld.gates.append(
                GateDef(id=f"sp:full{k}", name=f"POSE_FULL_{k}", selector=sc["q_full"],
                        poly=sub(cell(sc["s_out"][k]), add(*full_terms)))
            )
            bld.gates.append(
                GateDef(id=f"sp:part{k}", name=f"POSE_PART_{k}", selector=sc["q_part"],
                        poly=sub(cell(sc["s_out"][k]), add(*part_terms)))
            )
    sc = bld.sponge_cols

    n_elems = len(message_cells)
    absorb_rows = []
    round_rows = []
    prev_out_cells: list | None = None
    for chunk_start in range(0, n_elems, rate):
        chunk_cells = message_cells[chunk_start : chunk_start + rate]
        row = bld.sponge_cursor
        bld.sponge_cursor += 1
        bld.set_fixed(sc["q_absorb"], row, 1)
        if prev_out_cells is None:
            # initial state (0, ..., 0, length), pinned through the rc cells
            init = [0] * (t - 1) + [n_elems % p]
            for j in range(t):
                bld.set_fixed(sc["rc"][j], row, init[j])
                bld.copy((sc["s_in"][j], row), (sc["rc"][j], row))
        else:
            for j in range(t):
                bld.copy((sc["s_in"][j], row), prev_out_cells[j])
        for j in range(rate):
            if j < len(chunk_cells):
                bld.copy((sc["msg"][j], row), chunk_cells[j])
            else:
                bld.copy((sc["msg"][j], row), (bld.zero_col, row))
        absorb_rows.append(row)
        prev_cells = [(sc["s_out"][j], row) for j in range(t)]

        chunk_rounds = []
        for r in range(params.n_rounds):
            row = bld.sponge_cursor
            bld.sponge_cursor += 1
            sel = sc["q_full"] if params.is_full_round(r) else sc["q_part"]
            bld.set_fixed(sel, row, 1)
            for j in range(t):
                bld.set_fixed(sc["rc"][j], row, params.round_constants[r][j])
                bld.copy((sc["s_in"][j], row), prev_cells[j])
            prev_cells = [(sc["s_out"][j], row) for j in range(t)]
            chunk_rounds.append(row)
        round_rows.append(tuple(chunk_rounds))
        prev_out_cells = prev_cells

    return SpongePlan(
        label=label,
        message_cells=tuple(message_cells),
        absorb_rows=tuple(absorb_rows),
        round_rows=tuple(round_rows),
        digest_cell=tuple(prev_out_cells[0]),
    )


def _finalize(bld: _Builder) -> tuple[CircuitLayout, CircuitStats]:
    logical = max(
        [g.cursor for g in bld.groups] + [bld.io_cursor, bld.sponge_cursor] + [1]
    )
    padded = _next_pow2(logical)
    if padded > MAX_ROWS:
        raise CompileError(f"the grid needs {padded} rows, over the limit of {MAX_ROWS}")
    n_advice = sum(col.kind == ADVICE for col in bld.columns.values())
    if padded * max(n_advice, len(bld.fixed)) > MAX_CELLS:
        raise CompileError(
            f"the grid needs {padded} rows of {n_advice} advice and {len(bld.fixed)} fixed"
            f" columns, over the limit of {MAX_CELLS} cells"
        )
    if bld.instance_map:
        bld.new_column("inst", "instance")
    fixed = {}
    for col_id, vals in bld.fixed.items():
        fixed[col_id] = col = [0] * padded
        for r, v in vals.items():
            col[r] = v
    layout = CircuitLayout(
        field=bld.cfg.field,
        columns=bld.columns,
        n_rows=padded,
        n_rows_logical=logical,
        gates=bld.gates,
        tables=bld.tables,
        lookups=bld.lookups,
        copies=Copies(bld.copies, list(bld.columns)),
        fixed=fixed,
        instance_map=bld.instance_map,
    )
    layout.validate()
    stats = CircuitStats(
        n_rows=logical,
        n_rows_padded=padded,
        n_columns=len(bld.columns),
        n_gates=len(bld.gates),
        n_lookup_tables=len(bld.tables),
        n_clip_tables=sum(1 for t in bld.tables if t.startswith("clip:")),
        n_lookup_args=len(bld.lookups),
        n_copy_constraints=len(layout.copies),
        max_gate_degree=layout.max_gate_degree(),
    )
    return layout, stats


# --- witness assignment ------------------------------------------------------

def assign_witness(layout: CircuitLayout, graph: ModelGraph, inp: QuantTensor) -> Assignment:
    """Fill the honest witness for one input, using the interpreter trace.

    The layout must come from compile() for the same graph; the attached
    plan drives the fill.
    """
    plan: WitnessPlan = layout.plan
    if plan is None:
        raise WitnessError("layout carries no witness plan (was it deserialized?)")
    p = layout.field.modulus
    n = plan.gate_width
    trace = run_inference(graph, inp)
    flat_acts = [t.act.reshape(-1) for t in trace.layers]
    flat_accs = [t.acc.reshape(-1) for t in trace.layers]
    codes = list(inp.data)
    if len(codes) != plan.n_inputs:
        raise WitnessError(f"input has {len(codes)} elements, plan expects {plan.n_inputs}")

    advice = {
        c.id: [None] * layout.n_rows
        for c in layout.columns.values()
        if c.kind == ADVICE
    }

    def put(cell_ref: tuple, value: int) -> None:
        advice[cell_ref[0]][cell_ref[1]] = value % p

    for cell_ref, v in zip(plan.input_cells, codes):
        put(cell_ref, v)
    for cell_ref in plan.io_pad_cells:
        put(cell_ref, 0)
    if plan.weight_cells is not None:
        for (col, row), v in zip(plan.weight_cells, plan.weight_values):
            advice[col][row] = v

    def src_value(src: Source) -> int:
        if src[0] == "in":
            return codes[src[1]]
        return int(flat_acts[src[1]][src[2]])

    hidden_w = plan.weight_cells is not None
    group_cols: dict[int, tuple] = {}
    for site in plan.site_plans:
        z = site.z_in
        acc = site.bias
        for d in site.rows:
            cols = group_cols.get(d.group)
            if cols is None:
                g = f"g{d.group}:"
                cols = group_cols[d.group] = (
                    [advice[f"{g}x{j}"] for j in range(n)],
                    [advice[f"{g}w{j}"] for j in range(n)] if hidden_w else None,
                    advice[f"{g}carry"], advice[f"{g}out"],
                    advice[f"{g}r"], advice[f"{g}q"], advice[f"{g}act"],
                )
            xs, ws, carry, out = cols[:4]
            row = d.row
            carry[row] = acc % p
            for j in range(n):
                if j < len(d.x_srcs):
                    x = src_value(d.x_srcs[j])
                    w = d.w_ints[j]
                    xs[j][row] = x % p
                    if hidden_w:
                        ws[j][row] = w % p
                    acc += (x - z) * w
                else:
                    xs[j][row] = 0
                    if hidden_w:
                        ws[j][row] = 0
            out[row] = acc % p
        if acc != int(flat_accs[site.layer][site.flat]):
            raise WitnessError(
                f"internal mismatch at layer {site.layer} site {site.flat}: "
                f"{acc} vs trace {int(flat_accs[site.layer][site.flat])}"
            )
        dv = site.div
        num = acc * dv.a
        d_q = num // dv.b
        r_col, q_col, act_col = group_cols[dv.group][4:]
        r_col[dv.row] = (num - d_q * dv.b) % p
        q_col[dv.row] = (d_q + dv.off) % p
        act = int(flat_acts[site.layer][site.flat])
        if act != min(255, max(0, d_q + dv.z_out)):
            raise WitnessError(
                f"internal activation mismatch at layer {site.layer} site {site.flat}"
            )
        act_col[dv.row] = act

    for sp in plan.sponges:
        if sp.filled is None:
            elements = [advice[col][row] for col, row in sp.message_cells]
            _fill_sponge(advice, sp, elements, plan.sponge, p)
            continue
        for col, cells in sp.filled.items():
            column = advice[col]
            for row, v in cells.items():
                column[row] = v

    # The filled sponge rows already end in each digest.
    digests = {sp.label: advice[sp.digest_cell[0]][sp.digest_cell[1]] for sp in plan.sponges}
    instance: list[int] = []
    for sec in plan.instance_sections:
        if sec[0] == "logits":
            instance.extend(int(v) % p for v in np.asarray(trace.logits))
        elif sec[0] == "raw_input":
            instance.extend(codes)
        elif sec[0] == "input_digest":
            instance.append(digests["input"])
        else:  # weight_digest
            instance.append(digests["weights"])

    return Assignment(advice=advice, instance=instance)


def _fill_sponge(advice, sp: SpongePlan, elements: list[int], params: SpongeParams, p: int) -> None:
    t = params.t
    rate = params.rate
    state = [0] * (t - 1) + [len(elements) % p]
    for ci, absorb_row in enumerate(sp.absorb_rows):
        chunk = elements[ci * rate : (ci + 1) * rate]
        chunk = chunk + [0] * (rate - len(chunk))
        for j in range(t):
            advice[f"sp:in{j}"][absorb_row] = state[j]
        for j in range(rate):
            advice[f"sp:m{j}"][absorb_row] = chunk[j]
        state = [(state[j] + chunk[j]) % p if j < rate else state[j] for j in range(t)]
        for j in range(t):
            advice[f"sp:out{j}"][absorb_row] = state[j]
        for r, row in enumerate(sp.round_rows[ci]):
            for j in range(t):
                advice[f"sp:in{j}"][row] = state[j]
            state = round_function(state, r, params)
            for j in range(t):
                advice[f"sp:out{j}"][row] = state[j]
