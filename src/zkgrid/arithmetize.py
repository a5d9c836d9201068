"""Translate a model graph into a constraint grid and produce honest
witnesses for it.

Lowering scheme, per activation site (one output element of one layer):

  * the dot product is split into ceil(k/N) carry-chained rows, where
    N = GATE_WIDTH is the number of x lanes in a row; a row holding
    k' <= N taps enables the DOT gate of its own width,
    out = carry + sum_{j<k'} (x_j - z) * w_j, so no lane is padded
  * the first row's carry is the bias: a copy of the zero column, of a
    const cell holding a public bias, or of the staged hidden bias; each
    later row's carry is a copy of the previous row's out, so the last
    out is the accumulator
  * the last row also carries DIV, out * a = (q - off) * b + r, with the
    remainder r range-checked against {0..b-1}; the quotient domain
    times b may not exceed p, so no second (q, r) matches mod p
  * a and b are the layer's own scale a/b and z_out its output zero
    point; average pooling divides by the pool area, (1, h*w, 0)
  * a clip lookup (q, act) against a table shared by every layer with
    the same (a, b, z_out) pins the quotient range and the activation

The paper lowers a site to DOT rows, an ADD reduction tree and a DIV row;
folding the sum into the carry and the division into the last row spends
one row per N taps instead.

A row holds M output slots over one set of N x lanes.  The output
channels of one output position that read the same input patch (every
channel of a conv2d, every unit of a fully connected layer) share their
rows: slot m has its own weight lanes, carry, out, r, q, act and const
cells, out_m = carry_m + sum_j (x_j - z) * w_{m,j}, its own DIV and its
own range and clip lookups, while z, the DIV scale cells, the DOT_k and
DIV selectors and the lookup selectors belong to the row.  So the x lanes
are copied once per row, not once per channel.  M is derived, never
configured: a position's C sharing channels are split into ceil(C/N)
chunks as equal as possible, and a chunk of m channels takes rows in the
gate group of m slots.  Depthwise, residual and pooling channels each
read their own cells, so they take rows of one slot.  Groups of
different M have their own columns and sit side by side, each with its
own cursor from row 0; every row of a group fills all its slots, so a
shared selector never enables an empty slot.

Residual adds lower to a two-tap DOT with unit weights; global average
pooling lowers to unit-weight DOT rows with zero z.  Each DIV row carries
its own divisor, so layers with unrelated denominators (1/3 next to 1/4)
compile as they are.  There is one gate group per M, opened on first
use, so a chain's rows are consecutive rows of one group.  Clip tables
are shared whenever the scale key matches, widening the key's domain to
the union of the requesting layers' ranges.  No lookup table may exceed
LOOKUP_CAP entries.

Lowering goes a layer at a time.  Each layer's taps are one table: per
output position, the source offsets of its window (padding clipped) and
the matching weight offsets, shared by every output channel; per channel,
a source base and a weight base (channels with the same source base
share a patch).  The layer's rows, fixed cells and copies are emitted
from that table straight into the builder's packed copy list and sparse
fixed columns, with each group's columns numbered once.  The witness plan
keeps one record per layer (LayerPlan): its z_in, its DIV key (a, b, off,
z_out) and, per site, the x source cells, the weights, the bias, its slot,
its group and the first row of its chain.

Each DOT lane's x is a copy of a source cell, an input code or an earlier
layer's act.  The witness computes only the cells no copy fills (input
codes, weight staging, outs, each DIV row's r, q and act, sponge states
out); the layout's copies then fill the rest, x lanes included.  The
instance vector is the compiled instance map: logits, then raw input
codes or the input digest, then the weight digest; the witness fills it
from the bound cells.

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
sponge states out are computed once, at compile.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass, field as dc_field, replace

from .circuit import (
    ADVICE,
    FIXED,
    LOOKUP_CAP,
    MAX_CELLS,
    MAX_ROWS,
    Assignment,
    CircuitLayout,
    Column,
    Copies,
    FixedColumn,
    GateColumns,
    GateDef,
    LookupArg,
    LookupTable,
    SlotColumns,
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
    sponge_states,
)
from .field import Field
from .interpreter import run_inference
from .model import (
    INPUT_REF,
    ModelGraph,
    QuantTensor,
)


class CompileError(ValueError):
    pass


class WitnessError(ValueError):
    pass


# The x lanes of a gate row and the cells of a staging row.
GATE_WIDTH = 8


def _chain_rows(k: int) -> int:
    """The rows of a DOT chain over k taps."""
    return -(-k // GATE_WIDTH)


@dataclass(frozen=True)
class CompileConfig:
    field: Field = dc_field(default_factory=Field)
    mode: VisibilityMode | None = None
    sponge: SpongeParams | None = None

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
    # Rows, copies and enabled lookup rows of each part of the grid, in
    # grid order: "staging", then "layer<i>" for each lowered layer, then
    # "sponge" (which has no lookups).  A copy belongs to the part that
    # emitted it, a lookup row to the part of the row its selector enables.
    regions: dict
    # Advice columns times padded rows: wider rows move cells into columns.
    advice_cells: int
    # Per gate group, in column order: its slot count M and its rows.
    groups: list

    def to_json(self) -> dict:
        return dict(self.__dict__)


# --- witness plan -----------------------------------------------------------

@dataclass(frozen=True)
class LayerPlan:
    """One lowered layer, as the witness fills it."""

    layer: int
    z_in: int
    a: int
    b: int
    off: int
    z_out: int
    # Per site, in flat order: (x source cells, weights, bias, slot,
    # group, first row).  The chain takes rows first_row + r of the group
    # for r < ceil(k/N); row r holds taps r*N .. r*N + N - 1 and the last
    # row carries DIV.  The sites of one chunk (its slots 0 .. M-1,
    # consecutive) share their rows and x source cells.
    sites: list


@dataclass(frozen=True)
class DotRowSpec:
    group: int
    row: int
    slot: int
    x_srcs: tuple     # the cells the row's x lanes are copied from
    w_ints: tuple

    def cell(self, name: str) -> tuple:
        """(column, row) of this slot's own cell `name` on the row: w<j>,
        carry, out, r, q, act or const."""
        return (_slot_col(self.group, self.slot, name), self.row)

    def x_cell(self, j: int) -> tuple:
        """(column, row) of the row's x lane j, shared by every slot."""
        return (_lane(self.group, j), self.row)


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
    # The states out, {column: {row: value}}, when the message is fixed by
    # the model and they were computed at compile; None when they depend
    # on the input.
    filled: dict | None = None


@dataclass
class WitnessPlan:
    sponge: SpongeParams | None
    n_inputs: int
    input_cells: list
    # The staging cells pinned to zero; only the benchmark's row
    # attribution (perfbench/layers.py) reads them.
    io_pad_cells: list
    # Every cell the weight staging computes (int8 weights, bias bytes and
    # each PACK row's pk_out) with its value; none of it depends on the
    # input.
    weight_cells: list | None
    weight_values: list | None
    layer_plans: list
    sponges: list
    group_slots: list     # each gate group's slot count M, by group index
    # Each fixed column a copy reads, as its full list of cells, by its
    # number in the layout's copies: the witness's copy pass reads these.
    fixed_sources: dict

    @property
    def site_plans(self) -> list[SitePlan]:
        """One record per site and per row, built from `layer_plans` on
        each call; compile and witness do not use it."""
        n = GATE_WIDTH
        out = []
        for lp in self.layer_plans:
            for flat, (x_srcs, w_ints, bias, slot, g, first_row) in enumerate(lp.sites):
                specs = [
                    DotRowSpec(
                        group=g, row=first_row + r, slot=slot,
                        x_srcs=tuple(x_srcs[lo : lo + n]), w_ints=tuple(w_ints[lo : lo + n]),
                    )
                    for r, lo in enumerate(range(0, len(x_srcs), n))
                ]
                last = specs.pop()
                div = DivRowSpec(
                    group=last.group, row=last.row, slot=slot, x_srcs=last.x_srcs, w_ints=last.w_ints,
                    a=lp.a, b=lp.b, off=lp.off, z_out=lp.z_out,
                )
                out.append(SitePlan(lp.layer, flat, lp.z_in, bias, tuple(specs), div))
        return out


# --- grid builder -----------------------------------------------------------

def _lane(group: int, j: int) -> str:
    """Column id of x lane j of gate group `group`, shared by its slots."""
    return f"g{group}:x{j}"


def _slot_col(group: int, slot: int, name: str) -> str:
    """Column id of slot `slot`'s own column `name` in gate group `group`:
    w<j>, carry, out, r, q, act or const."""
    return f"g{group}:s{slot}:{name}"


class _Slot:
    """One output slot's own columns in a gate group."""

    def __init__(self, builder: "_Builder", group: int, slot: int):
        wkind = ADVICE if builder.weights_advice else FIXED

        def col(name: str, kind: str = ADVICE) -> str:
            return builder.new_column(_slot_col(group, slot, name), kind)

        self.ws = tuple(col(f"w{j}", wkind) for j in range(GATE_WIDTH))
        self.carry, self.out, self.r, self.q, self.act = map(col, ("carry", "out", "r", "q", "act"))
        self.const = col("const", FIXED)
        # Column numbers, as the packed copy list holds them.
        num = builder.col_number
        self.w_nums = tuple(num[c] for c in self.ws)
        self.carry_num, self.out_num, self.const_num = num[self.carry], num[self.out], num[self.const]
        # The public weight lanes' sparse cells.
        self.w_fixed = tuple(builder.fixed.get(c) for c in self.ws)


class _Group:
    """The gate-column group of M output slots over shared x lanes; its
    rows hold DOT chains, DIV on each last row.  Every row of the group
    fills all M slots."""

    def __init__(self, builder: "_Builder", index: int, m: int):
        self.index = index
        self.cursor = 0
        g = f"g{index}"
        self.xs = tuple(builder.new_column(_lane(index, j), ADVICE) for j in range(GATE_WIDTH))
        self.slots = tuple(_Slot(builder, index, s) for s in range(m))
        self.z = builder.new_column(f"{g}:z", FIXED)
        self.div_a = builder.new_column(f"{g}:da", FIXED)
        self.div_b = builder.new_column(f"{g}:db", FIXED)
        self.div_off = builder.new_column(f"{g}:off", FIXED)
        self.q_dots = tuple(builder.new_column(f"{g}:q_dot{k}", FIXED) for k in range(1, GATE_WIDTH + 1))
        self.q_div = builder.new_column(f"{g}:q_div", FIXED)
        cols = GateColumns(
            xs=self.xs, z=self.z, div_a=self.div_a, div_b=self.div_b, div_off=self.div_off,
            q_dots=self.q_dots, q_div=self.q_div,
            slots=tuple(SlotColumns(ws=s.ws, carry=s.carry, out=s.out, r=s.r, q=s.q, act=s.act) for s in self.slots),
        )
        builder.gates.extend(builtin_gates(cols, prefix=f"{g}:"))
        self.lookup_selectors: dict[str, str] = {}
        self.x_nums = tuple(builder.col_number[c] for c in self.xs)


class _Builder:
    def __init__(self, graph: ModelGraph, cfg: CompileConfig):
        self.graph = graph
        self.cfg = cfg
        self.p = cfg.field.modulus
        self.columns: dict[str, Column] = {}
        self.col_number: dict[str, int] = {}
        # Each fixed column's nonzero cells, set in increasing row order.
        self.fixed: dict[str, dict[int, int]] = {}
        self.gates: list[GateDef] = []
        self.tables: dict[str, LookupTable] = {}
        self.lookups: list[LookupArg] = []
        self.copies: list[int] = []  # packed, as in circuit.Copies
        self.instance_map: list[tuple[tuple, int]] = []
        self.groups: dict[int, _Group] = {}   # slot count M -> its group, in column order
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
        self.regions: dict[str, dict[str, int]] = {}   # CircuitStats.regions
        self.zero_col = self.new_column("zero", FIXED)

    def new_column(self, col_id: str, kind: str) -> str:
        self.col_number.setdefault(col_id, len(self.col_number))
        self.columns[col_id] = Column(col_id, kind)
        if kind == FIXED:
            self.fixed[col_id] = {}
        return col_id

    def set_fixed(self, col_id: str, row: int, value: int) -> None:
        value %= self.p
        if value:
            self.fixed[col_id][row] = value
        else:
            self.fixed[col_id].pop(row, None)

    def group(self, m: int) -> _Group:
        """The group of M = m slots, opened on first use; groups of
        different M sit side by side."""
        g = self.groups.get(m)
        if g is None:
            g = self.groups[m] = _Group(self, len(self.groups), m)
        return g

    def copy(self, a: tuple, b: tuple) -> None:
        num = self.col_number
        self.copies += (num[a[0]], a[1], num[b[0]], b[1])

    def io_columns(self) -> tuple:
        if self.io_cols is None:
            self.io_cols = tuple(self.new_column(f"io{j}", ADVICE) for j in range(GATE_WIDTH))
        return self.io_cols

    def stage(self, count: int, range_selector: str | None) -> list[tuple]:
        """Staging cells for `count` values, GATE_WIDTH per row.

        On range-checked rows the lookup applies to the whole row, so
        unused trailing cells are pinned to zero (and later assigned 0);
        rows without a row-wide lookup leave their tail unconstrained.
        """
        cols = self.io_columns()
        cells: list[tuple] = []
        while len(cells) < count:
            row = self.io_cursor
            self.io_cursor += 1
            if range_selector is not None:
                self.set_fixed(range_selector, row, 1)
            for j in range(GATE_WIDTH):
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
                cell(col) if j == 0 else mul(const(pow(256, j, self.p)), cell(col))
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
        The staged cells and each row's pk_out are recorded, with their
        values, as weight staging; each pk_in is a copy."""
        pk_in, pk_out, scale_col, off_col, q_pack = self.pack_columns()
        n = GATE_WIDTH
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
            acc += scale * sum(v << (8 * j) for j, v in enumerate(live)) + off
            self.weight_cells.append((pk_out, row))
            self.weight_values.append(acc % p)
            prev = (pk_out, row)
        self.weight_cells += cells
        self.weight_values += [v % p for v in values]
        return cells, prev

    def table(self, recipe: tuple) -> str:
        """The id of the table `recipe` describes, built on first use."""
        tid, _ = check_recipe(recipe, self.p)
        if tid not in self.tables:
            self.tables[tid] = lookup_table(recipe, self.p)
        return tid

    def group_lookup_selector(self, group: _Group, table_id: str, names: tuple) -> str:
        """The row-level selector applying `table_id` to the slot columns
        `names` (such as ("q", "act")) of every slot of the group."""
        sel = group.lookup_selectors.get(table_id)
        if sel is None:
            sel = self.new_column(f"g{group.index}:q:{table_id}", FIXED)
            group.lookup_selectors[table_id] = sel
            for m, slot in enumerate(group.slots):
                self.lookups.append(
                    LookupArg(
                        id=f"g{group.index}:s{m}:lk:{table_id}",
                        table=table_id,
                        columns=tuple(getattr(slot, name) for name in names),
                        selector=sel,
                    )
                )
        return sel


def check_recipe(recipe: tuple, p: int) -> tuple[str, int]:
    """The id of the table `recipe` describes on the field of modulus p and
    the size of its domain, which bounds its entries; CompileError for a
    recipe lookup_table refuses."""
    kind = recipe[0] if type(recipe) is tuple and recipe else None
    if not (type(kind) is str and len(recipe) == {"range": 3, "clip": 6}.get(kind)
            and all(type(v) is int for v in recipe[1:])):
        raise CompileError(f"table recipe {recipe!r} is neither ('range', lo, hi) nor"
                           " ('clip', a, b, z_out, d_lo, d_hi) with integer parameters")
    *scale, lo, hi = recipe[1:]
    a, b, z_out = scale or (1, 1, 0)
    tid = f"clip:a{a}:b{b}:z{z_out}" if scale else f"range:{lo}:{hi}"
    n = hi - lo + 1
    if n < 1:
        raise CompileError(f"table {tid}: empty domain {lo}..{hi}")
    if n > LOOKUP_CAP:
        raise CompileError(f"table {tid} of {n} entries exceeds the cap {LOOKUP_CAP}")
    if a < 1 or b < 1:
        raise CompileError(f"table {tid}: the scale a/b must be positive")
    # DIV pins (q, r) only if every pair the lookups admit, (q - off) * b + r
    # over the quotients and 0 <= r < b, is a distinct residue; hi < p keeps
    # every key d + clip_offset(lo) a residue.
    if scale and (n * b > p or hi >= p):
        raise CompileError(f"table {tid}: quotients {lo}..{hi} times b exceed the modulus {p}; use a larger field")
    return tid, n


def clip_offset(d_lo: int) -> int:
    """The shift from a clip table's quotients d >= d_lo to its keys."""
    return max(0, -d_lo)


def lookup_table(recipe: tuple, p: int) -> LookupTable:
    """The table `recipe` describes on the field of modulus p, for compile
    and the layout loader alike: ("range", lo, hi) holds v mod p for each v
    in [lo, hi], and ("clip", a, b, z_out, d_lo, d_hi) maps each quotient d
    in [d_lo, d_hi], keyed d + clip_offset(d_lo), to clip(d + z_out, 0, 255)."""
    tid, _ = check_recipe(recipe, p)
    if recipe[0] == "range":
        return LookupTable(recipe, tid, 1, frozenset((v % p,) for v in range(recipe[1], recipe[2] + 1)))
    _, _, _, z_out, d_lo, d_hi = recipe
    off = clip_offset(d_lo)
    # clip(d + z_out, 0, 255) over the domain: a run of 0s, the values
    # 0..255 the domain reaches, then a run of 255s.
    lo, hi = d_lo + z_out, d_hi + z_out
    n = hi - lo + 1
    acts = [0] * min(max(-lo, 0), n) + list(range(max(lo, 0), min(hi, 255) + 1)) + [255] * min(max(hi - 255, 0), n)
    return LookupTable(recipe, tid, 2, frozenset(zip(range(d_lo + off, d_hi + off + 1), acts)))


def _scale_key(graph: ModelGraph, layer) -> tuple[int, int, int]:
    """The (a, b, z_out) a layer's DIV rows divide by and its clip table
    is keyed by: the layer's own scale, or (1, h*w, 0) for pooling."""
    if layer.kind == "average_pool":
        h, w, _ = graph.shape_of_ref(layer.input_refs[0])
        return 1, h * w, 0
    q = layer.out_quant
    return q.scale.a, q.scale.b, q.zero_point


def _tap_table(graph: ModelGraph, i: int, act_cells: dict) -> tuple[list, list, list, int]:
    """Layer i's taps as one table: (source cells, windows, channels, z_in).

    windows holds, per output position, (source offsets, weight offsets)
    and channels, per output channel, (source base, weight base).  Site
    (pos, ch), flat index pos * len(channels) + ch, reads the source
    cells base + o for o in the position's source offsets against the
    weights base + o for o in its weight offsets; weight offsets None
    means unit weights.  Every output channel shares its position's
    offsets, and padded window positions are left out: padding with the
    input zero point makes their contribution exactly zero.
    """
    layer = graph.layers[i]
    ref = layer.input_refs[0]
    src = act_cells[ref]
    if layer.kind in ("conv2d", "depthwise_conv2d"):
        h, w, c = graph.shape_of_ref(ref)
        oh, ow, oc = graph.output_shapes[i]
        if layer.kind == "conv2d":
            _, kh, kw, ic = layer.weights.shape
            lanes, w_step = range(ic), ic
            channels = [(0, o * kh * kw * ic) for o in range(oc)]
        else:
            kh, kw, _ = layer.weights.shape
            lanes, w_step = (0,), oc
            channels = [(o, o) for o in range(oc)]
        top = left = 0
        if layer.padding == "same":
            top = max((oh - 1) * layer.stride + kh - h, 0) // 2
            left = max((ow - 1) * layer.stride + kw - w, 0) // 2
        windows = []
        for o_i in range(oh):
            taps_r = [(r, o_i * layer.stride - top + r) for r in range(kh)]
            taps_r = [(r, ih) for r, ih in taps_r if 0 <= ih < h]
            for o_j in range(ow):
                taps_s = [(s, o_j * layer.stride - left + s) for s in range(kw)]
                taps_s = [(s, iw) for s, iw in taps_s if 0 <= iw < w]
                x_offs = [(ih * w + iw) * c + ci for _, ih in taps_r for _, iw in taps_s for ci in lanes]
                w_offs = [(r * kw + s) * w_step + ci for r, _ in taps_r for s, _ in taps_s for ci in lanes]
                windows.append((x_offs, w_offs))
        return src, windows, channels, graph.quant_of_ref(ref).zero_point
    if layer.kind == "fully_connected":
        units, feat = layer.weights.shape
        offs = range(feat)
        return src, [(offs, offs)], [(0, u * feat) for u in range(units)], graph.quant_of_ref(ref).zero_point
    if layer.kind == "residual_add":
        other = act_cells[layer.input_refs[1]]
        n = len(src)
        return src + other, [((0, n), None)], [(f, None) for f in range(n)], layer.out_quant.zero_point
    # average_pool (global): sum over H x W at this channel, unit weights.
    h, w, c = graph.shape_of_ref(ref)
    offs = [(r * w + s) * c for r in range(h) for s in range(w)]
    return src, [(offs, None)], [(ch, None) for ch in range(c)], 0


# --- compile ----------------------------------------------------------------

def compile(graph: ModelGraph, cfg: CompileConfig | None = None) -> tuple[CircuitLayout, CircuitStats]:
    """Compile a validated model graph into a grid layout plus stats."""
    cfg = cfg or CompileConfig()
    fld = cfg.field
    p = fld.modulus
    bounds = graph.bounds
    mode = cfg.mode
    sponge = cfg.sponge_params() if mode is not None else None

    # Clip-table domains, unioned per (a, b, z_out) key.
    keys: dict[int, tuple] = {}
    domains: dict[tuple, tuple[int, int]] = {}
    for i, layer in enumerate(graph.layers):
        if layer.kind == "output":
            continue
        keys[i] = key = _scale_key(graph, layer)
        a, b, _ = key
        lo_c, hi_c = bounds[i]
        if max(abs(lo_c), abs(hi_c)) * a * 4 >= p:
            raise CompileError(
                f"layer {i}: accumulator range times scale exceeds modulus/4; "
                f"use a larger field"
            )
        d_lo, d_hi = (lo_c * a) // b, (hi_c * a) // b
        lo, hi = domains.get(key, (d_lo, d_hi))
        domains[key] = (min(lo, d_lo), max(hi, d_hi))

    bld = _Builder(graph, cfg)
    clips = {key: ("clip", *key, *domain) for key, domain in domains.items()}

    # Input staging (always present; instance-bound or sponge-bound).
    n_inputs = 1
    for d in graph.input_shape:
        n_inputs *= d
    # Hidden inputs and hidden biases are range-checked bytes.
    input_hidden = mode is not None and mode.input_hidden
    q_byte = None
    if input_hidden or bld.weights_advice:
        q_byte = bld.io_lookup("byte", bld.table(("range", 0, 255)))
    input_cells = bld.stage(n_inputs, q_byte if input_hidden else None)

    # Weight chunks and biases, staged and packed, when hidden.
    absorbed_cells: list[tuple] = []
    if bld.weights_advice:
        if not any(layer.weights is not None for layer in graph.layers):
            raise CompileError("hidden-weights mode needs at least one parameterized layer")
        q_i8 = bld.io_lookup("w", bld.table(("range", -128, 127)))
        k = pack_width(p)
        for i, layer in enumerate(graph.layers):
            if layer.weights is None:
                continue
            ws = graph.signed_weights[i]
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

    bld.regions["staging"] = {
        "rows": bld.io_cursor,
        "copies": len(bld.copies) // 4,
        "lookup_rows": sum(len(bld.fixed[lk.selector]) for lk in bld.lookups),
    }

    # Per-layer lowering into rows, in layer order: each x source is
    # assigned before the site that reads it.
    layer_plans: list[LayerPlan] = []
    act_cells: dict[int, list] = {INPUT_REF: input_cells}
    acc_cells: dict[int, list] = {}   # each site's last out: its accumulator
    for i, key in keys.items():
        n_copies = len(bld.copies)
        lp = _lower_layer(bld, i, clips[key], act_cells)
        layer_plans.append(lp)
        slots = {g.index: g.slots for g in bld.groups.values()}
        ends = [
            (slots[g][s], row + _chain_rows(len(x_srcs)) - 1) for x_srcs, _, _, s, g, row in lp.sites
        ]
        act_cells[i] = [(slot.act, row) for slot, row in ends]
        acc_cells[i] = [(slot.out, row) for slot, row in ends]
        bld.regions[f"layer{i}"] = {
            # grid rows: a chunk's slots share its rows, counted at slot 0
            "rows": sum(_chain_rows(len(x_srcs)) for x_srcs, _, _, s, *_ in lp.sites if s == 0),
            "copies": (len(bld.copies) - n_copies) // 4,
            "lookup_rows": 2 * len(lp.sites),   # each DIV row's range and clip lookups
        }
    n_copies = len(bld.copies)

    # Output wiring: logits are the referenced layer's accumulators.
    out_layer = graph.layers[graph.output_layer_index]
    ref = out_layer.input_refs[0]
    logit_cells = input_cells if ref == INPUT_REF else acc_cells[ref]

    # The instance order: logits, then the raw input codes or the input
    # digest, then the weight digest when weights are hidden.
    bound = list(logit_cells)
    sponge_plans: list[SpongePlan] = []
    if not input_hidden:
        bound += input_cells
    else:
        sp = _build_sponge(bld, sponge, "input", input_cells)
        sponge_plans.append(sp)
        bound.append(sp.digest_cell)
    if bld.weights_advice:
        sp = _build_sponge(bld, sponge, "weights", absorbed_cells)
        # The weight digest depends only on the model: compute its states
        # out once.
        staged = dict(zip(bld.weight_cells, bld.weight_values))
        filled = defaultdict(dict)
        _fill_sponge(filled, sp, [staged[c] for c in absorbed_cells], sponge)
        sp = replace(sp, filled=dict(filled))
        sponge_plans.append(sp)
        bound.append(sp.digest_cell)
    bld.instance_map = [(c, idx) for idx, c in enumerate(bound)]
    bld.regions["sponge"] = {"rows": bld.sponge_cursor, "copies": (len(bld.copies) - n_copies) // 4}

    layout, stats = _finalize(bld)
    names = layout.copies.names
    layout.plan = WitnessPlan(
        sponge=sponge,
        n_inputs=n_inputs,
        input_cells=input_cells,
        io_pad_cells=bld.io_pad_cells,
        weight_cells=bld.weight_cells if bld.weights_advice else None,
        weight_values=bld.weight_values if bld.weights_advice else None,
        layer_plans=layer_plans,
        sponges=sponge_plans,
        group_slots=list(bld.groups),
        fixed_sources={
            k: layout.fixed[names[k]].tolist() for k in set(bld.copies[2::4]) if names[k] in layout.fixed
        },
    )
    return layout, stats


def _chunks(channels: list) -> list[range]:
    """The layer's channels as slot chunks, in order.  Consecutive
    channels with the same source base read the same patch; each such
    run of C channels is split into ceil(C/N) chunks as equal as possible
    (C = 10 at N = 8 gives 5 + 5, C = 11 gives 6 + 5)."""
    out = []
    lo = 0
    while lo < len(channels):
        hi = lo + 1
        while hi < len(channels) and channels[hi][0] == channels[lo][0]:
            hi += 1
        parts = -(-(hi - lo) // GATE_WIDTH)
        size, extra = divmod(hi - lo, parts)
        for part in range(parts):
            m = size + (part < extra)
            out.append(range(lo, lo + m))
            lo += m
    return out


def _lower_layer(bld: _Builder, i: int, clip: tuple, act_cells: dict) -> LayerPlan:
    """Emit layer i's rows from its tap table, straight into the builder's
    packed copies and sparse fixed columns: per output position and per
    chunk of M channels sharing its patch, one DOT chain of ceil(k/N) rows
    in the group of M slots, the x lanes copied once per row and DIV on
    the last row.  `clip` is the recipe of the layer's clip table."""
    graph = bld.graph
    layer = graph.layers[i]
    src, windows, channels, z_in = _tap_table(graph, i, act_cells)
    n = GATE_WIDTH
    p = bld.p
    _, a, b, z_out, d_lo, _ = clip
    off = clip_offset(d_lo)
    fixed = bld.fixed
    copies = bld.copies
    num = bld.col_number
    src_nums = [(num[col], row) for col, row in src]
    hidden = bld.weights_advice
    # What a weight lane takes: its fixed value when weights are public,
    # a copy of the staged weight cell when they are hidden.
    if layer.weights is not None:
        w_vals = graph.signed_weights[i]
        w_sources = [w % p for w in w_vals]
    if i in bld.param_cells:
        w_cells, b_cells = bld.param_cells[i]
        w_sources = [(num[col], row) for col, row in w_cells]
        b_nums = [(num[col], row) for col, row in b_cells]
    biases = layer.bias or (0,) * len(channels)
    z_mod = z_in % p
    zero_num = num[bld.zero_col]
    rtab = bld.table(("range", 0, b - 1))
    ctab = bld.table(clip)
    chunks = _chunks(channels)

    sites = []
    for x_offs, w_offs in windows:
        k = len(x_offs)
        for chunk in chunks:
            x_base = channels[chunk.start][0]
            x_srcs = [src[x_base + o] for o in x_offs]
            x_nums = [src_nums[x_base + o] for o in x_offs]
            if w_offs is None:
                w_ints = w_lanes = [[1] * k] * len(chunk)
            else:
                w_ints = [[w_vals[channels[ch][1] + o] for o in w_offs] for ch in chunk]
                w_lanes = [[w_sources[channels[ch][1] + o] for o in w_offs] for ch in chunk]
            carry_srcs = [None] * len(chunk)
            g = bld.group(len(chunk))
            first_row = g.cursor
            g.cursor += _chain_rows(k)
            for row, lo in enumerate(range(0, k, n), first_row):
                hi = lo + n
                fixed[g.q_dots[min(hi, k) - lo - 1]][row] = 1
                if z_mod:
                    fixed[g.z][row] = z_mod
                for x, (col, src_row) in zip(g.x_nums, x_nums[lo:hi]):
                    copies += (x, row, col, src_row)
                for s, (slot, ch) in enumerate(zip(g.slots, chunk)):
                    if not hidden:
                        for w_fixed, w in zip(slot.w_fixed, w_lanes[s][lo:hi]):
                            if w:
                                w_fixed[row] = w
                    elif w_offs is not None:
                        for w, (w_col, w_row) in zip(slot.w_nums, w_lanes[s][lo:hi]):
                            copies += (w, row, w_col, w_row)
                    else:
                        # structural unit weights (residual / pooling)
                        fixed[slot.const][row] = 1
                        for w in slot.w_nums[: min(hi, k) - lo]:
                            copies += (w, row, slot.const_num, row)
                    carry_src = carry_srcs[s]
                    if carry_src is None:
                        # The bias enters through the first carry, not through
                        # const: in hidden-weights mode const holds unit weights.
                        if i in bld.param_cells:
                            carry_src = b_nums[ch]
                        elif biases[ch]:
                            bld.set_fixed(slot.const, row, biases[ch])
                            carry_src = (slot.const_num, row)
                        else:
                            carry_src = (zero_num, row)
                    copies += (slot.carry_num, row, *carry_src)
                    carry_srcs[s] = (slot.out_num, row)

            # The last row carries DIV, and each slot's remainder range
            # check and clip lookup.
            bld.set_fixed(g.q_div, row, 1)
            bld.set_fixed(g.div_a, row, a)
            bld.set_fixed(g.div_b, row, b)
            bld.set_fixed(g.div_off, row, off)
            fixed[bld.group_lookup_selector(g, rtab, ("r",))][row] = 1
            fixed[bld.group_lookup_selector(g, ctab, ("q", "act"))][row] = 1
            for s, ch in enumerate(chunk):
                sites.append((x_srcs, w_ints[s], biases[ch], s, g.index, first_row))
    return LayerPlan(layer=i, z_in=z_in, a=a, b=b, off=off, z_out=z_out, sites=sites)


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
        # Every round gate reads the same s_in + rc and S-box subtrees,
        # which the checker then evaluates once per row.
        shifted = [add(cell(sc["s_in"][j]), cell(sc["rc"][j])) for j in range(t)]
        sboxes = [pow5(x) for x in shifted]
        for k in range(t):
            full_terms = [mul(const(params.mds[k][j]), sboxes[j]) for j in range(t)]
            part_terms = [mul(const(params.mds[k][0]), sboxes[0])] + [
                mul(const(params.mds[k][j]), shifted[j]) for j in range(1, t)
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
        [g.cursor for g in bld.groups.values()] + [bld.io_cursor, bld.sponge_cursor] + [1]
    )
    padded = 1 << (logical - 1).bit_length()   # logical >= 1
    if padded > MAX_ROWS:
        raise CompileError(f"the grid needs {padded} rows, over the limit of {MAX_ROWS}")
    n_advice = sum(col.kind == ADVICE for col in bld.columns.values())
    if padded * max(n_advice, len(bld.fixed)) > MAX_CELLS:
        raise CompileError(
            f"the grid needs {padded} rows of {n_advice} advice and {len(bld.fixed)} fixed"
            f" columns, over the limit of {MAX_CELLS} cells"
        )
    # validate() below refuses a column whose cells were not set in
    # increasing row order.
    fixed = {col_id: FixedColumn(cells, padded) for col_id, cells in bld.fixed.items()}
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
        regions=bld.regions,
        advice_cells=n_advice * padded,
        groups=[{"slots": m, "rows": g.cursor} for m, g in bld.groups.items()],
    )
    return layout, stats


# --- witness assignment ------------------------------------------------------

def assign_witness(layout: CircuitLayout, graph: ModelGraph, inp: QuantTensor) -> Assignment:
    """Fill the honest witness for one input.

    The layout must come from compile() for the same graph; the attached
    plan drives the fill.  The witness computes the cells no copy fills:
    the input codes, the weight staging, each chain row's out and the
    last row's r, q and act, and the sponge states out.  Each site's
    accumulator and activation are checked against the interpreter
    trace.  One pass over the layout's copies then fills every other
    cell, and the instance is the bound cells' values.
    """
    plan: WitnessPlan = layout.plan
    if plan is None:
        raise WitnessError("layout carries no witness plan (was it deserialized?)")
    p = layout.field.modulus
    n = GATE_WIDTH
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

    for (col, row), v in zip(plan.input_cells, codes):
        advice[col][row] = v
    if plan.weight_cells is not None:
        for (col, row), v in zip(plan.weight_cells, plan.weight_values):
            advice[col][row] = v

    slot_cols = [
        [tuple(advice[_slot_col(gi, s, name)] for name in ("out", "r", "q", "act")) for s in range(m)]
        for gi, m in enumerate(plan.group_slots)
    ]
    for lp in plan.layer_plans:
        z = lp.z_in
        accs, acts = flat_accs[lp.layer], flat_acts[lp.layer]
        for flat, (x_srcs, w_ints, bias, slot, gi, first_row) in enumerate(lp.sites):
            if slot == 0:
                # A chunk's sites share their x source cells.
                diffs = [advice[col][src_row] - z for col, src_row in x_srcs]
            out, r_col, q_col, act_col = slot_cols[gi][slot]
            acc = bias
            for row, lo in enumerate(range(0, len(x_srcs), n), first_row):
                acc += sum(map(operator.mul, diffs[lo : lo + n], w_ints[lo : lo + n]))
                out[row] = acc % p
            if acc != int(accs[flat]):
                raise WitnessError(
                    f"internal mismatch at layer {lp.layer} site {flat}: "
                    f"{acc} vs trace {int(accs[flat])}"
                )
            num = acc * lp.a
            d_q = num // lp.b
            r_col[row] = (num - d_q * lp.b) % p
            q_col[row] = (d_q + lp.off) % p
            act = int(acts[flat])
            if act != min(255, max(0, d_q + lp.z_out)):
                raise WitnessError(f"internal activation mismatch at layer {lp.layer} site {flat}")
            act_col[row] = act

    for sp in plan.sponges:
        if sp.filled is None:
            elements = [advice[col][row] for col, row in sp.message_cells]
            _fill_sponge(advice, sp, elements, plan.sponge)
            continue
        for col, cells in sp.filled.items():
            column = advice[col]
            for row, v in cells.items():
                column[row] = v

    # Every copy is (target, source).  Compile makes each target an
    # advice cell, no cell the target of two copies and no source the
    # target of another copy, so one pass in any order gives every target
    # the value of a cell computed above or of a fixed cell.
    asg = Assignment(advice=advice, instance=[0] * len(layout.instance_map))
    copies = layout.copies
    cols = [layout.resolve_column(name, asg) for name in copies.names]
    for k, cells in plan.fixed_sources.items():
        cols[k] = cells
    it = iter(copies.flat)
    for ca, ra, cb, rb in zip(it, it, it, it):
        cols[ca][ra] = cols[cb][rb]

    for (col, row), idx in layout.instance_map:
        asg.instance[idx] = advice[col][row]
    return asg


def _fill_sponge(advice, sp: SpongePlan, elements: list[int], params: SpongeParams) -> None:
    """Write the states out of `commit.sponge_states` for `elements` to
    the sponge's rows: each chunk's absorb row, then its round rows.
    Every other sponge cell is a copy."""
    outs = [advice[f"sp:out{j}"] for j in range(params.t)]
    for (_, states), absorb_row, round_rows in zip(
        sponge_states(elements, params), sp.absorb_rows, sp.round_rows
    ):
        for row, s_out in zip((absorb_row, *round_rows), states[1:]):
            for column, v in zip(outs, s_out):
                column[row] = v
