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

Lowering goes a layer at a time.  Each layer's taps are integer arrays
(`taps.layer_taps`): per output position, the source offsets of its
window (padding clipped) and the matching weight offsets, shared by every
output channel; per channel, a source base and a weight base (conv and fc
channels share a patch).  The layer's rows, copies and fixed cells are
emitted from those arrays with a few numpy operations: padded (chain,
row, lane or slot) arrays and one mask, flattened in copy order into one
int32 piece of the builder's packed copies, and one (rows, values) array
piece per fixed column; the layout's arrays are those pieces joined.
Staging pads, PACK rows and sponge rows are emitted the same way, from
padded (unit, row or lane) and (row, lane) arrays: every cell compile
sets is a pair of int32 arrays, column numbers and rows, and so is the
instance map, packed as compile builds it.  Before
any of that, compile works out the grid's height from the model's shapes
(`taps.layer_rows`) and refuses one over MAX_ROWS.  The witness plan
keeps one record per layer (LayerPlan): its z_in, its DIV key (a, b, off,
z_out), the refs it reads and the same arrays.  Per chain they hold its
source indices into the refs' flattened outputs and its tap count; per
site its chain, slot, group, first row, bias and weights.  Every chain is
padded to the layer's widest, a multiple of N taps, with weight 0 on the
pad taps, so the witness fills a whole layer with a few array operations:
gather the sources from the trace, one product with the weights, a sum
per N-tap block and a cumulative sum give every row's out.
The DIV step runs in int64 when a and max|bound| * a fit it, on Python
ints otherwise, as in the interpreter.

Each DOT lane's x is a copy of a source cell, an input code or an earlier
layer's act.  Compile numbers only the advice cells the witness writes,
column by column in row order (`WitnessPlan`), so each column is one
slice of the numbers.  The witness fills one flat object array of exactly
those cells, each step one scatter: the input codes, what the model alone
fixes (weight staging, the weight digest's sponge states and the copies
of fixed cells, worked out at compile), the outs, each DIV row's r, q and
act and the input digest's sponge states; one gather over the copies then
fills the rest, x lanes included.  A column whose every cell the model
alone fixes is split into int_cells' form once, at compile, and shared
read-only by every witness, which skips its copies.  The instance vector
is the compiled instance map: logits, then raw input codes or the input
digest, then the weight digest.

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

Sponge rows.  Each rate-sized chunk of a digest takes
full_rounds + ceil(partial_rounds / 2) rows, 37 at the default params
(t = 3, 8 full and 57 partial rounds), holding the states of
`commit.sponge_states`:

  * one row per full round; round 0's row also adds the chunk, so there
    is no absorb row: s_out_k = sum_j M_kj (s_in_j + msg_j + rc_j)^5,
    with msg on the rate lanes only
  * one row per pair of partial rounds, the last alone when their count
    is odd; a pair row's advice cell u holds lane 0 after the first
    round and the second round's S-box reads it, so every gate stays
    degree 5, with the second round's constants in the fixed columns
    rcb_j.  Its gates state the second mix as M^-1 s_out = the S-box
    layer, so they multiply only canonical cells
  * each row's state in is a copy of the state out of the row before;
    a sponge's first row copies zeros and adds the initial state
    (0, ..., 0, length) to its round constants instead
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .circuit import (
    ADVICE,
    FIXED,
    LOOKUP_CAP,
    MAX_CELLS,
    MAX_ROWS,
    AdviceColumn,
    Assignment,
    Bindings,
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
    clip_offset,
    const,
    int_cells,
    mul,
    pow5,
    sub,
)
from .commit import (
    SpongeParams,
    VisibilityMode,
    default_sponge_params,
    pack_width,
    sponge_states,
)
from .field import Field
from .interpreter import run_inference, scale_fits_int64
from .model import (
    INPUT_REF,
    ModelGraph,
    QuantTensor,
)
from .taps import GATE_WIDTH, SHARED, chain_rows, layer_rows, layer_taps, split


class CompileError(ValueError):
    pass


class WitnessError(ValueError):
    pass


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
        return default_sponge_params(self.field.modulus)


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
    # "sponge" (which has no lookups, and counts its absorbs).  A copy
    # belongs to the part that emitted it, a lookup row to the part of the
    # row its selector enables.
    regions: dict
    # Advice columns times padded rows: wider rows move cells into columns.
    advice_cells: int
    # Per gate group, in column order: its slot count M and its rows.
    groups: list

    def to_json(self) -> dict:
        return dict(self.__dict__)


# --- witness plan -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LayerPlan:
    """One lowered layer, as the witness fills it: its tap table as
    integer arrays, every chain padded to the same K taps, a multiple of
    N, with weight 0 on each pad tap."""

    layer: int
    z_in: int
    a: int
    b: int
    off: int
    z_out: int
    # The refs the layer reads.  A source index is a position in their
    # flattened outputs, concatenated in this order (a residual's first
    # input, then its second).
    refs: tuple
    # Per chain, in emission order (per output position, per chunk of the
    # channels sharing its patch): its K source indices and its tap count
    # k.  The chain spans ceil(k/N) rows; row r holds taps r*N .. r*N + N - 1.
    src: np.ndarray       # (chains, K)
    taps: np.ndarray      # (chains,)
    # Per site, in flat order: its chain, its slot and group, the first
    # row of its chain, its bias and its K weights.  The sites of one
    # chain (slots 0 .. M-1, consecutive) share its rows; the last row
    # carries DIV.
    chain: np.ndarray     # (sites,)
    slot: np.ndarray
    group: np.ndarray
    first_row: np.ndarray
    bias: np.ndarray
    weights: np.ndarray   # (sites, K)
    # Cell numbers: per site, the out of each of its K / N row blocks (a
    # pad block adds 0, so it names the last row); then every site's r,
    # every q and every act on its last row.
    out_at: np.ndarray | None = None
    div_at: np.ndarray | None = None


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
    """One committed tensor's sponge; the `*_at` fields are cell numbers
    (WitnessPlan)."""

    label: str            # "input" | "weights"
    rows: np.ndarray      # per rate-sized chunk: its round-0 row, which adds it, then its later rounds' rows
    message_at: np.ndarray   # the absorbed cells, in order
    state_at: np.ndarray     # per row, its state out, then u on a pair row
    digest_at: int

    absorb_rows = property(lambda self: tuple(self.rows[:, 0].tolist()))
    round_rows = property(lambda self: tuple(map(tuple, self.rows[:, 1:].tolist())))


@dataclass
class WitnessPlan:
    """The `*_at` fields are integer arrays of cell numbers.  Only the
    advice cells the witness writes have a number: 0 .. n_cells - 1,
    column by column in layout order and by row within a column, so a
    column's cells are one slice of the witness's flat cell array."""

    sponge: SpongeParams | None
    n_inputs: int
    layer_plans: list
    sponges: list
    advice_ids: list          # the advice columns, in layout order
    n_rows: int
    # Per cell number, its advice index * n_rows + its row, increasing.
    cell_ids: np.ndarray
    # Per advice column: its used length, which of those rows it assigns
    # (None: all of them) and the slice of cell numbers that holds them.
    lengths: list
    present: list
    slices: list
    # The advice columns whose every cell the model alone fixes, by
    # advice index: their cells as int_cells splits them, worked out once
    # and read-only, since every witness shares them.  The other columns
    # are split per witness.
    model_forms: dict
    input_at: np.ndarray
    pad_at: np.ndarray        # the staging cells pinned to zero
    # Every cell the weight staging computes (int8 weights, bias bytes and
    # each PACK row's pk_out), None unless weights are hidden; none of it
    # depends on the input.
    weight_at: np.ndarray | None
    # Every cell whose value the model alone fixes, and its value: the
    # weight staging, the weight digest's states and each copy of a fixed
    # cell.
    model_at: np.ndarray
    model_values: np.ndarray
    # The copies between advice cells, but for those into a column of
    # `model_forms`, which already holds their values.
    copy_to: np.ndarray
    copy_from: np.ndarray
    instance_at: np.ndarray   # the bound cell of each instance value

    @property
    def n_cells(self) -> int:
        return len(self.cell_ids)

    def cells(self, at) -> list[tuple]:
        """The (column id, row) of each cell number in `at`."""
        cols, rows = np.divmod(self.cell_ids[np.asarray(at, np.int64)], self.n_rows)
        return list(zip(map(self.advice_ids.__getitem__, cols.tolist()), rows.tolist()))

    # (column id, row) views of the cell numbers, built on each call; only
    # the benchmark's row attribution (perfbench/layers.py) reads them.
    input_cells = property(lambda self: self.cells(self.input_at))
    io_pad_cells = property(lambda self: self.cells(self.pad_at))
    weight_cells = property(lambda self: None if self.weight_at is None else self.cells(self.weight_at))

    @property
    def site_plans(self) -> list[SitePlan]:
        """One record per site and per row, built from `layer_plans` on
        each call; compile and witness do not use it."""
        n = GATE_WIDTH
        out = []
        act_cells = {INPUT_REF: self.input_cells}
        for lp in self.layer_plans:
            src_cells = [c for ref in lp.refs for c in act_cells[ref]]
            start = len(out)
            taps, src = lp.taps.tolist(), lp.src.tolist()
            weights = lp.weights.tolist()
            sites = zip(lp.chain.tolist(), lp.slot.tolist(), lp.group.tolist(), lp.first_row.tolist(), lp.bias.tolist())
            for flat, (ch, slot, g, first_row, bias) in enumerate(sites):
                k = taps[ch]
                x_srcs = [src_cells[j] for j in src[ch][:k]]
                specs = [
                    DotRowSpec(
                        group=g, row=first_row + r, slot=slot,
                        x_srcs=tuple(x_srcs[lo : lo + n]), w_ints=tuple(weights[flat][lo : min(lo + n, k)]),
                    )
                    for r, lo in enumerate(range(0, k, n))
                ]
                last = specs.pop()
                div = DivRowSpec(
                    group=last.group, row=last.row, slot=slot, x_srcs=last.x_srcs, w_ints=last.w_ints,
                    a=lp.a, b=lp.b, off=lp.off, z_out=lp.z_out,
                )
                out.append(SitePlan(lp.layer, flat, lp.z_in, bias, tuple(specs), div))
            act_cells[lp.layer] = [site.div.cell("act") for site in out[start:]]
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
        # Column numbers, as the packed copy list holds them, by role: per
        # lane, per row role, and per slot (padded to N slots with column
        # 0, which no live slot reads).
        num = builder.col_number
        pad = GATE_WIDTH - m
        self.nums = {
            "x": [num[c] for c in self.xs],
            "q_dot": [num[c] for c in self.q_dots],
            "z": num[self.z], "q_div": num[self.q_div], "da": num[self.div_a], "db": num[self.div_b],
            "off": num[self.div_off],
            "w": [[num[c] for c in s.ws] for s in self.slots] + [[0] * GATE_WIDTH] * pad,
            **{name: [num[getattr(s, name)] for s in self.slots] + [0] * pad
               for name in ("carry", "out", "r", "q", "act", "const")},
        }


class _Builder:
    def __init__(self, graph: ModelGraph, cfg: CompileConfig):
        self.graph = graph
        self.cfg = cfg
        self.p = cfg.field.modulus
        self.columns: dict[str, Column] = {}
        self.col_number: dict[str, int] = {}
        # Each fixed column's nonzero cells, (rows, values) array pieces
        # set in increasing row order after an empty one.
        self.fixed: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self.gates: list[GateDef] = []
        self.tables: dict[str, LookupTable] = {}
        self.lookups: list[LookupArg] = []
        # The copies, packed as in circuit.Copies: int32 array pieces.
        self.copy_parts: list[np.ndarray] = [np.zeros(0, np.int32)]
        self.groups: dict[int, _Group] = {}   # slot count M -> its group, in column order
        self.io_cursor = 0
        self.sponge_cursor = 0
        self.io_cols: tuple | None = None
        # The staging cells pinned to zero, (column numbers, rows) pieces.
        self.io_pads: list[tuple[np.ndarray, np.ndarray]] = []
        self.sponge_cols: dict | None = None
        self.weights_advice = cfg.mode is not None and cfg.mode.weights_hidden
        # layer index -> its staged int8 weight cells and its bias cells,
        # each (column numbers, rows)
        self.param_cells: dict[int, tuple[tuple, tuple]] = {}
        self.pack_cols: tuple | None = None
        self.regions: dict[str, dict[str, int]] = {}   # CircuitStats.regions
        # v mod p for v in -128..127, indexed by v + 128: public weights.
        self.int8_residues = np.array([v % self.p for v in range(-128, 128)], object)
        self.zero_col = self.new_column("zero", FIXED)

    def new_column(self, col_id: str, kind: str) -> str:
        self.col_number.setdefault(col_id, len(self.col_number))
        self.columns[col_id] = Column(col_id, kind)
        if kind == FIXED:
            self.fixed[col_id] = [(np.zeros(0, np.int32), np.zeros(0, np.int64))]
        return col_id

    def nums(self, col_ids) -> np.ndarray:
        """The column numbers of `col_ids`, as an array."""
        return np.array([self.col_number[c] for c in col_ids], np.int32)

    def group(self, m: int) -> _Group:
        """The group of M = m slots, opened on first use; groups of
        different M sit side by side."""
        g = self.groups.get(m)
        if g is None:
            g = self.groups[m] = _Group(self, len(self.groups), m)
        return g

    def put_copies(self, flat: np.ndarray) -> None:
        """Append the packed copies `flat`, after every earlier copy."""
        self.copy_parts.append(flat.astype(np.int32))

    def n_copies(self) -> int:
        return sum(map(len, self.copy_parts)) // 4

    def group_nums(self) -> dict[str, np.ndarray]:
        """Each column role's numbers (`_Group.nums`), stacked by group."""
        groups = list(self.groups.values())
        return {role: np.array([g.nums[role] for g in groups], np.int32) for role in groups[0].nums}

    def put_fixed(self, pieces: list) -> None:
        """Set the fixed cells `pieces` give as (column numbers, rows,
        values) arrays, the values residues or one int for the piece.  A
        column's cells come in increasing row order, after its earlier
        cells; a piece of value 0 is left out."""
        pieces = [pc for pc in pieces if not isinstance(pc[2], int) or pc[2]]
        if not pieces:
            return
        cols = np.concatenate([c for c, _, _ in pieces])
        # A stable sort keeps each column's rows in order; on 16-bit keys
        # it is a radix sort.
        order = np.argsort(cols.astype(np.uint16) if len(self.col_number) <= 1 << 16 else cols, kind="stable")
        cols = cols[order]
        rows = np.concatenate([r for _, r, _ in pieces]).astype(np.int32)[order]
        vals = np.concatenate([np.full(len(c), v, object) if isinstance(v, int) else v for c, _, v in pieces])[order]
        del order, pieces
        cuts = (np.flatnonzero(np.diff(cols)) + 1).tolist()
        names = list(self.col_number)
        for lo, hi in zip([0, *cuts], [*cuts, len(rows)]):
            self.fixed[names[cols[lo]]].append((rows[lo:hi], vals[lo:hi]))

    def io_columns(self) -> tuple:
        if self.io_cols is None:
            self.io_cols = tuple(self.new_column(f"io{j}", ADVICE) for j in range(GATE_WIDTH))
        return self.io_cols

    def stage(self, counts: np.ndarray, selectors: np.ndarray | None, packed: bool = False) -> tuple:
        """Staging rows for units of `counts` values, GATE_WIDTH to a row,
        each unit from a fresh row; `selectors` gives each unit's range
        selector (a column number), or is None.  On range-checked rows the
        lookup applies to the whole row, so a unit's unused trailing cells
        are pinned to zero by copies of the zero column (and later assigned
        0); rows without one leave their tail unconstrained.  A `packed`
        unit chains PACK rows: each row's pk_in is a copy of the previous
        row's pk_out, or of zero on its first row, after the unit's pads.
        Returns the units' rows, padded (unit, row), their mask and the
        values' (column numbers, rows) in order."""
        n = GATE_WIDTH
        n_rows = chain_rows(counts)
        r = np.arange(int(n_rows.max()))
        rows = (self.io_cursor + np.cumsum(n_rows) - n_rows)[:, None] + r
        live = r < n_rows[:, None]
        self.io_cursor += int(n_rows.sum())
        io = self.nums(self.io_columns())
        pos = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        cells = (io[pos % n], np.repeat(rows[:, 0], counts) + pos // n)
        if selectors is not None:
            self.put_fixed([(np.repeat(selectors, n_rows), rows[live], 1)])
            zero = self.col_number[self.zero_col]
            last = (rows[:, 0] + n_rows - 1)[:, None]
            on = [np.arange(n) >= (counts - (n_rows - 1) * n)[:, None]]
            copies = [_copy_block(io, last, zero, last)]
            self.io_pads.append(_live(on[0], io, last))
            if packed:
                pk_in, pk_out = self.nums(self.pack_columns()[:2])
                head = r == 0
                copies.append(_copy_block(pk_in, rows, np.where(head, zero, pk_out), np.where(head, rows, rows - 1)))
                on.append(live)
            self.put_copies(np.concatenate(copies, axis=1)[np.concatenate(on, axis=1)].ravel())
        return rows, live, cells

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

    def table(self, recipe: tuple) -> str:
        """The id of the table `recipe` describes, added on first use."""
        table = lookup_table(recipe, self.p)
        self.tables.setdefault(table.id, table)
        return table.id

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
    malformed recipe, a domain that is empty or over LOOKUP_CAP, or a clip
    table whose DIV rows it would leave unsound."""
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


def lookup_table(recipe: tuple, p: int) -> LookupTable:
    """The table `recipe` describes on the field of modulus p
    (`circuit.LookupTable`), for compile and the layout loader alike;
    CompileError for a recipe check_recipe refuses."""
    tid, _ = check_recipe(recipe, p)
    return LookupTable(recipe, tid, 2 if recipe[0] == "clip" else 1, p)


def _scale_key(graph: ModelGraph, layer) -> tuple[int, int, int]:
    """The (a, b, z_out) a layer's DIV rows divide by and its clip table
    is keyed by: the layer's own scale, or (1, h*w, 0) for pooling."""
    if layer.kind == "average_pool":
        h, w, _ = graph.shape_of_ref(layer.input_refs[0])
        return 1, h * w, 0
    q = layer.out_quant
    return q.scale.a, q.scale.b, q.zero_point


def _grid_rows(graph: ModelGraph, layers, mode: VisibilityMode | None, sponge: SpongeParams | None) -> int:
    """The logical rows compile spends on `graph`, from its shapes alone:
    the tallest of the gate groups, the staging and the sponge rows."""
    groups: Counter = Counter()
    for i in layers:
        groups.update(layer_rows(graph, i))
    n_inputs = math.prod(graph.input_shape)
    staging = chain_rows(n_inputs)
    chunks = 0            # the sponges' rate-sized chunks
    if mode is not None and mode.input_hidden:
        chunks += -(-n_inputs // sponge.rate)
    if mode is not None and mode.weights_hidden:
        k = pack_width(sponge.modulus)
        absorbed = 0
        for layer in graph.layers:
            if layer.weights is not None:
                n_w = math.prod(layer.weights.shape)
                # Chunks of k packed weights, then one row of four bytes
                # per bias.
                staging += n_w // k * chain_rows(k) + chain_rows(n_w % k) + len(layer.bias)
                absorbed += -(-n_w // k) + len(layer.bias)
        chunks += -(-absorbed // sponge.rate)
    sponge_rows = chunks * len(_sponge_row_rounds(sponge)) if chunks else 0
    return max([*groups.values(), staging, sponge_rows, 1])


def _padded_rows(logical: int) -> int:
    """The grid height for `logical` rows, the next power of two;
    CompileError over MAX_ROWS."""
    padded = 1 << (logical - 1).bit_length()   # logical >= 1
    if padded > MAX_ROWS:
        raise CompileError(f"the grid needs {padded} rows, over the limit of MAX_ROWS = {MAX_ROWS}")
    return padded


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

    # Refuse an oversize grid before any per-site array or list is built.
    _padded_rows(_grid_rows(graph, keys, mode, sponge))

    bld = _Builder(graph, cfg)
    clips = {key: ("clip", *key, *domain) for key, domain in domains.items()}

    # Input staging (always present; instance-bound or sponge-bound).
    n_inputs = math.prod(graph.input_shape)
    # Hidden inputs and hidden biases are range-checked bytes.
    input_hidden = mode is not None and mode.input_hidden
    q_byte = None
    if input_hidden or bld.weights_advice:
        q_byte = bld.col_number[bld.io_lookup("byte", bld.table(("range", 0, 255)))]
    _, _, input_cells = bld.stage(np.array([n_inputs]), np.array([q_byte]) if input_hidden else None)

    # Weight chunks and biases, staged and packed, when hidden.
    absorbed = staged = None
    if bld.weights_advice:
        if not any(layer.weights is not None for layer in graph.layers):
            raise CompileError("hidden-weights mode needs at least one parameterized layer")
        absorbed, staged = _stage_weights(bld, q_byte)

    bld.regions["staging"] = {
        "rows": bld.io_cursor,
        "copies": bld.n_copies(),
        "lookup_rows": sum(len(rows) for lk in bld.lookups for rows, _ in bld.fixed[lk.selector]),
    }

    # Per-layer lowering into rows, in layer order: each x source is
    # assigned before the site that reads it.  Cells are (column numbers,
    # rows) arrays, per site.
    layer_plans: list[LayerPlan] = []
    act_cells: dict[int, tuple] = {INPUT_REF: input_cells}
    acc_cells: dict[int, tuple] = {}   # each site's last out: its accumulator
    for i, key in keys.items():
        n_copies = bld.n_copies()
        lp, act_cells[i], acc_cells[i] = _lower_layer(bld, i, clips[key], act_cells)
        layer_plans.append(lp)
        bld.regions[f"layer{i}"] = {
            "rows": int(chain_rows(lp.taps).sum()),   # a chain's slots share its rows
            "copies": bld.n_copies() - n_copies,
            "lookup_rows": 2 * len(lp.chain),   # each DIV row's range and clip lookups
        }
    n_copies = bld.n_copies()

    # Each committed tensor's sponge: (label, message cells, rows, state
    # cells, digest cell).
    sponges = [("input", input_cells)] if input_hidden else []
    if absorbed is not None:
        sponges.append(("weights", absorbed[:2]))
    sponges = [(label, message, *_build_sponge(bld, sponge, message)) for label, message in sponges]
    bld.regions["sponge"] = {
        "rows": bld.sponge_cursor,
        "copies": bld.n_copies() - n_copies,
        "absorbs": sum(len(rows) for _, _, rows, _, _ in sponges),
    }

    # The instance order: logits (the output layer's input: the referenced
    # layer's accumulators), then the raw input codes or the input digest,
    # then the weight digest when weights are hidden.
    ref = graph.layers[graph.output_layer_index].input_refs[0]
    bound = [input_cells if ref == INPUT_REF else acc_cells[ref]]
    bound += [] if input_hidden else [input_cells]
    bound += [digest for *_, digest in sponges]
    cols, rows = (np.concatenate([cells[k] for cells in bound]) for k in (0, 1))
    instance = np.stack([cols, rows, np.arange(len(cols))], axis=1).ravel()

    layout, stats = _finalize(bld, instance)
    layout.plan = _witness_plan(bld, layout, sponge, n_inputs, input_cells, layer_plans, sponges, absorbed, staged)
    return layout, stats


def _stage_weights(bld: _Builder, q_byte: int) -> tuple:
    """Stage the hidden weights and biases, layer by layer, in packed
    units (`_Builder.stage`): the layer's int8 weights in chunks of k =
    pack_width(p) under the int8 lookup, then each bias as the four bytes
    of b + 2^31 under the byte lookup (the top byte takes any excess, so
    only the lookup objects to a bias outside int32).  A unit's last
    pk_out holds sum_i 256^i * (v_i + shift) + const_term: shift 128 and
    const_term 0 for weights, 0 and -2^31 for a bias.

    Sets `bld.param_cells`.  Returns each unit's last pk_out cell and its
    value (the absorbed elements) and, as (column numbers, rows, values),
    every cell the staging computes: the staged values, then each row's
    pk_out."""
    graph, p, n = bld.graph, bld.p, GATE_WIDTH
    q_i8 = bld.col_number[bld.io_lookup("w", bld.table(("range", -128, 127)))]
    k = pack_width(p)
    digits, counts, spans = [], [], []   # digits: each value plus its unit's shift
    for i, layer in enumerate(graph.layers):
        if layer.weights is None:
            continue
        ws = np.asarray(graph.signed_weights[i], np.int64)
        u = np.asarray(layer.bias, np.int64) + (1 << 31)
        chunks = [k] * (len(ws) // k) + [len(ws) % k] * (len(ws) % k > 0)
        digits += [ws + 128, np.stack([u & 0xFF, (u >> 8) & 0xFF, (u >> 16) & 0xFF, u >> 24], axis=1).ravel()]
        counts += [*chunks, *[4] * len(u)]
        spans.append((i, len(ws), len(chunks), len(u)))
    is_bias = np.concatenate([np.repeat([False, True], [n_c, n_b]) for _, _, n_c, n_b in spans])
    digits, counts = np.concatenate(digits), np.array(counts)
    shift, const_term = np.where(is_bias, 0, 128), np.where(is_bias, -(1 << 31), 0)

    rows, live, cells = bld.stage(counts, np.where(is_bias, q_byte, q_i8), packed=True)
    _, pk_out, scale_col, off_col, q_pack = bld.nums(bld.pack_columns())
    n_rows, r = live.sum(axis=1), np.arange(live.shape[1])

    # Row r of a unit has pk_scale 256^(N*r), and its pk_off adds what the
    # shift owes its live cells, scale * shift * sum_j 256^j, plus
    # const_term on the first row.  Its pk_out is then const_term plus
    # the unit's digits so far, packed; a row packs exactly in two int64
    # halves.
    scale = np.array([256 ** (n * j) for j in r.tolist()], object)
    ones = np.array([(256**j - 1) // 255 for j in range(n + 1)], object)
    offs = scale * ones[np.clip(counts[:, None] - r * n, 0, n)] * shift[:, None]
    offs[:, 0] += const_term
    pos = np.arange(len(digits)) - np.repeat(np.cumsum(counts) - counts, counts)
    lanes = np.zeros((int(n_rows.sum()), n), np.int64)
    lanes[np.repeat(np.cumsum(n_rows) - n_rows, counts) + pos // n, pos % n] = digits
    half = np.array([256**j for j in range(n // 2)], np.int64)
    by_row = np.zeros(live.shape, object)
    by_row[live] = (lanes[:, : n // 2] @ half).astype(object) + ((lanes[:, n // 2 :] @ half).astype(object) << 4 * n)
    outs = ((np.cumsum(by_row * scale, axis=1) + const_term[:, None]) % p)[live]
    rows, scales, offs = _live(live, rows, scale % p, offs % p)
    bld.put_fixed([
        (np.full(len(rows), q_pack), rows, 1),
        (np.full(len(rows), scale_col), rows, scales),
        (np.full(len(rows), off_col)[offs != 0], rows[offs != 0], offs[offs != 0]),
    ])

    v = unit = 0
    last = np.cumsum(n_rows) - 1
    for i, n_w, n_c, n_b in spans:
        b = last[unit + n_c : unit + n_c + n_b]
        bld.param_cells[i] = (tuple(c[v : v + n_w] for c in cells), (np.full(n_b, pk_out), rows[b]))
        v += n_w + 4 * n_b
        unit += n_c + n_b
    values = (digits - np.repeat(shift, counts)).astype(object) % p
    computed = (np.concatenate([cells[0], np.full(len(rows), pk_out)]), np.concatenate([cells[1], rows]),
                np.concatenate([values, outs]))
    return (np.full(len(last), pk_out), rows[last], outs[last]), computed


def _witness_plan(bld: _Builder, layout: CircuitLayout, sponge: SpongeParams | None, n_inputs: int,
                  input_cells: tuple, layer_plans: list, sponges: list, absorbed: tuple | None,
                  staged: tuple | None) -> WitnessPlan:
    """The witness plan of the finalized grid `layout`; `absorbed` and
    `staged` are what `_stage_weights` returns, or None.  A cell is first
    named by its advice index * n_rows + its row; the cells the witness
    writes are then numbered in that order."""
    n_rows = layout.n_rows
    names = layout.copies.names
    advice = np.array([layout.columns[c].kind == ADVICE for c in names])
    adv = np.full(len(names), -1, np.int64)   # each column number's advice index
    adv[advice] = np.arange(np.count_nonzero(advice))

    def at(cols, rows) -> np.ndarray:
        return adv[cols] * n_rows + rows

    nums = bld.group_nums() if bld.groups else {}
    outs, divs = [], []
    for lp in layer_plans:
        rows = chain_rows(lp.taps)[lp.chain]
        blocks = np.minimum(np.arange(lp.src.shape[1] // GATE_WIDTH), rows[:, None] - 1)
        last = lp.first_row + rows - 1
        outs.append(at(nums["out"][lp.group, lp.slot][:, None], lp.first_row[:, None] + blocks).ravel())
        divs.append(np.concatenate([at(nums[role][lp.group, lp.slot], last) for role in ("r", "q", "act")]))

    flat = layout.copies.flat
    to, src = at(flat[0::4], flat[1::4]), at(flat[2::4], flat[3::4])
    fixed = adv[flat[2::4]] < 0
    read, col_of = np.unique(flat[2::4][fixed], return_inverse=True)
    dense = np.zeros((len(read), n_rows), object)   # the fixed columns copies read
    for j, k in enumerate(read.tolist()):
        dense[j, layout.fixed[names[k]].rows] = layout.fixed[names[k]].values
    model = [(to[fixed], dense[col_of, flat[3::4][fixed]])]

    sponges = [(label, rows, at(*message), at(*state), at(*digest)) for label, message, rows, state, digest in sponges]
    for label, _, _, state, _ in sponges:
        if label == "weights":
            model.append((state, _fill_sponge(absorbed[2].tolist(), sponge)))
    weight_at = None
    if staged is not None:
        weight_at = at(*staged[:2])
        model.append((weight_at, staged[2]))
    model_values = np.concatenate([np.asarray(v, object) for _, v in model])

    # Number the cells the witness writes, in the order of their names,
    # through an index over every advice cell; each cell the plan reads
    # must be one of them.
    advice_ids = [c for c, kind in zip(names, advice.tolist()) if kind]
    input_at, model_at, copy_to = at(*input_cells), np.concatenate([c for c, _ in model]), to[~fixed]
    input_states = [state for label, _, _, state, _ in sponges if label == "input"]
    instance_at = at(layout.instance_map.flat[0::3], layout.instance_map.flat[1::3])
    pad_at = np.concatenate([at(*pads) for pads in bld.io_pads] or [np.zeros(0, np.int64)])
    written = np.zeros(len(advice_ids) * n_rows, bool)
    written[np.concatenate([input_at, model_at, *outs, *divs, *input_states, copy_to])] = True
    reads = [src[~fixed], instance_at, pad_at, *[c for _, _, *cells in sponges for c in cells]]
    if not written[np.concatenate(reads)].all():
        raise CompileError("the witness plan reads an advice cell the witness never writes")
    ids = np.flatnonzero(written)
    number = np.empty(len(written), np.int32)   # read only where written
    number[ids] = np.arange(len(ids))
    input_at, model_at, copy_to, copy_from, instance_at, pad_at = (
        number[c] for c in (input_at, model_at, copy_to, src[~fixed], instance_at, pad_at))
    outs, divs, input_states = ([number[c] for c in part] for part in (outs, divs, input_states))

    starts = np.searchsorted(ids, np.arange(len(advice_ids) + 1) * n_rows)
    slices = [slice(s, e) for s, e in zip(starts.tolist(), starts[1:].tolist())]
    lengths = [int(ids[s.stop - 1]) - j * n_rows + 1 if s.stop > s.start else 0 for j, s in enumerate(slices)]
    present = [None] * len(slices)
    for j in np.flatnonzero(np.diff(starts) < lengths).tolist():
        present[j] = np.zeros(lengths[j], bool)
        present[j][ids[slices[j]] - j * n_rows] = True
        present[j].flags.writeable = False   # every witness's column holds it

    # The columns whose every cell holds what the model alone fixes once
    # the fill's steps have run in order (the input codes, the model's
    # cells, the layers' and the input digest's cells, then the copies),
    # split once.  `origin` is the cell each cell's value comes from.
    by_model = np.zeros(len(ids), bool)
    by_model[model_at] = True
    for cells in (*outs, *divs, *input_states):
        by_model[cells] = False
    origin = np.arange(len(ids))
    origin[copy_to] = copy_from
    full = np.flatnonzero(np.diff(starts))
    model_col = np.ones(len(slices), bool)
    model_col[full] = ~np.logical_or.reduceat(~by_model[origin], starts[full])
    model_cols = np.flatnonzero(model_col).tolist()
    values = np.empty(len(ids), object)
    values[model_at] = model_values
    model_forms = dict(zip(model_cols, int_cells([values[origin[slices[j]]] for j in model_cols])))
    for cells, _, outliers in model_forms.values():
        cells.flags.writeable = outliers.flags.writeable = False
    # A copy into one of those columns is already in its cells, unless the
    # instance reads its target.
    dropped = np.repeat(model_col, np.diff(starts))
    dropped[instance_at] = False
    keep = ~dropped[copy_to]

    return WitnessPlan(
        sponge=sponge,
        n_inputs=n_inputs,
        layer_plans=[replace(lp, out_at=o, div_at=d) for lp, o, d in zip(layer_plans, outs, divs)],
        sponges=[
            SpongePlan(label, rows, number[message], number[state], int(number[digest][0]))
            for label, rows, message, state, digest in sponges
        ],
        advice_ids=advice_ids,
        n_rows=n_rows,
        cell_ids=ids,
        lengths=lengths,
        present=present,
        slices=slices,
        model_forms=model_forms,
        input_at=input_at,
        pad_at=pad_at,
        weight_at=None if weight_at is None else number[weight_at],
        model_at=model_at,
        model_values=model_values,
        copy_to=copy_to[keep],
        copy_from=copy_from[keep],
        instance_at=instance_at,
    )


def _lower_layer(bld: _Builder, i: int, clip: tuple, cells: dict) -> tuple[LayerPlan, tuple, tuple]:
    """Emit layer i's rows from its tap arrays, straight into the builder's
    packed copies and sparse fixed columns: per output position and per
    chunk of M channels sharing its patch, one DOT chain of ceil(k/N) rows
    in the group of M slots, the x lanes copied once per row and DIV on
    the last row.  `clip` is the recipe of the layer's clip table and
    `cells` each lowered ref's per-site (column numbers, rows).

    The copies come from padded (chain, row, lane or slot) arrays and one
    mask, flattened in C order: per chain, per row, the x lanes, then per
    slot its w lanes and its carry, which is the copy order (violation ids
    are copy indices).  The fixed cells come from the same arrays, one
    array piece per column (`_Builder.put_fixed`).  Returns the layer's
    plan and, per site, its act and accumulator (last out) cells."""
    graph = bld.graph
    layer = graph.layers[i]
    n = GATE_WIDTH
    p = bld.p
    _, a, b, z_out, d_lo, _ = clip
    off = clip_offset(d_lo)
    rtab = bld.table(("range", 0, b - 1))
    ctab = bld.table(clip)
    win_taps, x_offs, w_offs, x_base, w_base, z_in = layer_taps(graph, i)
    n_win, width = x_offs.shape
    n_ch = len(x_base)
    biases = np.array(layer.bias or (0,) * n_ch, np.int64)

    # The channels' slot chunks, the same for every window; chain
    # w * chunks + c is chunk c at window w, and site w * n_ch + ch is
    # channel ch at window w.
    chunk_m = np.array(split(n_ch)) if layer.kind in SHARED else np.ones(n_ch, np.int64)
    chunk_start = np.cumsum(chunk_m) - chunk_m
    chunk_of = np.repeat(np.arange(len(chunk_m)), chunk_m)
    site_win = np.repeat(np.arange(n_win), n_ch)
    chain = site_win * len(chunk_m) + np.tile(chunk_of, n_win)
    slot = np.tile(np.arange(n_ch) - chunk_start[chunk_of], n_win)
    real = (np.arange(width) < win_taps[:, None])[site_win]
    if w_offs is None:
        weights = real.astype(np.int64)
    else:
        w_idx = w_offs[site_win] + np.tile(w_base, n_win)[:, None]
        weights = np.asarray(graph.signed_weights[i], np.int64)[w_idx]
        weights[~real] = 0
        if not bld.weights_advice:
            del w_idx        # only hidden weights copy from the staged cells
    del real
    taps = np.repeat(win_taps, len(chunk_m))
    src = (x_offs[:, None, :] + x_base[chunk_start][:, None]).reshape(-1, width)
    m_c = np.tile(chunk_m, n_win)
    rows_c = chain_rows(taps)
    first_site = (np.arange(n_win)[:, None] * n_ch + chunk_start).reshape(-1)

    # Each slot count's group, opened on first use with its lookup
    # selectors; its chains take consecutive rows from its cursor.  Rows
    # and column numbers fit int32.
    first = np.empty(len(taps), np.int32)
    group_of = np.zeros(n + 1, np.int64)
    sels = {}
    ms, at = np.unique(chunk_m, return_index=True)
    for m in ms[np.argsort(at)].tolist():
        grp = bld.group(m)
        group_of[m] = grp.index
        sels[grp.index] = [
            bld.col_number[bld.group_lookup_selector(grp, rtab, ("r",))],
            bld.col_number[bld.group_lookup_selector(grp, ctab, ("q", "act"))],
        ]
        on = m_c == m
        r = rows_c[on]
        first[on] = grp.cursor + np.cumsum(r) - r
        grp.cursor += int(r.sum())
    g_c = group_of[m_c]
    last = first + rows_c - 1
    nums = bld.group_nums()
    sel = np.array([sels.get(g, [0, 0]) for g in range(len(bld.groups))], np.int32)[g_c]

    # Axes: chain C, row R, slot M, lane N.
    C, R, M = len(taps), width // n, int(chunk_m.max())
    r = np.arange(R, dtype=np.int32)
    row_live = r < rows_c[:, None]
    trow = first[:, None] + r
    lane_live = r[:, None] * n + np.arange(n) < taps[:, None, None]
    slot_live = np.arange(M) < m_c[:, None]
    site = np.minimum(first_site[:, None] + np.arange(M), len(chain) - 1)
    ch = site % n_ch
    slot_nums = {role: nums[role][g_c][:, None, :M] for role in ("carry", "out", "const")}

    # The copies.  x lanes from the sources; each first carry from the
    # staged bias, the const cell holding a public bias, or zero, each
    # later carry from the previous row's out; in hidden-weights mode the
    # w lanes from the staged weights or, for unit weights, the row's
    # const.  The bias enters through the first carry, not through const:
    # in hidden-weights mode const holds unit weights.
    src_cols, src_rows = (np.concatenate([cells[ref][k] for ref in layer.input_refs]) for k in (0, 1))
    x_src = src.reshape(C, R, n)
    x = (nums["x"][g_c][:, None, :], trow[:, :, None], src_cols[x_src], src_rows[x_src])
    if i in bld.param_cells:
        b_cols, b_rows = bld.param_cells[i][1]
        carry0 = (b_cols[ch], b_rows[ch])
    else:
        carry0 = (np.where(biases[ch] != 0, slot_nums["const"][:, 0], bld.col_number[bld.zero_col]),
                  np.broadcast_to(first[:, None], (C, M)))
    head = (r == 0)[:, None]
    carry = (
        slot_nums["carry"], trow[:, :, None],
        np.where(head, carry0[0][:, None, :], slot_nums["out"]),
        np.where(head, carry0[1][:, None, :], trow[:, :, None] - 1),
    )
    w = (None,) * 4
    if bld.weights_advice:
        w_rows = trow[:, :, None, None]
        if w_offs is None:
            w_src = (slot_nums["const"][..., None], w_rows)
        else:
            staged = w_idx[site].reshape(C, M, R, n).transpose(0, 2, 1, 3)
            w_cols, w_cell_rows = bld.param_cells[i][0]
            w_src = (w_cols[staged], w_cell_rows[staged])
        w = (nums["w"][g_c][:, None, :M], w_rows, *w_src)

    def per_row(x_part, w_part, carry_part) -> np.ndarray:
        """A (chain, row) block's copies in order: the x lanes, then per
        slot its w lanes (hidden weights only) and its carry."""
        per_slot = [np.broadcast_to(carry_part, (C, R, M))[..., None]]
        if w_part is not None:
            per_slot.insert(0, np.broadcast_to(w_part, (C, R, M, n)))
        return np.concatenate(
            [np.broadcast_to(x_part, (C, R, n)), np.concatenate(per_slot, axis=3).reshape(C, R, -1)], axis=2
        )

    w_live = None if w[0] is None else lane_live[:, :, None, :] & slot_live[:, None, :, None]
    live = per_row(lane_live, w_live, row_live[:, :, None] & slot_live[:, None, :])
    bld.put_copies(np.stack([per_row(*parts)[live] for parts in zip(x, w, carry)], axis=1).ravel())
    del x, w, carry, live

    # The fixed cells: per row its DOT_k selector and z, per last row DIV
    # and the two lookup selectors, per slot its public weights and the
    # const cells.
    rows = trow[row_live]
    g_row = np.broadcast_to(g_c[:, None], (C, R))[row_live]
    k_row = np.minimum(taps[:, None] - r * n, n)[row_live]
    fixed = [(nums["q_dot"][g_row, k_row - 1], rows, 1), (nums["z"][g_row], rows, z_in % p)]
    fixed += [(nums[role][g_c], last, v % p) for role, v in (("q_div", 1), ("da", a), ("db", b), ("off", off))]
    fixed += [(sel[:, 0], last, 1), (sel[:, 1], last, 1)]
    if i not in bld.param_cells:
        residues = biases.astype(object) % p
        on = slot_live & (residues != 0)[ch]
        fixed.append((slot_nums["const"][:, 0][on], np.broadcast_to(first[:, None], (C, M))[on], residues[ch][on]))
    if not bld.weights_advice:
        # Site-major order keeps each weight column's rows increasing.
        w_site, t = np.nonzero(weights)
        w_chain = chain[w_site]
        fixed.append((
            nums["w"][g_c[w_chain], slot[w_site], t % n],
            first[w_chain] + (t // n).astype(np.int32),
            bld.int8_residues[weights[w_site, t] + 128],
        ))
        del w_site, t, w_chain
    elif w_offs is None:
        on = row_live[:, :, None] & slot_live[:, None, :]
        fixed.append((np.broadcast_to(slot_nums["const"], on.shape)[on], np.broadcast_to(trow[:, :, None], on.shape)[on], 1))
    bld.put_fixed(fixed)

    lp = LayerPlan(
        layer=i, z_in=z_in, a=a, b=b, off=off, z_out=z_out, refs=tuple(layer.input_refs),
        src=src, taps=taps, chain=chain, slot=slot, group=g_c[chain], first_row=first[chain],
        bias=np.tile(biases, n_win), weights=weights,
    )
    act = (nums["act"][g_c[chain], slot], last[chain])
    acc = (nums["out"][g_c[chain], slot], last[chain])
    return lp, act, acc


def _sponge_row_rounds(params: SpongeParams) -> list[tuple]:
    """The rounds each row of one absorb computes, in order: the leading
    full rounds one to a row (round 0's row also adds the message), the
    partial rounds two to a row (the last alone when their count is
    odd), then the trailing full rounds one to a row."""
    half = params.full_rounds // 2
    end = half + params.partial_rounds
    return (
        [(r,) for r in range(half)]
        + [tuple(range(r, min(r + 2, end))) for r in range(half, end, 2)]
        + [(r,) for r in range(end, params.n_rounds)]
    )


def _sponge_columns(bld: _Builder, params: SpongeParams) -> dict:
    """The sponge's columns and round gates, made on first use and shared
    by every sponge of the grid."""
    if bld.sponge_cols is not None:
        return bld.sponge_cols
    t = params.t
    mds = params.mds
    sc = bld.sponge_cols = {
        "s_in": tuple(bld.new_column(f"sp:in{j}", ADVICE) for j in range(t)),
        "s_out": tuple(bld.new_column(f"sp:out{j}", ADVICE) for j in range(t)),
        "msg": tuple(bld.new_column(f"sp:m{j}", ADVICE) for j in range(params.rate)),
        # lane 0 between the two partial rounds of a pair row
        "u": bld.new_column("sp:u", ADVICE),
        "rc": tuple(bld.new_column(f"sp:rc{j}", FIXED) for j in range(t)),
        # the second partial round's constants on a pair row
        "rcb": tuple(bld.new_column(f"sp:rcb{j}", FIXED) for j in range(t)),
        "q_absorb": bld.new_column("sp:q_absorb", FIXED),
        "q_full": bld.new_column("sp:q_full", FIXED),
        "q_part": bld.new_column("sp:q_part", FIXED),
        "q_pair": bld.new_column("sp:q_pair", FIXED),
    }

    def mix(matrix: tuple, k: int, lanes: list):
        return add(*(mul(const(matrix[k][j]), x) for j, x in enumerate(lanes)))

    def gate(gid: str, name: str, sel: str, lhs, rhs) -> None:
        bld.gates.append(GateDef(id=gid, name=name, selector=sc[sel], poly=sub(lhs, rhs)))

    rc, rcb = sc["rc"], sc["rcb"]
    s_out = [cell(c) for c in sc["s_out"]]
    u = cell(sc["u"])
    # The gates of one selector share their subtrees, which the checker
    # then evaluates once per row.
    shifted = [add(cell(x), cell(c)) for x, c in zip(sc["s_in"], rc)]
    full = [pow5(x) for x in shifted]
    part = [full[0], *shifted[1:]]
    # Round 0 adds the message to the rate lanes.
    absorbed = [pow5(add(cell(x), cell(m), cell(c))) for x, m, c in zip(sc["s_in"], sc["msg"], rc)]
    absorbed += full[params.rate :]
    # A pair row: u is lane 0 after the first round; the second round's
    # S-box reads u and its other lanes are linear in the first round's,
    # so every gate stays degree 5.  The pair gates state the second
    # round's mix as M^-1 * s_out = its S-box layer, which is equivalent
    # (M is invertible) and multiplies canonical cells only.
    second = [pow5(add(u, cell(rcb[0])))]
    second += [add(mix(mds, k, part), cell(rcb[k])) for k in range(1, t)]
    gate("sp:pair_u", "POSE_PART_U", "q_pair", u, mix(mds, 0, part))
    for k in range(t):
        gate(f"sp:absorb{k}", f"ABSORB_{k}", "q_absorb", s_out[k], mix(mds, k, absorbed))
        gate(f"sp:full{k}", f"POSE_FULL_{k}", "q_full", s_out[k], mix(mds, k, full))
        gate(f"sp:part{k}", f"POSE_PART_{k}", "q_part", s_out[k], mix(mds, k, part))
        gate(f"sp:pair{k}", f"POSE_PART_PAIR_{k}", "q_pair", mix(params.mds_inv, k, s_out), second[k])
    return sc


def _build_sponge(bld: _Builder, params: SpongeParams, message: tuple) -> tuple:
    """The rows of one committed tensor's sponge over the cells `message`
    (column numbers, rows): `_sponge_row_rounds` for each rate-sized
    chunk.  Round 0's row copies the chunk into the message lanes, zero
    past the end.  Each row copies its state in from the previous row's
    state out; the sponge's first row copies it from the zero column and
    adds the initial state (0, ..., 0, length) to its round constants
    instead.  The copies come from padded (row, lane) arrays and a mask,
    per row its message lanes (round-0 rows only), then its state in.

    Returns the rows, a line of them per chunk; the state cells, per row
    its state out, then u on a pair row; and the digest cell, lane 0 of
    the last row's state out."""
    sc = _sponge_columns(bld, params)
    t, rate, p = params.t, params.rate, params.modulus
    zero = bld.col_number[bld.zero_col]
    row_rounds = _sponge_row_rounds(params)
    n_elems = len(message[0])
    chunks, per = -(-n_elems // rate), len(row_rounds)
    rows = (bld.sponge_cursor + np.arange(chunks * per, dtype=np.int32)).reshape(chunks, per)
    bld.sponge_cursor += rows.size
    row = rows.reshape(-1, 1)
    s_out = bld.nums(sc["s_out"])

    el = (np.arange(len(row)) // per)[:, None] * rate + np.arange(rate)
    has = el < n_elems
    el = np.minimum(el, n_elems - 1)
    head = row == row[0]
    copies = np.concatenate([
        _copy_block(bld.nums(sc["msg"]), row, np.where(has, message[0][el], zero), np.where(has, message[1][el], row)),
        _copy_block(bld.nums(sc["s_in"]), row, np.where(head, zero, s_out), np.where(head, row, row - 1)),
    ], axis=1)
    lanes = np.ones((len(row), rate + t), bool)
    lanes[:, :rate] = np.tile([rounds[0] == 0 for rounds in row_rounds], chunks)[:, None]
    bld.put_copies(copies[lanes].ravel())

    # The fixed cells: per row its selector and its first round's
    # constants rc_j, per pair row the second round's rcb_j; a value of 0
    # mod p sets nothing.  Every chunk repeats the first chunk's, but for
    # the sponge's first row.
    rcs = params.round_constants
    sel = bld.nums([sc["q_absorb" if rounds[0] == 0 else "q_pair" if len(rounds) == 2 else
                       "q_full" if params.is_full_round(rounds[0]) else "q_part"] for rounds in row_rounds])
    consts = np.array([(*rcs[rounds[0]], *(rcs[rounds[-1]] if len(rounds) == 2 else (0,) * t))
                       for rounds in row_rounds], object) % p
    on = np.tile(consts != 0, (chunks, 1))
    consts = np.tile(consts, (chunks, 1))
    consts[0, t - 1] = (consts[0, t - 1] + n_elems) % p
    on[0, t - 1] = consts[0, t - 1] != 0
    bld.put_fixed([(np.tile(sel, chunks), row[:, 0], 1), _live(on, bld.nums(sc["rc"] + sc["rcb"]), row, consts)])

    lanes = np.ones((len(row), t + 1), bool)
    lanes[:, t] = np.tile([len(rounds) == 2 for rounds in row_rounds], chunks)
    state = _live(lanes, np.append(s_out, bld.col_number[sc["u"]]), row)
    return rows, state, (s_out[:1], rows[-1, -1:])


def _copy_block(*parts) -> np.ndarray:
    """Packed copies (to column, to row, from column, from row) from
    `parts` broadcast together, along a new last axis."""
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def _live(on: np.ndarray, *parts) -> tuple:
    """Each of `parts`, broadcast to the mask `on`, where `on` is set."""
    return tuple(np.broadcast_to(x, on.shape)[on] for x in parts)


def _finalize(bld: _Builder, instance: np.ndarray) -> tuple[CircuitLayout, CircuitStats]:
    """The layout and stats of the grid `bld` holds, its instance bound as
    `instance` packs it (`circuit.Bindings`)."""
    logical = max(
        [g.cursor for g in bld.groups.values()] + [bld.io_cursor, bld.sponge_cursor] + [1]
    )
    padded = _padded_rows(logical)
    n_advice = sum(col.kind == ADVICE for col in bld.columns.values())
    if padded * max(n_advice, len(bld.fixed)) > MAX_CELLS:
        raise CompileError(
            f"the grid needs {padded} rows of {n_advice} advice and {len(bld.fixed)} fixed"
            f" columns, over the limit of {MAX_CELLS} cells"
        )
    # validate() below refuses a column whose cells were not set in
    # increasing row order.
    joined = [[np.concatenate(part) for part in zip(*pieces)] for pieces in bld.fixed.values()]
    rows, values = zip(*joined) if joined else ((), ())
    fixed = {
        col_id: FixedColumn.from_cells(r, form, padded) for col_id, r, form in zip(bld.fixed, rows, int_cells(values))
    }
    layout = CircuitLayout(
        field=bld.cfg.field,
        columns=bld.columns,
        n_rows=padded,
        n_rows_logical=logical,
        gates=bld.gates,
        tables=bld.tables,
        lookups=bld.lookups,
        copies=Copies(np.concatenate(bld.copy_parts), list(bld.columns)),
        fixed=fixed,
        instance_map=Bindings(instance, list(bld.columns)),
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
    plan drives the fill, as the module docstring says, into one flat
    array of the cells it writes.  Each site's accumulator and activation
    are checked against the interpreter trace.  The columns are cut from
    the array as `circuit.AdviceColumn`s, but for those the model alone
    fixes, which wrap the plan's cells, and the instance is the bound
    cells' values.
    """
    plan: WitnessPlan = layout.plan
    if plan is None:
        raise WitnessError("layout carries no witness plan (was it deserialized?)")
    p = layout.field.modulus
    trace = run_inference(graph, inp)
    codes = list(inp.data)
    if len(codes) != plan.n_inputs:
        raise WitnessError(f"input has {len(codes)} elements, plan expects {plan.n_inputs}")

    vals = np.empty(plan.n_cells, object)
    vals[plan.input_at] = codes
    vals[plan.model_at] = plan.model_values
    acts = {INPUT_REF: np.frombuffer(inp.data, np.uint8)}
    for lp in plan.layer_plans:
        t = trace.layers[lp.layer] if lp.layer < len(trace.layers) else None
        if t is None or t.acc.size != len(lp.chain):
            raise WitnessError(f"layer {lp.layer} of the model does not match the layout's plan")
        acts[lp.layer] = t.act.reshape(-1)
        vals[lp.out_at], vals[lp.div_at] = _fill_layer(
            lp, [acts[ref] for ref in lp.refs], t.acc.reshape(-1), acts[lp.layer], graph.bounds[lp.layer], p)
    for sp in plan.sponges:
        if sp.label == "input":   # the weight digest's states are in the model's cells
            vals[sp.state_at] = _fill_sponge(vals[sp.message_at].tolist(), plan.sponge)

    # Compile makes no cell the target of two copies and no source the
    # target of another, so one gather fills every target.
    vals[plan.copy_to] = vals[plan.copy_from]

    names = plan.advice_ids
    cut = [j for j in range(len(names)) if j not in plan.model_forms]
    forms = dict(zip(cut, int_cells([vals[plan.slices[j]] for j in cut])))
    forms.update(plan.model_forms)
    advice = {
        col_id: AdviceColumn(layout.n_rows, length, mask, forms[j])
        for j, (col_id, length, mask) in enumerate(zip(names, plan.lengths, plan.present))
    }
    return Assignment(advice=advice, instance=vals[plan.instance_at].tolist())


def _fill_layer(lp: LayerPlan, sources: list, accs: np.ndarray, acts: np.ndarray,
                bound: tuple, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The values of one layer's `lp.out_at` and `lp.div_at`.  `sources`
    are the flattened tensors `lp.refs` name, and `accs` and `acts` the
    layer's trace, which every site's accumulator and activation must
    match."""
    n_sites = len(lp.chain)
    x = np.concatenate(sources).astype(np.int64) - lp.z_in
    # Every row's out: per N-tap block, bias + the partial sums so far.
    outs = (x[lp.src][lp.chain] * lp.weights).reshape(n_sites, -1, GATE_WIDTH).sum(axis=2).cumsum(axis=1)
    outs += lp.bias[:, None]
    acc = outs[:, -1]     # pad blocks add 0
    bad = np.flatnonzero(acc != accs)
    if bad.size:
        f = bad[0]
        raise WitnessError(f"internal mismatch at layer {lp.layer} site {f}: {acc[f]} vs trace {accs[f]}")
    if not scale_fits_int64(bound, lp.a):
        acc = acc.astype(object)
    num = acc * lp.a
    d_q = num // lp.b
    bad = np.flatnonzero(np.clip(d_q + lp.z_out, 0, 255) != acts)
    if bad.size:
        raise WitnessError(f"internal activation mismatch at layer {lp.layer} site {bad[0]}")
    r = num - d_q * lp.b
    return outs.ravel().astype(object) % p, np.concatenate([r, d_q + lp.off, acts])


def _fill_sponge(elements: list[int], params: SpongeParams) -> list:
    """The values of a sponge's `state_at` cells for `elements`: each
    row's state out after its last round and, on a pair row, u after its
    first.  Every other sponge cell is a copy."""
    row_rounds = _sponge_row_rounds(params)
    values = []
    for _, states in sponge_states(elements, params):
        # states[0] is the state in and states[1] the absorbed state, so
        # round r's state out is states[r + 2].
        for rounds in row_rounds:
            values += states[rounds[-1] + 2]
            if len(rounds) == 2:
                values.append(states[rounds[0] + 2][0])
    return values
