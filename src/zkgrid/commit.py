"""Algebraic sponge hashing over the field, and the visibility modes that
decide which tensors are committed versus revealed.

The permutation is the usual x^5 S-box design: per round, add round
constants, apply the S-box (to the whole state in full rounds, to lane 0
in partial rounds), then mix through an invertible Cauchy matrix.  Round
constants and the matrix are derived from a public seed via SHA-256 in
counter mode, documented below.  These parameters are deterministic and
reproducible, NOT bit-compatible with any published constant set, and the
construction carries no security proof; treat digests as binding only
within this toolkit.

Constant derivation: rc[i] = SHA256("%s|rc|%d" % (seed, i)) read as a
big-endian integer reduced mod p, consumed in round-major, lane-minor
order.  The mixing matrix is M[r][c] = 1 / (x_r + y_c) with x_r = r,
y_c = t + c.

Absorb schedule.  The state starts as (0, ..., 0, length); each
rate-sized chunk, zero-padded, is added to the rate lanes and the state
is permuted.  `sponge_states` yields every intermediate state, so
`sponge_hash` and the grid's sponge rows are filled from one schedule.
The grid spends full_rounds + ceil(partial_rounds / 2) rows on a chunk
(37 at the defaults): round 0's row adds the chunk as it permutes, so
the absorbed state gets no row of its own, and partial rounds go two to
a row, which keeps lane 0 between them in one cell and drops the other
lanes of that middle state.  The mixing matrix is invertible, and the
grid's paired-round gates use its inverse `mds_inv`.

Digest definitions.  The input digest absorbs `input_elements`, one
element per input code.  The weight digest absorbs `weight_elements`,
definition v2, which packs 31 int8 weights to an element on the default
field; definition v1 absorbed one element per weight, so the two give
different digests for the same model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .field import DEFAULT_MODULUS, MAX_MODULUS, Field
from .interpreter import run_inference
from .model import ModelGraph, QuantTensor


class VisibilityMode(Enum):
    HIDDEN_INPUT_PUBLIC_WEIGHTS = "hidden_input_public_weights"
    PUBLIC_INPUT_HIDDEN_WEIGHTS = "public_input_hidden_weights"
    HIDDEN_INPUT_HIDDEN_WEIGHTS = "hidden_input_hidden_weights"

    @property
    def input_hidden(self) -> bool:
        return self in (
            VisibilityMode.HIDDEN_INPUT_PUBLIC_WEIGHTS,
            VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS,
        )

    @property
    def weights_hidden(self) -> bool:
        return self in (
            VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS,
            VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS,
        )


DEFAULT_SEED = "zkgrid-sponge-v1"
# The largest sponge params accepted: state width and total rounds.
MAX_SPONGE_WIDTH = 16
MAX_SPONGE_ROUNDS = 1024


def _derive_constant(seed: str, label: str, i: int, modulus: int) -> int:
    h = hashlib.sha256(f"{seed}|{label}|{i}".encode("ascii")).digest()
    return int.from_bytes(h, "big") % modulus


def _matrix_inverse(m: list[list[int]], p: int) -> list[list[int]] | None:
    """The inverse of m mod p by Gauss-Jordan elimination, or None when m
    is singular."""
    t = len(m)
    a = [list(row) + [int(c == r) for c in range(t)] for r, row in enumerate(m)]
    for col in range(t):
        piv = next((r for r in range(col, t) if a[r][col] % p != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], p - 2, p)
        a[col] = [v * inv % p for v in a[col]]
        for r in range(t):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[col])]
    return [row[t:] for row in a]


@dataclass(frozen=True)
class SpongeParams:
    modulus: int = DEFAULT_MODULUS
    t: int = 3
    full_rounds: int = 8
    partial_rounds: int = 57
    seed: str = DEFAULT_SEED
    round_constants: tuple = field(default=(), compare=False)
    mds: tuple = field(default=(), compare=False)
    mds_inv: tuple = field(default=(), compare=False)

    def __post_init__(self):
        # The upper bounds come before any constant is derived: the inverse
        # matrix costs O(t^3) and each round one hash per lane.
        if not 2 <= self.t <= MAX_SPONGE_WIDTH:
            raise ValueError(f"state width must be in 2..{MAX_SPONGE_WIDTH}")
        if self.full_rounds < 2 or self.full_rounds % 2 != 0:
            raise ValueError("full round count must be even and >= 2")
        if self.partial_rounds < 0:
            raise ValueError("partial round count must be >= 0")
        n_rounds = self.full_rounds + self.partial_rounds
        if n_rounds > MAX_SPONGE_ROUNDS:
            raise ValueError(f"full plus partial rounds must be at most {MAX_SPONGE_ROUNDS}")
        p = self.modulus
        if p >= MAX_MODULUS:   # each constant costs a modular power in p
            raise ValueError(f"sponge modulus of {p.bit_length()} bits is not below 2**255")
        rc = tuple(
            tuple(_derive_constant(self.seed, "rc", r * self.t + c, p) for c in range(self.t))
            for r in range(n_rounds)
        )
        mds = [
            [pow(r + self.t + c, p - 2, p) for c in range(self.t)] for r in range(self.t)
        ]
        mds_inv = _matrix_inverse(mds, p)
        if mds_inv is None:
            raise ValueError("derived mixing matrix is singular; pick another seed")
        object.__setattr__(self, "round_constants", rc)
        object.__setattr__(self, "mds", tuple(tuple(row) for row in mds))
        object.__setattr__(self, "mds_inv", tuple(tuple(row) for row in mds_inv))

    @property
    def rate(self) -> int:
        return self.t - 1

    @property
    def n_rounds(self) -> int:
        return self.full_rounds + self.partial_rounds

    def is_full_round(self, r: int) -> bool:
        half = self.full_rounds // 2
        return r < half or r >= half + self.partial_rounds

    def to_json(self) -> dict:
        return {
            "modulus": str(self.modulus),
            "t": self.t,
            "full_rounds": self.full_rounds,
            "partial_rounds": self.partial_rounds,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SpongeParams":
        if type(doc) is not dict:
            raise ValueError("sponge params must be a JSON object")
        extra = set(doc) - {"modulus", "t", "full_rounds", "partial_rounds", "seed"}
        if extra:
            raise ValueError(f"unknown sponge param fields: {sorted(extra)}")
        modulus = doc.get("modulus", str(DEFAULT_MODULUS))
        counts = [doc.get("t", 3), doc.get("full_rounds", 8), doc.get("partial_rounds", 57)]
        seed = doc.get("seed", DEFAULT_SEED)
        if not (type(modulus) is str and modulus.isdigit() and {type(n) for n in counts} == {int} and type(seed) is str):
            raise ValueError("sponge params: modulus must be a decimal string, t and the round counts integers, seed a string")
        t, full_rounds, partial_rounds = counts
        return cls(modulus=int(modulus), t=t, full_rounds=full_rounds, partial_rounds=partial_rounds, seed=seed)

    @classmethod
    def load(cls, path: str) -> "SpongeParams":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_json(json.load(fh))


@lru_cache(maxsize=8)
def default_sponge_params(modulus: int) -> SpongeParams:
    """The default SpongeParams on the field of `modulus`, built once per
    modulus: deriving its constants and inverting its matrix takes
    milliseconds, and the params are frozen."""
    return SpongeParams(modulus=modulus)


def round_function(state: list[int], r: int, params: SpongeParams) -> list[int]:
    """One round: add constants, S-box (all lanes or lane 0), then mix."""
    p = params.modulus
    t = params.t
    rc = params.round_constants[r]
    s = [(state[i] + rc[i]) % p for i in range(t)]
    if params.is_full_round(r):
        s = [_pow5(v, p) for v in s]
    else:
        s[0] = _pow5(s[0], p)
    return [sum(params.mds[i][j] * s[j] for j in range(t)) % p for i in range(t)]


def permute(state: list[int], params: SpongeParams) -> list[int]:
    """One full permutation of the sponge state (canonical residues)."""
    s = [v % params.modulus for v in state]
    for r in range(params.n_rounds):
        s = round_function(s, r, params)
    return s


def _pow5(v: int, p: int) -> int:
    v2 = v * v % p
    return v2 * v2 % p * v % p


def sponge_states(elements, params: SpongeParams):
    """The sponge's absorb schedule, one chunk at a time.

    The state starts as (0, ..., 0, len(elements)): the capacity lane
    carries the input length, so inputs of different lengths are domain
    separated even after zero padding.  For each rate-sized chunk of the
    elements, zero-padded, yields (chunk, states): the state before
    absorbing, after adding the chunk to the rate lanes, and after each
    permutation round.  The next chunk starts from the last state.
    """
    p = params.modulus
    rate = params.rate
    state = [0] * rate + [len(elements) % p]
    for lo in range(0, len(elements), rate):
        chunk = [int(e) % p for e in elements[lo : lo + rate]]
        chunk += [0] * (rate - len(chunk))
        states = [state, [(s + m) % p for s, m in zip(state, chunk)] + state[rate:]]
        for r in range(params.n_rounds):
            states.append(round_function(states[-1], r, params))
        state = states[-1]
        yield chunk, states


def sponge_hash(elements, params: SpongeParams) -> int:
    """Absorb field elements at rate t-1 and squeeze one digest element:
    lane 0 of the last state of `sponge_states`."""
    elements = list(elements)
    if not elements:
        raise ValueError("sponge input must be nonempty")
    for _, states in sponge_states(elements, params):
        pass
    return states[-1][0]


# ---------------------------------------------------------------------------
# Canonical absorb sequences for model tensors

def input_elements(inp: QuantTensor) -> list[int]:
    """Input codes, row-major, as field elements."""
    return [int(b) for b in inp.data]


def pack_width(modulus: int) -> int:
    """Int8 weights packed into one field element: k bytes give values
    below 2**(8k) <= 2**(bits(p) - 1) < p, so packing is injective."""
    return min(31, (modulus.bit_length() - 1) // 8)


def weight_elements(graph: ModelGraph, modulus: int) -> list[int]:
    """The weight digest's absorb sequence (definition v2).

    For each parameterized layer in order: its weights w, row-major, as
    the bytes w + 128 packed little-endian, k = pack_width(p) to an
    element (the last element of a layer may hold fewer), then each of
    its biases as b mod p.  The circuit absorbs exactly these elements,
    each the output of a PACK chain over range-checked staging cells.
    """
    k = pack_width(modulus)
    out: list[int] = []
    for layer in graph.layers:
        if layer.weights is not None:
            data = bytes(v + 128 for v in layer.weights.signed_values())
            out.extend(int.from_bytes(data[lo : lo + k], "little") for lo in range(0, len(data), k))
        if layer.bias is not None:
            out.extend(v % modulus for v in layer.bias)
    return out


def commit_model_io(
    graph: ModelGraph,
    inp: QuantTensor,
    mode: VisibilityMode | None,
    params: SpongeParams | None = None,
    fld: Field | None = None,
) -> list[int]:
    """The public instance vector for a run of the model.

    Layout: logits, then the input section (digest if hidden, raw codes if
    public), then the weight digest when weights are hidden.  Public
    weights live in the circuit's fixed columns, so they contribute
    nothing here.
    """
    fld = fld or Field()
    params = params or default_sponge_params(fld.modulus)
    if params.modulus != fld.modulus:
        raise ValueError("sponge params and field disagree on the modulus")
    trace = run_inference(graph, inp)
    instance = [int(v) % fld.modulus for v in np.asarray(trace.logits)]
    if mode is None or not mode.input_hidden:
        instance.extend(input_elements(inp))
    else:
        instance.append(sponge_hash(input_elements(inp), params))
    if mode is not None and mode.weights_hidden:
        instance.append(sponge_hash(weight_elements(graph, fld.modulus), params))
    return instance
