import json
import random

import pytest

from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.checker import check
from zkgrid.commit import (
    SpongeParams,
    VisibilityMode,
    commit_model_io,
    default_sponge_params,
    pack_width,
    permute,
    sponge_hash,
    sponge_states,
    weight_elements,
)
from zkgrid.field import DEFAULT_MODULUS, Field
from zkgrid.modelgen import random_input, random_model, random_parameterized_model

PARAMS = SpongeParams()

# Frozen outputs of the default parameter set (seed zkgrid-sponge-v1,
# t=3, 8 full + 57 partial rounds).  Guards against silent regressions.
GOLDEN = {
    (1, 2): 8335644007300765015187418543053050926948352422202928756690102693438792389592,
    (2, 1): 21872412542573363003730654312353251149345083216564757508857878580009932554830,
    (1,): 13720995532868438834200396474161932892579479473981721078364346872027537889440,
    (1, 0): 9810969037905570508251858971125964239307551176999378509491121284566095416685,
}


def test_default_params():
    assert PARAMS.t == 3
    assert PARAMS.full_rounds == 8
    assert PARAMS.partial_rounds == 57
    assert PARAMS.modulus == DEFAULT_MODULUS


def test_golden_vectors():
    for inp, digest in GOLDEN.items():
        assert sponge_hash(list(inp), PARAMS) == digest


def test_determinism():
    rng = random.Random(0)
    for _ in range(10):
        xs = [rng.randrange(PARAMS.modulus) for _ in range(rng.randint(1, 9))]
        assert sponge_hash(xs, PARAMS) == sponge_hash(list(xs), PARAMS)


def test_order_sensitivity():
    assert GOLDEN[(1, 2)] != GOLDEN[(2, 1)]
    assert sponge_hash([1, 2], PARAMS) != sponge_hash([2, 1], PARAMS)


def test_length_domain_separation():
    # [1] and [1, 0] absorb the same padded block but differ in length tag
    assert sponge_hash([1], PARAMS) != sponge_hash([1, 0], PARAMS)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        sponge_hash([], PARAMS)


def _reference_hash(elements, params):
    """Absorb-then-permute, written out with `permute` alone."""
    p, rate = params.modulus, params.rate
    state = [0] * rate + [len(elements) % p]
    for lo in range(0, len(elements), rate):
        chunk = elements[lo : lo + rate]
        chunk = chunk + [0] * (rate - len(chunk))
        state = [(v + m) % p for v, m in zip(state, chunk)] + state[rate:]
        state = permute(state, params)
    return state[0]


@pytest.mark.parametrize("params", [PARAMS, SpongeParams(t=4)], ids=["t3", "t4"])
def test_sponge_hash_matches_permute_reference(params):
    rng = random.Random(12)
    for n in range(1, 8):
        xs = [rng.randrange(params.modulus) for _ in range(n)]
        assert sponge_hash(xs, params) == _reference_hash(xs, params)
        chunks = list(sponge_states(xs, params))
        assert len(chunks) == -(-n // params.rate)
        assert all(len(states) == params.n_rounds + 2 for _, states in chunks)


def test_perturbation_changes_digest():
    """10**3 random single-element perturbations; collision smoke test,
    not a security claim."""
    rng = random.Random(42)
    p = PARAMS.modulus
    for _ in range(1000):
        n = rng.randint(1, 8)
        xs = [rng.randrange(p) for _ in range(n)]
        i = rng.randrange(n)
        ys = list(xs)
        ys[i] = (ys[i] + rng.randint(1, p - 1)) % p
        assert sponge_hash(xs, PARAMS) != sponge_hash(ys, PARAMS)


def test_mds_invertible_and_constants_reproducible():
    again = SpongeParams()
    assert again.round_constants == PARAMS.round_constants
    assert again.mds == PARAMS.mds
    p, t = PARAMS.modulus, PARAMS.t
    product = [[sum(PARAMS.mds[i][k] * PARAMS.mds_inv[k][j] for k in range(t)) % p for j in range(t)] for i in range(t)]
    assert product == [[int(i == j) for j in range(t)] for i in range(t)]
    other_seed = SpongeParams(seed="different-seed")
    assert other_seed.round_constants != PARAMS.round_constants


def test_permutation_is_a_bijection_sample():
    rng = random.Random(3)
    seen = set()
    for _ in range(50):
        s = [rng.randrange(PARAMS.modulus) for _ in range(3)]
        out = tuple(permute(s, PARAMS))
        assert out not in seen
        seen.add(out)


def test_params_file_round_trip(tmp_path):
    doc = PARAMS.to_json()
    path = tmp_path / "sponge.json"
    path.write_text(json.dumps(doc))
    loaded = SpongeParams.load(str(path))
    assert loaded == PARAMS
    assert sponge_hash([5, 6, 7], loaded) == sponge_hash([5, 6, 7], PARAMS)


def test_unknown_param_fields_rejected():
    with pytest.raises(ValueError, match="unknown"):
        SpongeParams.from_json({"t": 3, "rounds": 9})


# --- commitment binding -------------------------------------------------------

def test_instance_layout_per_mode():
    rng = random.Random(8)
    g = random_model(rng, max_hw=4, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    n_inputs = len(inp.data)
    out_ref = g.layers[g.output_layer_index].input_refs[0]
    n_logits = 1
    for d in g.output_shapes[out_ref] if out_ref >= 0 else g.input_shape:
        n_logits *= d

    inst = commit_model_io(g, inp, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
    assert len(inst) == n_logits + n_inputs + 1  # raw input + weight digest
    assert inst[n_logits : n_logits + n_inputs] == list(inp.data)

    inst = commit_model_io(g, inp, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS)
    assert len(inst) == n_logits + 2  # two digests

    inst = commit_model_io(g, inp, VisibilityMode.HIDDEN_INPUT_PUBLIC_WEIGHTS)
    assert len(inst) == n_logits + 1  # input digest only


def test_in_circuit_sponge_matches_out_of_circuit():
    rng = random.Random(99)
    for _ in range(5):
        g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=2)
        inp = random_input(rng, g)
        cfg = CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS)
        layout, _ = compile(g, cfg)
        asg = assign_witness(layout, g, inp)
        assert check(layout, asg) == []
        # digest cells must carry exactly the out-of-circuit digests
        params = cfg.sponge_params()
        expect_in = sponge_hash(list(inp.data), params)
        expect_w = sponge_hash(weight_elements(g, cfg.field.modulus), params)
        plans = {sp.label: sp for sp in layout.plan.sponges}
        (in_col, in_row), (w_col, w_row) = layout.plan.cells([plans["input"].digest_at, plans["weights"].digest_at])
        got_in = asg.advice[in_col][in_row]
        got_w = asg.advice[w_col][w_row]
        assert got_in == expect_in
        assert got_w == expect_w


def _row_rounds(params):
    """The rounds each row of one absorb computes: full rounds one to a
    row, partial rounds two to a row and the odd one alone."""
    half = params.full_rounds // 2
    end = half + params.partial_rounds
    pairs = [(r, r + 1) for r in range(half, end - 1, 2)]
    odd = [(end - 1,)] if params.partial_rounds % 2 else []
    return [(r,) for r in range(half)] + pairs + odd + [(r,) for r in range(end, params.n_rounds)]


def test_sponge_rows_are_sponge_states():
    """Both sponges' rows, the input's filled per witness and the
    weights' filled at compile, hold exactly `sponge_states`: each chunk
    on its round-0 row, which has no absorb row before it, then one row
    per full round and per pair of partial rounds, with u the lane 0
    between the two rounds of a pair.  Each row's state in is the state
    out of the row before; the sponge's first row reads zeros and adds
    the initial state (0, 0, length) through its round constants."""
    rng = random.Random(31)
    g = random_parameterized_model(rng, max_hw=3, max_c=2, max_layers=2)
    cfg = CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS)
    layout, _ = compile(g, cfg)
    adv = assign_witness(layout, g, random_input(rng, g)).advice
    params = cfg.sponge_params()
    q = params.modulus
    row_rounds = _row_rounds(params)
    assert len(row_rounds) == 37
    rc = [layout.fixed[f"sp:rc{j}"] for j in range(params.t)]
    rcb = [layout.fixed[f"sp:rcb{j}"] for j in range(params.t)]
    assert {sp.label for sp in layout.plan.sponges} == {"input", "weights"}
    for sp in layout.plan.sponges:
        elements = [adv[c][r] % q for c, r in layout.plan.cells(sp.message_at)]
        chunks = list(sponge_states(elements, params))
        assert len(chunks) == len(sp.absorb_rows) == len(sp.round_rows)
        first = sp.absorb_rows[0]
        assert [adv[f"sp:in{j}"][first] for j in range(params.t)] == [0, 0, 0]
        init = [0, 0, len(elements)]
        assert [rc[j][first] % q for j in range(params.t)] == [
            (c + v) % q for c, v in zip(params.round_constants[0], init)
        ]
        prev = None
        for (chunk, states), absorb_row, round_rows in zip(chunks, sp.absorb_rows, sp.round_rows):
            assert [adv[f"sp:m{j}"][absorb_row] % q for j in range(params.rate)] == chunk
            rows = (absorb_row, *round_rows)
            assert len(rows) == len(row_rounds)
            for row, rounds in zip(rows, row_rounds):
                if row != first:
                    assert [adv[f"sp:in{j}"][row] for j in range(params.t)] == prev
                    assert [rc[j][row] % q for j in range(params.t)] == list(params.round_constants[rounds[0]])
                prev = [adv[f"sp:out{j}"][row] for j in range(params.t)]
                assert prev == states[rounds[-1] + 2]
                if len(rounds) == 2:
                    assert adv["sp:u"][row] == states[rounds[0] + 2][0]
                    assert [rcb[j][row] % q for j in range(params.t)] == list(params.round_constants[rounds[1]])
                else:
                    assert adv["sp:u"][row] is None
            assert prev == states[-1]
        [(col, row)] = layout.plan.cells([sp.digest_at])
        assert adv[col][row] == sponge_hash(elements, params)


def test_weight_perturbation_breaks_binding():
    """Recompute the whole witness honestly for a model with one weight
    changed, keep the original public instance: the checker must object."""
    rng = random.Random(5)
    g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    cfg = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
    layout, _ = compile(g, cfg)
    honest = assign_witness(layout, g, inp)
    assert check(layout, honest) == []

    import dataclasses

    li = next(i for i, l in enumerate(g.layers) if l.weights is not None)
    wt = g.layers[li].weights
    data = bytearray(wt.data)
    data[0] = (data[0] + 1) % 256
    new_layers = list(g.layers)
    new_layers[li] = dataclasses.replace(g.layers[li], weights=dataclasses.replace(wt, data=bytes(data)))
    g2 = dataclasses.replace(g, layers=tuple(new_layers))

    layout2, _ = compile(g2, cfg)
    tampered = assign_witness(layout2, g2, inp)
    tampered.instance = list(honest.instance)  # claim the old commitment
    assert check(layout2, tampered) != []


@pytest.mark.parametrize("partial_rounds", [0, 1, 2, 57])
def test_partial_round_counts_compile_and_check(partial_rounds):
    """No partial round, an odd one alone and one pair: each count
    compiles to full_rounds + ceil(partial/2) rows per absorb, the honest
    witness checks clean and both digests match `sponge_hash`."""
    rng = random.Random(50 + partial_rounds)
    g = random_parameterized_model(rng, max_hw=3, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    sp = SpongeParams(partial_rounds=partial_rounds)
    cfg = CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS, sponge=sp)
    layout, stats = compile(g, cfg)
    sponge = stats.regions["sponge"]
    assert sponge["rows"] == sponge["absorbs"] * (8 + (partial_rounds + 1) // 2)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    assert asg.instance == commit_model_io(g, inp, cfg.mode, sp)


def test_negative_partial_rounds_rejected():
    """-1 partial rounds would run full_rounds - 1 rounds, all full."""
    with pytest.raises(ValueError, match="partial round count must be >= 0"):
        SpongeParams.from_json({"partial_rounds": -1})


def test_wider_sponge_state_compiles_and_binds():
    """Generic round gates: a t=4 sponge with different round counts
    still agrees in- and out-of-circuit."""
    rng = random.Random(77)
    g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=2)
    inp = random_input(rng, g)
    sp = SpongeParams(t=4, full_rounds=6, partial_rounds=20, seed="alt")
    cfg = CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS, sponge=sp)
    layout, _ = compile(g, cfg)
    asg = assign_witness(layout, g, inp)
    assert check(layout, asg) == []
    plans = {p.label: p for p in layout.plan.sponges}
    [(col, row)] = layout.plan.cells([plans["input"].digest_at])
    got = asg.advice[col][row]
    assert got == sponge_hash(list(inp.data), sp)


# --- the weight digest's absorb sequence (definition v2) -----------------------

def _unpack(elements, graph, modulus):
    """Weights and biases back from weight_elements, layer by layer."""
    k = pack_width(modulus)
    it = iter(elements)
    out = []
    for layer in graph.layers:
        if layer.weights is None:
            continue
        n = layer.weights.num_elements()
        data = b"".join(
            next(it).to_bytes(min(k, n - lo), "little") for lo in range(0, n, k)
        )
        out.append(([b - 128 for b in data], [next(it) for _ in layer.bias]))
    assert next(it, None) is None
    return out


@pytest.mark.parametrize("modulus, k", [(DEFAULT_MODULUS, 31), (65537, 2), ((1 << 61) - 1, 7), ((1 << 127) - 1, 15)])
def test_pack_width(modulus, k):
    assert pack_width(modulus) == k
    assert 256**k <= 2 ** (modulus.bit_length() - 1) < modulus


def test_weight_elements_chunks_and_stay_below_p():
    """One element per k weights of a layer (its last may hold fewer),
    then one per bias; every element a canonical residue, even when
    every byte is 255 (w = 127)."""
    rng = random.Random(12)
    for _ in range(20):
        g = random_parameterized_model(rng, max_hw=5, max_c=3, max_layers=3)
        for modulus in (DEFAULT_MODULUS, 65537):
            k = pack_width(modulus)
            elements = weight_elements(g, modulus)
            expect = sum(
                -(-layer.weights.num_elements() // k) + len(layer.bias)
                for layer in g.layers
                if layer.weights is not None
            )
            assert len(elements) == expect
            assert all(0 <= e < modulus for e in elements)
            layers = _unpack(elements, g, modulus)
            params = [l for l in g.layers if l.weights is not None]
            for (ws, bs), layer in zip(layers, params):
                assert ws == list(layer.weights.signed_values())
                assert bs == [b % modulus for b in layer.bias]
    assert int.from_bytes(bytes([255] * 31), "little") < DEFAULT_MODULUS


def test_weight_elements_injective():
    """Distinct weights give distinct sequences: each single-weight change,
    including -128 <-> 127 at a chunk edge, moves exactly one element."""
    import dataclasses

    rng = random.Random(4)
    g = random_parameterized_model(rng, max_hw=4, max_c=3, max_layers=2)
    li = next(i for i, l in enumerate(g.layers) if l.weights is not None)
    base = weight_elements(g, DEFAULT_MODULUS)
    seen = {tuple(base)}
    wt = g.layers[li].weights
    for idx in {0, 30, 31, wt.num_elements() - 1} & set(range(wt.num_elements())):
        for new in (0x80, 0x7F, 0x00, 0xFF):   # int8 -128, 127, 0, -1
            data = bytearray(wt.data)
            if data[idx] == new:
                continue
            data[idx] = new
            layers = list(g.layers)
            layers[li] = dataclasses.replace(layers[li], weights=dataclasses.replace(wt, data=bytes(data)))
            got = weight_elements(dataclasses.replace(g, layers=tuple(layers)), DEFAULT_MODULUS)
            assert sum(a != b for a, b in zip(got, base)) == 1
            assert tuple(got) not in seen
            seen.add(tuple(got))


def test_default_sponge_params_built_once_per_modulus():
    """Every config without sponge params on one field shares one default
    SpongeParams, equal to a freshly built one; another field gets its own."""
    shared = CompileConfig().sponge_params()
    assert shared is CompileConfig(mode=VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS).sponge_params()
    assert shared is default_sponge_params(DEFAULT_MODULUS)
    fresh = SpongeParams(modulus=DEFAULT_MODULUS)
    assert shared == fresh and shared.round_constants == fresh.round_constants and shared.mds_inv == fresh.mds_inv
    other = CompileConfig(field=Field(2**61 - 1)).sponge_params()
    assert other.modulus == 2**61 - 1 and other is CompileConfig(field=Field(2**61 - 1)).sponge_params()
