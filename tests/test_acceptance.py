"""Acceptance criteria, one test (or parametrized group) per criterion.

Each check prints a PASS/FAIL line (run with -s to see them inline).
Criterion 5 derives its per-example rate from the published cost table
itself: exactly one five-decimal rate, $0.16656, keeps all six rows
within the +/-$0.05 tolerance.  The table is inconsistent only at the
cent level (no rate reproduces every figure to the cent), which the
check records as a passing assertion (see the cost-model test's
docstring).
"""

import random
import time
from fractions import Fraction as F

import pytest

from helpers import tamper_trials
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.bench import constraint_rows, make_synthetic_grid
from zkgrid.checker import check, check_parallel
from zkgrid.commit import VisibilityMode, sponge_hash, weight_elements
from zkgrid.interpreter import run_inference
from zkgrid.model import Layer, ModelGraph, QuantParams, QuantTensor, ScaleFactor, INPUT_REF, validate
from zkgrid.modelgen import random_input, random_model, random_parameterized_model
from zkgrid.protocol import (
    EconParams,
    Transition,
    cost_estimate,
    grief_thresholds,
    hoeffding_sample_size,
    legal_transitions,
    new_session,
    retrieval_sample_size,
    step,
)
from zkgrid.protocol.machines import KINDS


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {tag} {detail}".rstrip())


@pytest.fixture(scope="module")
def oracle_corpus():
    """100 random models with inputs, compiled and witnessed once."""
    rng = random.Random(0xACCE97)
    corpus = []
    for _ in range(100):
        g = random_model(rng, max_hw=16, max_c=8, max_layers=4)
        inp = random_input(rng, g)
        corpus.append((g, inp))
    return corpus


def test_criterion_1_oracle_equivalence(oracle_corpus):
    """compile + assign_witness + check is violation-free and the
    activation cells equal the interpreter exactly, 100 random models."""
    t0 = time.perf_counter()
    checked = 0
    for g, inp in oracle_corpus:
        layout, _ = compile(g)
        asg = assign_witness(layout, g, inp)
        violations = check(layout, asg)
        assert violations == [], f"model {checked}: {violations[:3]}"
        tr = run_inference(g, inp)
        for site in layout.plan.site_plans:
            col, row = site.div.cell("act")
            got = asg.advice[col][row]
            want = int(tr.layers[site.layer].act.reshape(-1)[site.flat])
            assert got == want, f"model {checked} layer {site.layer} site {site.flat}"
        checked += 1
    dt = time.perf_counter() - t0
    ok = checked == 100 and dt < 60.0
    _report("1 oracle-equivalence", ok, f"({checked} models in {dt:.1f}s)")
    assert checked == 100
    assert dt < 60.0, f"runtime {dt:.1f}s exceeds the 60s budget"


def test_criterion_2_soundness_probe(oracle_corpus):
    """50 random single-cell tampers on each of 20 models: 1000/1000
    must produce at least one violation."""
    rng = random.Random(0x50FA)
    caught_total = trials_total = 0
    for g, inp in oracle_corpus[:20]:
        layout, _ = compile(g)
        asg = assign_witness(layout, g, inp)
        caught, trials = tamper_trials(layout, asg, rng, 50)
        caught_total += caught
        trials_total += trials
    ok = caught_total == trials_total == 1000
    _report("2 soundness-probe", ok, f"({caught_total}/{trials_total} tampers detected)")
    assert caught_total == trials_total == 1000


def _conv_chain(scales):
    """One 3x3 conv per given (a, b, z_out), chained."""
    q_in = QuantParams(zero_point=8, scale=ScaleFactor(1, scales[0][1]))
    layers = []
    ref = INPUT_REF
    for i, (a, b, z) in enumerate(scales):
        layers.append(
            Layer(
                kind="conv2d",
                input_refs=(ref,),
                out_quant=QuantParams(zero_point=z, scale=ScaleFactor(a, b)),
                weights=QuantTensor(
                    shape=(2, 3, 3, 2 if i else 1),
                    data=bytes([1] * (2 * 9 * (2 if i else 1))),
                    quant=QuantParams(0, ScaleFactor(1, 1)),
                ),
                bias=(0, 0),
                stride=1,
                padding="same",
            )
        )
        ref = i
    layers.append(Layer(kind="output", input_refs=(ref,), out_quant=layers[-1].out_quant))
    return validate(ModelGraph(layers=tuple(layers), input_shape=(6, 6, 1), input_quant=q_in))


def test_criterion_3_lookup_sharing():
    """Identical (a, b, z_out) across three layers: exactly one clip
    table; changing one layer's scale numerator: exactly two."""
    shared = _conv_chain([(3, 64, 4), (3, 64, 4), (3, 64, 4)])
    _, stats_shared = compile(shared)
    split = _conv_chain([(3, 64, 4), (5, 64, 4), (3, 64, 4)])
    _, stats_split = compile(split)
    ok = stats_shared.n_clip_tables == 1 and stats_split.n_clip_tables == 2
    _report(
        "3 lookup-sharing", ok,
        f"(shared={stats_shared.n_clip_tables}, split={stats_split.n_clip_tables})",
    )
    assert stats_shared.n_clip_tables == 1
    assert stats_split.n_clip_tables == 2


def test_criterion_4_sample_size_tables():
    """Hoeffding rows 600 and 14979 exact, 2396 within one; audit row
    (5%, 5%) -> 72 exact; remaining audit rows match the exact binomial
    oracle.  The published table prints 183 and 366 for the 2.5% and 1%
    rows; the exact computation gives 146 and 368, and we follow the
    computation (the discrepancy is recorded here on purpose)."""
    ok = True
    ok &= hoeffding_sample_size("0.05", "0.05") == 600
    ok &= hoeffding_sample_size("0.01", "0.05") == 14979
    ok &= abs(hoeffding_sample_size("0.025", "0.05") - 2396) <= 1
    ok &= retrieval_sample_size("0.05", "0.05") == 72

    delta = F(1, 20)
    oracle = {}
    for p_t in (F(1, 40), F(1, 100)):
        n = 1
        while (1 - p_t) ** n > delta / 2:
            n += 1
        oracle[p_t] = n
    ok &= retrieval_sample_size(F(1, 40), delta) == oracle[F(1, 40)] == 146
    ok &= retrieval_sample_size(F(1, 100), delta) == oracle[F(1, 100)] == 368
    # published values for those rows, kept visibly different from ours
    ok &= (146, 368) != (183, 366)
    _report("4 sample-size-tables", bool(ok))
    assert ok


_COST_ROWS = [
    ("prediction-72", 72, "11.99"),
    ("prediction-183", 183, "30.48"),
    ("prediction-366", 366, "60.96"),
    ("accuracy-600", 600, "99.93"),
    ("accuracy-2396", 2396, "399.08"),
    ("accuracy-14979", 14979, "2494.90"),
]


_COST_TOLERANCE = F(5, 100)
# every five-decimal per-example rate from $0.16000 to $0.17000
_FIVE_DECIMAL_RATES = [F(k, 100_000) for k in range(16_000, 17_001)]


def _fits_cost_table(rate) -> bool:
    return all(abs(cost_estimate(n, rate) - F(published)) <= _COST_TOLERANCE for _, n, published in _COST_ROWS)


def _cent_exact_rates(n, published):
    """Closed interval of rates r with n * r within half a cent of the
    published figure, i.e. the rates that could have produced it."""
    cents = F(published) * 100
    return (cents - F(1, 2)) / (100 * n), (cents + F(1, 2)) / (100 * n)


@pytest.mark.parametrize("row,n,published", _COST_ROWS, ids=[r[0] for r in _COST_ROWS])
def test_criterion_5_cost_model(row, n, published):
    """All six published dollar figures within +/-$0.05 of N * rate, at
    the one five-decimal rate the table implies.

    The rate is not hard-coded: enumerating every five-decimal rate in
    [$0.16000, $0.17000] exactly, only $0.16656 keeps all six rows within
    the tolerance (it reproduces five rows to the cent and is $0.01 off
    on the 600 row).  At $0.16655 the 14979 row computes to $2494.75,
    $0.15 below the published $2494.90.

    The table is inconsistent only at the cent level: to round to $99.93
    the 600 row needs a rate <= 0.1665583, while to round to $399.08 the
    2396 row needs a rate >= 0.1665588, so no single rate reproduces
    every figure to the cent.  The tolerance absorbs that gap.
    """
    fitting = {r for r in _FIVE_DECIMAL_RATES if _fits_cost_table(r)}
    assert fitting == {F("0.16656")}, f"rates fitting the table: {sorted(f'{float(r):.5f}' for r in fitting)}"
    (rate,) = fitting

    # published rows kept visibly inconsistent to the cent
    rows = {r: (rn, rp) for r, rn, rp in _COST_ROWS}
    lo_600, hi_600 = _cent_exact_rates(*rows["accuracy-600"])
    lo_2396, hi_2396 = _cent_exact_rates(*rows["accuracy-2396"])
    assert hi_600 < lo_2396 or hi_2396 < lo_600

    got = cost_estimate(n, rate)
    diff = abs(got - F(published))
    ok = diff <= _COST_TOLERANCE
    _report(f"5 cost-model[{row}]", ok, f"(got ${float(got):.2f} at ${float(rate)}, published ${published})")
    assert ok, f"{row}: got {float(got):.2f}, published {published}"


def _random_econ(rng):
    # exact rationals with E > Z > P
    e = F(rng.randint(50, 400), 100)
    z = e * F(rng.randint(10, 80), 100)
    p = z * F(rng.randint(10, 80), 100)
    return EconParams(E=e, Z=z, P=p, N1=rng.randint(1, 300), N2=rng.randint(0, 300) + 1)


def test_criterion_6_ledger_conservation():
    """10**4 fuzzed legal sequences conserve funds on all five machines;
    the stage-4 abort and stage-7 settlement transfers match their
    formulas exactly on 100 random parameter sets."""
    rng = random.Random(0xBEEF)
    base = EconParams(E=1, Z="0.5", P="0.1", N1=100, N2=100)
    runs = 0
    ok = True
    while runs < 10_000:
        kind = KINDS[runs % len(KINDS)]
        s = new_session(kind, base)
        total0 = s.total()
        while not s.terminal:
            opts = legal_transitions(s, rng)
            if not opts:
                break
            s = step(s, rng.choice(opts))
            if s.total() != total0:
                ok = False
        runs += 1

    prefix = [
        ("MP", "commit", {}), ("MC", "commit", {}), ("MP", "escrow", {}), ("MC", "escrow", {}),
    ]
    for _ in range(100):
        p = _random_econ(rng)
        s = new_session("accuracy_full", p)
        for actor, action, payload in prefix:
            s = step(s, Transition(actor=actor, action=action, payload=payload))
        s = step(s, Transition("MP", "send_subset", {"count": p.N1}))
        s = step(s, Transition("MC", "send_subset", {"count": p.N1}))
        aborted = step(s, Transition("MP", "abort"))
        got = [e.amount for e in aborted.transfers if e.rule == "stage4_abort_N1P"]
        if got != [p.N1 * p.P]:
            ok = False
        s = step(s, Transition("MP", "acknowledge"))
        s = step(s, Transition("MC", "send_subset", {"count": p.N2}))
        s = step(s, Transition("MP", "send_snarks", {"results": [True] * p.N2}))
        settled = step(s, Transition("escrow_service", "settle"))
        got = [e.amount for e in settled.transfers if e.rule.startswith("stage7_settle")]
        if got != [2 * (p.N1 * p.P + p.N2 * p.Z)]:
            ok = False
    _report("6 ledger-conservation", ok, f"({runs} fuzzed sequences)")
    assert ok and runs == 10_000


def test_criterion_7_commitment_binding():
    """100 random hidden-weight models: the in-circuit digest cell equals
    the out-of-circuit sponge digest, and a single weight perturbation
    with the old instance kept produces a checker violation."""
    import dataclasses

    rng = random.Random(0x7A57)
    cfg = CompileConfig(mode=VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
    agree = binding_broken = 0
    for _ in range(100):
        g = random_parameterized_model(rng, max_hw=4, max_c=2, max_layers=2)
        inp = random_input(rng, g)
        layout, _ = compile(g, cfg)
        asg = assign_witness(layout, g, inp)
        assert check(layout, asg) == []
        sp = next(s for s in layout.plan.sponges if s.label == "weights")
        [(col, row)] = layout.plan.cells([sp.digest_at])
        in_circuit = asg.advice[col][row]
        out_of_circuit = sponge_hash(weight_elements(g, cfg.field.modulus), cfg.sponge_params())
        if in_circuit == out_of_circuit == asg.instance[-1]:
            agree += 1

        li = next(i for i, l in enumerate(g.layers) if l.weights is not None)
        wt = g.layers[li].weights
        data = bytearray(wt.data)
        k = rng.randrange(len(data))
        data[k] = (data[k] + 1) % 256
        layers = list(g.layers)
        layers[li] = dataclasses.replace(layers[li], weights=dataclasses.replace(wt, data=bytes(data)))
        g2 = dataclasses.replace(g, layers=tuple(layers))
        layout2, _ = compile(g2, cfg)
        asg2 = assign_witness(layout2, g2, inp)
        asg2.instance = list(asg.instance)
        if check(layout2, asg2):
            binding_broken += 1
    ok = agree == 100 and binding_broken == 100
    _report("7 commitment-binding", ok, f"(agree {agree}/100, binding breaks {binding_broken}/100)")
    assert agree == 100
    assert binding_broken == 100


def test_criterion_8_checker_throughput():
    """At least 1e5 constraint-rows per second per core on a synthetic
    1e6-row grid, with results invariant to the shard count."""
    layout, asg = make_synthetic_grid(1_000_000)
    rows = constraint_rows(layout)
    t0 = time.perf_counter()
    violations = check_parallel(layout, asg, shards=1)
    dt = time.perf_counter() - t0
    rate = rows / dt
    assert violations == []

    lay2, asg2 = make_synthetic_grid(100_000, violations=29)
    v1 = check_parallel(lay2, asg2, shards=1)
    v8 = check_parallel(lay2, asg2, shards=8)
    invariant = v1 == v8 and len(v1) == 29
    ok = rate >= 1e5 and invariant
    _report("8 checker-throughput", ok, f"({rate:,.0f} constraint-rows/s, shard-invariant={invariant})")
    assert rate >= 1e5, f"rate {rate:,.0f} below 1e5 rows/s"
    assert invariant
