import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from zkgrid.protocol import (
    EconError,
    EconParams,
    ProtocolError,
    Transition,
    cost_estimate,
    evaluate_predictions,
    expected_gain_mp,
    format_currency,
    grief_thresholds,
    hoeffding_sample_size,
    legal_transitions,
    new_session,
    retrieval_sample_size,
    run_log,
    step,
)
from zkgrid.protocol.machines import KINDS


def params(**kw):
    base = dict(E=1, Z="0.5", P="0.1", N1=100, N2=100, K=100, K1=10, beta=2)
    base.update(kw)
    return EconParams(**base)


def t(actor, action, **payload):
    return Transition(actor=actor, action=action, payload=payload)


# --- parameter validation ------------------------------------------------------

def test_cost_ordering_enforced():
    with pytest.raises(EconError, match="ordering"):
        EconParams(E=1, Z=2, P=0, N1=10, N2=10)
    with pytest.raises(EconError, match="ordering"):
        EconParams(E=1, Z="0.5", P="0.6", N1=10, N2=10)


def test_k_and_beta_constraints():
    with pytest.raises(EconError, match="K1"):
        params(K=5, K1=6)
    with pytest.raises(EconError, match="beta"):
        params(beta="1.5")


def test_stake_constant():
    assert params().stake == 1000 * 100 * 1


# --- accuracy_full happy path and aborts ---------------------------------------

FULL_HAPPY = [
    ("MP", "commit", {"hash": "w"}),
    ("MC", "commit", {"hash": "t"}),
    ("MP", "escrow", {}),
    ("MC", "escrow", {}),
    ("MP", "send_subset", {"count": 100}),
    ("MC", "send_subset", {"count": 100}),
    ("MP", "acknowledge", {}),
    ("MC", "send_subset", {"count": 100}),
]


def _drive(state, steps):
    for actor, action, payload in steps:
        state = step(state, Transition(actor=actor, action=action, payload=payload))
    return state


def test_full_protocol_settlement_pays_2_n1p_plus_n2z():
    p = params()
    s0 = new_session("accuracy_full", p)
    s = _drive(s0, FULL_HAPPY)
    s = step(s, t("MP", "send_snarks", results=[True] * 90 + [False] * 10))
    s = step(s, t("escrow_service", "settle"))
    assert s.stage == "settled"
    # MP nets the 2(N1 P + N2 Z) = 120 payment minus its epsilon fee
    eps = p.resolved_epsilon()
    assert s.balances["MP"] - s0.balances["MP"] - s0.stake == F(120) - eps
    assert s.total() == s0.total()


def test_full_protocol_failed_accuracy_slashes_mp():
    p = params(accuracy_target="0.95")
    s0 = new_session("accuracy_full", p)
    s = _drive(s0, FULL_HAPPY)
    s = step(s, t("MP", "send_snarks", results=[True] * 90 + [False] * 10))
    s = step(s, t("escrow_service", "settle"))
    assert s.stage == "slashed_MP"
    eps = p.resolved_epsilon()
    # MC receives MP's full 2NE escrow and pays only its fee
    assert s.balances["MC"] - s0.balances["MC"] == 2 * p.N * p.E - eps
    assert s.total() == s0.total()


def test_stage4_abort_transfers_n1p():
    p = params()
    s0 = new_session("accuracy_full", p)
    s = _drive(s0, FULL_HAPPY[:6])
    s = step(s, t("MP", "abort"))
    assert s.stage == "aborted"
    eps = p.resolved_epsilon()
    assert s.balances["MP"] - s0.balances["MP"] - s0.stake == p.N1 * p.P - eps
    assert s.balances["MC"] - s0.balances["MC"] == -(p.N1 * p.P) - eps
    assert s.total() == s0.total()


def test_mc_abort_at_subset_loses_full_escrow():
    p = params()
    s0 = new_session("accuracy_full", p)
    s = _drive(s0, FULL_HAPPY[:5])
    s = step(s, t("MC", "abort"))
    assert s.stage == "slashed_MC"
    assert s.balances["MC"] - s0.balances["MC"] == -2 * p.N * p.E - p.resolved_epsilon()


def test_simple_protocol_settlement_pays_2nz():
    p = params()
    s0 = new_session("accuracy_simple", p)
    s = _drive(
        s0,
        [
            ("MP", "commit", {"hash": "w"}),
            ("MC", "commit", {"hash": "t"}),
            ("MP", "escrow", {}),
            ("MC", "escrow", {}),
            ("MC", "send_subset", {"count": 200}),
        ],
    )
    s = step(s, t("MP", "send_snarks", results=[True] * 170 + [False] * 30))
    s = step(s, t("escrow_service", "settle"))
    assert s.stage == "settled"
    assert s.balances["MP"] - s0.balances["MP"] - s0.stake == 2 * p.N * p.Z - p.resolved_epsilon()


def test_simple_protocol_mp_abort_costs_mc_np():
    p = params()
    s0 = new_session("accuracy_simple", p)
    s = _drive(
        s0,
        [
            ("MP", "commit", {}),
            ("MC", "commit", {}),
            ("MP", "escrow", {}),
            ("MC", "escrow", {}),
            ("MC", "send_subset", {"count": 200}),
        ],
    )
    s = step(s, t("MP", "abort"))
    assert s.stage == "aborted"
    assert s.balances["MC"] - s0.balances["MC"] == -(p.N * p.P) - p.resolved_epsilon()


# --- serving --------------------------------------------------------------------

SERVING_TO_ROUND = [
    ("MC", "escrow", {}),
    ("MP", "escrow", {}),
    ("MC", "commit", {"hash": "x"}),
    ("MP", "acknowledge", {}),
    ("MP", "send_subset", {"count": 100}),
    ("MC", "commit", {"hash": "xy"}),
]


def test_serving_failed_contest_costs_mc_2k1z():
    p = params()
    s0 = new_session("serving", p)
    s = _drive(s0, SERVING_TO_ROUND)
    s = step(s, t("MC", "contest"))
    s = step(s, t("MP", "send_snarks", valid=True))
    assert s.stage == "settled"
    assert s.balances["MC"] - s0.balances["MC"] == -2 * p.K1 * p.Z == -10
    assert s.balances["MP"] - s0.balances["MP"] == 2 * p.K1 * p.Z
    assert s.total() == s0.total()


def test_serving_proven_lie_slashes_mp():
    p = params()
    s0 = new_session("serving", p)
    s = _drive(s0, SERVING_TO_ROUND)
    s = step(s, t("MC", "contest"))
    s = step(s, t("MP", "send_snarks", valid=False))
    assert s.stage == "slashed_MP"
    assert s.balances["MC"] - s0.balances["MC"] == p.beta * p.K * p.Z


def test_contest_after_round_concluded_rejected():
    p = params()
    s = _drive(new_session("serving", p), SERVING_TO_ROUND)
    s = step(s, t("escrow_service", "settle"))
    assert s.stage == "settled"
    with pytest.raises(ProtocolError, match="terminal"):
        step(s, t("MC", "contest"))


def test_illegal_actor_rejected():
    p = params()
    s = new_session("accuracy_full", p)
    with pytest.raises(ProtocolError, match="illegal"):
        step(s, t("MC", "commit"))  # MP must commit first


# --- retrieval and data transfer -------------------------------------------------

def test_retrieval_clean_audit_settles():
    p = params()
    s = new_session("retrieval", p)
    s = _drive(s, [("MP", "commit", {"hash": "docs"}), ("MC", "send_subset", {}), ("MP", "send_snarks", {})])
    s = step(s, t("MC", "contest", mismatches=0))
    s = step(s, t("escrow_service", "settle"))
    assert s.stage == "settled"


def test_retrieval_tampering_detected():
    p = params()
    s = new_session("retrieval", p)
    s = _drive(s, [("MP", "commit", {}), ("MC", "send_subset", {}), ("MP", "send_snarks", {})])
    s = step(s, t("MC", "contest", mismatches=2))
    assert s.stage == "slashed_MP"


def test_data_transfer_happy_path_and_key_contest():
    p = params()
    steps = [
        ("MC", "escrow", {"amount": 5}),
        ("MP", "escrow", {"amount": 5}),
        ("MC", "commit", {"hash": "enc"}),
        ("MC", "send_subset", {}),
        ("MP", "acknowledge", {}),
        ("MC", "reveal_key", {"key": "k"}),
    ]
    s0 = new_session("data_transfer", p)
    s = _drive(s0, steps)
    done = step(s, t("MP", "acknowledge"))
    assert done.stage == "settled"
    assert done.balances == s0.balances  # full refunds

    bad_key = step(s, t("MP", "contest", key_valid=False))
    assert bad_key.stage == "slashed_MC"
    assert bad_key.balances["MP"] - s0.balances["MP"] == 5

    bogus = step(s, t("MP", "contest", key_valid=True))
    assert bogus.stage == "slashed_MP"
    assert bogus.balances["MC"] - s0.balances["MC"] == 5


def test_data_transfer_timeout_slashing_sides():
    p = params()
    s = new_session("data_transfer", p)
    s = _drive(s, [("MC", "escrow", {"amount": 3}), ("MP", "escrow", {"amount": 3})])
    # stage 1 is MC's move: MC timeout slashes MC
    assert step(s, t("MC", "timeout")).stage == "slashed_MC"
    s = step(s, t("MC", "commit"))
    s = step(s, t("MC", "send_subset"))
    # stage 3 is MP's move
    assert step(s, t("MP", "timeout")).stage == "slashed_MP"


# --- fuzzed conservation ---------------------------------------------------------

def test_ledger_conservation_fuzz():
    """10**4 random legal transition sequences across all five machines:
    funds are neither created nor destroyed, and per-party balance deltas
    equal the net of the logged mandated transfers."""
    rng = random.Random(0xC0FFEE)
    p = params()
    sequences = 0
    while sequences < 10_000:
        kind = KINDS[sequences % len(KINDS)]
        s0 = new_session(kind, p)
        total0 = s0.total()
        s = s0
        while not s.terminal:
            opts = legal_transitions(s, rng)
            if not opts:
                break
            s = step(s, rng.choice(opts))
            assert s.total() == total0
        sequences += 1
    assert sequences == 10_000


def test_replaying_a_log_reproduces_state():
    rng = random.Random(17)
    p = params()
    for kind in KINDS:
        s0 = new_session(kind, p)
        log = []
        s = s0
        while not s.terminal:
            opts = legal_transitions(s, rng)
            if not opts:
                break
            tr = rng.choice(opts)
            log.append(tr)
            s = step(s, tr)
        replay = run_log(s0, log)[-1]
        assert replay == s


def test_no_unmandated_withdrawals():
    """Balance deltas decompose exactly into the logged rule transfers."""
    rng = random.Random(3)
    p = params()
    for _ in range(200):
        kind = rng.choice(KINDS)
        s0 = new_session(kind, p)
        s = s0
        while not s.terminal:
            opts = legal_transitions(s, rng)
            if not opts:
                break
            s = step(s, rng.choice(opts))
        net = {k: F(0) for k in s.balances}
        for e in s.transfers:
            if e.src in net:
                net[e.src] -= e.amount
            if e.dst in net:
                net[e.dst] += e.amount
        for party in s.balances:
            assert s.balances[party] - s0.balances[party] == net[party], (kind, party)


# --- thresholds and calculators ---------------------------------------------------

def test_grief_thresholds_baseline():
    g = grief_thresholds(params())
    assert g["baseline"].epsilon == F(10, 99)
    assert g["baseline"].alpha_bound == F(490, 20290)


def test_grief_thresholds_anti_griefing():
    p = params()
    g = grief_thresholds(p)
    assert g["anti_griefing"].epsilon == p.N1 * p.P == 10
    # ((1/50)*200*1 - 2*100*0.5) / (10 - 50) = (4 - 100) / -40 = 12/5
    assert g["anti_griefing"].alpha_bound == F(12, 5)


def test_grief_thresholds_degenerate_denominator():
    # N1*P == N2*Z exactly: N1=10, P=1/100 gives 1/10; N2=1, Z=1/10
    bad = EconParams(E=1, Z=F(1, 10), P=F(1, 100), N1=10, N2=1)
    with pytest.raises(EconError, match="degenerate"):
        grief_thresholds(bad)


def test_expected_gain_collapses_at_alpha_extremes():
    p = params(epsilon="0.5")
    n1p = p.N1 * p.P
    n2z2 = 2 * p.N2 * p.Z
    assert expected_gain_mp(p, 0) == n1p + n2z2 - F(1, 2)
    assert expected_gain_mp(p, 1) == n1p


def test_expected_gain_worked_example():
    p = params(epsilon=F(10, 99))
    got = expected_gain_mp(p, F(1, 2))
    assert got == F(1, 2) * (10 + 100 - F(10, 99)) + F(1, 2) * 10


def test_retrieval_sample_sizes():
    assert retrieval_sample_size("0.05", "0.05") == 72
    assert retrieval_sample_size("0.5", "0.05") == 6
    assert retrieval_sample_size("0.975", "0.05") == 1


def test_retrieval_sample_size_matches_binomial_oracle():
    """Exact zero-failure binomial search: smallest N with (1-p)^N <= delta/2."""
    delta = F(1, 20)
    for p_t in (F(1, 2), F(1, 4), F(1, 10), F(1, 20)):
        n = 1
        while (1 - p_t) ** n > delta / 2:
            n += 1
        assert retrieval_sample_size(p_t, delta) == n


def test_retrieval_range_validation():
    with pytest.raises(EconError):
        retrieval_sample_size(0, 0.05)
    with pytest.raises(EconError):
        retrieval_sample_size(0.5, 1)


def test_hoeffding_sample_sizes():
    assert hoeffding_sample_size("0.05", "0.05") == 600
    assert hoeffding_sample_size("0.01", "0.05") == 14979
    assert hoeffding_sample_size("0.025", "0.05") in (2396, 2397)
    import math

    assert hoeffding_sample_size(1.0, math.exp(-2)) == 1


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=99),
)
@settings(max_examples=200)
def test_hoeffding_monotone(e1, e2, d_pct):
    d = F(d_pct, 100)
    ea, eb = F(min(e1, e2), 1000), F(max(e1, e2), 1000)
    assert hoeffding_sample_size(ea, d) >= hoeffding_sample_size(eb, d)
    if d_pct < 99:
        assert hoeffding_sample_size(ea, d) >= hoeffding_sample_size(ea, d + F(1, 100))


def test_sample_sizes_of_fractions_past_the_float_range():
    """Exact fractions whose float is 0 or 1 still give the closed-form
    size: a tamper fraction or a delta of 10**-400, and one of 1 - 10**-400
    (ln is taken of the numerator and denominator, or of 1 - x)."""
    import math

    tiny = F(1, 10**400)
    assert retrieval_sample_size(tiny, F(1, 20)) == math.ceil(F(math.log(40)) * 10**400)
    assert hoeffding_sample_size(F(1, 20), tiny) == math.ceil(200 * F(math.log(10**400)))
    n = retrieval_sample_size(F(1, 20), tiny)   # small enough for the exact adjustment
    assert F(19, 20) ** n <= tiny / 2 < F(19, 20) ** (n - 1)
    assert retrieval_sample_size(1 - tiny, F(1, 20)) == 1
    assert hoeffding_sample_size(F(1, 20), 1 - tiny) == 1


def test_cost_estimates():
    c = "0.16655"
    assert format_currency(cost_estimate(600, c)) == "$99.93"
    assert format_currency(cost_estimate(72, c)) == "$11.99"
    assert format_currency(cost_estimate(0, c)) == "$0.00"
    # 14979 * 0.16655 = 2494.75245 exactly: the published $2494.90 needs the
    # rate $0.16656 (see acceptance criterion 5)
    assert format_currency(cost_estimate(14979, c)) == "$2494.75"


def test_evaluate_predictions_top1():
    logits = [[1, 5, 2], [9, 0, 0], [0, 0, 3]]
    labels = [1, 0, 1]
    assert evaluate_predictions(logits, labels) == [True, True, False]


# --- end-to-end binding to the inference/checker pipeline --------------------

def test_accuracy_protocol_consumes_verified_logits():
    """Drive the split-audit protocol with correctness flags computed from
    real checked inference runs: compile, witness, check, take the logits,
    compare top-1 against labels."""
    import random as _random

    from zkgrid.arithmetize import assign_witness, compile
    from zkgrid.checker import check
    from zkgrid.interpreter import run_inference
    from zkgrid.modelgen import random_input, random_model

    rng = _random.Random(2718)
    g = random_model(rng, max_hw=4, max_c=2, max_layers=2)
    layout, _ = compile(g)

    n2 = 6
    results = []
    logits_batch, labels = [], []
    for _ in range(n2):
        inp = random_input(rng, g)
        asg = assign_witness(layout, g, inp)
        assert check(layout, asg) == []  # only verified runs feed the protocol
        tr = run_inference(g, inp)
        logits_batch.append(tr.logits.tolist())
        labels.append(rng.randrange(max(len(tr.logits), 1)))
    results = evaluate_predictions(logits_batch, labels)
    accuracy = F(sum(results), n2)

    p = EconParams(E=1, Z="0.5", P="0.1", N1=4, N2=n2, accuracy_target=F(1, 100))
    s = new_session("accuracy_full", p)
    for actor, action, payload in [
        ("MP", "commit", {}), ("MC", "commit", {}), ("MP", "escrow", {}), ("MC", "escrow", {}),
        ("MP", "send_subset", {"count": 4}), ("MC", "send_subset", {"count": 4}),
        ("MP", "acknowledge", {}), ("MC", "send_subset", {"count": n2}),
    ]:
        s = step(s, Transition(actor=actor, action=action, payload=payload))
    s = step(s, Transition("MP", "send_snarks", {"results": results}))
    assert s.accuracy == accuracy
    s = step(s, Transition("escrow_service", "settle"))
    assert s.stage == ("settled" if accuracy >= p.accuracy_target else "slashed_MP")


def test_data_transfer_sealing_round_trip():
    from zkgrid.protocol.sealing import commitment, seal, unseal

    key, data = b"k" * 16, bytes(range(200))
    blob = seal(key, data)
    assert blob != data
    assert unseal(key, blob) == data
    assert unseal(b"wrong" * 4, blob) != data
    # deterministic ciphertext commitment, as the escrow records it
    assert commitment(blob) == commitment(seal(key, data))


def test_retrieval_sample_size_extreme_inputs_fast():
    import time

    t0 = time.perf_counter()
    n = retrieval_sample_size(1e-6, 0.05)
    assert time.perf_counter() - t0 < 1.0
    assert n > 3_000_000  # log formula scale; exact adjust skipped up here
    assert retrieval_sample_size(0.999, 0.9) == 1
