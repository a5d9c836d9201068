import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import layout_doc, layout_file
from zkgrid import serialize
from zkgrid.arithmetize import assign_witness, compile
from zkgrid.circuit import CircuitError
from zkgrid.cli import main
from zkgrid.model import (
    INPUT_REF,
    Layer,
    ModelGraph,
    QuantParams,
    QuantTensor,
    ScaleFactor,
    save_model,
    save_tensor,
    validate,
)
from zkgrid.field import DEFAULT_MODULUS
from zkgrid.modelgen import random_input, random_model, two_tap_fc_model


@pytest.fixture()
def workspace(tmp_path):
    g = two_tap_fc_model()
    inp = random_input(random.Random(3), g)
    model_path = tmp_path / "model.json"
    input_path = tmp_path / "input.json"
    model_path.write_bytes(save_model(g))
    input_path.write_bytes(save_tensor(inp))
    return tmp_path, str(model_path), str(input_path)


def test_infer_writes_trace(workspace, capsys):
    tmp, model, inp = workspace
    out = tmp / "trace.json"
    assert main(["infer", model, inp, "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "logits" in doc and "layers" in doc


def test_compile_stats_and_layout(workspace):
    tmp, model, inp = workspace
    stats = tmp / "stats.json"
    layout = tmp / "layout.bin"
    assert main(["compile", model, "--stats", str(stats), "--layout", str(layout)]) == 0
    doc = json.loads(stats.read_text())
    assert doc["n_gates"] == 9  # DOT_1 .. DOT_8 and DIV
    assert list(doc["regions"]) == ["layer0", "sponge", "staging"]   # keys sorted
    assert sum(line["copies"] for line in doc["regions"].values()) == doc["n_copy_constraints"]
    lay = serialize.load_layout(layout.read_bytes())
    assert lay.n_rows >= 1
    assert doc["advice_cells"] == sum(c.kind == "advice" for c in lay.columns.values()) * lay.n_rows
    assert doc["groups"] == [{"rows": doc["regions"]["layer0"]["rows"], "slots": 1}]


def test_full_pipeline_accepts(workspace):
    tmp, model, inp = workspace
    layout = tmp / "layout.bin"
    wit = tmp / "w.bin"
    assert main(["compile", model, "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "-o", str(wit), "--layout", str(layout)]) == 0
    assert main(["check", str(layout), str(wit)]) == 0


def test_check_reports_violations_with_exit_1(workspace):
    tmp, model, inp = workspace
    layout = tmp / "layout.bin"
    wit = tmp / "w.bin"
    main(["compile", model, "--layout", str(layout)])
    main(["witness", model, inp, "-o", str(wit)])
    asg = serialize.load_witness(wit.read_bytes())
    for col in sorted(asg.advice):
        done = False
        for i, v in enumerate(asg.advice[col]):
            if v not in (None, 0):
                asg.advice[col][i] = v + 1
                done = True
                break
        if done:
            break
    bad = tmp / "bad.bin"
    bad.write_bytes(serialize.dump_witness(asg))
    report = tmp / "report.json"
    assert main(["check", str(layout), str(bad), "--report", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["accepted"] is False and doc["n_violations"] >= 1


@pytest.mark.parametrize("cap, code", [(1, 1), (0, 2), (-5, 2)])
def test_check_cap_below_one_refused(workspace, capsys, cap, code):
    """A witness with one act cell raised by 1 is rejected at cap 1; a cap
    below 1 would report no violation, so it is refused with exit 2
    rather than read as an accept."""
    tmp, model, inp = workspace
    g = two_tap_fc_model()
    layout, _ = compile(g)
    asg = assign_witness(layout, g, random_input(random.Random(3), g))
    col, row = layout.plan.site_plans[0].div.cell("act")
    asg.advice[col][row] += 1
    lay, bad = tmp / "layout.bin", tmp / "bad.bin"
    lay.write_bytes(serialize.dump_layout(layout))
    bad.write_bytes(serialize.dump_witness(asg))
    assert main(["check", str(lay), str(bad), "--cap", str(cap)]) == code
    out = capsys.readouterr()
    if code == 2:
        assert "violation cap must be >= 1" in out.err
    else:
        assert json.loads(out.out)["accepted"] is False


def test_check_malformed_witness_exit_2(workspace, capsys):
    tmp, model, inp = workspace
    layout = tmp / "layout.bin"
    main(["compile", model, "--layout", str(layout)])
    bad = tmp / "junk.bin"
    bad.write_bytes(b"not a witness")
    assert main(["check", str(layout), str(bad)]) == 2


def test_model_with_activation_field_exit_2(workspace, capsys):
    tmp, model, inp = workspace
    doc = json.loads(open(model).read())
    doc["layers"][0]["activation"] = "none"
    bad = tmp / "old_model.json"
    bad.write_text(json.dumps(doc))
    assert main(["compile", str(bad)]) == 2
    assert "activation" in capsys.readouterr().err


def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_witness_layout_cross_check_mismatch(workspace):
    """A layout compiled under another config (hidden weights) is refused
    by a witness run under the default config, and accepted by one under
    the same config."""
    tmp, model, inp = workspace
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "public_input_hidden_weights"}))
    lay = tmp / "lay_hidden.bin"
    assert main(["compile", model, "--config", str(cfg), "--layout", str(lay)]) == 0
    wit = tmp / "w.bin"
    assert main(["witness", model, inp, "-o", str(wit), "--layout", str(lay)]) == 2
    assert main(["witness", model, inp, "-o", str(wit), "--config", str(cfg), "--layout", str(lay)]) == 0


def test_byte_identical_outputs_across_runs(workspace):
    tmp, model, inp = workspace
    a, b = tmp / "a.bin", tmp / "b.bin"
    main(["compile", model, "--layout", str(a)])
    main(["compile", model, "--layout", str(b)])
    assert a.read_bytes() == b.read_bytes()
    w1, w2 = tmp / "w1.bin", tmp / "w2.bin"
    main(["witness", model, inp, "-o", str(w1)])
    main(["witness", model, inp, "-o", str(w2)])
    assert w1.read_bytes() == w2.read_bytes()


def test_commit_prints_decimal_digests(workspace, capsys):
    tmp, model, inp = workspace
    assert main(["commit", model, inp]) == 0
    out = capsys.readouterr().out
    lines = dict(l.split(" ", 1) for l in out.strip().splitlines())
    assert int(lines["input_digest"]) > 0
    assert int(lines["weight_digest"]) > 0


def test_commit_instance_mode(workspace, capsys):
    tmp, model, inp = workspace
    assert main(["commit", model, inp, "--mode", "hidden_input_hidden_weights"]) == 0
    out = capsys.readouterr().out
    assert "instance " in out


def test_config_with_custom_modulus(workspace, tmp_path):
    tmp, model, inp = workspace
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"modulus": str((1 << 61) - 1)}))
    stats = tmp / "s.json"
    assert main(["compile", model, "--config", str(cfg), "--stats", str(stats)]) == 0


def test_config_lookup_cap_refused(workspace, capsys):
    """The lookup-table cap is a fixed limit of the compiler, not an option."""
    tmp, model, inp = workspace
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"lookup_cap": 1 << 20}))
    assert main(["compile", model, "--config", str(cfg)]) == 2
    assert "lookup_cap" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["compile", "commit"])
@pytest.mark.parametrize("key, value", [("bias", [0]), ("weights", {"shape": [1], "data_b64": "AQ=="})])
def test_parameters_on_residual_layer_exit_2(workspace, capsys, cmd, key, value):
    """A residual layer's weights or bias are refused before any compile
    or digest reads them: no traceback, and no weight digest that an
    honest proof cannot match."""
    tmp, model, inp = workspace
    doc = json.loads(open(model).read())
    q = {"zero_point": doc["layers"][0]["out_quant"]["zero_point"], "scale": {"a": 1, "b": 1}}
    doc["layers"][1:] = [
        {"kind": "residual_add", "inputs": [0, 0], "out_quant": q},
        {"kind": "output", "inputs": [1], "out_quant": q},
    ]
    good = tmp / "residual_ok.json"
    good.write_text(json.dumps(doc))
    assert main(["compile", str(good)]) == 0
    doc["layers"][1][key] = value
    bad = tmp / "residual.json"
    bad.write_text(json.dumps(doc))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "public_input_hidden_weights"}))
    assert main([cmd, str(bad), "--config", str(cfg)]) == 2
    assert "takes no weights or bias" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [[0, 4, 2], [1.5, 2, 2], [True, 2, 2]])
def test_input_shape_entries_must_be_positive_integers(tmp_path, capsys, shape):
    """A zero dimension once loaded and crashed the compiler; 1.5 and true
    were read as 1."""
    q = QuantParams(0, ScaleFactor(1, 1))
    conv = Layer(
        kind="conv2d", input_refs=(INPUT_REF,), out_quant=q, padding="same",
        weights=QuantTensor(shape=(1, 1, 1, 2), data=bytes([1, 1]), quant=q), bias=(0,),
    )
    pool = Layer(kind="average_pool", input_refs=(0,), out_quant=q)
    out = Layer(kind="output", input_refs=(1,), out_quant=q)
    doc = json.loads(save_model(validate(ModelGraph(layers=(conv, pool, out), input_shape=(1, 2, 2), input_quant=q))))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", str(path)]) == 0
    doc["input_shape"] = shape
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["compile", str(path)]) == 2
    assert "input shape" in capsys.readouterr().err


def test_commit_config_sponge_modulus_mismatch_exit_2(workspace, capsys):
    """commit refuses sponge params on another field, as compile does."""
    tmp, model, inp = workspace
    sponge = tmp / "sponge.json"
    sponge.write_text(json.dumps({"modulus": "65537"}))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "public_input_hidden_weights", "sponge_params": str(sponge)}))
    assert main(["compile", model, "--config", str(cfg)]) == 2
    assert main(["commit", model, "--config", str(cfg)]) == 2
    assert "modulus" in capsys.readouterr().err


def test_config_sponge_modulus_mismatch_without_mode_exit_2(workspace, capsys):
    """Sponge params on another field are refused by every command that
    reads the config, with or without a mode."""
    tmp, model, inp = workspace
    sponge = tmp / "sponge.json"
    sponge.write_text(json.dumps({"modulus": "65537"}))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"sponge_params": str(sponge)}))
    for argv in (["compile", model], ["witness", model, inp, "-o", str(tmp / "w.bin")], ["commit", model]):
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "sponge params disagree with field modulus" in capsys.readouterr().err


def test_model_without_input_quant_exit_2(tmp_path, capsys):
    doc = json.loads(save_model(two_tap_fc_model()))
    del doc["input_quant"]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", str(path)]) == 2
    assert "missing input_quant" in capsys.readouterr().err


def _set_layer(key, value):
    return lambda doc: doc["layers"][0].__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.__setitem__("layers", 3), "layers must be a list"),
    (_set_layer("inputs", 5), "layer 0 inputs must be a list of integers"),
    (_set_layer("bias", [None]), "layer 0 bias must be an integer"),
    (_set_layer("bias", [1.0]), "layer 0 bias must be an integer"),
    (_set_layer("stride", True), "layer 0 stride must be an integer"),
    (lambda doc: doc["input_quant"].__setitem__("zero_point", "0"), "zero point must be an integer"),
    (lambda doc: doc["layers"][0]["weights"].__setitem__("shape", [1, 2.0]), "shape must be an integer"),
])
def test_mistyped_model_field_exit_2(tmp_path, capsys, edit, message):
    doc = json.loads(save_model(two_tap_fc_model()))
    edit(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("tensor, message", [
    (5, "input tensor must be an object"),
    ({"shape": 2, "data_b64": "AAA="}, "input tensor shape must be a list of integers"),
])
def test_mistyped_input_tensor_exit_2(workspace, capsys, tensor, message):
    tmp, model, _ = workspace
    bad = tmp / "bad_input.json"
    bad.write_text(json.dumps(tensor))
    assert main(["infer", model, str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ({"sponge_params": {"t": 3}}, "sponge_params must be str"),
    ({"gate_width": 8}, "unknown config fields: ['gate_width']"),
    ({"max_rows": 1 << 20}, "unknown config fields: ['max_rows']"),
    ({"gate_width": 8, "max_rows": 1 << 20}, "unknown config fields: ['gate_width', 'max_rows']"),
    ({"mode": 3}, "mode must be str"),
    ({"modulus": "0x11"}, "modulus must be a decimal string"),
    ([], "config must be a JSON object"),
])
def test_mistyped_config_field_exit_2(workspace, capsys, config, message):
    tmp, model, _ = workspace
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["compile", model, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


# Values a mutation writes into a model or config field: every JSON type,
# and small integers only, so a mutated shape or width stays cheap.
MUTANTS = [None, True, False, 1.5, -1, 0, 1, 2, 3, "", "x", [], [None], [1], {}, {"a": 1}]


def _paths(node, path=()):
    """The key and index paths of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield (*path, k)
        yield from _paths(v, (*path, k))


def _mutate(doc, data):
    """doc with one value replaced by a mutant, or one object key deleted."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for k in path[:-1]:
        node = node[k]
    if isinstance(node, dict) and data.draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = data.draw(st.sampled_from(MUTANTS))
    return doc


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mutants")
    g = random_model(random.Random(3), max_hw=4, max_c=2, max_layers=3)
    (tmp / "model.json").write_bytes(save_model(g))
    (tmp / "sponge.json").write_text(json.dumps({"modulus": str(DEFAULT_MODULUS), "t": 3}))
    return tmp


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_model_exits_0_or_2(mutation_dir, data):
    doc = _mutate(json.loads((mutation_dir / "model.json").read_text()), data)
    path = mutation_dir / "mutant.json"
    path.write_text(json.dumps(doc))
    assert main(["compile", str(path)]) in (0, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_exits_0_or_2(mutation_dir, data):
    doc = {
        "modulus": str(DEFAULT_MODULUS), "mode": "public_input_hidden_weights",
        "sponge_params": str(mutation_dir / "sponge.json"),
    }
    path = mutation_dir / "cfg.json"
    path.write_text(json.dumps(_mutate(doc, data)))
    assert main(["compile", str(mutation_dir / "model.json"), "--config", str(path)]) in (0, 2)


PROTOCOL_PARAMS = {"E": 1, "Z": "0.5", "P": "0.1", "N1": 10, "N2": 10, "K": 100, "K1": 10, "beta": 2}
PROTOCOL_LOG = [
    {"actor": "MP", "action": "commit", "payload": {"hash": "w"}},
    {"actor": "MC", "action": "commit", "payload": {"hash": "t"}},
    {"actor": "MP", "action": "escrow"},
    {"actor": "MC", "action": "escrow"},
    {"actor": "MP", "action": "send_subset", "payload": {"count": 10}},
    {"actor": "MC", "action": "send_subset", "payload": {"count": 10}},
    {"actor": "MP", "action": "acknowledge"},
    {"actor": "MC", "action": "send_subset", "payload": {"count": 10}},
    {"actor": "MP", "action": "send_snarks", "payload": {"results": [True] * 10}},
    {"actor": "escrow_service", "action": "settle"},
]


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"N1": None}, "N1 must be an integer, not NoneType"),
        ({"K": 1.5}, "K must be an integer, not float"),
        ({"N2": "10"}, "N2 must be an integer, not str"),
        ({"K1": True}, "K1 must be an integer, not bool"),
        ({"E": None}, "cannot interpret None"),
    ],
)
def test_mistyped_protocol_params_exit_2(tmp_path, capsys, edit, message):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**PROTOCOL_PARAMS, **edit}))
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(json.dumps(s) for s in PROTOCOL_LOG))
    assert main(["protocol", "run", str(log), "--kind", "accuracy_full", "--params", str(params)]) == 2
    assert message in capsys.readouterr().err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_protocol_params_exit_0_or_2(mutation_dir, data):
    params = mutation_dir / "params.json"
    params.write_text(json.dumps(_mutate(dict(PROTOCOL_PARAMS), data)))
    log = mutation_dir / "log.jsonl"
    log.write_text("\n".join(json.dumps(s) for s in PROTOCOL_LOG))
    out = mutation_dir / "out.json"
    assert main(["protocol", "run", str(log), "--kind", "accuracy_full", "--params", str(params), "-o", str(out)]) in (0, 2)


@pytest.mark.parametrize(
    "line",
    [{"action": "commit"}, ["MP", "commit"], {"actor": "MP", "action": "commit", "payload": 3}],
    ids=["no actor", "not an object", "payload not an object"],
)
def test_protocol_run_malformed_log_line_exit_2(tmp_path, capsys, line):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"E": 1, "Z": "0.5", "P": "0.1", "N1": 10, "N2": 10}))
    log = tmp_path / "log.jsonl"
    good = {"actor": "MP", "action": "commit", "payload": {"hash": "w"}}
    log.write_text(json.dumps(good) + "\n\n" + json.dumps(line) + "\n")
    assert main(["protocol", "run", str(log), "--kind", "accuracy_full", "--params", str(params)]) == 2
    assert "log line 3" in capsys.readouterr().err


def test_protocol_sample_size_and_cost(capsys):
    assert main(["protocol", "sample-size", "--method", "hoeffding", "--epsilon", "0.05", "--delta", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "600"
    assert main(["protocol", "sample-size", "--method", "retrieval", "--fraction", "0.05", "--delta", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "72"
    assert main(["protocol", "cost", "--n", "72", "--unit-cost", "0.16655"]) == 0
    assert capsys.readouterr().out.strip() == "$11.99"


@pytest.mark.parametrize("method, value, delta", [
    ("hoeffding", "1e-160", "0.05"),
    ("hoeffding", "1e-300", "0.05"),
    ("hoeffding", "0.05", "1e-320"),
    ("retrieval", "1e-17", "0.05"),
    ("retrieval", "1e-310", "0.05"),
])
def test_sample_size_past_float_range(method, value, delta, capsys):
    """An epsilon whose square, a delta whose inverse, or a tamper
    fraction whose 1 - p a float cannot hold still gives the size:
    ln(1/delta) / (2 epsilon^2), or ln(2/delta) / p for a tiny p."""
    flag = "--epsilon" if method == "hoeffding" else "--fraction"
    assert main(["protocol", "sample-size", "--method", method, flag, value, "--delta", delta]) == 0
    n = Fraction(int(capsys.readouterr().out))
    x, d = Fraction(value), float(delta)
    got, want = (2 * n * x * x, -math.log(d)) if method == "hoeffding" else (n * x, math.log(2 / d))
    assert abs(got / Fraction(want) - 1) < 1 / n + Fraction(1, 10**9)


def test_protocol_run_log(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"E": 1, "Z": "0.5", "P": "0.1", "N1": 10, "N2": 10}))
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(json.dumps(s) for s in PROTOCOL_LOG))
    out = tmp_path / "out.json"
    assert main(["protocol", "run", str(log), "--kind", "accuracy_full", "--params", str(params), "-o", str(out)]) == 0
    text = out.read_text()
    assert '"stage": "settled"' in text


def test_protocol_run_illegal_log_exit_2(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"E": 1, "Z": "0.5", "P": "0.1", "N1": 10, "N2": 10}))
    log = tmp_path / "log.jsonl"
    log.write_text(json.dumps({"actor": "MC", "action": "settle"}))
    assert main(["protocol", "run", str(log), "--kind", "serving", "--params", str(params)]) == 2


def test_selftest_passes(capsys):
    assert main(["selftest", "--models", "2", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_config_with_sponge_params_and_mode(workspace):
    tmp, model, inp = workspace
    sponge = tmp / "sponge.json"
    sponge.write_text(json.dumps({"seed": "cli-test", "t": 3, "full_rounds": 8, "partial_rounds": 57}))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "hidden_input_hidden_weights", "sponge_params": str(sponge)}))
    layout = tmp / "lay.bin"
    wit = tmp / "w.bin"
    assert main(["compile", model, "--config", str(cfg), "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "--config", str(cfg), "-o", str(wit)]) == 0
    assert main(["check", str(layout), str(wit)]) == 0


def test_config_negative_partial_rounds_exit_2(workspace, capsys):
    tmp, model, _ = workspace
    sponge = tmp / "sponge.json"
    sponge.write_text(json.dumps({"partial_rounds": -1}))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "public_input_hidden_weights", "sponge_params": str(sponge)}))
    assert main(["compile", model, "--config", str(cfg)]) == 2
    assert "partial round count must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params, message",
    [
        ({"t": 17}, "state width must be in 2..16"),
        ({"t": 300}, "state width must be in 2..16"),
        ({"partial_rounds": 1017}, "full plus partial rounds must be at most 1024"),
        ({"partial_rounds": 10**8}, "full plus partial rounds must be at most 1024"),
    ],
)
def test_config_oversized_sponge_params_exit_2_fast(workspace, capsys, params, message):
    """A sponge width or round count past the bounds is refused before
    any constant is derived, so the command exits 2 at once."""
    tmp, model, _ = workspace
    sponge = tmp / "sponge.json"
    sponge.write_text(json.dumps(params))
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"mode": "public_input_hidden_weights", "sponge_params": str(sponge)}))
    t0 = time.perf_counter()
    assert main(["compile", model, "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1
    assert message in capsys.readouterr().err


U32_MAX = (1 << 32) - 1


@pytest.mark.parametrize(
    "field, value, message",
    [
        (1, U32_MAX, "instance binding references row"),
        (1, "n_rows", "instance binding references row"),
        (0, "columns", "instance binding references column number"),
        (2, U32_MAX, None),
    ],
)
def test_bad_instance_binding_refused(workspace, field, value, message):
    """Bindings outside the grid or to a column number past the last
    would let a forged instance through; the layout loader refuses them
    and `check` exits 2.  A file cannot hold a negative index: the
    largest one loads, and `check` refuses it as past the end of the
    instance vector."""
    tmp, model, inp = workspace
    layout, wit = tmp / "layout.bin", tmp / "w.bin"
    assert main(["compile", model, "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "-o", str(wit)]) == 0
    doc = layout_doc(serialize.load_layout(layout.read_bytes()))
    names = [c["id"] for c in doc["header"]["columns"]]
    bound = doc["bindings"]
    for k in range(field, len(bound), 3):
        bound[k] = {"n_rows": doc["header"]["n_rows"], "columns": len(names)}.get(value, value)
    bad_layout = tmp / "bad_layout.bin"
    bad_layout.write_bytes(layout_file(doc))
    asg = serialize.load_witness(wit.read_bytes())
    asg.instance = [v + 1 for v in asg.instance]
    bad_wit = tmp / "bad.bin"
    bad_wit.write_bytes(serialize.dump_witness(asg))
    if message is None:
        serialize.load_layout(bad_layout.read_bytes())
    else:
        with pytest.raises(CircuitError, match=message):
            serialize.load_layout(bad_layout.read_bytes())
    assert main(["check", str(bad_layout), str(bad_wit)]) == 2


def test_non_canonical_instance_value_exits_2(workspace, capsys):
    """An honest witness whose instance value v is written as v + p
    would have verified clean by residue; `check` now refuses it."""
    tmp, model, inp = workspace
    layout, wit = tmp / "layout.bin", tmp / "w.bin"
    assert main(["compile", model, "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "-o", str(wit)]) == 0
    assert main(["check", str(layout), str(wit)]) == 0
    asg = serialize.load_witness(wit.read_bytes())
    asg.instance[0] += serialize.load_layout(layout.read_bytes()).field.modulus
    shifted = tmp / "shifted.bin"
    shifted.write_bytes(serialize.dump_witness(asg))
    capsys.readouterr()
    assert main(["check", str(layout), str(shifted)]) == 2
    assert "not a canonical residue" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "layout", "sponge"])
def test_modulus_of_2_255_or_more_exits_2_fast(workspace, capsys, where):
    """The cells of layout and witness files lie below 2**255, so a
    modulus at or above it is refused with exit 2 and a message, before
    any work whose cost grows with its length: in a config (which used to
    fail with a traceback when the layout was written), in a layout header
    (which used to load) and in a sponge-params file (whose constants used
    to take seconds to derive before the modulus was compared)."""
    tmp, model, inp = workspace
    layout, wit, cfg = tmp / "layout.bin", tmp / "w.bin", tmp / "cfg.json"
    if where == "config":
        cfg.write_text(json.dumps({"modulus": str((1 << 521) - 1)}))
        argv = ["compile", model, "--config", str(cfg), "--layout", str(layout)]
    elif where == "layout":
        assert main(["compile", model, "--layout", str(layout)]) == 0
        assert main(["witness", model, inp, "-o", str(wit)]) == 0
        doc = layout_doc(serialize.load_layout(layout.read_bytes()))
        doc["header"]["modulus"] = str((1 << 521) - 1)
        layout.write_bytes(layout_file(doc))
        argv = ["check", str(layout), str(wit)]
    else:
        sponge = tmp / "sponge.json"
        sponge.write_text(json.dumps({"modulus": str((1 << 8000) - 1), "t": 2}))
        cfg.write_text(json.dumps({"mode": "public_input_hidden_weights", "sponge_params": str(sponge)}))
        argv = ["compile", model, "--config", str(cfg), "--layout", str(layout)]
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1
    assert "2**255" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [None, "public_input_hidden_weights"])
def test_largest_modulus_below_2_255_compiles_and_checks(workspace, mode):
    """2**255 - 19, a prime just below the bound, still compiles, witnesses
    and checks clean, public and with hidden weights."""
    tmp, model, inp = workspace
    cfg, layout, wit = tmp / "cfg.json", tmp / "layout.bin", tmp / "w.bin"
    cfg.write_text(json.dumps({"modulus": str((1 << 255) - 19), "mode": mode}))
    assert main(["compile", model, "--config", str(cfg), "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "--config", str(cfg), "-o", str(wit)]) == 0
    assert serialize.load_layout(layout.read_bytes()).field.modulus == (1 << 255) - 19
    assert main(["check", str(layout), str(wit)]) == 0
