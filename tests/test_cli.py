import json
import random

import pytest

from zkgrid import serialize
from zkgrid.circuit import CircuitError
from zkgrid.cli import main
from zkgrid.model import save_model, save_tensor
from zkgrid.modelgen import random_input, two_tap_fc_model


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
    layout = tmp / "layout.json"
    assert main(["compile", model, "--stats", str(stats), "--layout", str(layout)]) == 0
    doc = json.loads(stats.read_text())
    assert doc["n_gates"] == 2  # DOT_8 and DIV
    lay = serialize.load_layout(layout.read_bytes())
    assert lay.n_rows >= 1


def test_full_pipeline_accepts(workspace):
    tmp, model, inp = workspace
    layout = tmp / "layout.json"
    wit = tmp / "w.bin"
    assert main(["compile", model, "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "-o", str(wit), "--layout", str(layout)]) == 0
    assert main(["check", str(layout), str(wit)]) == 0


def test_check_reports_violations_with_exit_1(workspace):
    tmp, model, inp = workspace
    layout = tmp / "layout.json"
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


def test_check_malformed_witness_exit_2(workspace, capsys):
    tmp, model, inp = workspace
    layout = tmp / "layout.json"
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
    tmp, model, inp = workspace
    # layout compiled with a different gate width must be rejected
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"gate_width": 4}))
    lay4 = tmp / "lay4.json"
    assert main(["compile", model, "--config", str(cfg), "--layout", str(lay4)]) == 0
    wit = tmp / "w.bin"
    assert main(["witness", model, inp, "-o", str(wit), "--layout", str(lay4)]) == 2


def test_byte_identical_outputs_across_runs(workspace):
    tmp, model, inp = workspace
    a, b = tmp / "a.json", tmp / "b.json"
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


def test_protocol_sample_size_and_cost(capsys):
    assert main(["protocol", "sample-size", "--method", "hoeffding", "--epsilon", "0.05", "--delta", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "600"
    assert main(["protocol", "sample-size", "--method", "retrieval", "--fraction", "0.05", "--delta", "0.05"]) == 0
    assert capsys.readouterr().out.strip() == "72"
    assert main(["protocol", "cost", "--n", "72", "--unit-cost", "0.16655"]) == 0
    assert capsys.readouterr().out.strip() == "$11.99"


def test_protocol_run_log(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"E": 1, "Z": "0.5", "P": "0.1", "N1": 10, "N2": 10}))
    log = tmp_path / "log.jsonl"
    steps = [
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
    log.write_text("\n".join(json.dumps(s) for s in steps))
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
    layout = tmp / "lay.json"
    wit = tmp / "w.bin"
    assert main(["compile", model, "--config", str(cfg), "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "--config", str(cfg), "-o", str(wit)]) == 0
    assert main(["check", str(layout), str(wit)]) == 0


@pytest.mark.parametrize(
    "field, value",
    [(1, -1), (1, "n_rows"), (2, -1), (0, "inst"), (0, "no_such_column")],
)
def test_bad_instance_binding_refused(workspace, field, value):
    """Bindings outside the grid, to the instance column, or with a
    negative index would let a forged instance through; the layout
    loader refuses them and `check` exits 2."""
    tmp, model, inp = workspace
    layout, wit = tmp / "layout.json", tmp / "w.bin"
    assert main(["compile", model, "--layout", str(layout)]) == 0
    assert main(["witness", model, inp, "-o", str(wit)]) == 0
    doc = json.loads(layout.read_text())
    for binding in doc["instance_map"]:
        binding[field] = doc["n_rows"] if value == "n_rows" else value
    bad_layout = tmp / "bad_layout.json"
    bad_layout.write_text(json.dumps(doc))
    asg = serialize.load_witness(wit.read_bytes())
    asg.instance = [v + 1 for v in asg.instance]
    bad_wit = tmp / "bad.bin"
    bad_wit.write_bytes(serialize.dump_witness(asg))
    with pytest.raises(CircuitError, match="instance binding"):
        serialize.load_layout(bad_layout.read_bytes())
    assert main(["check", str(bad_layout), str(bad_wit)]) == 2


def test_non_canonical_instance_value_exits_2(workspace, capsys):
    """An honest witness whose instance value v is written as v + p
    would have verified clean by residue; `check` now refuses it."""
    tmp, model, inp = workspace
    layout, wit = tmp / "layout.json", tmp / "w.bin"
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
