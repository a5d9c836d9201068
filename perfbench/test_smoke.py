"""Smoke test of the benchmark at minimal size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py

Tiny models stand in for the three workloads, so a full pass of every
workload, traced and untraced, takes seconds.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
from harness import Workload  # noqa: E402
from zkgrid.commit import VisibilityMode  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())

# Same shapes of model as the real workloads: conv2d -> depthwise -> fc,
# and depthwise -> conv -> residual_add.
TINY = {
    "prove_public": Workload("prove_public", 3, None, "prove", max_hw=6, max_c=3, max_layers=3),
    "audit_batch": Workload(
        "audit_batch", 19, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, "audit",
        max_hw=6, max_c=3, max_layers=3,
    ),
    "seed14_public": Workload("seed14_public", 3, None, "prove", max_hw=6, max_c=3, max_layers=3),
    "seed14_hidden": Workload(
        "seed14_hidden", 3, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS, "prove",
        max_hw=6, max_c=3, max_layers=3,
    ),
}


def _run(workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
            workloads=TINY,
        )
    assert code == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_the_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(harness.WORKLOADS)
    assert list(harness.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"kernel", "python", "nproc", "modulus_bits"} <= set(env)
    assert env["error_rate"] == 0


# Per-layer metrics each workload must report as nonzero in a traced run:
# a misspelt span or count name would otherwise print as 0.
TRACED_NONZERO = [
    "model.load_s", "interpreter.infer_s", "arithmetize.compile_s", "arithmetize.witness_s",
    "arithmetize.rows_logical", "arithmetize.layer0.rows", "circuit.validate_s",
    "circuit.constraint_rows.gate", "checker.check_s", "checker.copy_s", "checker.overhead_s",
    "checker.check_s.shards2", "checker.rows_per_s.p31", "serialize.load_layout_s",
    "serialize.dump_witness_s", "serialize.load_witness_s", "tracing.overhead_s",
]
COMMITTED = ["commit.sponge_hash_s", "commit.absorbs", "arithmetize.sponge.rows", "checker.gate.sp_part_s"]
TRACED_NONZERO_BY_WORKLOAD = {
    "prove_public": TRACED_NONZERO + ["checker.gate.dot_s"],
    "audit_batch": TRACED_NONZERO + COMMITTED + ["protocol.step_s", "protocol.steps", "checker.violations"],
    "seed14_public": TRACED_NONZERO + ["checker.gate.dot_s"],
    "seed14_hidden": TRACED_NONZERO + COMMITTED,
}


@pytest.mark.parametrize("workload", list(TINY))
def test_traced_run_reaches_every_layer(workload):
    _, result = _run(workload, 1)
    zero = [n for n in TRACED_NONZERO_BY_WORKLOAD[workload] if result["metrics"][n]["value"] == 0]
    assert not zero


def test_error_rate_rises_when_a_tampered_witness_is_labelled_honest():
    w = TINY["audit_batch"]
    rates = []
    for mislabel in (False, True):
        tr = harness.Tracer(enabled=False)
        ctx, _, _ = harness.setup(w, 5, tr)
        result = harness.measure(ctx, tr, 5, 0, mislabel=mislabel)
        rates.append(result.failed / result.attempted)
    assert rates[0] == 0
    assert rates[1] > 0


def test_layer_map_names_every_per_layer_metric():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    workloads = set(harness.WORKLOADS)
    assert set(LAYER_MAP["moves"]) == per_layer
    for targets in LAYER_MAP["moves"].values():
        assert set(targets) <= e2e
        assert all(set(ws) <= workloads for ws in targets.values())
    assert set(LAYER_MAP["notes"]) <= per_layer
