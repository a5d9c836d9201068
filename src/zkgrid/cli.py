"""Command-line front end.

Subcommands: infer, compile, witness, check, commit, protocol, selftest.
Every path is a thin shim over the library; outputs are deterministic for
identical inputs and configuration.  Exit codes: 0 success/accept, 1 the
checker found violations, 2 usage or malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import arithmetize, checker, interpreter, model, serialize
from .commit import SpongeParams, VisibilityMode, commit_model_io, input_elements, sponge_hash, weight_elements
from .field import DEFAULT_MODULUS, Field
from .protocol import (
    EconParams,
    Transition,
    cost_estimate,
    format_currency,
    hoeffding_sample_size,
    new_session,
    retrieval_sample_size,
    step,
)


class CliError(Exception):
    pass


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes | str) -> None:
    if isinstance(data, str):
        data = data.encode("ascii")
    if path == "-":
        sys.stdout.buffer.write(data)
        if not data.endswith(b"\n"):
            sys.stdout.buffer.write(b"\n")
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _config_field(doc: dict, key: str, types: tuple, default):
    v = doc.get(key, default)
    if type(v) not in types:
        raise CliError(f"config field {key} must be {' or '.join(t.__name__ for t in types)}, not {type(v).__name__}")
    return v


def load_config(path: str | None) -> arithmetize.CompileConfig:
    """The compile config at `path`, its sponge params checked against
    its field, so that every command refuses the same bad config."""
    if path is None:
        return arithmetize.CompileConfig()
    doc = json.loads(_read(path))
    if type(doc) is not dict:
        raise CliError("config must be a JSON object")
    known = {"modulus", "gate_width", "max_rows", "mode", "sponge_params"}
    extra = set(doc) - known
    if extra:
        raise CliError(f"unknown config fields: {sorted(extra)}")
    modulus = _config_field(doc, "modulus", (str, int), DEFAULT_MODULUS)
    if type(modulus) is str and not modulus.isdigit():
        raise CliError("config field modulus must be a decimal string")
    mode = _config_field(doc, "mode", (str, type(None)), None)
    sponge = _config_field(doc, "sponge_params", (str, type(None)), None)
    cfg = arithmetize.CompileConfig(
        gate_width=_config_field(doc, "gate_width", (int,), 8),
        max_rows=_config_field(doc, "max_rows", (int,), 1 << 20),
        field=Field(int(modulus)),
        mode=VisibilityMode(mode) if mode else None,
        sponge=SpongeParams.load(sponge) if sponge is not None else None,
    )
    cfg.sponge_params()
    return cfg


def _load_model(path: str) -> model.ModelGraph:
    return model.load_model(_read(path))


def _load_input(path: str, graph: model.ModelGraph) -> model.QuantTensor:
    return model.load_tensor(_read(path), graph.input_quant)


def cmd_infer(args) -> int:
    graph = _load_model(args.model)
    inp = _load_input(args.input, graph)
    trace = interpreter.run_inference(graph, inp)
    _write(args.output, json.dumps(interpreter.trace_to_json(trace), indent=1, sort_keys=True))
    return 0


def cmd_compile(args) -> int:
    cfg = load_config(args.config)
    graph = _load_model(args.model)
    layout, stats = arithmetize.compile(graph, cfg)
    if args.stats:
        _write(args.stats, json.dumps(stats.to_json(), indent=1, sort_keys=True))
    if args.layout:
        _write(args.layout, serialize.dump_layout(layout))
    if args.debug_dump:
        _write(args.debug_dump, json.dumps(layout.debug_dump(), indent=1, sort_keys=True))
    if not (args.stats or args.layout or args.debug_dump):
        _write("-", json.dumps(stats.to_json(), indent=1, sort_keys=True))
    return 0


def cmd_witness(args) -> int:
    cfg = load_config(args.config)
    graph = _load_model(args.model)
    inp = _load_input(args.input, graph)
    layout, _ = arithmetize.compile(graph, cfg)
    if args.layout:
        # cross-check against a previously exported layout
        expected = serialize.load_layout(_read(args.layout))
        if serialize.dump_layout(expected) != serialize.dump_layout(layout):
            raise CliError("provided layout does not match this model/config")
    assignment = arithmetize.assign_witness(layout, graph, inp)
    _write(args.output, serialize.dump_witness(assignment))
    return 0


def cmd_check(args) -> int:
    layout = serialize.load_layout(_read(args.layout))
    assignment = serialize.load_witness(_read(args.witness))
    violations = checker.check_parallel(layout, assignment, shards=args.shards, cap=args.cap)
    if violations:
        report = {
            "accepted": False,
            "n_violations": len(violations),
            "violations": [v.to_json() for v in violations],
        }
        _write(args.report or "-", json.dumps(report, indent=1, sort_keys=True))
        return 1
    if args.report:
        _write(args.report, json.dumps({"accepted": True, "n_violations": 0}, indent=1))
    return 0


def cmd_commit(args) -> int:
    cfg = load_config(args.config)
    graph = _load_model(args.model)
    params = cfg.sponge_params()
    lines = []
    if args.input:
        inp = _load_input(args.input, graph)
        lines.append(f"input_digest {sponge_hash(input_elements(inp), params)}")
        if args.mode:
            inst = commit_model_io(graph, inp, VisibilityMode(args.mode), params, cfg.field)
            lines.append(f"instance {' '.join(str(v) for v in inst)}")
    weights = weight_elements(graph, cfg.field.modulus)
    if weights:
        lines.append(f"weight_digest {sponge_hash(weights, params)}")
    _write("-", "\n".join(lines))
    return 0


def _transition(doc, n: int) -> Transition:
    """Log line `n` as a transition: an object with string actor and
    action and an optional object payload."""
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("actor"), str)
        and isinstance(doc.get("action"), str)
        and isinstance(doc.get("payload", {}), dict)
    ):
        raise CliError(f"log line {n}: need an object with string actor and action and an object payload")
    return Transition(actor=doc["actor"], action=doc["action"], payload=doc.get("payload", {}))


def cmd_protocol(args) -> int:
    if args.proto_cmd == "sample-size":
        if args.method == "hoeffding":
            n = hoeffding_sample_size(args.epsilon, args.delta)
        else:
            n = retrieval_sample_size(args.fraction, args.delta)
        _write("-", str(n))
        return 0
    if args.proto_cmd == "cost":
        cost = cost_estimate(args.n, args.unit_cost)
        _write("-", format_currency(cost))
        return 0
    # run
    params = EconParams.from_json(json.loads(_read(args.params)))
    state = new_session(args.kind, params)
    trace_lines = [json.dumps({"stage": state.stage, "balances": {k: str(v) for k, v in state.balances.items()}})]
    for n, line in enumerate(_read(args.log).decode("utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        state = step(state, _transition(json.loads(line), n))
        trace_lines.append(
            json.dumps(
                {
                    "stage": state.stage,
                    "balances": {k: str(v) for k, v in state.balances.items()},
                    "escrow": {k: str(v) for k, v in state.escrow.items()},
                }
            )
        )
    final = {
        "kind": state.kind,
        "stage": state.stage,
        "terminal": state.terminal,
        "balances": {k: str(v) for k, v in state.balances.items()},
        "escrow": {k: str(v) for k, v in state.escrow.items()},
        "transfers": [
            {"from": e.src, "to": e.dst, "amount": str(e.amount), "rule": e.rule}
            for e in state.transfers
        ],
    }
    _write(args.output, "\n".join(trace_lines) + "\n" + json.dumps(final, indent=1, sort_keys=True))
    return 0


def cmd_selftest(args) -> int:
    """Oracle equivalence and tamper detection on bundled tiny models."""
    from . import modelgen

    rng = random.Random(args.seed)
    failures = 0
    graphs = [modelgen.identity_model(), modelgen.two_tap_fc_model()]
    for _ in range(args.models):
        graphs.append(modelgen.random_model(rng, max_hw=6, max_c=3, max_layers=2))
    for gi, graph in enumerate(graphs):
        inp = modelgen.random_input(rng, graph)
        trace = interpreter.run_inference(graph, inp)
        layout, _ = arithmetize.compile(graph, arithmetize.CompileConfig())
        assignment = arithmetize.assign_witness(layout, graph, inp)
        violations = checker.check(layout, assignment)
        ok = not violations
        # single tamper must be caught
        tampered = False
        bound = {ref for c in layout.copies for ref in (c.a, c.b)}
        for col_id, vals in sorted(assignment.advice.items()):
            for row, v in enumerate(vals):
                if v is not None and (col_id, row) in bound:
                    vals[row] = (v + 1) % layout.field.modulus
                    tampered = bool(checker.check(layout, assignment))
                    vals[row] = v
                    break
            if tampered:
                break
        status = "ok" if (ok and tampered) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"model {gi}: honest={'clean' if ok else 'violations'} tamper={'caught' if tampered else 'missed'} [{status}]")
    print(f"selftest: {len(graphs) - failures}/{len(graphs)} passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zkgrid", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("infer", help="run the reference interpreter")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("compile", help="compile a model to a constraint grid")
    p.add_argument("model")
    p.add_argument("--config")
    p.add_argument("--stats")
    p.add_argument("--layout")
    p.add_argument("--debug-dump")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("witness", help="produce the honest witness for an input")
    p.add_argument("model")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--config")
    p.add_argument("--layout", help="optional exported layout to cross-check")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("check", help="verify a witness against a layout")
    p.add_argument("layout")
    p.add_argument("witness")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--cap", type=int, default=checker.DEFAULT_VIOLATION_CAP)
    p.add_argument("--report")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("commit", help="print tensor digests as decimal strings")
    p.add_argument("model")
    p.add_argument("input", nargs="?")
    p.add_argument("--mode", choices=[m.value for m in VisibilityMode])
    p.add_argument("--config")
    p.set_defaults(fn=cmd_commit)

    p = sub.add_parser("protocol", help="escrow protocol tools")
    psub = p.add_subparsers(dest="proto_cmd", required=True)
    pr = psub.add_parser("run", help="drive a session from a JSONL transition log")
    pr.add_argument("log")
    pr.add_argument("--kind", required=True, choices=["accuracy_simple", "accuracy_full", "serving", "retrieval", "data_transfer"])
    pr.add_argument("--params", required=True)
    pr.add_argument("-o", "--output", default="-")
    pr.set_defaults(fn=cmd_protocol)
    ps = psub.add_parser("sample-size", help="audit sample size calculators")
    ps.add_argument("--method", required=True, choices=["hoeffding", "retrieval"])
    ps.add_argument("--epsilon", type=float)
    ps.add_argument("--fraction", type=float)
    ps.add_argument("--delta", type=float, default=0.05)
    ps.set_defaults(fn=cmd_protocol)
    pc = psub.add_parser("cost", help="dollar cost of a sample")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--unit-cost", required=True)
    pc.set_defaults(fn=cmd_protocol)

    p = sub.add_parser("selftest", help="oracle equivalence and tamper suite on tiny models")
    p.add_argument("--models", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (
        CliError,
        OSError,
        json.JSONDecodeError,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
