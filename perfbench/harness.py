"""Workloads, timed passes and known-answer checks for the zkgrid benchmark.

Each workload runs the pipeline as a user runs it: GC on, the default
checker kernel, one shard, and layout/witness files as in-memory bytes so
the file cache stays out of the numbers.  Only generated inputs reach the
program; every output is checked against a known answer:

* an honest witness is accepted and a tampered one rejected;
* the circuit's public instance equals the interpreter's logits followed
  by the raw input or its sponge digest, then the weight digest;
* an audit batch settles its escrow session in the stage its known
  verdicts imply, with the ledger conserved.

End-to-end timings are given at a fixed reference speed: the shared
host's CPU speed drifts by up to 2x over minutes, so each timing is taken
between two runs of a fixed reference loop and scaled by REFERENCE_S over
that loop's time.  Runs made minutes apart then compare; a change to the
program moves the scaled time as it moves the raw one.  Raw medians and
the reference loop's median time are reported beside them.

With tracing on, the benchmark's own calls into the zkgrid modules are
wrapped in spans, and `layers` adds the one-off per-layer measurements.
Span times are raw seconds.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

from zkgrid import arithmetize, checker, commit, interpreter, model, modelgen, serialize
from zkgrid.commit import VisibilityMode
from zkgrid.protocol import EconParams, Transition, new_session, step

import layers

SETUP_REPS = 5
INPUT_POOL = 8
TAIL_BEYOND = 10
AUDIT_MIN_BATCHES = 3     # 24 examples, enough for a tail above the median


@dataclass(frozen=True)
class Workload:
    """A fixed model (from `model_seed`) and how it is proved.

    kind "prove": every pass compiles, witnesses, dumps and loads both
    files, and checks.  kind "audit": compile and the layout round trip
    happen once in set-up; each example is witnessed, its witness file
    round-tripped and checked, and every `batch` verdicts settle one
    accuracy_simple session, one example per batch being tampered.
    """

    name: str
    model_seed: int
    mode: VisibilityMode | None
    kind: str
    max_hw: int = 32
    max_c: int = 16
    max_layers: int = 5
    batch: int = 8


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove_public", 110, None, "prove"),
        Workload("audit_batch", 111, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS, "audit"),
        # The ROADMAP stage-table model, run by stage_table.py only.
        Workload("seed14_public", 14, None, "prove"),
        Workload("seed14_hidden", 14, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS, "prove"),
    )
}


# --- tracing -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Span:
    name: str
    request: str      # one pass, example, batch session or set-up repetition
    parent: str       # the phase that made the call: setup | prove | verify | check | settle
    start: float
    end: float


class Tracer:
    """Spans around the benchmark's calls into zkgrid, kept in memory.

    Disabled, `call` is a plain call, so untraced timings carry no
    tracing cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.on = enabled          # toggled per pass in a traced run
        self.spans: list[Span] = []
        self.counts: list[tuple[str, str, float]] = []
        self.request = ""
        self.parent = ""

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, self.request, self.parent, t0, time.perf_counter()))

    def count(self, name: str, n: float) -> None:
        if self.on:
            self.counts.append((name, self.request, n))

    def per_request(self) -> dict[str, list[float]]:
        """For each span and count name, its total in every request that has it."""
        totals: dict[tuple[str, str], float] = {}
        for s in self.spans:
            key = (s.name + "_s", s.request)
            totals[key] = totals.get(key, 0.0) + (s.end - s.start)
        for name, request, n in self.counts:
            totals[(name, request)] = totals.get((name, request), 0) + n
        out: dict[str, list[float]] = {}
        for (name, _), v in totals.items():
            out.setdefault(name, []).append(v)
        return out


# --- host speed --------------------------------------------------------------

REFERENCE_S = 0.015       # the reference loop's time at reference speed
_REF_MODULUS = (1 << 255) - 19


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop of 255-bit multiply-mod and
    dict and list stores, the checker's kind of work.  It runs with GC
    held off, so the size of the program's heap does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, table, low = 3, {}, []
        for i in range(20_000):
            x = (x * x + i) % _REF_MODULUS
            table[i & 1023] = x
            low.append(x & 0xFFFF)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(ref_before: float, ref_after: float) -> float:
    """Factor from raw seconds to reference-speed seconds for a timing
    made between two runs of the reference loop."""
    return 2 * REFERENCE_S / (ref_before + ref_after)


# --- set-up ------------------------------------------------------------------

@dataclass
class Context:
    workload: Workload
    graph: model.ModelGraph
    cfg: arithmetize.CompileConfig
    inputs: list
    layout: object = None      # prover's compiled layout (audit only)
    vlayout: object = None     # verifier's loaded layout (audit only)
    layout_bytes: int = 0


def _setup_once(w: Workload, seed: int, tr: Tracer) -> Context:
    graph = modelgen.random_model(
        random.Random(w.model_seed), max_hw=w.max_hw, max_c=w.max_c, max_layers=w.max_layers
    )
    graph = tr.call("model.load", model.load_model, model.save_model(graph))
    tr.call("model.bounds", model.accumulator_bounds, graph)
    rng = random.Random(seed)
    n_inputs = INPUT_POOL * (w.batch if w.kind == "audit" else 1)
    inputs = [modelgen.random_input(rng, graph) for _ in range(n_inputs)]
    ctx = Context(w, graph, arithmetize.CompileConfig(mode=w.mode), inputs)
    if w.kind == "audit":
        ctx.layout, _ = tr.call("arithmetize.compile", arithmetize.compile, graph, ctx.cfg)
        raw = tr.call("serialize.dump_layout", serialize.dump_layout, ctx.layout)
        ctx.vlayout = tr.call("serialize.load_layout", serialize.load_layout, raw)
        ctx.layout_bytes = len(raw)
    return ctx


def setup(w: Workload, seed: int, tr: Tracer) -> tuple[Context, float, float]:
    """Set up SETUP_REPS times; returns the last context, the median time
    at reference speed and the median speed scale."""
    times, scales = [], []
    tr.parent = "setup"
    for rep in range(SETUP_REPS):
        tr.request = f"setup{rep}"
        gc.collect()
        ref0 = reference_s()
        t0 = time.perf_counter()
        ctx = _setup_once(w, seed, tr)
        raw = time.perf_counter() - t0
        scales.append(speed_scale(ref0, reference_s()))
        times.append(raw * scales[-1])
    if w.kind == "audit" and ctx.vlayout != ctx.layout:
        raise RuntimeError("layout changed in its file round trip")
    return ctx, statistics.median(times), statistics.median(scales)


# --- known answers -----------------------------------------------------------

def expected_instance(ctx: Context, inp, tr: Tracer) -> list[int]:
    """Logits from the interpreter, then the input section, then the
    weight digest when weights are hidden."""
    p = ctx.cfg.field.modulus
    mode = ctx.workload.mode
    trace = tr.call("interpreter.infer", interpreter.run_inference, ctx.graph, inp)
    out = [int(v) % p for v in trace.logits.reshape(-1)]
    elements = commit.input_elements(inp)
    if mode is not None and mode.input_hidden:
        out.append(_digest(ctx, elements, tr))
    else:
        out.extend(elements)
    if mode is not None and mode.weights_hidden:
        out.append(_digest(ctx, commit.weight_elements(ctx.graph, p), tr))
    return out


def _digest(ctx: Context, elements: list[int], tr: Tracer) -> int:
    params = ctx.cfg.sponge_params()
    tr.count("commit.absorbs", math.ceil(len(elements) / params.rate))
    return tr.call("commit.sponge_hash", commit.sponge_hash, elements, params)


# --- passes ------------------------------------------------------------------

@dataclass
class Sample:
    prove_s: float        # raw seconds
    verify_s: float
    prove_scale: float    # to reference-speed seconds
    verify_scale: float
    traced: bool

    @property
    def prove_ref_s(self) -> float:
        return self.prove_s * self.prove_scale

    @property
    def verify_ref_s(self) -> float:
        return self.verify_s * self.verify_scale


class Run:
    """Accumulates samples, failures and the one-off measurements."""

    def __init__(self, ctx: Context, tr: Tracer, mislabel: bool = False):
        self.ctx = ctx
        self.tr = tr
        self.mislabel = mislabel
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0     # at reference speed
        self.refs: list[float] = []
        self.grid_rows = 0
        self.layout_bytes = ctx.layout_bytes
        self.witness_bytes = 0
        self.layer_values: dict[str, float] = {}
        self.extras_done = False

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def add_sample(self, prove_s: float, verify_s: float, refs: tuple, traced: bool) -> None:
        """One proof's timings, with the reference loop's times before
        the prover, between prover and verifier, and after the verifier."""
        ref0, ref1, ref2 = refs
        sample = Sample(prove_s, verify_s, speed_scale(ref0, ref1), speed_scale(ref1, ref2), traced)
        self.samples.append(sample)
        self.refs.extend(refs)
        self.measured_s += sample.prove_ref_s + sample.verify_ref_s

    def extras_due(self) -> bool:
        return self.tr.on and not self.extras_done


def prove_pass(run: Run, i: int) -> None:
    """compile -> assign_witness -> dump both files | load both -> check."""
    ctx, tr = run.ctx, run.tr
    inp = ctx.inputs[i % len(ctx.inputs)]
    tr.request = f"pass{i}"
    tr.parent = "prove"
    ref0 = reference_s()
    t0 = time.perf_counter()
    layout, _ = tr.call("arithmetize.compile", arithmetize.compile, ctx.graph, ctx.cfg)
    asg = tr.call("arithmetize.witness", arithmetize.assign_witness, layout, ctx.graph, inp)
    layout_raw = tr.call("serialize.dump_layout", serialize.dump_layout, layout)
    witness_raw = tr.call("serialize.dump_witness", serialize.dump_witness, asg)
    prove_s = time.perf_counter() - t0
    extras = run.extras_due()
    if extras:
        run.layer_values.update(layers.row_attribution(layout))
    # The prover's objects are gone before the verifier starts, as they
    # would be in two processes.
    del layout, asg
    gc.collect()

    ref1 = reference_s()
    tr.parent = "verify"
    t0 = time.perf_counter()
    vlayout = tr.call("serialize.load_layout", serialize.load_layout, layout_raw)
    vasg = tr.call("serialize.load_witness", serialize.load_witness, witness_raw)
    violations = tr.call("checker.check", checker.check, vlayout, vasg)
    verify_s = time.perf_counter() - t0
    ref2 = reference_s()

    tr.parent = "check"
    ok = not violations and vasg.instance == expected_instance(ctx, inp, tr)
    if not ok:
        run.fail(f"pass {i}: {len(violations)} violations or instance mismatch")
    run.grid_rows = vlayout.n_rows
    run.layout_bytes = len(layout_raw)
    run.witness_bytes = len(witness_raw)
    if extras:
        _layer_extras(run, vlayout, vasg)
    run.attempted += 1
    run.add_sample(prove_s, verify_s, (ref0, ref1, ref2), tr.on)


def _tamper(ctx: Context, rng: random.Random, copy_cells: list):
    """One cell changed: a claimed logit, or an advice cell a copy binds."""
    p = ctx.cfg.field.modulus
    if rng.random() < 0.5:
        k = rng.randrange(math.prod(ctx.graph.output_shapes[ctx.graph.output_layer_index]))

        def logit(asg):
            asg.instance[k] = (asg.instance[k] + 1) % p
        return logit
    col, row = rng.choice(copy_cells)

    def advice(asg):
        asg.advice[col][row] = (asg.advice[col][row] + 1) % p
    return advice


def audit_batch(run: Run, b: int, rng: random.Random, copy_cells: list) -> None:
    """One batch: every example witnessed, round-tripped and checked; the
    verdicts then drive one accuracy_simple session."""
    ctx, tr = run.ctx, run.tr
    w = ctx.workload
    bad = rng.randrange(w.batch)
    tamper = _tamper(ctx, rng, copy_cells)
    verdicts, labels = [], []
    for j in range(w.batch):
        i = b * w.batch + j
        inp = ctx.inputs[i % len(ctx.inputs)]
        tr.request = f"example{i}"
        tr.parent = "prove"
        ref0 = reference_s()
        t0 = time.perf_counter()
        asg = tr.call("arithmetize.witness", arithmetize.assign_witness, ctx.layout, ctx.graph, inp)
        t1 = time.perf_counter()
        if j == bad:
            tamper(asg)
        t2 = time.perf_counter()
        raw = tr.call("serialize.dump_witness", serialize.dump_witness, asg)
        prove_s = t1 - t0 + time.perf_counter() - t2
        del asg

        ref1 = reference_s()
        tr.parent = "verify"
        t0 = time.perf_counter()
        vasg = tr.call("serialize.load_witness", serialize.load_witness, raw)
        violations = tr.call("checker.check", checker.check, ctx.vlayout, vasg)
        verify_s = time.perf_counter() - t0
        ref2 = reference_s()

        tr.parent = "check"
        accepted = not violations
        honest = j != bad
        label = honest or run.mislabel
        ok = accepted == label
        if honest:
            ok = ok and vasg.instance == expected_instance(ctx, inp, tr)
        else:
            tr.count("checker.violations", len(violations))
        if not ok:
            run.fail(f"example {i}: accepted={accepted}, known answer {label}")
        if honest and run.extras_due():
            _layer_extras(run, ctx.vlayout, vasg)
        verdicts.append(accepted)
        labels.append(label)
        run.attempted += 1
        run.add_sample(prove_s, verify_s, (ref0, ref1, ref2), tr.on)
        run.witness_bytes = len(raw)
    run.grid_rows = ctx.vlayout.n_rows
    t0 = time.perf_counter()
    settled = settle(run, f"batch{b}", verdicts, labels)
    run.measured_s += (time.perf_counter() - t0) * run.samples[-1].verify_scale
    run.attempted += 1
    if not settled:
        run.fail(f"batch {b}: escrow session ended in the wrong stage or unbalanced")


ECON = dict(E=Fraction(10), Z=Fraction(1), P=Fraction(1, 10))


def settle(run: Run, request: str, verdicts: list[bool], labels: list[bool]) -> bool:
    """Drive one accuracy_simple session with the batch's verdicts."""
    tr = run.tr
    tr.request, tr.parent = request, "settle"
    n = len(verdicts)
    params = EconParams(N1=n, N2=0, **ECON)
    state = new_session("accuracy_simple", params)
    total = state.total()
    log = [
        Transition("MP", "commit", {"hash": f"weights-{request}"}),
        Transition("MC", "commit", {"hash": f"tests-{request}"}),
        Transition("MP", "escrow"),
        Transition("MC", "escrow"),
        Transition("MC", "send_subset", {"count": n}),
        Transition("MP", "send_snarks", {"results": verdicts}),
        Transition("escrow_service", "settle"),
    ]
    for t in log:
        state = tr.call("protocol.step", step, state, t)
    tr.count("protocol.steps", len(log))
    want = "settled" if Fraction(sum(labels), n) >= params.accuracy_target else "slashed_MP"
    return (
        state.stage == want
        and state.total() == total
        and not any(state.escrow.values())
        and state.stake == 0
    )


def _layer_extras(run: Run, vlayout, vasg) -> None:
    """One-off traced measurements on a verifier's honest layout and witness."""
    run.extras_done = True
    tr = run.tr
    tr.parent = "check"
    tr.call("circuit.validate", vlayout.validate)
    values, problems = layers.checker_breakdown(vlayout, vasg)
    run.layer_values.update(values)
    run.layer_values.update(layers.constraint_rows(vlayout))
    run.attempted += 1
    if problems:
        run.fail("; ".join(problems))


# --- the measured loop -------------------------------------------------------

def measure(ctx: Context, tr: Tracer, seed: int, seconds: float, mislabel: bool = False) -> Run:
    """Passes (prove) or batches (audit) until `seconds` have elapsed, and
    at least AUDIT_MIN_BATCHES batches.  A traced run alternates traced
    and untraced items and makes at least one of each, so that their
    difference gives the tracing overhead."""
    run = Run(ctx, tr, mislabel)
    if ctx.workload.kind == "prove":
        item, args = prove_pass, ()
    else:
        item = audit_batch
        args = (random.Random(f"{seed}:tamper"), layers.copy_bound_advice_cells(ctx.layout))
        if tr.enabled:
            run.layer_values.update(layers.row_attribution(ctx.layout))
    if ctx.workload.kind == "audit":
        min_items = AUDIT_MIN_BATCHES
    else:
        min_items = 2 if tr.enabled else 1
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_items or time.perf_counter() < deadline:
        tr.on = tr.enabled and i % 2 == 0
        try:
            item(run, i, *args)
        except Exception:
            traceback.print_exc()
            run.attempted += 1
            run.fail(f"{item.__name__} {i} raised")
        gc.collect()
        i += 1
    tr.on = tr.enabled
    return run


# --- metrics -----------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least
    TAIL_BEYOND samples beyond it, but never below the median.  A run
    with fewer than 2 * TAIL_BEYOND + 1 samples has no tail to speak of,
    so it reports the median."""
    xs = sorted(values)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def end_to_end(run: Run, setup_s: float) -> tuple[dict, dict]:
    """End-to-end values at reference speed, plus the tails' percentile,
    the sample count, the raw medians and the reference loop's median."""
    prove = [s.prove_ref_s for s in run.samples]
    verify = [s.verify_ref_s for s in run.samples]
    p_tail, pct, n = tail(prove)
    v_tail, _, _ = tail(verify)
    values = {
        "setup_s": setup_s,
        "prove_s": statistics.median(prove),
        "verify_s": statistics.median(verify),
        "prove_s.tail": p_tail,
        "verify_s.tail": v_tail,
        "proofs_per_s": len(run.samples) / run.measured_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "grid_rows": run.grid_rows,
        "layout_mb": run.layout_bytes / 1e6,
        "witness_mb": run.witness_bytes / 1e6,
    }
    notes = {
        "tail_percentile": round(pct, 1),
        "samples": n,
        "raw_prove_s": statistics.median(s.prove_s for s in run.samples),
        "raw_verify_s": statistics.median(s.verify_s for s in run.samples),
        "reference_s": statistics.median(run.refs),
        "reference_s_nominal": REFERENCE_S,
    }
    return values, notes


def per_layer(run: Run, names: list[str]) -> dict:
    """Medians of per-request span totals and counts, the one-off values,
    and zero for layers the workload never calls."""
    per_req = run.tr.per_request()
    values = {name: statistics.median(v) for name, v in per_req.items()}
    values.update(run.layer_values)
    values["serialize.layout_bytes"] = run.layout_bytes
    values["serialize.witness_bytes"] = run.witness_bytes
    check_s = values.get("checker.check_s", 0.0)
    if check_s:
        values["checker.constraint_rows_per_s"] = values["circuit.constraint_rows"] / check_s
    traced = [s.prove_ref_s + s.verify_ref_s for s in run.samples if s.traced]
    plain = [s.prove_ref_s + s.verify_ref_s for s in run.samples if not s.traced]
    if traced and plain:
        values["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: values.get(name, 0) for name in names}
