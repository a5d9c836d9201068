"""Shared test machinery: the independent convolution oracle, the
row-by-row constraint oracle, the single-cell tamper harness and a
reference writer of version-6 layout files."""

from __future__ import annotations

import json
import random
import struct

from zkgrid.checker import Violation, check
from zkgrid.circuit import ADVICE
from zkgrid.model import INPUT_REF


def naive_layer_oracle(graph, inp_codes):
    """Direct nested-loop re-implementation of quantized inference.

    Deliberately shares no code with the interpreter: plain lists, plain
    loops, explicit padding, explicit floor division.
    """
    def clip(v):
        return min(255, max(0, v))

    acts = {}
    accs = {}

    def value_at(ref, i, j, ch, shape):
        src = inp_codes if ref == INPUT_REF else acts[ref]
        h, w, c = shape
        return src[(i * w + j) * c + ch]

    logits = None
    for li, layer in enumerate(graph.layers):
        if layer.kind in ("conv2d", "depthwise_conv2d"):
            ref = layer.input_refs[0]
            in_shape = graph.shape_of_ref(ref)
            h, w, c = in_shape
            oh, ow, oc = graph.output_shapes[li]
            z = graph.quant_of_ref(ref).zero_point
            wv = layer.weights.signed_values()
            if layer.padding == "same":
                kh = layer.weights.shape[1] if layer.kind == "conv2d" else layer.weights.shape[0]
                kw = layer.weights.shape[2] if layer.kind == "conv2d" else layer.weights.shape[1]
                ph = max((oh - 1) * layer.stride + kh - h, 0)
                pw = max((ow - 1) * layer.stride + kw - w, 0)
                top, left = ph // 2, pw // 2
            else:
                if layer.kind == "conv2d":
                    kh, kw = layer.weights.shape[1], layer.weights.shape[2]
                else:
                    kh, kw = layer.weights.shape[0], layer.weights.shape[1]
                top = left = 0
            acc_list, act_list = [], []
            for i in range(oh):
                for j in range(ow):
                    for o in range(oc):
                        total = 0
                        for r in range(kh):
                            for s in range(kw):
                                ih, iw = i * layer.stride - top + r, j * layer.stride - left + s
                                if not (0 <= ih < h and 0 <= iw < w):
                                    continue
                                if layer.kind == "conv2d":
                                    _, _, _, ic = layer.weights.shape
                                    for ci in range(ic):
                                        x = value_at(ref, ih, iw, ci, in_shape)
                                        total += (x - z) * wv[((o * kh + r) * kw + s) * ic + ci]
                                else:
                                    x = value_at(ref, ih, iw, o, in_shape)
                                    total += (x - z) * wv[(r * kw + s) * oc + o]
                        total += layer.bias[o]
                        acc_list.append(total)
                        s_ = layer.out_quant.scale
                        act_list.append(clip((total * s_.a) // s_.b + layer.out_quant.zero_point))
            accs[li], acts[li] = acc_list, act_list
        elif layer.kind == "fully_connected":
            ref = layer.input_refs[0]
            src = inp_codes if ref == INPUT_REF else acts[ref]
            z = graph.quant_of_ref(ref).zero_point
            units, feat = layer.weights.shape
            wv = layer.weights.signed_values()
            acc_list, act_list = [], []
            for u in range(units):
                total = sum((src[j] - z) * wv[u * feat + j] for j in range(feat)) + layer.bias[u]
                acc_list.append(total)
                s_ = layer.out_quant.scale
                act_list.append(clip((total * s_.a) // s_.b + layer.out_quant.zero_point))
            accs[li], acts[li] = acc_list, act_list
        elif layer.kind == "residual_add":
            ra, rb = layer.input_refs
            xa = inp_codes if ra == INPUT_REF else acts[ra]
            xb = inp_codes if rb == INPUT_REF else acts[rb]
            z = layer.out_quant.zero_point
            accs[li] = [a + b_ - 2 * z for a, b_ in zip(xa, xb)]
            acts[li] = [clip(a + b_ - z) for a, b_ in zip(xa, xb)]
        elif layer.kind == "average_pool":
            ref = layer.input_refs[0]
            h, w, c = graph.shape_of_ref(ref)
            src = inp_codes if ref == INPUT_REF else acts[ref]
            acc_list, act_list = [], []
            for ch in range(c):
                total = sum(src[(i * w + j) * c + ch] for i in range(h) for j in range(w))
                acc_list.append(total)
                act_list.append(total // (h * w))
            accs[li], acts[li] = acc_list, act_list
        else:  # output
            ref = layer.input_refs[0]
            logits = list(inp_codes) if ref == INPUT_REF else list(accs[ref])
            accs[li], acts[li] = logits, (list(inp_codes) if ref == INPUT_REF else acts[ref])
    return accs, acts, logits


def constrained_advice_cells(layout):
    """Every advice cell referenced by an enabled gate row, an enabled
    lookup row, a copy constraint, or an instance binding."""
    cells = set()
    adv = {c.id for c in layout.columns.values() if c.kind == ADVICE}
    for cp in layout.copies:
        for ref in (cp.a, cp.b):
            if ref[0] in adv:
                cells.add(ref)
    for lk in layout.lookups:
        sel = layout.fixed[lk.selector]
        lk_adv = [c for c in lk.columns if c in adv]
        for row in range(layout.n_rows):
            if sel[row]:
                for c in lk_adv:
                    cells.add((c, row))
    for ref, _ in layout.instance_map:
        if ref[0] in adv:
            cells.add(ref)
    for g in layout.gates:
        cols = [c for c in g.poly.columns() if c in adv]
        sel = layout.fixed[g.selector]
        for row in range(layout.n_rows):
            if sel[row]:
                for c in cols:
                    cells.add((c, row))
    return sorted(cells)


def tamper_trials(layout, assignment, rng: random.Random, n_trials: int) -> tuple[int, int]:
    """Flip n_trials random constrained cells by +1; count detections."""
    cells = constrained_advice_cells(layout)
    picks = [cells[rng.randrange(len(cells))] for _ in range(n_trials)]
    caught = 0
    p = layout.field.modulus
    for col, row in picks:
        old = assignment.advice[col][row]
        assert old is not None, f"constrained cell ({col},{row}) unassigned"
        assignment.advice[col][row] = (old + 1) % p
        if check(layout, assignment, cap=4):
            caught += 1
        assignment.advice[col][row] = old
    return caught, n_trials


def row_oracle_check(layout, assignment, cap=1000):
    """The checker's violation list, recomputed one (constraint, row) at a
    time: gates through CircuitLayout.eval_gate, lookups by set membership
    of the cell tuple reduced mod p, copies and instance bindings compared
    mod p.
    Shares no evaluation code with zkgrid.checker."""
    p = layout.field.modulus

    def value(col, row):
        return layout.resolve_column(col, assignment)[row]

    out = []
    for g in layout.gates:
        for row in range(layout.n_rows):
            v = layout.eval_gate(g, assignment, row).value
            if v:
                out.append(Violation("gate", g.id, row, f"{g.name} evaluates to {v}"))
    for lk in layout.lookups:
        sel = layout.fixed[lk.selector]
        for row in range(layout.n_rows):
            if sel[row] and tuple(value(c, row) % p for c in lk.columns) not in layout.tables[lk.table].rows:
                out.append(Violation("lookup", lk.id, row, f"tuple not in table {lk.table}"))
    for idx, cp in enumerate(layout.copies):
        va, vb = value(*cp.a), value(*cp.b)
        if va % p != vb % p:
            out.append(Violation("copy", f"{idx:09d}", cp.a[1], f"{cp.a} = {va} but {cp.b} = {vb}"))
    for idx, (ref, inst_idx) in enumerate(layout.instance_map):
        v, declared = value(*ref), assignment.instance[inst_idx]
        if v % p != declared % p:
            out.append(
                Violation(
                    "instance", f"{idx:09d}", ref[1],
                    f"cell {ref} = {v} but instance[{inst_idx}] = {declared}",
                )
            )
    out.sort(key=Violation.sort_key)
    return out[:cap]


_NODE_NAMES = {"add": "+", "sub": "-", "mul": "*", "pow5": "pow5"}


def node_table(polys) -> tuple[list, list[int]]:
    """A node table of the polynomials written out as trees, each node
    its own entry after its children's (equal subtrees are not merged),
    and each polynomial's root index."""
    nodes = []

    def write(e) -> int:
        if e.op == "const":
            nodes.append(["const", str(e.value)])
        elif e.op == "cell":
            nodes.append(["col", e.col])
        else:
            nodes.append([_NODE_NAMES[e.op], *map(write, e.args)])
        return len(nodes) - 1

    return nodes, [write(e) for e in polys]


def layout_doc(layout) -> dict:
    """The parts of a version-6 layout file, restated from the layout
    without zkgrid.serialize: the header object without its counts, then
    each section's integers.  `widths` maps a section to the width byte
    layout_file writes for it: "copies", "bindings", "rows:<column>" or
    "values:<column>"."""
    names = list(layout.columns)
    nodes, roots = node_table(g.poly for g in layout.gates)
    return {
        "header": {
            "modulus": str(layout.field.modulus),
            "n_rows": layout.n_rows,
            "n_rows_logical": layout.n_rows_logical,
            "columns": [{"id": c.id, "kind": c.kind} for c in layout.columns.values()],
            "nodes": nodes,
            "gates": [
                {"id": g.id, "name": g.name, "selector": g.selector, "poly": root}
                for g, root in zip(layout.gates, roots)
            ],
            "lookups": [
                {"id": l.id, "table": l.table, "columns": list(l.columns), "selector": l.selector}
                for l in layout.lookups
            ],
            "tables": [list(t.recipe) for t in layout.tables.values()],
        },
        "copies": list(layout.copies.flat),
        "fixed": [[col, list(vals.cells), list(vals.cells.values())] for col, vals in layout.fixed.items()],
        "bindings": [v for (col, row), idx in layout.instance_map for v in (names.index(col), row, idx)],
        "widths": {},
    }


def layout_sections(doc) -> list[bytes]:
    """The byte strings of a layout file: magic, version and header, then
    each section in file order.  Unsigned sections are written 4 bytes
    wide and cell columns 32 bytes wide unless `widths` says otherwise,
    with no base and no outlier; a None cell is left out of a presence
    bitmap.  Header counts the document does not set are the sections'
    own."""
    widths = doc["widths"]

    def uints(key, xs):
        w = widths.get(key, 4)
        return bytes((w,)) + b"".join(x.to_bytes(w, "little") for x in xs)

    def cells(key, xs):
        w = widths.get(key, 32)
        present = [x for x in xs if x is not None]
        bits = sum(1 << r for r, x in enumerate(xs) if x is not None)
        bitmap = b"" if len(present) == len(xs) else bits.to_bytes((len(xs) + 7) // 8, "little")
        body = b"".join(x.to_bytes(w, "little") for x in present)
        outliers = b"" if w == 32 else struct.pack("<I", 0)
        return struct.pack("<II", len(xs), len(present)) + bytes((w,)) + bitmap + body + outliers

    header = {
        "copies": len(doc["copies"]) // 4,
        "bindings": len(doc["bindings"]) // 3,
        "fixed": [[col, len(rows)] for col, rows, _ in doc["fixed"]],
        **doc["header"],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    out = [b"ZKLY" + struct.pack("<II", 6, len(head)) + head, uints("copies", doc["copies"])]
    for col, rows, vals in doc["fixed"]:
        out += [uints(f"rows:{col}", rows), cells(f"values:{col}", vals)]
    out.append(uints("bindings", doc["bindings"]))
    return out


def layout_file(doc) -> bytes:
    return b"".join(layout_sections(doc))
