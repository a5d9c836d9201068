"""Synthetic grids for checker throughput measurement.

The grid has one multiply-accumulate gate q * (a*b - c), one byte-range
lookup over a fourth column, and a strip of copy constraints, which is
representative of compiled model circuits.  Values use a 31-bit Mersenne
prime so kernel timing reflects dispatch cost rather than bignum width.
"""

from __future__ import annotations

import random

from .arithmetize import lookup_table
from .circuit import (
    ADVICE,
    FIXED,
    Assignment,
    CircuitLayout,
    Column,
    Copies,
    GateDef,
    LookupArg,
    cell,
    mul,
    sub,
)
from .field import Field

BENCH_PRIME = (1 << 31) - 1


def make_synthetic_grid(
    n_rows: int,
    seed: int = 7,
    violations: int = 0,
    n_copies: int | None = None,
) -> tuple[CircuitLayout, Assignment]:
    """An n_rows grid plus honest assignment, optionally with `violations`
    deliberately corrupted product cells."""
    fld = Field(BENCH_PRIME)
    p = fld.modulus
    rng = random.Random(seed)
    a = [rng.randrange(1, 1 << 16) for _ in range(n_rows)]
    b = [rng.randrange(1, 1 << 16) for _ in range(n_rows)]
    d = [rng.randrange(0, 256) for _ in range(n_rows)]
    if n_copies is None:
        n_copies = n_rows // 10
    columns = {
        "q": Column("q", FIXED),
        "a": Column("a", ADVICE),
        "b": Column("b", ADVICE),
        "c": Column("c", ADVICE),
        "d": Column("d", ADVICE),
        "q_byte": Column("q_byte", FIXED),
    }
    col_a = list(columns).index("a")
    copies = []
    for k in range(min(n_copies, n_rows // 2)):
        i, j = 2 * k, 2 * k + 1
        a[j] = a[i]
        copies += (col_a, i, col_a, j)
    c = [x * y % p for x, y in zip(a, b)]
    byte = lookup_table(("range", 0, 255), p)
    layout = CircuitLayout(
        field=fld,
        columns=columns,
        n_rows=n_rows,
        n_rows_logical=n_rows,
        gates=[
            GateDef(
                id="mulgate", name="MUL", selector="q",
                poly=sub(mul(cell("a"), cell("b")), cell("c")),
            )
        ],
        tables={byte.id: byte},
        lookups=[LookupArg(id="lk_byte", table=byte.id, columns=("d",), selector="q_byte")],
        copies=Copies(copies, list(columns)),
        fixed={"q": [1] * n_rows, "q_byte": [1] * n_rows},
        instance_map=[],
    )
    for i in rng.sample(range(n_rows), min(violations, n_rows)):
        c[i] = (c[i] + 1) % p
    assignment = Assignment(advice={"a": a, "b": b, "c": c, "d": d}, instance=[])
    return layout, assignment


def constraint_rows(layout: CircuitLayout) -> int:
    """Enabled (constraint, row) pairs: the unit of checker throughput."""
    selectors = [g.selector for g in layout.gates] + [lk.selector for lk in layout.lookups]
    return sum(len(layout.fixed[sel].nonzero_rows()) for sel in selectors)

