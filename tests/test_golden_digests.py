"""The layout and witness bytes and the CircuitStats of fixed models, pinned.

`tests/data/golden_digests.json` holds, per case, the SHA-256 of
`dump_layout` and of `dump_witness` (input `random_input(Random(1), g)`)
and the `CircuitStats` JSON.  The cases are seeds 0-7 at random_model's
default shapes in all four visibility modes, and seeds 110 and 111 at
max_hw 32, max_c 16, max_layers 5, public and hidden-weights.  Three more
cases, both tensors hidden, pin the sponge and PACK rows off the default
parameters: an odd partial round count (3), so the last partial round
runs alone; a width-4 sponge (rate 3, 6 full and 20 partial rounds, its
own seed); and the field 2^61 - 1, which packs 7 weights to an element.

A change that alters these bytes on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_digests.py

and says in CHANGES.md which bytes changed and why.  Any other change
must pass against the file as it is.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from zkgrid import serialize
from zkgrid.arithmetize import CompileConfig, assign_witness, compile
from zkgrid.commit import SpongeParams, VisibilityMode
from zkgrid.field import Field
from zkgrid.modelgen import random_input, random_model

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"

MODES = [None, *VisibilityMode]
# The compile settings of a case beyond its mode, by the name its id ends in.
VARIANTS = {
    None: lambda: {},
    "partial3": lambda: {"sponge": SpongeParams(partial_rounds=3)},
    "t4": lambda: {"sponge": SpongeParams(t=4, full_rounds=6, partial_rounds=20, seed="alt")},
    "p61": lambda: {"field": Field(2**61 - 1)},
}
CASES = [(seed, None, mode, None) for seed in range(8) for mode in MODES] + [
    (seed, (32, 16, 5), mode, None)
    for seed in (110, 111)
    for mode in (None, VisibilityMode.PUBLIC_INPUT_HIDDEN_WEIGHTS)
] + [
    (seed, None, VisibilityMode.HIDDEN_INPUT_HIDDEN_WEIGHTS, variant)
    for seed, variant in ((2, "partial3"), (3, "t4"), (4, "p61"))
]


def _case_id(seed, shape, mode, variant) -> str:
    dims = "default" if shape is None else "x".join(map(str, shape))
    return f"seed{seed}:{dims}:{mode.value if mode else 'public'}" + (f":{variant}" if variant else "")


def digests(seed, shape, mode, variant) -> dict:
    rng = random.Random(seed)
    if shape is None:
        g = random_model(rng)
    else:
        max_hw, max_c, max_layers = shape
        g = random_model(rng, max_hw=max_hw, max_c=max_c, max_layers=max_layers)
    layout, stats = compile(g, CompileConfig(mode=mode, **VARIANTS[variant]()))
    asg = assign_witness(layout, g, random_input(random.Random(1), g))
    return {
        "layout_sha256": hashlib.sha256(serialize.dump_layout(layout)).hexdigest(),
        "witness_sha256": hashlib.sha256(serialize.dump_witness(asg)).hexdigest(),
        "stats": json.loads(json.dumps(stats.to_json())),
    }


@pytest.mark.parametrize("seed, shape, mode, variant", CASES, ids=[_case_id(*c) for c in CASES])
def test_golden_digests(seed, shape, mode, variant):
    want = json.loads(GOLDEN.read_text())[_case_id(seed, shape, mode, variant)]
    assert digests(seed, shape, mode, variant) == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({_case_id(*c): digests(*c) for c in CASES}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)
