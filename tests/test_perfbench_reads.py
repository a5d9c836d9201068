"""The benchmark's row attribution agrees with what compile counts.

`perfbench/layers.py` attributes rows and copies to the parts of the grid
from a compiled layout and its witness plan: the staging cells the plan
lists, the sponges' rows and each copy's target column.  Its staging and
sponge rows and its copies per part must equal `CircuitStats.regions`.
The benchmark is frozen, so this reads its module as it is.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from zkgrid.arithmetize import CompileConfig, compile
from zkgrid.commit import VisibilityMode
from zkgrid.modelgen import random_model

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers_module():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", [None, *VisibilityMode], ids=lambda m: m.value if m else "public")
@pytest.mark.parametrize("seed", range(4))
def test_row_attribution_matches_regions(seed, mode):
    g = random_model(random.Random(seed))
    layout, stats = compile(g, CompileConfig(mode=mode))
    got = _layers_module().row_attribution(layout)
    regions = stats.regions
    assert got["arithmetize.staging.rows"] == regions["staging"]["rows"]
    assert got["arithmetize.sponge.rows"] == regions["sponge"]["rows"]
    for name, line in regions.items():
        assert got[f"arithmetize.{name}.copies"] == line["copies"], name
