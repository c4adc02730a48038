"""The benchmark's span tracer names codedmv functions by module and
attribute; a renamed function would make its layer read 0 silently."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# deleted with the float decode path; the benchmark still lists it
GONE = {"sim.equations_decodable"}


@pytest.mark.parametrize("layer", sorted(set(spans.LAYERS) - GONE))
def test_every_traced_layer_resolves(layer):
    for target in spans.LAYERS[layer]:
        owner = importlib.import_module(target[0])
        for attr in target[1:]:
            owner = getattr(owner, attr)
        assert callable(owner), target
