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

# functions the benchmark still traces that the package no longer has
GONE = {
    "sim.equations_decodable",  # deleted with the float decode path
    "sim.decode_from_products",  # deleted: no command called it; numeric_decode is the decode
}


def _resolves(target) -> bool:
    owner = importlib.import_module(target[0])
    for attr in target[1:]:
        owner = getattr(owner, attr, None)
    return callable(owner)


@pytest.mark.parametrize("layer", sorted(set(spans.LAYERS) - GONE))
def test_every_traced_layer_resolves(layer):
    for target in spans.LAYERS[layer]:
        assert _resolves(target), target


@pytest.mark.parametrize("layer", sorted(GONE))
def test_gone_layers_are_gone(layer):
    # GONE may list only functions that were deleted
    for target in spans.LAYERS[layer]:
        assert not _resolves(target), target
