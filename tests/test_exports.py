"""Every exported name resolves; bench/spans.py builds its wrappers from
these lists and silently skips a name that does not."""
import importlib

import pytest

import remkdv

LAYERS = ("cli", "diagnostics", "evolve", "energy", "resonance", "pseudo", "fields")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_resolve(layer):
    mod = importlib.import_module(f"remkdv.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_are_layer_exports():
    layers = [importlib.import_module(f"remkdv.{layer}") for layer in LAYERS]
    for name in remkdv.__all__:
        if name == "__version__":
            continue
        obj = getattr(remkdv, name)
        homes = [mod.__name__ for mod in layers
                 if name in mod.__all__ and getattr(mod, name) is obj]
        assert homes, f"{name} is in no layer's __all__"
        # a function or class is listed where it is defined; a constant has
        # no __module__ and is listed where it is bound
        assert getattr(obj, "__module__", homes[0]) in homes, name
