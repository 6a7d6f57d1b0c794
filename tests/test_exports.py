"""Every exported name resolves; bench/spans.py builds its wrappers from
these lists and silently skips a name that does not. The package root
exports what the README imports from it. The golden regenerator, which no
other test runs, imports, and its smoothing record is the file's."""
import ast
import importlib
import importlib.util
import json
from pathlib import Path

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


def test_package_exports_are_readme_imports():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = set()
    for block in readme.split("```python\n")[1:]:
        for node in ast.walk(ast.parse(block.split("```")[0])):
            if isinstance(node, ast.ImportFrom) and node.module == "remkdv":
                names.update(alias.name for alias in node.names)
    assert names
    assert set(remkdv.__all__) - {"__version__"} == names


def _regenerator():
    # only its import runs: main() would rewrite the goldens
    path = Path(__file__).parent / "golden" / "regenerate.py"
    spec = importlib.util.spec_from_file_location("regenerate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_golden_regenerator_imports():
    assert callable(_regenerator().main)


def test_smoothing_golden_is_what_the_regenerator_writes():
    # criterion 8's 20% band would hide a drift of the file from the code;
    # this pins every recorded number at round-off
    got = _regenerator().smoothing_baseline()
    want = json.loads((Path(__file__).parent / "golden" / "smoothing.json").read_text())
    assert got["config"] == want["config"]
    assert got["ratios"].keys() == want["ratios"].keys()
    for k, ratio in want["ratios"].items():
        assert got["ratios"][k] == pytest.approx(ratio, rel=1e-9, abs=0)
    assert got["sup_deviation"].keys() == want["sup_deviation"].keys()
    for eps, devs in want["sup_deviation"].items():
        assert got["sup_deviation"][eps].keys() == devs.keys()
        for k, dev in devs.items():
            assert got["sup_deviation"][eps][k] == pytest.approx(dev, rel=1e-9, abs=0)
