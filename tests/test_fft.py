"""The transform owner: the lengths it pads to, its numpy.fft fallback when
scipy's compiled pocketfft module cannot be loaded or fails its check, and
the import budget it buys the CLI, and the CLI's runs without scipy. The
transforms themselves are checked against scipy.fft and numpy.fft where the
solver uses them (test_evolve.py)."""
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

import remkdv
from remkdv import _fft
from remkdv.cli import main


@pytest.mark.parametrize("real", [False, True])
def test_next_fast_len_is_scipy_s(real, monkeypatch):
    want = [scipy.fft.next_fast_len(n, real=real) for n in range(1, 20001)]
    for pf in (_fft._PF, None):
        monkeypatch.setattr(_fft, "_PF", pf)
        assert [_fft.next_fast_len(n, real) for n in range(1, 20001)] == want


def test_missing_extension_file_falls_back_to_numpy(monkeypatch, tmp_path):
    # a scipy install whose fft/_pocketfft holds no extension file
    (tmp_path / "fft" / "_pocketfft").mkdir(parents=True)
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, _fft._NAME, raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    assert _fft._load() is None
    assert _fft.scipy_version() is None   # nor does it hold version.py
    monkeypatch.setattr(_fft, "_PF", _fft._pocketfft())
    assert _fft._PF is None
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def spy(*args, _name=name, _real=getattr(np.fft, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(np.fft, name, spy)
    z = np.arange(8) + 1j
    _fft.fft(z)
    _fft.ifft(z)
    _fft.irfft(_fft.rfft(z.real), 8)
    assert calls == ["fft", "ifft", "rfft", "irfft"]


def _module(**changes):
    """The real module's functions, some of them replaced."""
    pf = _fft._load()
    names = ("c2c", "c2r", "r2c", "good_size")
    return SimpleNamespace(**{n: getattr(pf, n) for n in names} | changes)


@pytest.mark.parametrize("changes", [
    {"c2c": lambda a, *args: np.zeros(a.shape, complex)},
    {"r2c": lambda *args: np.zeros(3, complex)},
    {"good_size": lambda n, real: n},
    {"c2r": lambda *args, **kw: (_ for _ in ()).throw(TypeError("signature"))},
    {},
], ids=["c2c", "r2c", "good_size", "raises", "intact"])
def test_module_that_disagrees_is_not_used(changes, monkeypatch):
    pf = _module(**changes)
    monkeypatch.setattr(_fft, "_load", lambda: pf)
    assert (_fft._pocketfft() is not None) == (not changes)


def test_cli_imports_no_scipy_fft_and_runs_import_nothing():
    # scipy.fft's import would cost a fresh process about 26 MB and 0.3 s;
    # numpy.random, loaded lazily by numpy, comes with the package so that
    # no run imports it in its first seeded draw
    code = """
import json, os, sys, tempfile
import remkdv.cli
assert "scipy" not in sys.modules
assert "scipy.fft" not in sys.modules
assert "numpy.random" in sys.modules
before = set(sys.modules)
runs = [["smoothing", "--override", "model.max_mode=32", "--override",
         "model.t_final=0.001", "--override", "watch_modes=[4, 8]"],
        ["energy-drift", "--override", "model.max_mode=64", "--override",
         "model.t_final=0.001", "--override", "k_watch=32",
         "--override", "sample_every=1"],
        ["identities"]]
with tempfile.TemporaryDirectory() as d:
    codes = [remkdv.cli.main([*argv, "--out", os.path.join(d, argv[0])])
             for argv in runs]
print(json.dumps({"codes": codes, "new": sorted(set(sys.modules) - before),
                  "scipy": "scipy" in sys.modules}))
"""
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"codes": [0, 0, 0], "new": [], "scipy": False}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports this remkdv."""
    src = str(Path(remkdv.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# small runs of the two commands that step: smoothing, and energy-drift at a
# mode whose corrections engage
RUNS = {"smoothing": ["--override", "model.max_mode=32", "--override",
                      "model.t_final=0.01", "--override", "watch_modes=[4, 8]"],
        "energy-drift": ["--override", "model.max_mode=640", "--override",
                         "model.dt=1e-4", "--override", "model.t_final=0.002",
                         "--override", "k_watch=600", "--override", "sample_every=5"]}


def test_manifest_names_the_installed_scipy(tmp_path):
    assert main(["smoothing", *RUNS["smoothing"], "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


def test_cli_runs_without_scipy(tmp_path):
    # None in sys.modules makes find_spec("scipy") return None and an import
    # of scipy fail, as on a machine without it
    code = """
import json, os, sys
sys.modules["scipy"] = None
import importlib.util
assert importlib.util.find_spec("scipy") is None
import remkdv._fft, remkdv.cli
assert remkdv._fft._PF is None
runs = json.loads(sys.argv[1])
print(json.dumps([remkdv.cli.main([name, *argv, "--out", os.path.join(sys.argv[2], name)])
                  for name, argv in runs.items()]))
"""
    proc = _python(code, json.dumps(RUNS), str(tmp_path / "numpy"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0]
    assert _fft._PF is not None
    for name, argv in RUNS.items():
        assert main([name, *argv, "--out", str(tmp_path / "pocketfft" / name)]) == 0
        without, pocket = tmp_path / "numpy" / name, tmp_path / "pocketfft" / name
        table = name.replace("-", "_") + ".csv"
        assert (without / table).read_bytes() == (pocket / table).read_bytes()
        got = json.loads((without / "manifest.json").read_text())
        want = json.loads((pocket / "manifest.json").read_text())
        assert got["versions"]["scipy"] is None
        want["versions"]["scipy"] = None
        assert got == want
