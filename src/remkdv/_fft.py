"""Every discrete Fourier transform of the package.

The transforms run on scipy's compiled pocketfft module, loaded from its
file without running the scipy.fft package. That package's import costs a
fresh process about 26 MB and 0.3 s (its array-API layer imports numpy.f2py,
numpy.testing and numpy.ma), and its per-call Python layer (backend
dispatch, argument checks) costs about as much as the transforms at K = 256.
The module is private to scipy, so it is checked once, bit for bit against
numpy.fft on a small input. If it cannot be loaded or the check fails, every
function here runs on numpy.fft instead, which gives the same bits: numpy's
transforms are the same pocketfft code, only its real ones are slower.
scipy_version reads scipy's version the same way, from its version file,
so that nothing of the package imports scipy.

The functions take numpy.fft's arguments, with norm None, "backward" or
"forward" ("ortho" scales differently in the last bit between the two and is
not offered): fft and ifft along any axis with zero padding or truncation to
n, rfft and irfft along the last axis, and out= for a preallocated result,
which for fft and ifft may be the input itself.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

__all__ = ["fft", "ifft", "rfft", "irfft", "next_fast_len", "scipy_version"]

_NAME = "scipy.fft._pocketfft.pypocketfft"
_INORM = {None: 0, "backward": 0, "forward": 2}


def _scipy_dir() -> str | None:
    """The directory of the installed scipy package, found without importing
    it; None if scipy is missing."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    return scipy.submodule_search_locations[0]


def scipy_version() -> str | None:
    """scipy.__version__, read from scipy/version.py without importing scipy
    (an import costs about 11 ms); None if scipy or that file is missing."""
    where = _scipy_dir()
    path = None if where is None else os.path.join(where, "version.py")
    if path is None or not os.path.isfile(path):
        return None
    spec = importlib.util.spec_from_file_location("_scipy_version", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _load():
    """The compiled module: scipy.fft's own if scipy.fft is loaded, else a
    fresh load of its extension file; None if scipy or the file is missing."""
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = _scipy_dir()
    if scipy is None:
        return None
    where = os.path.join(scipy, "fft", "_pocketfft")
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader,
                importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_NAME)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _agrees(pf) -> bool:
    """Whether pf computes what the numpy.fft path below computes, bit for
    bit, on a small input of each kind."""
    x = np.array([0.5, -2.0, 1.25, 3.0, -0.75])
    z = x + 1j * x[::-1]
    h = np.fft.rfft(x, norm="forward")
    return (np.array_equal(pf.r2c(x, (-1,), True, 2, None, 1), h)
            and np.array_equal(pf.c2r(h, (-1,), 5, False, 0, None, 1),
                               np.fft.irfft(h, 5, norm="forward"))
            and np.array_equal(pf.c2c(z, (-1,), True, 0, None, 1), np.fft.fft(z))
            and np.array_equal(pf.c2c(z, (-1,), False, 2, None, 1), np.fft.ifft(z))
            and np.array_equal(pf.c2c(x, (-1,), True, 0, None, 1),
                               _hermitian(np.fft.rfft(x), 5, -1))
            and all(pf.good_size(n, real) == _smooth_length(n, real)
                    for n in (13, 97, 1001) for real in (False, True)))


def _pocketfft():
    """scipy's compiled pocketfft module if it loads and passes _agrees,
    else None."""
    try:
        pf = _load()
        if pf is not None and _agrees(pf):
            return pf
    except (ImportError, AttributeError, TypeError, ValueError, RuntimeError):
        pass
    return None


def _fit(x: np.ndarray, n: int | None, axis: int) -> np.ndarray:
    """x zero-padded or truncated to length n along axis."""
    have = x.shape[axis]
    if n is None or n == have:
        return x
    index = [slice(None)] * x.ndim
    index[axis] = slice(0, min(n, have))
    if n < have:
        return x[tuple(index)]
    shape = list(x.shape)
    shape[axis] = n
    padded = np.zeros(shape, x.dtype)
    padded[tuple(index)] = x
    return padded


def _hermitian(half: np.ndarray, n: int, axis: int) -> np.ndarray:
    """The length-n transform of a real input from its modes 0..n//2."""
    half = np.moveaxis(half, axis, -1)
    full = np.concatenate((half, np.conj(half[..., (n - 1) // 2:0:-1])), axis=-1)
    return np.moveaxis(full, -1, axis)


def _c2c(x, n, axis, norm, out, forward: bool) -> np.ndarray:
    inorm = _INORM[norm]
    x = np.asarray(x)
    if _PF is not None:
        return _PF.c2c(_fit(x, n, axis), (axis,), forward,
                       inorm if forward else 2 - inorm, out, 1)
    if np.iscomplexobj(x):
        return (np.fft.fft if forward else np.fft.ifft)(x, n, axis, norm, out)
    # pocketfft transforms a real input by its real transform and the
    # Hermitian mirror; numpy's complex transform rounds differently
    half = (np.fft.rfft if forward else np.fft.ihfft)(x, n, axis, norm)
    full = _hermitian(half, x.shape[axis] if n is None else n, axis)
    if out is None:
        return full
    out[...] = full
    return out


def fft(x, n=None, axis=-1, norm=None, out=None) -> np.ndarray:
    """numpy.fft.fft."""
    return _c2c(x, n, axis, norm, out, True)


def ifft(x, n=None, axis=-1, norm=None, out=None) -> np.ndarray:
    """numpy.fft.ifft."""
    return _c2c(x, n, axis, norm, out, False)


def rfft(x, norm=None, out=None) -> np.ndarray:
    """numpy.fft.rfft along the last axis."""
    inorm = _INORM[norm]
    if _PF is None:
        return np.fft.rfft(x, norm=norm, out=out)
    return _PF.r2c(np.asarray(x), (-1,), True, inorm, out, 1)


def irfft(x, n: int, norm=None, out=None) -> np.ndarray:
    """numpy.fft.irfft along the last axis, to n real points."""
    inorm = _INORM[norm]
    if _PF is None:
        return np.fft.irfft(x, n, norm=norm, out=out)
    return _PF.c2r(_fit(np.asarray(x), n // 2 + 1, -1), (-1,), n, False,
                   2 - inorm, out, 1)


def _smooth_length(target: int, real: bool) -> int:
    """The least n >= target with no prime factor above 5 (real) or 11
    (complex): pocketfft's good_size, which keeps targets up to 6 (12)."""
    if target <= (6 if real else 12):
        return target
    primes = (2, 3, 5) if real else (2, 3, 5, 7, 11)
    n = target
    while True:
        m = n
        for p in primes:
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def next_fast_len(target: int, real: bool = False) -> int:
    """scipy.fft.next_fast_len: the least length >= target that the
    transforms here factor into small radices."""
    if _PF is None:
        return _smooth_length(target, real)
    return _PF.good_size(target, real)


_PF = _pocketfft()
