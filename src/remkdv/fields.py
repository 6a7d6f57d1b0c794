"""Truncated Fourier series on the unit torus and the dyadic calculus on them.

Conventions, fixed once for the whole package:

* u_hat(k) = integral over [0,1) of exp(-2i*pi*k*x) u(x) dx, so that
  u(x) = sum_k u_hat(k) exp(2i*pi*k*x) and d/dx acts as multiplication
  by DERIV(k) = 2i*pi*k on the k-th coefficient.
* Real fields are Hermitian: u_hat(-k) = conj(u_hat(k)).
* Parseval: integral of f*g over the torus = sum_k f_hat(k) g_hat(-k).
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from . import _fft

__all__ = [
    "FourierField",
    "deriv_multiplier",
    "synthesize",
    "evaluate",
    "chi",
    "phi",
    "phi_dyadic",
    "dyadic_blocks",
    "project_dyadic",
    "project_leq",
    "riesz_potential",
    "sobolev_norm",
    "space_time_norm",
    "xsb_norm_diagnostic",
]

HERMITIAN_TOL = 1e-10


def deriv_multiplier(k):
    """The d/dx symbol 2i*pi*k. Every derivative in the package goes through here."""
    return 2j * np.pi * np.asarray(k)


class FourierField:
    """A trigonometric polynomial of degree max_mode, stored as centered coefficients.

    coeffs[j] holds mode k = j - max_mode, for k in [-max_mode, max_mode].
    """

    __slots__ = ("coeffs", "max_mode")

    def __init__(self, coeffs: Sequence[complex], copy: bool = True):
        # None: copy only where the cast to complex128 needs one
        arr = np.array(coeffs, dtype=np.complex128, copy=True if copy else None)
        if arr.ndim != 1 or arr.size % 2 == 0:
            raise ValueError("expected a 1-d coefficient array of odd length 2K+1")
        self.coeffs = arr
        self.max_mode = arr.size // 2

    @classmethod
    def zeros(cls, max_mode: int) -> "FourierField":
        return cls(np.zeros(2 * max_mode + 1, dtype=np.complex128), copy=False)

    @classmethod
    def from_modes(cls, max_mode: int, modes: dict[int, complex],
                   hermitize: bool = False) -> "FourierField":
        """Build a field from a {mode: coefficient} dict.

        With hermitize=True each given (k, c) also sets mode -k to conj(c),
        which is the convenient way to write small real test fields.
        """
        out = cls.zeros(max_mode)
        for k, c in modes.items():
            if abs(k) > max_mode:
                raise ValueError(f"mode {k} outside [-{max_mode}, {max_mode}]")
            out.coeffs[k + max_mode] = c
            if hermitize and k != 0:
                out.coeffs[-k + max_mode] = np.conj(c)
        return out

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.max_mode, self.max_mode + 1)

    def copy(self) -> "FourierField":
        return FourierField(self.coeffs, copy=True)

    def mode(self, k: int) -> complex:
        """Coefficient of mode k; modes beyond the truncation are zero."""
        if abs(k) > self.max_mode:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.max_mode])

    def gather(self, ks) -> np.ndarray:
        """Coefficients at an integer array of modes, any shape; modes beyond
        the truncation are zero."""
        ks = np.asarray(ks)
        K = self.max_mode
        return np.where(np.abs(ks) <= K, self.coeffs.take(ks + K, mode="clip"), 0)

    def hermitian_defect(self) -> float:
        """max_k |u_hat(-k) - conj(u_hat(k))|; zero exactly for real fields."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))

    def is_real(self) -> bool:
        return self.hermitian_defect() <= HERMITIAN_TOL

    def require_real(self) -> None:
        defect = self.hermitian_defect()
        if defect > HERMITIAN_TOL:
            raise ValueError(f"field is not Hermitian (defect {defect:.3e} > "
                             f"{HERMITIAN_TOL:.1e})")

    def hermitized(self) -> "FourierField":
        """Nearest Hermitian field: average coeffs with the reflected conjugate."""
        sym = 0.5 * (self.coeffs + np.conj(self.coeffs[::-1]))
        return FourierField(sym, copy=False)

    def l2_norm(self) -> float:
        """L2(torus) norm; by Parseval this is the plain l2 norm of the coefficients."""
        return float(np.sqrt(self.mass()))

    def mass(self) -> float:
        """P0(u^2) = integral of u^2 = sum |u_hat|^2 for a real field."""
        return float(np.vecdot(self.coeffs, self.coeffs).real)

    def mean(self) -> complex:
        return complex(self.coeffs[self.max_mode])

    def _match(self, other: "FourierField") -> None:
        if self.max_mode != other.max_mode:
            raise ValueError("max_mode mismatch")

    def __add__(self, other: "FourierField") -> "FourierField":
        self._match(other)
        return FourierField(self.coeffs + other.coeffs, copy=False)

    def __sub__(self, other: "FourierField") -> "FourierField":
        self._match(other)
        return FourierField(self.coeffs - other.coeffs, copy=False)

    def __mul__(self, scalar) -> "FourierField":
        return FourierField(self.coeffs * scalar, copy=False)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierField":
        return FourierField(-self.coeffs, copy=False)

    def multiplied(self, multiplier: np.ndarray) -> "FourierField":
        """Apply a Fourier multiplier given as an array over modes [-K, K]."""
        if np.shape(multiplier) != self.coeffs.shape:
            raise ValueError("multiplier shape must match the coefficient array")
        return FourierField(self.coeffs * multiplier, copy=False)

    def derivative(self) -> "FourierField":
        return self.multiplied(deriv_multiplier(self.modes))

    def __repr__(self) -> str:
        return f"FourierField(max_mode={self.max_mode})"


def synthesize(field: FourierField, n_points: int) -> np.ndarray:
    """Sample a real field on the uniform grid x_j = j/n_points.

    Exact for trigonometric polynomials whenever n_points >= 2K+1.
    """
    K = field.max_mode
    if n_points < 2 * K + 1:
        raise ValueError(f"need n_points >= {2 * K + 1} to resolve max_mode {K}")
    field.require_real()
    spec = np.zeros(n_points, dtype=np.complex128)
    ks = field.modes
    spec[ks % n_points] = field.coeffs
    vals = _fft.ifft(spec) * n_points
    return np.real(vals)


def evaluate(samples: np.ndarray, max_mode: int) -> FourierField:
    """Recover coefficients for |k| <= max_mode from uniform grid samples.

    Inverse of synthesize; exact when len(samples) >= 2*max_mode + 1.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n < 2 * max_mode + 1:
        raise ValueError(f"need at least {2 * max_mode + 1} samples for max_mode {max_mode}")
    spec = _fft.fft(samples) / n
    ks = np.arange(-max_mode, max_mode + 1)
    return FourierField(spec[ks % n], copy=False)


# ---------------------------------------------------------------------------
# Littlewood-Paley cutoffs.
# chi is 1 on [-1,1], a raised cosine on 1 < |x| < 2, 0 beyond; phi(x) =
# chi(x) - chi(2x) so that phi_N := phi(./N) tile frequency space.


def chi(x) -> np.ndarray:
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(x)
    out[x <= 1.0] = 1.0
    band = (x > 1.0) & (x < 2.0)
    out[band] = np.cos(np.pi * (x[band] - 1.0) / 2.0) ** 2
    return out


def phi(x) -> np.ndarray:
    return chi(x) - chi(2.0 * np.asarray(x, dtype=np.float64))


# phi_N on integers is read from a table up to this block (a 2 MB table)
PHI_TABLE_MAX_N = 2 ** 16


@lru_cache(maxsize=32)
def _phi_table(N: int) -> np.ndarray:
    """Read-only phi_N on the integers of [-L, L], L = max(2N, 1), from the
    float formula. Both ends are 0, as is every integer beyond them."""
    L = max(2 * N, 1)
    table = phi_dyadic(N, np.arange(-L, L + 1, dtype=np.float64))
    table.flags.writeable = False
    return table


def phi_dyadic(N: int, k) -> np.ndarray:
    """phi_N(k): the block at dyadic N >= 1; the N = 0 block is chi(2k) = 1_{k=0}.

    Signed-integer k (for N <= PHI_TABLE_MAX_N) is read from a cached table
    of the float formula's values, so the result is the same to the bit.
    """
    if N != 0 and (N < 1 or (N & (N - 1)) != 0):
        raise ValueError(f"N must be 0 or a dyadic integer, got {N}")
    k = np.asarray(k)
    if k.dtype.kind == "i" and N <= PHI_TABLE_MAX_N:
        table = _phi_table(N)
        L = table.size // 2
        return table.take(k + L, mode="clip")
    if N == 0:
        return chi(2.0 * np.asarray(k, dtype=np.float64))
    return phi(np.asarray(k, dtype=np.float64) / N)


def dyadic_blocks(k_max: int) -> list[int]:
    """All dyadic block indices {0, 1, 2, 4, ...} whose support meets |k| <= k_max."""
    blocks = [0]
    N = 1
    while N <= 2 * k_max:
        blocks.append(N)
        N *= 2
    return blocks


def project_dyadic(field: FourierField, N: int) -> FourierField:
    """P_N: multiply coefficients by phi_N."""
    return field.multiplied(phi_dyadic(N, field.modes))


def project_leq(field: FourierField, N: int) -> FourierField:
    """Smooth low-pass P_{<=N}: multiplier chi(k/N)."""
    if N <= 0:
        raise ValueError("N must be positive")
    return field.multiplied(chi(field.modes / N))


def riesz_potential(field: FourierField, s: float) -> FourierField:
    """|d/dx|^s: multiplier |k|^s.

    The zero mode is always dropped (|0|^s = 0 for s > 0; for s <= 0 the symbol
    is singular there, so mode 0 is zeroed by convention). For s < 0 a mean
    above 1e-13 is an error rather than silently discarded mass.
    """
    ks = field.modes.astype(np.float64)
    if s < 0 and abs(field.mean()) > 1e-13:
        raise ValueError("riesz_potential with s < 0 needs a mean-free field")
    mult = np.zeros_like(ks)
    nz = ks != 0
    mult[nz] = np.abs(ks[nz]) ** s
    return field.multiplied(mult)


def sobolev_norm(field: FourierField, s: float) -> float:
    """H^s norm: (sum <k>^{2s} |u_hat(k)|^2)^{1/2} with <k>^2 = 1 + k^2."""
    ks = field.modes.astype(np.float64)
    w = (1.0 + ks ** 2) ** s
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2)))


def space_time_norm(snapshots: Sequence[FourierField], times: Sequence[float],
                    p: float, q: float) -> float:
    """Mixed norm ||u||_{L^p_t L^q_x}, p and q finite, along a sampled trajectory.

    The space norm is a uniform-grid quadrature on 4K+1 points, enough to
    oversample the cubic range; the time norm is composite trapezoid.
    """
    if not (np.isfinite(p) and np.isfinite(q)):
        raise ValueError("p and q must be finite")
    snapshots = list(snapshots)
    times = np.asarray(times, dtype=np.float64)
    if len(snapshots) != times.size:
        raise ValueError("snapshot/time count mismatch")
    if len(snapshots) == 0:
        raise ValueError("empty trajectory")
    n_points = 4 * snapshots[0].max_mode + 1
    slices = np.array([np.mean(np.abs(synthesize(f, n_points)) ** q) ** (1.0 / q)
                       for f in snapshots])
    if times.size == 1:
        raise ValueError("time integration needs at least two samples")
    return float(np.trapezoid(slices ** p, times) ** (1.0 / p))


def xsb_norm_diagnostic(snapshots: Sequence[FourierField], times: Sequence[float],
                        s: float, b: float) -> float:
    """Windowed discrete X^{s,b}-type seminorm of a sampled trajectory.

    This is a diagnostic approximation, not the restriction norm: the
    trajectory is multiplied by a raised-cosine window on [t0, t1], the
    linear phase is removed by passing to v_hat(t,k) = e^{-i(2pi)^3 k^3 t}
    u_hat(t,k) (an exact change of variables for the modulation weight,
    and the well-sampled formulation), and the weight <tau>^{2b} <k>^{2s}
    is applied to the discrete time transform of the windowed v.

    The window is normalized so that dt * sum w^2 = T exactly; with b = 0 a
    free evolution then returns sqrt(T) * ||u0||_{H^s} up to roundoff.
    """
    snapshots = list(snapshots)
    times = np.asarray(times, dtype=np.float64)
    if len(snapshots) != times.size:
        raise ValueError("snapshot/time count mismatch")
    if times.size < 4:
        raise ValueError("need at least 4 time samples")
    steps = np.diff(times)
    dt = steps[0]
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time samples must be uniformly spaced")
    K = snapshots[0].max_mode
    # Drop the final sample: J intervals, J samples, periodic DFT layout.
    J = times.size - 1
    T = J * dt
    tt = times[:J] - times[0]
    window = np.sin(np.pi * tt / T) ** 2
    norm2 = dt * np.sum(window ** 2)
    if norm2 > 0:
        window = window * np.sqrt(T / norm2)

    ks = np.arange(-K, K + 1)
    traj = np.stack([f.coeffs for f in snapshots[:J]], axis=0)  # (J, 2K+1)
    twist = np.exp(-1j * (2 * np.pi) ** 3 * np.outer(tt, ks.astype(np.float64) ** 3))
    windowed = traj * twist * window[:, None]

    # F_t approx dt * DFT; quadrature weight dtau = 1/(J*dt).
    spec = _fft.fft(windowed, axis=0) * dt
    tau = np.fft.fftfreq(J, d=dt)
    wt_tau = (1.0 + tau ** 2) ** b
    wt_k = (1.0 + ks.astype(np.float64) ** 2) ** s
    total = np.sum(wt_k[None, :] * wt_tau[:, None] * np.abs(spec) ** 2) / (J * dt)
    return float(np.sqrt(total))
