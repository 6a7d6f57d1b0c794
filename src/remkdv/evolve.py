"""Pseudospectral solver with two time integrators, picked by name through
ModelConfig.integrator (see INTEGRATORS):

* "ifrk4": fourth-order Runge-Kutta with an integrating factor for the
  third-derivative term, on the modes k >= 0 of the real field, with the
  exact Galerkin cubic from one rfft pair on a padded grid. It samples each
  cubic phase exp(i (2 pi)^3 Omega3 t) at three points per step, so it is
  accurate only while dt (2 pi)^3 |Omega3| stays small on every triple.
* "exact-phase": a first-order exponential step that integrates every cubic
  phase exactly over the step (the resonance-based approach of
  Hofmanova-Schratz and Ning-Wu-Zhao). The resonant diagonal is a pure
  rotation and is applied exactly; each nondegenerate triple is advanced
  with the weight (exp(i (2 pi)^3 Omega3 dt) - 1) / (i (2 pi)^3 Omega3) on
  frozen amplitudes. The first Duhamel iterate is thus exact however fast
  the phases turn; the error sits in the quintic (second iterate) terms and
  falls as dt once the step resolves the phases that carry them.

The evolved equation, in the renormalized form, is

    u_t + u_xxx + sign * d/dx (u^3 - 3 P0(u^2) u) = 0,

with P0(u^2) the spatial mean of u^2 (conserved). The plain form drops the
mean-correction. Both conserve the L2 norm exactly at the Galerkin level, so
L2 drift is a direct measure of time-stepping error.

Inside a run a real field is its modes k = 0..K, a (..., K+1) row; the
centered 2K+1 coefficients of a FourierField appear only where the run starts
and samples. The renormalized cubic takes P0(u^2) as the grid mean of the u^2
it forms (_Cube); every other P0(u^2) here is _mass_half of the modes k >= 0.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import _fft
from .fields import FourierField, deriv_multiplier

__all__ = [
    "INTEGRATORS",
    "ModelConfig",
    "SimulationState",
    "SimulationResult",
    "BlowUpError",
    "cubic_coefficients",
    "rhs_split",
    "rhs",
    "step",
    "simulate",
    "gauge_forward",
    "gauge_backward",
]


@dataclass(frozen=True)
class ModelConfig:
    max_mode: int
    dt: float
    t_final: float
    sign: int = 1
    renormalized: bool = True
    integrator: str = "ifrk4"

    def __post_init__(self):
        # the types first: a bool is no number here, and "no" is no flag
        ints, reals = (int, np.integer), (int, float, np.integer, np.floating)
        for key, kinds in (("max_mode", ints), ("dt", reals), ("t_final", reals),
                           ("sign", ints), ("renormalized", bool), ("integrator", str)):
            val = getattr(self, key)
            if not isinstance(val, kinds) or (isinstance(val, bool) and kinds is not bool):
                raise ValueError(f"{key} must not be of type {type(val).__name__}")
        if self.max_mode < 1:
            raise ValueError("max_mode must be at least 1")
        # written so that NaN fails too; an infinite dt or t_final has no step count
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_final < math.inf:
            raise ValueError("t_final must be nonnegative and finite")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        name = self.integrator.lower()
        if name not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; "
                             f"known: {', '.join(sorted(INTEGRATORS))}")

    @property
    def n_steps(self) -> int:
        """Steps of size dt to t_final; ValueError unless dt divides t_final."""
        n = round(self.t_final / self.dt)
        if abs(n * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError("t_final must be an integer multiple of dt")
        return n


@dataclass
class SimulationState:
    t: float
    field: FourierField
    alpha_accum: float = 0.0  # integral of P0(u^2) dt so far (gauge bookkeeping)


@dataclass
class SimulationResult:
    final: SimulationState
    times: np.ndarray
    snapshots: list[SimulationState] = dc_field(default_factory=list)


class BlowUpError(RuntimeError):
    """Raised when the state stops being finite; carries the last good state."""

    def __init__(self, message: str, last_good: SimulationState):
        super().__init__(message)
        self.last_good = last_good


@lru_cache(maxsize=32)
def _kernel_plan(max_mode: int):
    """Real grid length of the exact Galerkin cubic, and d/dx on the modes 0..K."""
    n = _fft.next_fast_len(4 * max_mode + 1, real=True)
    return n, deriv_multiplier(np.arange(max_mode + 1))


# The IFRK4 kernel below acts on the last axis of (..., K+1) rows, so one
# irfft/rfft pair per stage steps a stack of independent fields, each row bit
# for bit as if it were stepped alone.

class _Cube:
    """The exact Galerkin cubic of the (..., K+1) stacks of one shape on
    n >= 4K+1 grid points (u^3 has modes up to 3K, and 4K+1 >= 3K + K + 1
    leaves no wraparound in the retained band). A call cubes the fields whose
    modes 0..K are in the view src of the padded half-spectrum and leaves
    the cube's modes 0..K in the view out, valid until the next call."""

    def __init__(self, shape: tuple, n: int):
        half, grid = shape[:-1] + (n // 2 + 1,), shape[:-1] + (n,)
        self.n, self.pad, self.spec = n, np.zeros(half, complex), np.empty(half, complex)
        self.vals, self.sq = np.empty(grid), np.empty(grid)
        self.src, self.out = self.pad[..., :shape[-1]], self.spec[..., :shape[-1]]

    def __call__(self, renormalized: bool) -> np.ndarray:
        """u^3, or u (u^2 - 3 P0(u^2)) with P0(u^2) the grid mean of u^2
        (exact by Parseval, n > 2K), reduced along each row."""
        v, sq = _fft.irfft(self.pad, self.n, norm="forward", out=self.vals), self.sq
        np.multiply(v, v, out=sq)
        if renormalized:
            sq -= (3.0 / self.n) * np.add.reduce(sq, axis=-1, keepdims=True)
        v *= sq
        _fft.rfft(v, norm="forward", out=self.spec)
        return self.out


@lru_cache(maxsize=8)   # a scan uses one or two shapes at a time
def _cube_work(shape: tuple, n: int, thread: int) -> _Cube:
    """The _Cube of (shape, n) of the thread threading.get_ident(), kept so
    that the kernel stays reentrant and a one-row K = 2048 stage does not
    fault in its ~280 KB of work arrays afresh."""
    return _Cube(shape, n)


def _cube_half(h: np.ndarray, n: int, renormalized: bool = False) -> np.ndarray:
    """Modes 0..K of u^3 [- 3 P0(u^2) u], u real with modes 0..K = h, on
    n >= 4K+1 grid points (see _Cube). The result is a new array."""
    cube = _cube_work(h.shape, n, threading.get_ident())
    cube.src[...] = h
    return cube(renormalized).copy()


def _mirror(h: np.ndarray) -> np.ndarray:
    """The centered 2K+1 coefficients of the real field with modes 0..K = h."""
    return np.concatenate((np.conj(h[..., :0:-1]), h), axis=-1)


def _pin_mean(out: np.ndarray, h: np.ndarray) -> np.ndarray:
    """How every step ends: the new rows out with their (exactly conserved)
    mean set back to that of the rows h, in place."""
    out[..., 0] = h[..., 0]
    return out


def _mass_half(h: np.ndarray):
    """P0(u^2) = 2 sum_{k>=0} |h_k|^2 - |h_0|^2 of each row h of modes 0..K,
    summed along the last axis: a row rounds the same in any stack."""
    return 2.0 * np.vecdot(h, h).real - np.abs(h[..., 0]) ** 2


def cubic_coefficients(u: FourierField) -> FourierField:
    """Coefficients of u^3 on [-K, K] for a real u (ValueError otherwise)."""
    u.require_real()  # the half-spectrum kernel has no room for a complex field
    n = _kernel_plan(u.max_mode)[0]
    return FourierField(_mirror(_cube_half(u.coeffs[u.max_mode:], n)), copy=False)


def rhs_split(u: FourierField) -> tuple[FourierField, FourierField]:
    """The transport tendency d/dx(u^3 - 3 P0(u^2) u) split as A + B.

    B collects the exactly-resonant diagonal, -3 d/dx(|u^(k)|^2 u^(k)) per
    mode; A is everything else (the nonresonant triples). The split is the
    starting point of every cancellation test: B's pairing against u is
    purely imaginary, and A's phases rotate at the cubic resonance rate.
    u must be real (ValueError otherwise).
    """
    cub = cubic_coefficients(u)
    d = deriv_multiplier(u.modes)
    diag = np.abs(u.coeffs) ** 2 * u.coeffs
    a = d * (cub.coeffs - 3.0 * _mass_half(u.coeffs[u.max_mode:]) * u.coeffs + 3.0 * diag)
    b = d * (-3.0 * diag)
    return FourierField(a, copy=False), FourierField(b, copy=False)


def rhs(u: FourierField, config: ModelConfig) -> FourierField:
    """Full tendency u_t = -u_xxx - sign * d/dx(u^3 [- 3 P0(u^2) u]) of a real u."""
    u.require_real()
    n, d = _kernel_plan(config.max_mode)
    h = u.coeffs[u.max_mode:]
    cub = _cube_half(h, n, config.renormalized)
    return FourierField(_mirror(-(d ** 3) * h + (-config.sign * d) * cub), copy=False)


@lru_cache(maxsize=32)
def _step_plan(max_mode: int, dt: float, sign: int):
    # |E| = 1: the dispersion symbol -(2 pi i k)^3 = 8i pi^3 k^3 is a phase.
    # With c1..c4 the stage cubes and sd = -sign d/dx, the stage inputs are
    # h, E h + (dt/2) E sd c1, E h + (dt/2) sd c2 and E^2 h + dt E sd c3, and
    # the step is E^2 h + (dt/6) sd (E^2 c1 + 2 E (c2 + c3) + c4)
    d = deriv_multiplier(np.arange(max_mode + 1))
    E, sd = np.exp(0.5 * dt * -(d ** 3)), -sign * d
    return (E, E * E, 0.5 * dt * E * sd, 0.5 * dt * sd, dt * E * sd,
            (dt / 6.0) * E * E * sd, (dt / 3.0) * E * sd, (dt / 6.0) * sd)


def _ifrk4_coeffs(h: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    E, E2, w2, w3, w4, a1, a23, a4 = _step_plan(cfg.max_mode, cfg.dt, cfg.sign)
    cube = _cube_work(h.shape, _kernel_plan(cfg.max_mode)[0], threading.get_ident())
    eh, e2h = E * h, E2 * h
    cube.src[...] = h
    c = cube(cfg.renormalized)
    acc = a1 * c
    for base, w_in, w_acc in ((eh, w2, a23), (eh, w3, a23), (e2h, w4, a4)):
        np.multiply(w_in, c, out=cube.src)   # consumes c before the next call
        cube.src += base
        c = cube(cfg.renormalized)
        acc += w_acc * c
    acc += e2h
    return _pin_mean(acc, h)


# ---------------------------------------------------------- exact phase
#
# With lambda_k = (2 pi)^3 k^3, the Fourier ODE is
#     u_k' = i lambda_k u_k + i mu_k u_k - sign 2 pi i k N_k(u),
# where mu_k = 6 pi sign k (|u_k|^2 - (1 - renormalized) P0(u^2)) is the
# resonant diagonal and N_k the sum over nondegenerate triples. Frozen
# amplitudes give the step
#     v_k = e^{i lambda_k dt} u_k - (sign k / (2 pi)^2) (Q_k(Eu) - E_k Q_k(u)),
# with Q_k(g) = sum_nondegenerate g1 g2 g3 / Omega3 and E u the linear flow,
# followed by the exact rotation exp(i mu_k(v) dt).
#
# Q is the expensive part. Omega3 = -3 (k-k1)(k-k2)(k-k3) and the three
# factors sum to 2k, so 1/Omega3 = -(1/6k) sum over pairs 1/((k-ki)(k-kj)),
# and Q_k = -D_k / (2k) with
#     D_k = sum g_a g_b g_(k-a-b) r(k-a) r(k-b),    r(n) = 1/n, r(0) = 0,
# minus the triples with a + b = 0 (those have k-k3 = 0). The Cauchy
# factor r(k-a) is smooth in k once a is far from k. Outputs are taken in
# blocks of L modes; a block's near zone is itself plus one block on each
# side. Pairs with both a, b outside it are interpolated in k at Chebyshev
# nodes (one padded FFT product per node), pairs with one of them inside
# use the node functions once more through a short convolution, and pairs
# with both inside are summed exactly with one short FFT per output.

CHEB_NODES = 18  # far poles at >= 3 block half-widths: 5.83^-18 ~ 1e-14
NEAR_ROWS = 32   # outputs per near-field FFT batch


def _cauchy(n) -> np.ndarray:
    n = np.asarray(n, dtype=np.float64)
    out = np.zeros(n.shape)
    nz = n != 0
    out[nz] = 1.0 / n[nz]
    return out


def _default_block(max_mode: int) -> int:
    """Output block of the exact-phase kernel: a power of two near
    sqrt(32 K), which balances the per-node and per-output FFT work."""
    return 1 << max(0, round(np.log2(32 * max_mode) / 2))


@lru_cache(maxsize=8)
def _cube_plan(max_mode: int, block: int):
    L = block
    A = L                        # near-zone margin on each side of a block
    W = L + 2 * A
    if L <= CHEB_NODES:          # small blocks: the nodes are the outputs
        nodes, lam = np.arange(L, dtype=np.float64), np.eye(L)
    else:
        h = (L - 1) / 2.0
        th = (2 * np.arange(CHEB_NODES) + 1) * np.pi / (2 * CHEB_NODES)
        nodes = h + h * np.cos(th)
        w = (-1.0) ** np.arange(CHEB_NODES) * np.sin(th)
        t = w / (np.arange(L)[:, None] - nodes[None, :])
        lam = t / t.sum(axis=1, keepdims=True)   # barycentric Lagrange basis
    nv = np.arange(-(L - 1 + A), L + A)
    m1 = _fft.next_fast_len(2 * (L + A) - 1)
    m2 = _fft.next_fast_len(2 * W + L - 2)
    shift = (2 * W - 2 + np.arange(L))[:, None] * np.arange(m2)[None, :] % m2
    tw = np.exp(2j * np.pi * shift / m2) / m2
    rnn = _cauchy(np.arange(L)[:, None] - np.arange(W)[None, :] + A)
    rn = _cauchy(nv)
    m3 = _fft.next_fast_len(8 * max_mode + 1)
    rhat = _fft.fft(_cauchy(np.arange(-2 * max_mode, 2 * max_mode + 1)), m3)
    for arr in (nodes, lam, nv, tw, rnn, rn, rhat):
        arr.setflags(write=False)
    return A, W, nodes, lam, nv, rn, m1, m2, tw, rnn, m3, rhat


def _inverse_resonance_cube(h: np.ndarray, block: int | None = None) -> np.ndarray:
    """Q_k = sum over nondegenerate triples k1+k2+k3 = k of
    g1 g2 g3 / Omega3(k1, k2, k3) for k = 0..K, g the real field with modes
    0..K = h, for every row of the (m, K+1) array h. Entry k = 0 is left at
    zero: every use multiplies it by d/dx. Exact up to the Chebyshev
    interpolation of the far field (relative error near 1e-15); block=None
    picks _default_block."""
    g = _mirror(np.atleast_2d(np.asarray(h, dtype=np.complex128)))
    m, n2 = g.shape
    K = n2 // 2
    L = _default_block(K) if block is None else block
    A, W, nodes, lam, nv, rn, m1, m2, tw, rnn, m3, rhat = _cube_plan(K, L)
    N = 4 * K
    a = np.arange(-K, K + 1)
    spec = np.zeros((m, N), dtype=np.complex128)
    spec[:, :K + 1] = g[:, K:]
    spec[:, N - K:] = g[:, :K]
    gx = _fft.ifft(spec, axis=-1, norm="forward")
    pad = 2 * W + L
    gp = np.zeros((m, n2 + 2 * pad), dtype=np.complex128)
    gp[:, pad:pad + n2] = g
    off = pad + K                # gp[:, off + j] holds mode j
    D = np.zeros((m, K + 1), dtype=np.complex128)
    buf = np.zeros((m, len(nodes), N), dtype=np.complex128)
    zbuf = np.zeros((m, min(L, NEAR_ROWS), m2), dtype=np.complex128)
    for k0 in range(1, K + 1, L):
        kk = k0 + np.arange(L)
        a0 = k0 - A
        lo, hi = max(a0, -K), min(a0 + W - 1, K)
        blk = np.zeros((m, L), dtype=np.complex128)
        if lo > -K or hi < K:
            # far field: node functions phi_q(a) = g_a r(kappa_q - a)
            with np.errstate(divide="ignore"):
                R = 1.0 / ((k0 + nodes)[:, None] - a[None, :])
            R[:, lo + K:hi + K + 1] = 0.0
            np.multiply(g[:, None, K:], R[None, :, K:], out=buf[..., :K + 1])
            np.multiply(g[:, None, :K], R[None, :, :K], out=buf[..., N - K:])
            Y = _fft.ifft(buf, axis=-1, norm="forward")
            prod = Y * gx[:, None, :]
            V = _fft.fft(prod, axis=-1, norm="forward")
            prod *= Y
            F = _fft.fft(prod, axis=-1, norm="forward", out=prod)
            ff = F[..., kk % N]
            if kk[-1] >= K:      # the 4K grid folds a = b = c = -K onto k = K
                ff[..., K - k0] -= buf[..., N - K] ** 2 * g[:, None, 0]
            blk += np.einsum("kq,mqk->mk", lam, ff)
            # one factor near, one far: sum_a g_a r(k-a) V_q(k-a) over the zone
            wv = V[..., nv % N] * rn
            gn = gp[:, off + a0:off + a0 + W]
            cv = _fft.fft(gn, m1, axis=-1)[:, None, :] * _fft.fft(wv, m1, axis=-1)
            _fft.ifft(cv, axis=-1, out=cv)
            blk += 2.0 * np.einsum("kq,mqk->mk", lam,
                                   cv[..., L - 1 + 2 * A:2 * L - 1 + 2 * A])
        # both factors near: one short FFT self-convolution per output, in
        # row chunks that stay in cache
        clo = k0 - 2 * a0 - (2 * W - 2)
        gw = _fft.fft(gp[:, off + clo:off + clo + 2 * W + L - 2], m2, axis=-1)
        for j0 in range(0, L, NEAR_ROWS):
            j1 = min(j0 + NEAR_ROWS, L)
            zb = zbuf[:, :j1 - j0]
            np.multiply(gp[:, None, off + a0:off + a0 + W], rnn[None, j0:j1],
                        out=zb[..., :W])
            Z = _fft.fft(zb, axis=-1)
            Z *= Z
            Z *= gw[:, None, :]
            blk[:, j0:j1] += np.einsum("mjx,jx->mj", Z, tw[j0:j1])
        ok = kk <= K
        D[:, kk[ok]] = blk[:, ok]
    # remove a + b = 0: g_k sum_a g_a g_-a / (k^2 - a^2) over a != +-k
    q = g * g[:, ::-1]
    hq = _fft.ifft(_fft.fft(q, m3, axis=-1) * rhat, axis=-1)
    ks = np.arange(1, K + 1)
    D[:, 1:] -= g[:, K + 1:] / ks * (hq[:, ks + 3 * K] - q[:, K + 1:] / (2 * ks))
    Q = np.zeros_like(D)
    Q[:, 1:] = -D[:, 1:] / (2 * ks)
    return Q


@lru_cache(maxsize=32)
def _phase_plan(max_mode: int, dt: float):
    ks = np.arange(max_mode + 1)
    E = np.exp(1j * (2.0 * np.pi) ** 3 * dt * ks.astype(np.float64) ** 3)
    E.setflags(write=False)
    return ks, E


def _exact_phase_coeffs(h: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    ks, E = _phase_plan(cfg.max_mode, cfg.dt)
    rows = h.reshape(-1, h.shape[-1])
    m = len(rows)
    lin = E * rows
    Q = _inverse_resonance_cube(np.concatenate((lin, rows)))
    v = lin - (cfg.sign * ks / (2.0 * np.pi) ** 2) * (Q[:m] - E * Q[m:])
    amp = np.abs(v) ** 2
    offset = 0.0 if cfg.renormalized else _mass_half(v)[..., None]
    out = np.exp(6j * np.pi * cfg.sign * cfg.dt * ks * (amp - offset)) * v
    return _pin_mean(out, rows).reshape(h.shape)


# name -> one step (h, config) -> new h, on the modes 0..K of real fields.
# Both end through _pin_mean and act on the last axis, so a (..., K+1) stack
# steps each row bit for bit as alone
INTEGRATORS = {
    "ifrk4": _ifrk4_coeffs,
    "exact-phase": _exact_phase_coeffs,
}

# what _step_rows reports per row: nothing, or which quantity stopped being
# finite in the step
_FAULTS = (None, "state", "mass")


def _step_rows(h: np.ndarray, alpha, config: ModelConfig, mass=None):
    """One step of config.integrator on the (..., K+1) stack h of modes
    0..K, whose rows carry the integrals alpha of P0(u^2) dt so far and, if
    the caller kept them from the last step, the masses mass (else they are
    computed).

    Returns (h, mass, alpha, fault) after the step. fault is None when every
    row is good, else per row an index into _FAULTS: 0 on a good row, 1 on
    one whose coefficients stopped being finite, 2 on one whose coefficients
    are finite but whose mass is not. A bad row's entries are not
    meaningful; the other rows are unaffected."""
    # the finite checks are the contract, not numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if mass is None:
            mass = _mass_half(h)
        out = INTEGRATORS[config.integrator.lower()](h, config)
        new_mass = _mass_half(out)
        alpha = alpha + 0.5 * config.dt * (mass + new_mass)
    # from a good row, alpha stays finite exactly when the new coefficients
    # and their mass do (a finite state whose mass overflows gives inf)
    good = np.isfinite(alpha)
    if good.all():
        return out, new_mass, alpha, None
    fault = np.where(good, 0, np.where(np.isfinite(out).all(axis=-1), 2, 1))
    return out, new_mass, alpha, fault


def _blowup(fault: int, last_good: SimulationState) -> BlowUpError:
    return BlowUpError(f"{_FAULTS[fault]} became non-finite at t={last_good.t:.6g}",
                       last_good)


def _stack_real(fields: list[FourierField], config: ModelConfig) -> np.ndarray:
    """The (m, 2K+1) stack of the fields' coefficients, each field checked
    to be real and of config's max_mode (ValueError otherwise)."""
    for u in fields:
        u.require_real()
        if u.max_mode != config.max_mode:
            raise ValueError("initial data max_mode differs from config")
    return np.array([u.coeffs for u in fields])


def step(state: SimulationState, config: ModelConfig) -> SimulationState:
    """One step of config.integrator from a real state. Raises BlowUpError
    if the result or its mass is not finite."""
    h = _stack_real([state.field], config)[0, config.max_mode:]
    h, _, alpha, fault = _step_rows(h, state.alpha_accum, config)
    if fault is not None:
        raise _blowup(int(fault), state)
    u = FourierField(_mirror(h), copy=False)
    return SimulationState(state.t + config.dt, u, float(alpha))


def _run(fields: list[FourierField], config: ModelConfig, sample_every: int | None):
    """Run the real fields together as one (m, K+1) stack of their modes
    0..K, each row bit for bit the chain of `step` calls from its field, and
    yield (t, c, alpha) at t = 0 (c the fields' coefficients as given), every
    sample_every-th step (none if None) and the last, c the (m, 2K+1) rows.
    A yielded c is never written again.

    A row that blows up is dropped together with the rows listed after it;
    the run raises BlowUpError for the first listed row that blows up, at
    its own time, with its last finite state and alpha_accum."""
    c = _stack_real(fields, config)
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    n = config.n_steps
    t, alpha, mass, failed = 0.0, np.zeros(len(c)), None, None
    yield t, c, alpha
    h = c[:, config.max_mode:]
    for i in range(1, n + 1):
        nxt, mass, alpha_nxt, fault = _step_rows(h, alpha, config, mass)
        if fault is not None:
            j = int(np.flatnonzero(fault)[0])
            # the start row as given: a mirror turns its imaginary +0.0 into -0.0
            last = c[j] if i == 1 else _mirror(h[j])
            failed = _blowup(int(fault[j]), SimulationState(
                t, FourierField(last, copy=True), float(alpha[j])))
            if j == 0:
                raise failed
            # rows after j no longer matter: an earlier row may still fail
            nxt, mass, alpha_nxt = nxt[:j], mass[:j], alpha_nxt[:j]
        h, alpha, t = nxt, alpha_nxt, t + config.dt
        if i == n or (sample_every is not None and i % sample_every == 0):
            yield t, _mirror(h), alpha
    if failed is not None:
        raise failed


def simulate(u0: FourierField, config: ModelConfig,
             sample_every: int | None = None) -> SimulationResult:
    """Run from t=0 to t_final. sample_every=m keeps every m-th state
    (plus the initial and final ones); None keeps only the endpoints."""
    snaps = [SimulationState(t, FourierField(c[0], copy=False), float(alpha[0]))
             for t, c, alpha in _run([u0], config, sample_every)]
    return SimulationResult(final=snaps[-1], times=np.array([s.t for s in snaps]),
                            snapshots=snaps)


def _gauge_shift(state: SimulationState, config: ModelConfig, direction: int) -> SimulationState:
    # Translation x -> x + alpha with alpha = 3 * sign * integral of P0(u^2):
    # the renormalized flow differs from the plain one by exactly this drift.
    alpha = 3.0 * config.sign * state.alpha_accum
    K = state.field.max_mode
    phase = np.exp(direction * 2j * np.pi * np.arange(-K, K + 1) * alpha)
    return SimulationState(state.t, state.field.multiplied(phase), state.alpha_accum)


def gauge_forward(state: SimulationState, config: ModelConfig) -> SimulationState:
    """Map a plain-equation state into the renormalized frame."""
    return _gauge_shift(state, config, +1)


def gauge_backward(state: SimulationState, config: ModelConfig) -> SimulationState:
    """Inverse of gauge_forward (exact round trip)."""
    return _gauge_shift(state, config, -1)
