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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np
import scipy.fft

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
    dealias: bool = True
    integrator: str = "ifrk4"

    def __post_init__(self):
        # the types first: a bool is no number here, and "no" is no flag
        ints, reals = (int, np.integer), (int, float, np.integer, np.floating)
        for key, kinds in (("max_mode", ints), ("dt", reals), ("t_final", reals),
                           ("sign", ints), ("renormalized", bool), ("dealias", bool),
                           ("integrator", str)):
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
        if name == "exact-phase" and not self.dealias:
            raise ValueError("the exact-phase integrator sums the triples "
                             "exactly; dealias=False has no meaning for it")

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
def _kernel_plan(max_mode: int, dealias: bool):
    """Real grid length of the cubic, and d/dx on the modes 0..K."""
    n = scipy.fft.next_fast_len(4 * max_mode + 1, real=True) if dealias else 2 * max_mode + 1
    return n, deriv_multiplier(np.arange(max_mode + 1))


def _pocketfft():
    """scipy.fft's own pocketfft extension, if this scipy has it in the form
    checked here, else None.

    The cubic calls its r2c/c2r directly: the same transforms, bit for bit,
    without scipy.fft's per-call Python layer (backend dispatch, argument
    conversion, zero padding), which at K = 256 costs about as much as the
    transforms themselves. The module is private, so it is probed once on a
    small input against the public functions; on any mismatch or error the
    cubic uses scipy.fft.irfft/rfft instead."""
    try:
        from scipy.fft._pocketfft import pypocketfft as pf
        x = np.array([0.5, -2.0, 1.25, 3.0, -0.75])
        h = scipy.fft.rfft(x, norm="forward")
        if (np.array_equal(pf.r2c(x, (-1,), True, 2, None, 1), h)
                and np.array_equal(pf.c2r(h, (-1,), 5, False, 0, None, 1),
                                   scipy.fft.irfft(h, 5, norm="forward"))):
            return pf
    except Exception:
        pass
    return None


_PF = _pocketfft()


# The IFRK4 kernel below acts on the last axis: h is (..., K+1) and c is
# (..., 2K+1), so one irfft/rfft pair per stage steps a stack of independent
# fields, each row bit for bit as if it were stepped alone.

def _cube_half(h: np.ndarray, n: int) -> np.ndarray:
    """Modes 0..K of u^3, u real with modes 0..K = h, on n grid points. With
    n >= 4K+1 the pointwise cube is the exact Galerkin truncation (u^3 has
    modes up to 3K, and 4K+1 >= 3K + K + 1 leaves no wraparound in the
    retained band); n = 2K+1 aliases."""
    m = h.shape[-1]
    if _PF is None:
        vals = scipy.fft.irfft(h, n, norm="forward")
    else:  # what irfft(h, n, norm="forward") does after its argument checks
        pad = np.zeros(h.shape[:-1] + (n // 2 + 1,), complex)
        pad[..., :m] = h
        vals = _PF.c2r(pad, (-1,), n, False, 0, None, 1)
    vals *= vals * vals
    if _PF is None:
        return scipy.fft.rfft(vals, norm="forward")[..., :m]
    return _PF.r2c(vals, (-1,), True, 2, None, 1)[..., :m]


def _mirror(h: np.ndarray) -> np.ndarray:
    """The centered 2K+1 coefficients of the real field with modes 0..K = h."""
    return np.concatenate((np.conj(h[..., :0:-1]), h), axis=-1)


def _mass_half(h: np.ndarray):
    """P0(u^2) = |h_0|^2 + 2 sum_{k>0} |h_k|^2 of each row, shaped to
    broadcast against h. Each row goes through np.vdot, as a single field
    does, so that a stacked row matches its single-field step bit for bit
    (einsum's reduction rounds differently)."""
    if h.ndim == 1:
        return 2.0 * np.vdot(h, h).real - abs(h[0]) ** 2
    rows = h.reshape(-1, h.shape[-1])
    p0 = [2.0 * np.vdot(r, r).real - abs(r[0]) ** 2 for r in rows]
    return np.array(p0).reshape(h.shape[:-1] + (1,))


def _transport(h: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Modes 0..K of -sign d/dx(u^3 [- 3 P0(u^2) u]), u real with modes h."""
    n, d = _kernel_plan(cfg.max_mode, cfg.dealias)
    cub = _cube_half(h, n)
    if cfg.renormalized:
        cub -= 3.0 * _mass_half(h) * h
    return -cfg.sign * d * cub


def cubic_coefficients(u: FourierField, dealias: bool = True) -> FourierField:
    """Coefficients of u^3 on [-K, K] for a real u (ValueError otherwise)."""
    u.require_real()  # the half-spectrum kernel has no room for a complex field
    n = _kernel_plan(u.max_mode, dealias)[0]
    return FourierField(_mirror(_cube_half(u.coeffs[u.max_mode:], n)), copy=False)


def rhs_split(u: FourierField, dealias: bool = True) -> tuple[FourierField, FourierField]:
    """The transport tendency d/dx(u^3 - 3 P0(u^2) u) split as A + B.

    B collects the exactly-resonant diagonal, -3 d/dx(|u^(k)|^2 u^(k)) per
    mode; A is everything else (the nonresonant triples). The split is the
    starting point of every cancellation test: B's pairing against u is
    purely imaginary, and A's phases rotate at the cubic resonance rate.
    u must be real (ValueError otherwise).
    """
    cub = cubic_coefficients(u, dealias)
    d = deriv_multiplier(u.modes)
    diag = np.abs(u.coeffs) ** 2 * u.coeffs
    a = d * (cub.coeffs - 3.0 * u.mass() * u.coeffs + 3.0 * diag)
    b = d * (-3.0 * diag)
    return FourierField(a, copy=False), FourierField(b, copy=False)


def rhs(u: FourierField, config: ModelConfig) -> FourierField:
    """Full tendency u_t = -u_xxx - sign * d/dx(u^3 [- 3 P0(u^2) u]) of a real u."""
    u.require_real()
    d = _kernel_plan(config.max_mode, config.dealias)[1]
    h = u.coeffs[u.max_mode:]
    return FourierField(_mirror(-(d ** 3) * h + _transport(h, config)), copy=False)


@lru_cache(maxsize=32)
def _step_plan(max_mode: int, dt: float):
    # |E| = 1: the dispersion symbol -(2 pi i k)^3 = 8i pi^3 k^3 is a phase
    E = np.exp(0.5 * dt * -(deriv_multiplier(np.arange(max_mode + 1)) ** 3))
    return E, E * E


def _ifrk4_coeffs(c: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    # all four stages on modes 0..K; mirrored once, with the mean pinned
    E, E2 = _step_plan(cfg.max_mode, cfg.dt)
    K, dt = cfg.max_mode, cfg.dt
    h = c[..., K:]
    k1 = _transport(h, cfg)
    k2 = _transport(E * (h + 0.5 * dt * k1), cfg)
    k3 = _transport(E * h + 0.5 * dt * k2, cfg)
    k4 = _transport(E2 * h + dt * E * k3, cfg)
    out = _mirror(E2 * h + (dt / 6.0) * (E2 * k1 + 2.0 * E * (k2 + k3) + k4))
    out[..., K] = c[..., K]
    return out


def _resymmetrize(out: np.ndarray, c: np.ndarray, max_mode: int) -> np.ndarray:
    """Restore the Hermitian symmetry and pin the (exactly conserved) mean."""
    out = 0.5 * (out + np.conj(out[::-1]))
    out[max_mode] = c[max_mode]
    return out


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
    m1 = scipy.fft.next_fast_len(2 * (L + A) - 1)
    m2 = scipy.fft.next_fast_len(2 * W + L - 2)
    shift = (2 * W - 2 + np.arange(L))[:, None] * np.arange(m2)[None, :] % m2
    tw = np.exp(2j * np.pi * shift / m2) / m2
    rnn = _cauchy(np.arange(L)[:, None] - np.arange(W)[None, :] + A)
    rn = _cauchy(nv)
    m3 = scipy.fft.next_fast_len(8 * max_mode + 1)
    rhat = scipy.fft.fft(_cauchy(np.arange(-2 * max_mode, 2 * max_mode + 1)), m3)
    for arr in (nodes, lam, nv, tw, rnn, rn, rhat):
        arr.setflags(write=False)
    return A, W, nodes, lam, nv, rn, m1, m2, tw, rnn, m3, rhat


def _inverse_resonance_cube(g: np.ndarray, block: int | None = None) -> np.ndarray:
    """Q_k = sum over nondegenerate triples k1+k2+k3 = k of
    g1 g2 g3 / Omega3(k1, k2, k3), for every row of the (m, 2K+1) array g of
    Hermitian coefficient vectors. Entry k = 0 is left at zero: every use
    multiplies it by d/dx. Exact up to the Chebyshev interpolation of the
    far field (relative error near 1e-15); block=None picks _default_block."""
    g = np.atleast_2d(np.asarray(g, dtype=np.complex128))
    m, n2 = g.shape
    K = n2 // 2
    L = _default_block(K) if block is None else block
    A, W, nodes, lam, nv, rn, m1, m2, tw, rnn, m3, rhat = _cube_plan(K, L)
    N = 4 * K
    a = np.arange(-K, K + 1)
    spec = np.zeros((m, N), dtype=np.complex128)
    spec[:, :K + 1] = g[:, K:]
    spec[:, N - K:] = g[:, :K]
    gx = scipy.fft.ifft(spec, axis=-1, norm="forward")
    pad = 2 * W + L
    gp = np.zeros((m, n2 + 2 * pad), dtype=np.complex128)
    gp[:, pad:pad + n2] = g
    off = pad + K                # gp[:, off + j] holds mode j
    D = np.zeros((m, n2), dtype=np.complex128)
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
            Y = scipy.fft.ifft(buf, axis=-1, norm="forward")
            prod = Y * gx[:, None, :]
            V = scipy.fft.fft(prod, axis=-1, norm="forward")
            prod *= Y
            F = scipy.fft.fft(prod, axis=-1, norm="forward", overwrite_x=True)
            ff = F[..., kk % N]
            if kk[-1] >= K:      # the 4K grid folds a = b = c = -K onto k = K
                ff[..., K - k0] -= buf[..., N - K] ** 2 * g[:, None, 0]
            blk += np.einsum("kq,mqk->mk", lam, ff)
            # one factor near, one far: sum_a g_a r(k-a) V_q(k-a) over the zone
            wv = V[..., nv % N] * rn
            gn = gp[:, off + a0:off + a0 + W]
            cv = scipy.fft.ifft(scipy.fft.fft(gn, m1, axis=-1)[:, None, :]
                                * scipy.fft.fft(wv, m1, axis=-1),
                                axis=-1, overwrite_x=True)
            blk += 2.0 * np.einsum("kq,mqk->mk", lam,
                                   cv[..., L - 1 + 2 * A:2 * L - 1 + 2 * A])
        # both factors near: one short FFT self-convolution per output, in
        # row chunks that stay in cache
        clo = k0 - 2 * a0 - (2 * W - 2)
        gw = scipy.fft.fft(gp[:, off + clo:off + clo + 2 * W + L - 2], m2, axis=-1)
        for j0 in range(0, L, NEAR_ROWS):
            j1 = min(j0 + NEAR_ROWS, L)
            zb = zbuf[:, :j1 - j0]
            np.multiply(gp[:, None, off + a0:off + a0 + W], rnn[None, j0:j1],
                        out=zb[..., :W])
            Z = scipy.fft.fft(zb, axis=-1)
            Z *= Z
            Z *= gw[:, None, :]
            blk[:, j0:j1] += np.einsum("mjx,jx->mj", Z, tw[j0:j1])
        ok = kk <= K
        D[:, K + kk[ok]] = blk[:, ok]
    # remove a + b = 0: g_k sum_a g_a g_-a / (k^2 - a^2) over a != +-k
    q = g * g[:, ::-1]
    hq = scipy.fft.ifft(scipy.fft.fft(q, m3, axis=-1) * rhat, axis=-1)
    ks = np.arange(1, K + 1)
    D[:, K + 1:] -= g[:, K + 1:] / ks * (hq[:, ks + 3 * K] - q[:, K + 1:] / (2 * ks))
    Q = np.zeros_like(D)
    Q[:, K + 1:] = -D[:, K + 1:] / (2 * ks)
    Q[:, :K] = -np.conj(Q[:, :K:-1])   # Omega3 is odd under k -> -k
    return Q


@lru_cache(maxsize=32)
def _phase_plan(max_mode: int, dt: float):
    ks = np.arange(-max_mode, max_mode + 1)
    E = np.exp(1j * (2.0 * np.pi) ** 3 * dt * ks.astype(np.float64) ** 3)
    E.setflags(write=False)
    return ks, E


def _exact_phase_coeffs(c: np.ndarray, cfg: ModelConfig,
                        block: int | None = None) -> np.ndarray:
    ks, E = _phase_plan(cfg.max_mode, cfg.dt)
    lin = E * c
    Q = _inverse_resonance_cube(np.stack([lin, c]), block)
    v = lin - (cfg.sign * ks / (2.0 * np.pi) ** 2) * (Q[0] - E * Q[1])
    amp = np.abs(v) ** 2
    offset = 0.0 if cfg.renormalized else float(np.sum(amp))
    out = np.exp(6j * np.pi * cfg.sign * cfg.dt * ks * (amp - offset)) * v
    return _resymmetrize(out, c, cfg.max_mode)


# name -> one step (coefficients, config) -> new coefficients
INTEGRATORS = {
    "ifrk4": _ifrk4_coeffs,
    "exact-phase": _exact_phase_coeffs,
}


def step(state: SimulationState, config: ModelConfig) -> SimulationState:
    """One step of config.integrator. Raises BlowUpError if the result is
    not finite."""
    if state.field.max_mode != config.max_mode:
        raise ValueError("state and config max_mode differ")
    # the finite checks below are the contract, not numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        mass_old = state.field.mass()
        c = INTEGRATORS[config.integrator.lower()](state.field.coeffs, config)
        if not np.all(np.isfinite(c)):
            raise BlowUpError(f"state became non-finite at t={state.t:.6g}", state)
        nxt = FourierField(c, copy=False)
        alpha = state.alpha_accum + 0.5 * config.dt * (mass_old + nxt.mass())
    # a finite state whose mass overflows would carry alpha_accum = inf
    if not math.isfinite(alpha):
        raise BlowUpError(f"mass became non-finite at t={state.t:.6g}", state)
    return SimulationState(state.t + config.dt, nxt, alpha)


def simulate(u0: FourierField, config: ModelConfig,
             sample_every: int | None = None) -> SimulationResult:
    """Run from t=0 to t_final. sample_every=m keeps every m-th state
    (plus the initial and final ones); None keeps only the endpoints."""
    u0.require_real()
    if u0.max_mode != config.max_mode:
        raise ValueError("initial data max_mode differs from config")
    if sample_every is not None and sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every}")
    state = SimulationState(0.0, u0.copy())
    n = config.n_steps
    snaps = [SimulationState(state.t, state.field.copy(), state.alpha_accum)]
    for i in range(1, n + 1):
        state = step(state, config)
        if i == n or (sample_every is not None and i % sample_every == 0):
            snaps.append(SimulationState(state.t, state.field.copy(),
                                         state.alpha_accum))
    times = np.array([s.t for s in snaps])
    return SimulationResult(final=state, times=times, snapshots=snaps)


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
