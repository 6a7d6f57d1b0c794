"""Modified energy functionals.

For a single high mode k the quadratic density (k/2)|u^(k)|^2 is corrected by
quartic terms e31, e32 (built over the near-resonant triple sets D^1, D^2
feeding k) and a sextic term e5 (iterating the D^1 correction once inside
itself). Each correction divides by the cubic resonance function, scaled by
(2*pi)^2 per resonance factor: the time derivative of |u^(k)|^2 produces one
2*pi*k from the transport derivative while a resonance-weighted correction
produces (2*pi)^3 k Omega/Omega from the free flow, so the (2*pi)^2 is exactly
what makes the leading cancellation hold with unit coupling constants.

The difference energy replaces the quartic density by its two-solution
polarization and is summed over dyadic blocks with an N^{2s'} ladder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FourierField, phi_dyadic, sobolev_norm
from .resonance import (d1_cells, d1_small_sums, d1_table, d2_table, omega3_factored,
                        pair_sums)

__all__ = [
    "EnergyConfig",
    "EnergyReport",
    "energy_mode",
    "diff_energy_dyadic",
    "diff_energy_total",
    "coercivity_margin",
]

FOUR_PI_SQ = (2.0 * np.pi) ** 2


@dataclass(frozen=True)
class EnergyConfig:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    theta1: float = 7.0 / 12.0   # dyadic cut M < k**theta1 in e31
    theta2: float = 2.0 / 3.0    # median cut k_med < k**theta2 in e32
    ll_ratio: float = 2.0 ** -6  # |Omega_outer| <= ll_ratio * |Omega_inner| in e5
    k_threshold: int = 2 ** 9    # corrections vanish at or below this mode

    def __post_init__(self):
        if not (0.0 < self.theta1 < 1.0 and 0.0 < self.theta2 < 1.0):
            raise ValueError("theta1 and theta2 must lie in (0, 1)")
        if self.ll_ratio <= 0:
            raise ValueError("ll_ratio must be positive")
        if self.k_threshold < 1:
            raise ValueError("k_threshold must be at least 1")


@dataclass(frozen=True)
class EnergyReport:
    k: int
    quadratic: float
    e31: float
    e32: float
    e5: float
    total: float


def _quartic_sum(u: FourierField, k: int, tri: np.ndarray, om: np.ndarray) -> float:
    """Re sum 1/((2pi)^2 Omega3) u^(k1) u^(k2) u^(k3) u^(-k) over the rows."""
    if tri.shape[0] == 0:
        return 0.0
    prod = u.gather(tri[:, 0]) * u.gather(tri[:, 1]) * u.gather(tri[:, 2])
    return float(np.real(np.sum(prod / (FOUR_PI_SQ * om)) * u.mode(-k)))


def _e31(u: FourierField, k: int, cfg: EnergyConfig) -> float:
    tri, om = d1_table(k, u.max_mode)
    if tri.shape[0] == 0:
        return 0.0
    m_min = np.min(pair_sums(*tri.T), axis=0)
    keep = 2 ** np.floor(np.log2(m_min)) < abs(k) ** cfg.theta1
    # |k| k, not k^2: the cell sum is odd under k -> -k while the quadratic
    # drift it cancels is even, so the prefactor must carry sign(k)
    return abs(k) * k * _quartic_sum(u, k, tri[keep], om[keep])


def _e32(u: FourierField, k: int, cfg: EnergyConfig) -> float:
    tri, om = d2_table(k, u.max_mode, abs(k) ** cfg.theta2)
    return abs(k) * k * _quartic_sum(u, k, tri, om)


def _e5(u: FourierField, k: int, cfg: EnergyConfig) -> float:
    outer, om_out = d1_table(k, u.max_mode)
    if outer.shape[0] == 0:
        return 0.0
    quad = np.column_stack([outer, np.full(outer.shape[0], -k, dtype=np.int64)])
    coeffs = u.gather(quad)
    total = 0.0
    for r in range(outer.shape[0]):
        for i in range(4):
            ki = int(quad[r, i])
            inner, om_in = d1_table(ki, u.max_mode)
            if inner.shape[0] == 0:
                continue
            # drop pairs whose combined resonance vanishes exactly: those are
            # genuinely resonant and admit no antiderivative (reachable only
            # for ll_ratio >= 1; the default cut already excludes them)
            keep = (np.abs(om_out[r]) <= cfg.ll_ratio * np.abs(om_in)) \
                & (om_out[r] + om_in != 0)
            if not np.any(keep):
                continue
            om5 = om_out[r] + om_in[keep]
            prod_in = (u.gather(inner[keep, 0]) * u.gather(inner[keep, 1])
                       * u.gather(inner[keep, 2]))
            others = np.prod(np.delete(coeffs[r], i))
            total += ki * np.real(others * np.sum(prod_in / (om_out[r].astype(np.float64)
                                                             * om5)))
    return abs(k) * k * total / FOUR_PI_SQ ** 2


def energy_mode(u: FourierField, k: int, config: EnergyConfig | None = None) -> EnergyReport:
    """Modified energy of mode k: quadratic density plus weighted corrections.

    Corrections are defined to activate only for |k| above config.k_threshold,
    where the resonance denominators they divide by are uniformly large; below
    it the report is exactly (|k|/2)|u^(k)|^2.
    """
    cfg = config or EnergyConfig()
    if k == 0:
        raise ValueError("k must be a nonzero mode")
    if abs(k) > u.max_mode:
        raise ValueError("k exceeds the field truncation")
    quad = 0.5 * abs(k) * abs(u.mode(k)) ** 2
    if abs(k) <= cfg.k_threshold:
        return EnergyReport(k, quad, 0.0, 0.0, 0.0, quad)
    e31 = _e31(u, k, cfg)
    e32 = _e32(u, k, cfg)
    e5 = _e5(u, k, cfg)
    total = quad + cfg.alpha * e31 + cfg.beta * e32 + cfg.gamma * e5
    return EnergyReport(k, quad, e31, e32, e5, total)


def diff_energy_dyadic(u: FourierField, v: FourierField, N: int, n0: int) -> float:
    """Block energy of the difference w = u - v: (1/2)||P_N w||^2, corrected
    for N > n0 by the polarized cubic term

      Re sum_k phi_N(k)^2 k/(2pi)^2 w^(-k) sum_{D^1(k)} (u1 u2 + u1 v2 + v1 v2) w^(k3) / Omega3

    over the phi_N-active modes k. The cells are walked one pair of small
    pair sums (a, b) at a time, for all output modes at once (d1_cells)."""
    if u.max_mode != v.max_mode:
        raise ValueError("fields must share max_mode")
    if N < 1 or (N & (N - 1)):
        raise ValueError("N must be a dyadic block >= 1")
    w = u - v
    ks = w.modes
    ph2 = phi_dyadic(N, ks) ** 2
    base = 0.5 * float(np.sum(ph2 * np.abs(w.coeffs) ** 2))
    if N <= n0:
        return base
    K = u.max_mode
    k = ks[ph2 != 0.0]
    weight = ph2[k + K] * k * w.gather(-k) / FOUR_PI_SQ
    vals = d1_small_sums(K)
    corr = 0.0
    for a in vals:
        for b in vals:
            tri, ok = d1_cells(k, a, b, K)
            k1, k2, k3 = tri[ok].T
            u1, u2, v1, v2 = u.gather(k1), u.gather(k2), v.gather(k1), v.gather(k2)
            terms = np.broadcast_to(weight, ok.shape)[ok] * (u1 * u2 + u1 * v2 + v1 * v2)
            corr += float(np.real(np.sum(terms * w.gather(k3) / omega3_factored(k1, k2, k3))))
    return base + corr


def diff_energy_total(u: FourierField, v: FourierField, n0: int,
                      s_prime: float) -> float:
    """Ladder sum over dyadic blocks: sum_N N^{2s'} E_N(u, v)."""
    total = 0.0
    N = 1
    while N <= 2 * u.max_mode:
        total += N ** (2.0 * s_prime) * diff_energy_dyadic(u, v, N, n0)
        N *= 2
    return total


def default_block_floor(u: FourierField, v: FourierField, s_reg: float = 1.0 / 3.0) -> int:
    """Largeness threshold for the corrected blocks: n0 = 2^9 * ceil(R^{1/s})
    with R the sum of the two H^s norms. Guarantees the corrections stay a
    small perturbation of the quadratic ladder."""
    r = sobolev_norm(u, s_reg) + sobolev_norm(v, s_reg)
    return 2 ** 9 * max(1, int(np.ceil(r ** (1.0 / s_reg))))


def coercivity_margin(u: FourierField, v: FourierField, s_prime: float = 5.0 / 24.0,
                      n0: int | None = None, s_reg: float = 1.0 / 3.0) -> float:
    """Ratio of the corrected ladder energy to half the plain quadratic ladder
    (1/2) sum_N N^{2s'} ||P_N (u-v)||^2. Equals 1 exactly when every active
    block is below n0; coercivity holds while it stays within [1/2, 2]."""
    if n0 is None:
        n0 = default_block_floor(u, v, s_reg)
    w = u - v
    ks = w.modes
    quad = 0.0
    N = 1
    while N <= 2 * u.max_mode:
        quad += N ** (2.0 * s_prime) * float(
            np.sum(phi_dyadic(N, ks) ** 2 * np.abs(w.coeffs) ** 2))
        N *= 2
    quad *= 0.5
    if quad == 0.0:
        return 1.0
    return diff_energy_total(u, v, n0, s_prime) / quad
