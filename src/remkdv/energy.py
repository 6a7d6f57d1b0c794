"""Modified energy functionals.

For a single high mode k the quadratic density (k/2)|u^(k)|^2 is corrected by
quartic terms e31, e32 (built over the near-resonant triple sets D^1, D^2
feeding k) and a sextic term e5 (iterating the D^1 correction once inside
itself). Each correction divides by the cubic resonance function, scaled by
(2*pi)^2 per resonance factor: the time derivative of |u^(k)|^2 produces one
2*pi*k from the transport derivative while a resonance-weighted correction
produces (2*pi)^3 k Omega/Omega from the free flow, so the (2*pi)^2 is exactly
what makes the leading cancellation hold with unit coupling constants.

e32 is one short convolution. A median-cut D2 cell has two entries a, b with
|a|, |b| < c = ceil(|k|^THETA2) and a third k - s, s = a + b != 0; its three
slot orders carry one product and Omega3 = -3 s (k-a)(k-b). With f_a = u^(a)/(k-a),
  e32 = |k| k 3 Re( u^(-k) sum_{s != 0, |k-s| <= K} u^(k-s) (f*f)(s) / (-3 s) ) / (2pi)^2.
This needs 3c <= |k|, which the constant cuts make true at every corrected mode.
The tests check e31 and e32 against a direct scan of the lattice.

The difference energy replaces the quartic density by its two-solution
polarization and is summed over dyadic blocks with an N^{2s'} ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FourierField, dyadic_blocks, phi_dyadic, sobolev_norm
from .resonance import (D1_BRANCHES, d1_cells, d1_omega3, d1_small_sums, d1_table,
                        pair_sums)

__all__ = [
    "THETA1",
    "THETA2",
    "K_THRESHOLD",
    "LL_RATIO",
    "EnergyReport",
    "energy_mode",
    "diff_energy_dyadic",
    "diff_energy_total",
    "coercivity_margin",
]

FOUR_PI_SQ = (2.0 * np.pi) ** 2

THETA1 = 7.0 / 12.0   # dyadic cut M < |k|**THETA1 in e31
THETA2 = 2.0 / 3.0    # median cut k_med < |k|**THETA2 in e32
K_THRESHOLD = 2 ** 9  # corrections vanish at or below this mode
# e5 keeps a pair of cells only where |Omega_outer| <= LL_RATIO |Omega_inner|.
# Over every corrected k <= 2048 at K = 2048 the inner |Omega3| is at most
# 16.02 times the outer one (the tests pin this), short of the 1/LL_RATIO = 64
# the cut needs, so e5 is exactly 0 at every shape the CLI, the goldens and
# the benchmark run; it can first engage once inner entries reach |k_i| ~ 4096.
LL_RATIO = 2.0 ** -6


@dataclass(frozen=True)
class EnergyReport:
    k: int
    quadratic: float
    e31: float
    e32: float
    e5: float
    total: float


def _e31(u: FourierField, k: int) -> float:
    tri, om = d1_table(k, u.max_mode)
    if tri.shape[0] == 0:
        return 0.0
    m_min = np.min(pair_sums(*tri.T), axis=0)
    keep = 2 ** np.floor(np.log2(m_min)) < abs(k) ** THETA1
    tri, om = tri[keep], om[keep]
    prod = u.gather(tri[:, 0]) * u.gather(tri[:, 1]) * u.gather(tri[:, 2])
    # |k| k, not k^2: the cell sum is odd under k -> -k while the quadratic
    # drift it cancels is even, so the prefactor must carry sign(k)
    return abs(k) * k * float(np.real(np.sum(prod / (FOUR_PI_SQ * om)) * u.mode(-k)))


def _e32(u: FourierField, k: int) -> float:
    c = int(np.ceil(abs(k) ** THETA2))
    a = np.arange(-c + 1, c)
    f = u.gather(a) / (k - a)
    ff = np.convolve(f, f)            # (f*f)(s) at s = -2c+2 .. 2c-2
    s = np.arange(-2 * c + 2, 2 * c - 1)
    s, ff = s[s != 0], ff[s != 0]
    # three slot orders per cell, each over Omega3 = -3 s (k-a)(k-b); gather
    # zeroes the third entries beyond the truncation
    cells = -np.sum(u.gather(k - s) * ff / s)
    return abs(k) * k * float(np.real(cells * u.mode(-k))) / FOUR_PI_SQ


def _e5(u: FourierField, k: int) -> float:
    outer, om_out = d1_table(k, u.max_mode)
    if outer.shape[0] == 0:
        return 0.0
    quad = np.column_stack([outer, np.full(outer.shape[0], -k, dtype=np.int64)])
    coeffs = u.gather(quad)
    # others[r, i]: product of the coefficients of row r other than slot i
    others = np.prod(np.where(np.eye(4, dtype=bool), 1, coeffs[:, None, :]), axis=2).ravel()
    # the inner cells of every (row, slot) in one array, tagged by slot
    tables = [d1_table(int(ki), u.max_mode) for ki in quad.ravel()]
    slot = np.repeat(np.arange(quad.size), [t.triples.shape[0] for t in tables])
    inner = np.concatenate([t.triples for t in tables])
    om_in = np.concatenate([t.omega3 for t in tables])
    om_o = om_out[slot // 4]
    # drop pairs whose combined resonance vanishes exactly: those are
    # genuinely resonant and admit no antiderivative (reachable only with the
    # cut raised to 1 or more, as a test does; LL_RATIO excludes them)
    keep = (np.abs(om_o) <= LL_RATIO * np.abs(om_in)) & (om_o + om_in != 0)
    slot, inner, om_in, om_o = slot[keep], inner[keep], om_in[keep], om_o[keep]
    prod_in = u.gather(inner[:, 0]) * u.gather(inner[:, 1]) * u.gather(inner[:, 2])
    terms = quad.ravel()[slot] * np.real(others[slot] * prod_in
                                         / (om_o.astype(np.float64) * (om_o + om_in)))
    return abs(k) * k * float(np.sum(terms)) / FOUR_PI_SQ ** 2


def energy_mode(u: FourierField, k: int) -> EnergyReport:
    """Modified energy of mode k: quadratic density plus the corrections,
    each with unit coupling.

    Corrections are defined to activate only for |k| above K_THRESHOLD,
    where the resonance denominators they divide by are uniformly large; below
    it the report is exactly (|k|/2)|u^(k)|^2.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer mode, got {k!r}")
    if k == 0:
        raise ValueError("k must be a nonzero mode")
    if abs(k) > u.max_mode:
        raise ValueError("k exceeds the field truncation")
    quad = 0.5 * abs(k) * abs(u.mode(k)) ** 2
    if abs(k) <= K_THRESHOLD:
        return EnergyReport(k, quad, 0.0, 0.0, 0.0, quad)
    e31 = _e31(u, k)
    e32 = _e32(u, k)
    e5 = _e5(u, k)
    return EnergyReport(k, quad, e31, e32, e5, quad + e31 + e32 + e5)


def diff_energy_dyadic(u: FourierField, v: FourierField, N: int, n0: int) -> float:
    """Block energy of the difference w = u - v: (1/2)||P_N w||^2, corrected
    for N > n0 by the polarized cubic term

      Re sum_k phi_N(k)^2 k/(2pi)^2 w^(-k) sum_{D^1(k)} (u1 u2 + u1 v2 + v1 v2) w^(k3) / Omega3

    over the phi_N-active modes k. The cells are walked one pair of small
    pair sums (a, b) at a time, for all output modes at once (d1_cells): the
    three branches permute one cell's entries k - a, k - b, a + b - k and
    share Omega3 (d1_omega3), so each pair is one masked pass."""
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
            cells, ok = d1_cells(k, a, b, K)
            cells = cells[:, ok]
            U, V, W = u.gather(cells), v.gather(cells), w.gather(cells)
            prod = sum((U[i] * U[j] + U[i] * V[j] + V[i] * V[j]) * W[l]
                       for i, j, l in D1_BRANCHES)
            corr += float(np.real(np.sum(weight[ok] * prod / d1_omega3(k[ok], a, b))))
    return base + corr


def diff_energy_total(u: FourierField, v: FourierField, n0: int,
                      s_prime: float) -> float:
    """Ladder sum over dyadic blocks: sum_N N^{2s'} E_N(u, v)."""
    total = 0.0
    for N in dyadic_blocks(u.max_mode)[1:]:
        total += N ** (2.0 * s_prime) * diff_energy_dyadic(u, v, N, n0)
    return total


def default_block_floor(u: FourierField, v: FourierField) -> int:
    """Largeness threshold for the corrected blocks: n0 = 2^9 * ceil(R^3)
    with R the sum of the two H^{1/3} norms. Guarantees the corrections stay a
    small perturbation of the quadratic ladder."""
    r = sobolev_norm(u, 1.0 / 3.0) + sobolev_norm(v, 1.0 / 3.0)
    return 2 ** 9 * max(1, int(np.ceil(r ** 3.0)))


def coercivity_margin(u: FourierField, v: FourierField, s_prime: float = 5.0 / 24.0,
                      n0: int | None = None) -> float:
    """Ratio of the corrected ladder energy to half the plain quadratic ladder
    (1/2) sum_N N^{2s'} ||P_N (u-v)||^2. Equals 1 exactly when every active
    block is below n0; coercivity holds while it stays within [1/2, 2]."""
    if n0 is None:
        n0 = default_block_floor(u, v)
    quad = diff_energy_total(u, v, math.inf, s_prime)
    if quad == 0.0:
        return 1.0
    return diff_energy_total(u, v, n0, s_prime) / quad
