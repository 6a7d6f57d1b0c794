"""Modified energy functionals.

For a single high mode k the quadratic density (k/2)|u^(k)|^2 is corrected by
quartic terms e31, e32 (built over the near-resonant triple sets D^1, D^2
feeding k) and a sextic term e5 (iterating the D^1 correction once inside
itself). Each correction divides by the cubic resonance function, scaled by
(2*pi)^2 per resonance factor: the time derivative of |u^(k)|^2 produces one
2*pi*k from the transport derivative while a resonance-weighted correction
produces (2*pi)^3 k Omega/Omega from the free flow, so the (2*pi)^2 is exactly
what makes the leading cancellation hold with unit coupling constants.

e31 and e5 sum the D^1 cells on (k, a, b) grids of output mode and small pair
sums (resonance.d1_cells, d1_omega3). A grid cell stands for its three slot
orders, which share the product and Omega3: e31 counts each cell 3 times and
e5 each pair of cells 9 times.

e32 is one short convolution. A median-cut D2 cell has two entries a, b with
|a|, |b| < c = ceil(|k|^THETA2) and a third k - s, s = a + b != 0; its three
slot orders carry one product and Omega3 = -3 s (k-a)(k-b). With f_a = u^(a)/(k-a),
  e32 = |k| k 3 Re( u^(-k) sum_{s != 0, |k-s| <= K} u^(k-s) (f*f)(s) / (-3 s) ) / (2pi)^2.
This needs 3c <= |k|, which the constant cuts make true at every corrected mode.
The tests check e31 and e32 against a direct scan of the lattice and e5
against a plain loop over the cells.

The difference energy replaces the quartic density by its two-solution
polarization and is summed over dyadic blocks with an N^{2s'} ladder.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FourierField, dyadic_blocks, phi_dyadic, sobolev_norm
from .resonance import (D1_BRANCHES, MED_RATIO, d1_cells, d1_k_runs, d1_omega3,
                        d1_small_sums)

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


def _e31(u: FourierField, k: int, cells, a, b, om) -> float:
    # the smallest pair sum of a D1 cell is min(|a|, |b|)
    keep = 2 ** np.floor(np.log2(np.minimum(np.abs(a), np.abs(b)))) < abs(k) ** THETA1
    cells, om = cells[:, keep], om[keep]
    prod = u.gather(cells[0]) * u.gather(cells[1]) * u.gather(cells[2])
    # |k| k, not k^2: the cell sum is odd under k -> -k while the quadratic
    # drift it cancels is even, so the prefactor must carry sign(k); the 3
    # counts the slot orders of each cell
    return abs(k) * k * float(np.real(3 * np.sum(prod / (FOUR_PI_SQ * om)) * u.mode(-k)))


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


def _e5_inner_bound(kmax: int) -> int:
    """Upper bound on |Omega3| = 3|a||b||2k_i - a - b| over the D1 cells of
    every mode |k_i| <= kmax: |a|, |b| <= t = floor(kmax/512)."""
    t = int(MED_RATIO * kmax)
    return 3 * t * t * (2 * kmax + 2 * t)


def _e5(u: FourierField, k: int, outer, om_out) -> float:
    quad = np.column_stack([*outer, np.full(om_out.size, -k, dtype=np.int64)]).ravel()
    kmax = int(np.abs(quad).max())
    if np.abs(om_out).min() > LL_RATIO * _e5_inner_bound(kmax):
        # no pair passes the cut: the grid path's sum, a signed zero
        return 9 * abs(k) * k * 0.0 / FOUR_PI_SQ ** 2
    coeffs = u.gather(quad).reshape(-1, 4)
    # others[r, i]: product of the coefficients of cell r other than slot i
    others = np.prod(np.where(np.eye(4, dtype=bool), 1, coeffs[:, None, :]), axis=2).ravel()
    # the inner cells of every (cell, slot) mode in one grid, axis 0 the mode;
    # the small sums of the largest mode cover those of every mode
    vals = d1_small_sums(kmax)
    ki, a, b = quad[:, None, None], vals[:, None], vals[None, :]
    inner, ok = d1_cells(ki, a, b, u.max_mode)
    om_in = d1_omega3(ki, a, b)
    om_o = np.repeat(om_out, 4)[:, None, None]
    # drop pairs whose combined resonance vanishes exactly: those are
    # genuinely resonant and admit no antiderivative (reachable only with the
    # cut raised to 1 or more, as a test does; LL_RATIO excludes them)
    ok &= (np.abs(om_o) <= LL_RATIO * np.abs(om_in)) & (om_o + om_in != 0)
    slot = np.nonzero(ok)[0]
    inner, om_in, om_o = inner[:, ok], om_in[ok], om_o.ravel()[slot]
    prod_in = u.gather(inner[0]) * u.gather(inner[1]) * u.gather(inner[2])
    terms = quad[slot] * np.real(others[slot] * prod_in
                                 / (om_o.astype(np.float64) * (om_o + om_in)))
    # 9: the three slot orders of the outer cell times those of the inner one
    return 9 * abs(k) * k * float(np.sum(terms)) / FOUR_PI_SQ ** 2


def energy_mode(u: FourierField, k: int) -> EnergyReport:
    """Modified energy of mode k: quadratic density plus the corrections,
    each with unit coupling. e31 and e5 share one masked grid of the D^1
    cells of k.

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
    quad = 0.5 * abs(k) * float(np.abs(u.mode(k)) ** 2)
    if abs(k) <= K_THRESHOLD:
        return EnergyReport(k, quad, 0.0, 0.0, 0.0, quad)
    vals = d1_small_sums(k)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    cells, ok = d1_cells(k, a, b, u.max_mode)
    a, b, cells = a[ok], b[ok], cells[:, ok]
    om = d1_omega3(k, a, b)
    e31 = _e31(u, k, cells, a, b, om)
    e32 = _e32(u, k)
    e5 = _e5(u, k, cells, om)
    return EnergyReport(k, quad, e31, e32, e5, quad + e31 + e32 + e5)


def diff_energy_dyadic(u: FourierField, v: FourierField, N: int, n0: int) -> float:
    """Block energy of the difference w = u - v: (1/2)||P_N w||^2, corrected
    for N > n0 by the polarized cubic term

      Re sum_k phi_N(k)^2 k/(2pi)^2 w^(-k) sum_{D^1(k)} (u1 u2 + u1 v2 + v1 v2) w^(k3) / Omega3

    over the phi_N-active modes k. The cells are walked one pair of small
    pair sums (a, b) at a time, over the pair's live output modes only: one
    run of k per sign (resonance.d1_k_runs, cut to the block), on which the
    entries k - a, k - b and a + b - k are ascending slices of the
    coefficients and of the reversed coefficients. The three branches
    permute these entries and share Omega3 (d1_omega3), so a pair is one
    pass over nine slices, with no mask and no gather."""
    if u.max_mode != v.max_mode:
        raise ValueError("fields must share max_mode")
    if N < 1 or (N & (N - 1)):
        raise ValueError("N must be a dyadic block >= 1")
    w = u - v
    ks = w.modes
    ph2 = phi_dyadic(N, ks) ** 2
    base = 0.5 * float(np.sum(ph2 * np.abs(w.coeffs) ** 2))
    live = ks[ph2 != 0.0]
    if N <= n0 or live.size == 0:
        return base
    K = u.max_mode
    # phi_N is even and nonzero exactly on N/2 < |k| < 2N: one band per sign
    top, bottom = int(live[-1]), int(live[live > 0][0])
    bands = ((-top, 1 - bottom), (bottom, top + 1))
    fields = [(f.coeffs, f.coeffs[::-1]) for f in (u, v, w)]   # modes k and -k at K + k
    weight = ph2 * ks * fields[2][1] / FOUR_PI_SQ
    vals = d1_small_sums(K)
    corr = 0.0
    for a in vals:
        for b in vals:
            terms = []
            for (lo, hi), (blo, bhi) in zip(d1_k_runs(a, b, K), bands):
                lo, hi = max(lo, blo), min(hi, bhi)
                if lo < hi:
                    i, j = lo + K, hi + K
                    U, V, W = ((c[i - a:j - a], c[i - b:j - b], r[i - a - b:j - a - b])
                               for c, r in fields)
                    prod = sum((U[x] * U[y] + U[x] * V[y] + V[x] * V[y]) * W[z]
                               for x, y, z in D1_BRANCHES)
                    terms.append(weight[i:j] * prod / d1_omega3(np.arange(lo, hi), a, b))
            if terms:   # one sum over both runs, in ascending k
                corr += float(np.real(np.sum(np.concatenate(terms))))
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


def coercivity_margin(u: FourierField, v: FourierField, s_prime: float = 5.0 / 24.0) -> float:
    """Ratio of the corrected ladder energy to half the plain quadratic ladder
    (1/2) sum_N N^{2s'} ||P_N (u-v)||^2. Equals 1 exactly when every active
    block is below n0 = default_block_floor(u, v); coercivity holds while it
    stays within [1/2, 2]."""
    n0 = default_block_floor(u, v)
    quad = diff_energy_total(u, v, math.inf, s_prime)
    if quad == 0.0:
        return 1.0
    return diff_energy_total(u, v, n0, s_prime) / quad
