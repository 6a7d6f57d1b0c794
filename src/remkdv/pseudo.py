"""Trilinear pseudo-products, their frequency-restricted variants, and the
integration-by-parts identity that converts a derivative pairing into a
bounded-symbol pairing at the cost of one factor of M.

A pseudo-product with symbol eta is the trilinear operator with Fourier
coefficients

    F[Pi_eta(f, g, h)](k) = sum_{k1+k2+k3=k} eta(k1,k2,k3) f^(k1) g^(k2) h^(k3),

computed on the truncated lattice |k_i| <= K. The restricted variant inserts
chi_{A_j}(k1,k2,k3) * phi_M(sum_{q != j} k_q), which localizes the pair sum
opposite slot j to size M.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .fields import (FourierField, deriv_multiplier, phi_dyadic, project_dyadic)
from .resonance import a_cell, pair_sums

__all__ = [
    "SymbolFn",
    "symbol_one",
    "pseudoproduct",
    "pseudoproduct_restricted",
    "t_functional",
    "IBPSymbols",
    "ibp_symbols",
    "near_projector_blocks",
    "verify_ibp",
    "estimate_quadrilinear_ratio",
]

RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True)
class SymbolFn:
    """A bounded multiplier on triples: eval must accept integer ndarrays."""

    eval: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    sup_bound: float
    name: str = "eta"


def symbol_one() -> SymbolFn:
    return SymbolFn(lambda k1, k2, k3: np.ones(np.broadcast(k1, k2, k3).shape), 1.0, "1")


def _check_shared_mode(*fields: FourierField) -> int:
    K = fields[0].max_mode
    for f in fields[1:]:
        if f.max_mode != K:
            raise ValueError("fields must share max_mode")
    return K


def _triple_sum(weight_fn, f: FourierField, g: FourierField, h: FourierField,
                out_max_mode: int | None) -> FourierField:
    """Direct lattice triple sum; weight_fn(K1, K2, K3) supplies the full weight.

    Cost is O(K_out * K^2), vectorized over the (k1, k2) plane. Fine up to
    K ~ 128. An A3 pairing with a fourth field needs no output field:
    `_a3_row_sums` sums it by prefix sums in O(#s * K) over the ~3M pair
    sums s of the block.
    """
    K = f.max_mode
    K_out = K if out_max_mode is None else out_max_mode
    ks = np.arange(-K, K + 1)
    K1, K2 = np.meshgrid(ks, ks, indexing="ij")
    FG = np.outer(f.coeffs, g.coeffs)
    out = np.zeros(2 * K_out + 1, dtype=np.complex128)
    for k in range(-K_out, K_out + 1):
        K3 = k - K1 - K2
        out[k + K_out] = np.sum(weight_fn(K1, K2, K3) * FG * h.gather(K3))
    return FourierField(out, copy=False)


def pseudoproduct(eta: SymbolFn, f: FourierField, g: FourierField, h: FourierField,
                  out_max_mode: int | None = None) -> FourierField:
    """Pi_eta(f, g, h) on the shared truncated lattice."""
    _check_shared_mode(f, g, h)
    return _triple_sum(lambda k1, k2, k3: eta.eval(k1, k2, k3), f, g, h, out_max_mode)


def pseudoproduct_restricted(eta: SymbolFn, j: int, M: int,
                             f: FourierField, g: FourierField, h: FourierField,
                             out_max_mode: int | None = None) -> FourierField:
    """Pi^j_{eta,M}: the sum additionally weighted by chi_{A_j} * phi_M(k - k_j)."""
    if j not in (1, 2, 3):
        raise ValueError("j must be 1, 2 or 3")
    _check_shared_mode(f, g, h)

    def weight(k1, k2, k3):
        mask = a_cell(j, *pair_sums(k1, k2, k3))
        s = (k2 + k3, k1 + k3, k1 + k2)[j - 1]
        return eta.eval(k1, k2, k3) * mask * phi_dyadic(M, s)

    return _triple_sum(weight, f, g, h, out_max_mode)


def _support_sums(M: int) -> np.ndarray:
    """Integer pair sums s with phi_M(s) != 0, i.e. M/2 < |s| < 2M (s = 0 for M = 0)."""
    if M == 0:
        return np.array([0], dtype=np.int64)
    lo = M // 2 + 1
    mags = np.arange(lo, 2 * M)
    return np.concatenate([-mags[::-1], mags])


def _off_a3_windows(K: int, s, k):
    """Row k of pair sum s leaves A3 on the columns a of two half-open windows
    [lo1, hi1) and [lo2, hi2), clipped to [-K, K + 1): with k1 = a, k2 = s - a
    and k3 = k - s, A3 needs |s| < |k - a| and |s| < |a + k - s| (a tie goes
    to the lower slot). s and k broadcast."""
    r = np.abs(s)   # np.minimum(np.maximum(...)) clips without np.clip's Python wrapper
    return tuple(np.minimum(np.maximum(b, -K), K + 1)
                 for b in (k - r, k + r + 1, s - k - r, s - k + r + 1))


def _a3_row_sums(M: int, f1: FourierField, f2: FourierField,
                 pieces) -> list[complex]:
    """integral of Pi^3_{eta,M}(f1, f2, f3) * f4 over the torus for each piece
    (eta, f3, f4), by prefix sums in O(#s * K) over the ~3M pair sums s.

    Each eta must depend on (k1, k2, k3) only through s = k1 + k2 and k3, as
    symbol_one and the ibp_symbols do: it is read at (0, s, k - s) on the
    (#s, 2K+1) grid of (s, k) that all pieces share. The products
    f1(a) f2(s - a), prefix-summed along a, give each row's A3 sum as the row
    total less its two off-A3 windows, their overlap added back.
    """
    K = f1.max_mode
    ks = np.arange(-K, K + 1)
    s = _support_sums(int(M))[:, None]
    cum = np.zeros((len(s), 2 * K + 2), dtype=np.complex128)
    np.cumsum(f1.coeffs * f2.gather(s - ks), axis=1, out=cum[:, 1:])
    lo1, hi1, lo2, hi2 = _off_a3_windows(K, s, ks)
    lo = np.maximum(lo1, lo2)   # the overlap [lo, hi), empty if they are disjoint
    hi = np.maximum(np.minimum(hi1, hi2), lo)
    # window [start, stop) sums to c[stop] - c[start], c = cum at the bounds
    c = cum[np.arange(len(s))[:, None], np.stack([hi1, lo1, hi2, lo2, hi, lo]) + K]
    rows = (cum[:, -1:] - (c[0] - c[1]) - (c[2] - c[3]) + (c[4] - c[5])) * phi_dyadic(M, s)
    k3 = ks - s
    zeros = np.zeros_like(k3)
    return [complex(np.sum(eta.eval(zeros, zeros + s, k3) * rows * f3.gather(k3)
                           * f4.coeffs[::-1]))   # f4^(-k) indexed like k
            for eta, f3, f4 in pieces]


def _t_last(N: int, g: FourierField) -> FourierField:
    """The last slot of T_{M,N}: P_N^2 dg/dx (P_N is self-adjoint)."""
    if N < 4:
        raise ValueError("N must be at least 4")
    ks = g.modes
    return FourierField(g.coeffs * phi_dyadic(N, ks) ** 2 * deriv_multiplier(ks),
                        copy=False)


def t_functional(M: int, N: int, f1: FourierField, f2: FourierField,
                 g: FourierField) -> float:
    """integral of P_N Pi^3_{1,M}(f1, f2, g) * P_N dg/dx over the torus.

    Real by construction for real inputs. Self-adjointness of P_N moves both
    projectors onto the last slot, which the paired kernel then contracts.
    """
    last = _t_last(N, g)
    for f in (f1, f2, g):
        f.require_real()
    _check_shared_mode(f1, f2, g)
    val = _a3_row_sums(M, f1, f2, [(symbol_one(), g, last)])[0]
    return float(val.real)


class IBPSymbols(NamedTuple):
    """The four symbols of the IBP decomposition, named by their role."""

    eta_shift_out: SymbolFn    # pair sum moved onto the output block
    eta_shift_diff: SymbolFn   # commutator of the output block with slot 3
    eta_boundary: SymbolFn     # the antisymmetrized boundary term
    eta_total: SymbolFn


def ibp_symbols(M: int, N: int) -> IBPSymbols:
    """Symbols with sup norms bounded uniformly in M and N, valid for 16M <= N."""
    if 16 * M > N:
        raise ValueError("ibp_symbols requires 16M <= N")
    if M < 1:
        raise ValueError("M must be at least 1")

    def supp(s):
        return (np.abs(s) > M / 2) & (np.abs(s) < 2 * M)

    def shift_out(k1, k2, k3):
        s = k1 + k2
        k = k1 + k2 + k3
        return phi_dyadic(N, k) * (s / M) * supp(s)

    def shift_diff(k1, k2, k3):
        s = k1 + k2
        k = k1 + k2 + k3
        return (phi_dyadic(N, k) - phi_dyadic(N, k3)) * (k3 / M) * supp(s)

    def boundary(k1, k2, k3):
        s = k1 + k2
        return -0.5 * (s / M) * supp(s)

    def total(k1, k2, k3):
        return shift_out(k1, k2, k3) + shift_diff(k1, k2, k3) + boundary(k1, k2, k3)

    return IBPSymbols(
        SymbolFn(shift_out, 2.0, "eta_shift_out"),
        SymbolFn(shift_diff, 2.0 * np.pi, "eta_shift_diff"),
        SymbolFn(boundary, 1.0, "eta_boundary"),
        SymbolFn(total, 8.0, "eta_total"),
    )


def near_projector_blocks(N: int) -> list[int]:
    """Dyadic blocks of the widened near-projector P_{~N} = sum of P_{N'} over
    N/4 <= N' <= 4N.

    Five blocks rather than three: with the pair sum localized at M <= N/16,
    the third frequency of the shifted terms ranges over (N/2 - 2M, 2N + 2M),
    which sticks out of the three-block window [N/2, 2N] as soon as M >= 2;
    the five-block window sums to one on all of it, keeping the identity exact.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    return [N // 4, N // 2, N, 2 * N, 4 * N]


def _near_projection(g: FourierField, N: int) -> FourierField:
    ks = g.modes
    mult = np.zeros(ks.shape, dtype=np.float64)
    for Nb in near_projector_blocks(N):
        mult += phi_dyadic(Nb, ks)
    return g.multiplied(mult)


def verify_ibp(M: int, N: int, f1: FourierField, f2: FourierField,
               g: FourierField) -> float:
    """Residual of the exact identity

      T_{M,N}(f1,f2,g) = -2 pi i M [ int Pi^3_{shift,M}(f1,f2,P_{~N} g) P_N g
                                   + int Pi^3_{boundary,M}(f1,f2,P_N g) P_N g ],

    with shift = eta_shift_out + eta_shift_diff. Over zero-sum quadruples the
    derivative weight is 2 pi i k4 phi_N(k4)^2; splitting k4 = -(k1+k2) - k3
    yields the two shift pieces, and the remaining swap-symmetric piece
    averages to the boundary symbol at half weight. The boundary piece pairs
    with P_N g in the third slot (that is what its change of variables
    produces); writing it through P_{~N} g would break exactness.

    Returns |LHS - RHS| / max(|LHS|, |shift piece|, |boundary piece|, floor),
    scaled by the terms that built the value: the two pieces can nearly
    cancel to a small LHS, and their roundoff is relative to their own
    size. Zero input gives 0.
    """
    for f in (f1, f2, g):
        f.require_real()
    _check_shared_mode(f1, f2, g)
    syms = ibp_symbols(M, N)
    shift = SymbolFn(
        lambda k1, k2, k3: syms.eta_shift_out.eval(k1, k2, k3)
        + syms.eta_shift_diff.eval(k1, k2, k3),
        syms.eta_shift_out.sup_bound + syms.eta_shift_diff.sup_bound,
        "eta_shift",
    )
    g_N = project_dyadic(g, N)
    # T and the two pieces share f1, f2 and so the row sums of each pair sum
    t_val, shift_val, boundary_val = _a3_row_sums(M, f1, f2, [
        (symbol_one(), g, _t_last(N, g)),
        (shift, _near_projection(g, N), g_N),
        (syms.eta_boundary, g_N, g_N),
    ])
    lhs = float(t_val.real)
    shift_piece = float((-2j * np.pi * M * shift_val).real)
    boundary_piece = float((-2j * np.pi * M * boundary_val).real)
    scale = max(abs(lhs), abs(shift_piece), abs(boundary_piece), RESIDUAL_FLOOR)
    return abs(lhs - shift_piece - boundary_piece) / scale


def estimate_quadrilinear_ratio(eta: SymbolFn, M: int, trials: int, K: int,
                                seed: int = 0) -> float:
    """Empirical sup of |int Pi^3_{eta,M}(f1, f2, f3) f4| / (M prod ||f_i||_{L2})
    over random real fields. A regression diagnostic for the quadrilinear
    estimate, not a proof; the observed constant is stored as a golden
    baseline by the tests.

    The pairing is summed by rows, so eta must depend on (k1, k2, k3)
    only through k1 + k2 and k3: ValueError unless eta(k1, s - k1, k3) equals
    eta(0, s, k3) exactly for |k1|, |k3| <= K and every pair sum s of the block.
    """
    ks = np.arange(-K, K + 1)
    k1, k3 = ks[:, None], ks[None, :]
    zeros = np.zeros_like(k1)
    for s in _support_sums(int(M)):
        if not np.all(eta.eval(k1, s - k1, k3) == eta.eval(zeros, zeros + s, k3)):
            raise ValueError(f"symbol {eta.name} is not a function of k1 + k2 and k3")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        fields = [FourierField(rng.standard_normal(2 * K + 1)
                               + 1j * rng.standard_normal(2 * K + 1), copy=False).hermitized()
                  for _ in range(4)]
        denom = M * np.prod([f.l2_norm() for f in fields])
        if denom == 0:
            continue
        f1, f2, f3, f4 = fields
        val = abs(_a3_row_sums(M, f1, f2, [(eta, f3, f4)])[0])
        best = max(best, val / denom)
    return float(best)
