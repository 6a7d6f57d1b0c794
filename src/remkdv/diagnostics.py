"""Initial-data profiles, cancellation identities, and the two headline scans
(amplitude scaling of the local-smoothing quantity, modified-energy drift).

Every identity here returns a raw value together with the sum of absolute
values of the terms that built it, so callers report honest relative
residuals rather than comparisons against zero.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field as dc_field

import numpy as np

from .energy import energy_mode
from .evolve import ModelConfig, _run, _stack_real, rhs_split
from .fields import (FourierField, phi_dyadic, riesz_potential, sobolev_norm,
                     space_time_norm, xsb_norm_diagnostic)
from .pseudo import verify_ibp
from .resonance import (classify_array, omega3, omega3_factored, omega5, omega7,
                        pair_sums)
from .resonance import classify  # noqa: F401  (bench/test_bench.py traces it here)

__all__ = [
    "IdentityCheck",
    "single_mode_profile",
    "decaying_profile",
    "profile_from_csv",
    "profile_to_csv",
    "random_real_field",
    "resonant_pairing",
    "diff_resonant_pairing",
    "quartic_skew_sum",
    "sextic_skew_sum",
    "suite_resonance",
    "suite_partition",
    "suite_pairing",
    "suite_skew",
    "suite_ibp",
    "run_identity_suites",
    "SmoothingReport",
    "smoothing_scan",
    "EnergyDriftReport",
    "energy_drift_scan",
    "norms_report",
]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    residual: float
    tol: float
    passed: bool


def _check(name: str, residual: float, tol: float) -> IdentityCheck:
    return IdentityCheck(name, float(residual), float(tol), bool(residual <= tol))


# ---------------------------------------------------------------- profiles

def single_mode_profile(max_mode: int, eps: float) -> FourierField:
    """u0 = 2 eps cos(2 pi x): the sharp small test datum."""
    return FourierField.from_modes(max_mode, {1: eps}, hermitize=True)


def decaying_profile(max_mode: int, eps: float, sigma: float, seed: int = 0) -> FourierField:
    """|u^(k)| = eps <k>^{-sigma} with seeded random phases.

    Phases depend on the seed only, never on eps, so an amplitude sweep with a
    fixed seed rescales one fixed field.
    """
    rng = np.random.default_rng(seed)
    K = max_mode
    amps = (1.0 + np.arange(1, K + 1) ** 2) ** (-sigma / 2.0)
    phases = np.exp(2j * np.pi * rng.uniform(size=K))
    out = FourierField.zeros(K)
    out.coeffs[K + 1:] = amps * phases
    out.coeffs[:K] = np.conj((amps * phases)[::-1])
    out.coeffs[K] = rng.choice([-1.0, 1.0])
    return eps * out


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def profile_from_csv(path: str, max_mode: int) -> FourierField:
    """Read (k, re, im) rows into a field of degree max_mode; modes the file
    does not give are zero.

    A first row whose first field is not an integer is a header; blank lines
    are skipped. Every other row is an integer k with |k| <= max_mode and two
    finite floats, with no k twice: anything else raises ValueError naming
    the file and the line.
    """
    rows = {}
    with open(path, newline="") as fh:
        for line, row in enumerate(csv.reader(fh), start=1):
            if not row or (line == 1 and not _is_int(row[0])):
                continue
            try:
                k, re, im = row
                k, c = int(k), float(re) + 1j * float(im)
            except ValueError:
                raise ValueError(f"{path}, line {line}: expected an integer k and "
                                 f"two floats, got {row}") from None
            if abs(k) > max_mode:
                raise ValueError(f"{path}, line {line}: mode {k} outside "
                                 f"[-{max_mode}, {max_mode}]")
            if not np.isfinite(c):
                raise ValueError(f"{path}, line {line}: non-finite coefficient of mode {k}")
            if k in rows:
                raise ValueError(f"{path}, line {line}: mode {k} given twice")
            rows[k] = c
    if not rows:
        raise ValueError(f"no coefficient rows in {path}")
    return FourierField.from_modes(max_mode, rows)


def profile_to_csv(field: FourierField, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re", "im"])
        for k in field.modes:
            c = field.mode(int(k))
            w.writerow([int(k), repr(c.real), repr(c.imag)])


def random_real_field(max_mode: int, rng: np.random.Generator,
                      decay: float = 0.0) -> FourierField:
    c = rng.standard_normal(2 * max_mode + 1) + 1j * rng.standard_normal(2 * max_mode + 1)
    if decay > 0.0:
        ks = np.arange(-max_mode, max_mode + 1)
        c *= (1.0 + ks.astype(float) ** 2) ** (-decay / 2.0)
    return FourierField(c, copy=False).hermitized()


# ------------------------------------------------------- pairing identities

def resonant_pairing(u: FourierField, N: int) -> tuple[complex, float]:
    """Pairing of the resonant tendency against the field on one block:
    sum_k phi_N(k)^2 B^(k) u^(-k). Purely imaginary for real u."""
    _, b = rhs_split(u)
    w2 = phi_dyadic(N, u.modes) ** 2
    terms = w2 * b.coeffs * u.coeffs[::-1]
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def diff_resonant_pairing(u: FourierField, w: FourierField, N: int) -> tuple[complex, float]:
    """Same pairing for the polarized resonant flow of a difference w:
    sum_k phi_N(k)^2 (-3)(2 pi i k)|u^(k)|^2 w^(k) w^(-k). Identically zero
    for real u, w (each term is i times a real number, odd in k)."""
    if u.max_mode != w.max_mode:
        raise ValueError("fields must share max_mode")
    ks = u.modes
    w2 = phi_dyadic(N, ks) ** 2
    terms = w2 * (-3.0) * (2j * np.pi * ks) * np.abs(u.coeffs) ** 2 \
        * w.coeffs * w.coeffs[::-1]
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


# ------------------------------------------------------------ skew sums

def quartic_skew_sum(u: FourierField, cutoff: int) -> tuple[complex, float]:
    """sum over k12+k13+k2+k3 = 0 with k2+k3 != 0 and all |entries| <= cutoff of
    (1/(k2+k3)) u^(k12) u^(k13) u^(k2) u^(k3).

    Vanishes for any coefficients by the swap (k12,k13) <-> (k2,k3), which
    flips the sign of the weight; the cutoff is swap-symmetric so the
    cancellation survives truncation exactly.
    """
    c = int(cutoff)
    ks = np.arange(-c, c + 1)
    uk = u.gather(ks)
    # pair sums P(s) = sum_{k12+k13=s} u^(k12) u^(k13) over the window, s = -2c..2c,
    # and their absolute counterparts (P(-s) is the reversed array): bincount
    # over the outer product, because np.convolve calls BLAS, whose first use
    # pages in about 0.13 MB per dtype that nothing else in the suites touches
    prod = np.multiply.outer(uk, uk).ravel()
    at = np.add.outer(ks, ks).ravel() + 2 * c
    pair = np.bincount(at, prod.real) + 1j * np.bincount(at, prod.imag)
    apair = np.bincount(at, np.abs(prod))
    s = np.arange(-2 * c, 2 * c + 1)
    nz = s != 0
    total = np.sum((pair[::-1] * pair)[nz] / s[nz])
    scale = np.sum((apair[::-1] * apair)[nz] / np.abs(s[nz]))
    return complex(total), float(scale)


def sextic_skew_sum(u: FourierField, k: int, cutoff: int) -> tuple[float, float]:
    """Imaginary part of the sextic resonant-correction sum at output mode k:

        sum (k/(k2+k3)) u^(k1) u^(k2) u^(k3) u^(-k1) u^(k42) u^(k43)

    over k1 = k-k2-k3, k42+k43 = -(k2+k3) != 0, with |k2|,|k3|,|k42|,|k43|
    <= cutoff. Real for real u because u^(k1) u^(-k1) = |u^(k1)|^2 and the two
    pair factors are complex conjugates. Computed by the direct sum, not the
    factorized proof, so the return is an honest residual.

    Each term is built from three factors, indexed by sigma = k2+k3: the
    1-D (k/sigma) u^(k1) u^(-k1), the 2-D u^(k2) u^(k3) and the 2-D
    u^(k42) u^(k43) over (sigma, k42), zero where |k43| > cutoff. One
    (2c+1)^3 array then holds every term."""
    c = int(cutoff)
    ks = np.arange(-c, c + 1)
    sig = np.arange(-2 * c, 2 * c + 1)
    nz = sig != 0
    weight = np.zeros(sig.shape, dtype=complex)   # zero at sigma = 0
    weight[nz] = (k / sig[nz]) * u.gather(k - sig[nz]) * u.gather(sig[nz] - k)
    uk = u.gather(ks)
    k43 = -sig[:, None] - ks[None, :]
    pair = np.where(np.abs(k43) <= c, uk * u.gather(k43), 0)
    at = np.add.outer(ks, ks) + 2 * c                # sigma + 2c of (k2, k3)
    terms = pair[at]
    terms *= (weight[at] * np.multiply.outer(uk, uk))[..., None]
    return float(np.imag(np.sum(terms))), float(np.sum(np.abs(terms)))


# ------------------------------------------------------------- suites

def suite_resonance(seed: int = 0, exhaustive_bound: int = 24,
                    n_random: int = 2000) -> list[IdentityCheck]:
    """Exact-integer checks of the resonance functions and their splittings.

    The exhaustive box runs on int64 arrays, one k1 slab at a time (exact for
    any box that fits in memory; omega3_factored refuses a slab that could
    overflow); the wide draws, in [-2^20, 2^20] so that their cubes leave
    int64, are drawn in one call per kind and checked in Python ints."""
    b = exhaustive_bound
    wide = 2 ** 20
    ks = np.arange(-b, b + 1, dtype=np.int64)
    k2, k3 = np.meshgrid(ks, ks, indexing="ij")
    worst3 = 0
    for k1 in ks:
        diff = omega3(k1, k2, k3) - omega3_factored(k1, k2, k3)
        worst3 = max(worst3, int(np.abs(diff).max()))
    rng = np.random.default_rng(seed)
    for row in rng.integers(-wide, wide + 1, size=(n_random, 3)):
        k1, k2, k3 = row.tolist()
        worst3 = max(worst3, abs(omega3(k1, k2, k3) - omega3_factored(k1, k2, k3)))
    worst5 = 0
    for row in rng.integers(-wide, wide + 1, size=(n_random, 5)):
        k = row.tolist()
        k.append(-sum(k))
        split = omega3(k[0], k[1], k[2]) + omega3(k[3], k[4], k[5])
        worst5 = max(worst5, abs(omega5(k) - split))
    worst7 = 0
    for row in rng.integers(-wide, wide + 1, size=(n_random, 7)):
        k = row.tolist()
        k.append(-sum(k))
        split = omega5(k[:5] + [-sum(k[:5])]) + omega3(k[5], k[6], k[7])
        worst7 = max(worst7, abs(omega7(k) - split))
    return [
        _check("omega3 factored form", worst3, 0),
        _check("omega5 = omega3 + omega3 split", worst5, 0),
        _check("omega7 = omega5 + omega3 split", worst7, 0),
    ]


def suite_partition(bound: int = 48) -> list[IdentityCheck]:
    """classify_array, one k1 slab at a time: each triple lands in the one
    A-class of the first slot holding the smallest pair sum, and in one
    D-class, "none" exactly where a pair sum is zero."""
    ks = np.arange(-bound, bound + 1)
    k2, k3 = np.meshgrid(ks, ks, indexing="ij")
    bad = 0
    for k1 in ks:
        a_class, d_class = classify_array(k1, k2, k3)
        m1, m2, m3 = pair_sums(k1, k2, k3)
        m_min = np.minimum(np.minimum(m1, m2), m3)
        first = np.where(m1 == m_min, 1, np.where(m2 == m_min, 2, 3))
        bad += np.count_nonzero(a_class != first)
        bad += np.count_nonzero((d_class < 0) | (d_class > 2))
        bad += np.count_nonzero((m_min == 0) != (d_class == 0))
    return [_check("A/D classification total and exclusive", bad, 0)]


def suite_pairing(seed: int = 0, max_mode: int = 64, n_fields: int = 20,
                  tol: float = 1e-12) -> list[IdentityCheck]:
    rng = np.random.default_rng(seed)
    worst_self = 0.0
    worst_diff = 0.0
    for _ in range(n_fields):
        u = random_real_field(max_mode, rng, decay=0.5)
        w = random_real_field(max_mode, rng, decay=0.5)
        for N in (8, 16, 32):
            val, scale = resonant_pairing(u, N)
            if scale > 0:
                worst_self = max(worst_self, abs(val.real) / scale)
            dval, dscale = diff_resonant_pairing(u, w, N)
            if dscale > 0:
                worst_diff = max(worst_diff, abs(dval) / dscale)
    return [
        _check("resonant pairing is purely imaginary", worst_self, tol),
        _check("polarized resonant pairing vanishes", worst_diff, tol),
    ]


def suite_skew(seed: int = 0, max_mode: int = 96, out_modes: tuple[int, ...] = (32, 64),
               n_fields: int = 20, tol: float = 1e-12) -> list[IdentityCheck]:
    rng = np.random.default_rng(seed)
    worst_q = 0.0
    worst_s = 0.0
    for _ in range(n_fields):
        u = random_real_field(max_mode, rng, decay=0.5)
        for k in out_modes:
            c = int(np.floor(k ** (2.0 / 3.0)))
            val, scale = quartic_skew_sum(u, c)
            if scale > 0:
                worst_q = max(worst_q, abs(val) / scale)
            im, sscale = sextic_skew_sum(u, k, c)
            if sscale > 0:
                worst_s = max(worst_s, abs(im) / sscale)
    return [
        _check("quartic skew sum vanishes", worst_q, tol),
        _check("sextic resonant sum is real", worst_s, tol),
    ]


def suite_ibp(seed: int = 0, max_mode: int = 128, n_fields: int = 100,
              combos: tuple[tuple[int, int], ...] = ((16, 1), (32, 1), (32, 2),
                                                     (64, 1), (64, 2), (64, 4)),
              tol: float = 1e-10) -> list[IdentityCheck]:
    """Max verify_ibp residual over random real triples, all (N, M) combos."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(n_fields):
        f1 = random_real_field(max_mode, rng)
        f2 = random_real_field(max_mode, rng)
        g = random_real_field(max_mode, rng)
        N, M = combos[i % len(combos)]
        worst = max(worst, verify_ibp(M, N, f1, f2, g))
    return [_check("integration-by-parts identity", worst, tol)]


def run_identity_suites(seed: int = 0, quick: bool = True) -> list[IdentityCheck]:
    """The CLI-facing bundle. quick=True trims the exhaustive ranges to keep
    the command interactive; the acceptance tests run the full-size versions."""
    if quick:
        checks = suite_resonance(seed, exhaustive_bound=12, n_random=500)
        checks += suite_partition(bound=24)
        checks += suite_pairing(seed, max_mode=48, n_fields=5)
        checks += suite_skew(seed, max_mode=64, out_modes=(32,), n_fields=5)
        checks += suite_ibp(seed, max_mode=96, n_fields=12)
    else:
        checks = suite_resonance(seed)
        checks += suite_partition()
        checks += suite_pairing(seed)
        checks += suite_skew(seed)
        checks += suite_ibp(seed)
    return checks


# ------------------------------------------------------------- scans

@dataclass
class SmoothingReport:
    eps_list: list[float]
    watch_modes: list[int]
    sup_deviation: dict = dc_field(default_factory=dict)  # {eps: {k: sup_t dev}}
    ratios: dict = dc_field(default_factory=dict)         # {k: dev(2eps)/dev(eps)}


def smoothing_scan(base: FourierField, model: ModelConfig, eps_list: list[float],
                   watch_modes: list[int]) -> SmoothingReport:
    """sup_t | |u^(k,t)|^2 - |u^(k,0)|^2 | per watched mode and amplitude,
    each amplitude eps a run of model from eps * base.

    The deviation is quartic in the amplitude at leading order (one cubic
    interaction paired against the mode itself), so doubling eps should
    multiply it by ~16; the report's ratios make that scaling inspectable.
    The run keeps a running max per watched mode, no states. The
    distinct amplitudes run together through the run generator that
    `simulate` consumes, so the scan raises BlowUpError for the first listed
    amplitude that blows up, at its own time, with its last finite state.
    """
    _stack_real([base], model)
    report = SmoothingReport(list(eps_list), list(watch_modes))
    amps = list(dict.fromkeys(eps_list))
    if amps:
        K = model.max_mode
        modes = list(dict.fromkeys(watch_modes))
        seen = [k for k in modes if abs(k) <= K]   # the others read 0
        pos = np.array([k + K for k in seen], dtype=np.intp)
        run = _run([eps * base for eps in amps], model, 1)
        # as in _step_rows, the run's finite checks end a blow-up, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            _, c, _ = next(run)
            amp0 = np.abs(c[:, pos]) ** 2
            dev = np.zeros_like(amp0)
            for _, c, _ in run:
                # rows dropped after a blow-up keep their max; the run raises at its end
                m = len(c)
                dev[:m] = np.maximum(dev[:m], np.abs(np.abs(c[:, pos]) ** 2 - amp0[:m]))
        for r, eps in enumerate(amps):
            col = dict(zip(seen, dev[r].tolist()))
            report.sup_deviation[eps] = {k: col.get(k, 0.0) for k in modes}
    for k in watch_modes:
        pairs = {}
        for eps in eps_list:
            if 2 * eps in report.sup_deviation:
                lo = report.sup_deviation[eps][k]
                hi = report.sup_deviation[2 * eps][k]
                if lo > 0:
                    pairs[eps] = hi / lo
        report.ratios[k] = pairs
    return report


@dataclass
class EnergyDriftReport:
    k: int
    times: list[float]
    quadratic: list[float]
    total: list[float]
    drift_quadratic: float
    drift_total: float
    ratio: float


def energy_drift_scan(u0: FourierField, model: ModelConfig, k_watch: int,
                      sample_every: int = 25) -> EnergyDriftReport:
    """Track the plain quadratic density and the corrected energy of one high
    mode along a run of model from u0; the corrected drift should be the
    smaller.

    The corrections cancel the nonresonant quartic drift of the watched
    mode, so the comparison means something only if the run resolves that
    drift. With model.integrator "ifrk4" it does not at the criterion-9 shape
    (K = 2048, k_watch = 1024, dt = 2e-4): every nondegenerate triple feeding
    mode 1024 turns its phase by at least (2 pi)^3 * 6138 * dt ~ 305 rad per
    step, which IFRK4 samples at three points, so both measured drifts are
    integration error and their ratio is 1 to six digits. A first-order
    Duhamel sum over those triples, with exact phases and frozen amplitudes,
    gives a quadratic drift of 5.6e-13 and a ratio of 0.0034 at eps = 0.05.
    "exact-phase" integrates every phase exactly and measures 5.57e-13 and
    0.0036 there; it is the one whose ratio tests the mechanism. "ifrk4"
    stays the CLI default because it takes seconds where the exact-phase
    run takes minutes.

    The states are those `simulate` keeps with this sample_every, each
    evaluated as the run reaches it; the scan keeps none of them."""
    times, quad, tot = [], [], []
    for t, c, _ in _run([u0], model, sample_every):
        with np.errstate(over="ignore", invalid="ignore"):   # as in smoothing_scan
            rep = energy_mode(FourierField(c[0], copy=False), k_watch)
        times.append(t)
        quad.append(rep.quadratic)
        tot.append(rep.total)
    dq = float(np.max(np.abs(np.array(quad) - quad[0])))
    dtot = float(np.max(np.abs(np.array(tot) - tot[0])))
    ratio = dtot / dq if dq > 0 else float("inf")
    return EnergyDriftReport(k_watch, times, quad, tot, dq, dtot, ratio)


def norms_report(snapshots, times, s: float = 1.0 / 3.0) -> dict[str, float]:
    """The norms the smoothing argument runs on, evaluated on a sampled
    trajectory: sup-in-time H^s, L^4_t L^20_x, the 5/24-smoothed L^4_t L^4_x,
    and the dispersive-weight diagnostic at (s - 11/10, 1)."""
    fields = [getattr(s_, "field", s_) for s_ in snapshots]
    riesz = [riesz_potential(f, 5.0 / 24.0) for f in fields]
    return {
        "linf_hs": float(max(sobolev_norm(f, s) for f in fields)),
        "l4t_l20x": space_time_norm(fields, times, 4.0, 20.0),
        "l4t_l4x_d524": space_time_norm(riesz, times, 4.0, 4.0),
        "xsb_diag": xsb_norm_diagnostic(fields, times, s - 1.1, 1.0),
    }
