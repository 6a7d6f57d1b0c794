"""Acceptance gate: nine criteria, one test and one pass/fail line each.

Every tolerance and experiment shape is pinned as a module constant; the
JSON records under tests/golden/ hold the calibrated regression baselines.

Criterion 9 runs its pinned shape twice. The IFRK4 records ("runs") stay
pinned by their golden bands but are not gated: at dt = 2e-4 every triple
feeding mode 1024 turns its phase by at least ~305 rad per step, which IFRK4
samples at three points, so both drifts it reports are integration error
(ratio 1.0000006). A first-order Duhamel sum over those triples, with
exact phases and frozen amplitudes, gives quadratic drifts of 5.58e-13 and
3.49e-14 at amplitudes 0.05 and 0.025 and a ratio of 0.0034 at both. The
gate, ratio < 1 at both amplitudes, applies to the exact-phase records
("resolved_runs"): that integrator advances every triple with its exactly
integrated phase, so the drift it reports is the flow's. README.md
("Acceptance status") has the measured values.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from remkdv.diagnostics import (
    decaying_profile,
    energy_drift_scan,
    random_real_field,
    single_mode_profile,
    smoothing_scan,
    suite_ibp,
    suite_pairing,
    suite_skew,
)
from remkdv.energy import coercivity_margin, default_block_floor
from remkdv.evolve import ModelConfig, gauge_backward, gauge_forward, simulate
from remkdv.fields import (
    FourierField,
    dyadic_blocks,
    phi_dyadic,
    sobolev_norm,
)
from remkdv.pseudo import ibp_symbols
from remkdv.resonance import (
    MED_RATIO,
    a_cell,
    classify,
    classify_array,
    d1_triples,
    omega3,
    omega3_factored,
    omega5,
    omega7,
)

GOLDEN = Path(__file__).parent / "golden"

# criterion 1: resonance identities, exact integer arithmetic
C1_TIME_BUDGET = 60.0
C1_EXHAUSTIVE_BOUND = 64
C1_N_WIDE = 1_000_000
C1_WIDE = 2 ** 20
C1_GAMMA5_BOUND = 12
C1_N_SEVEN = 100_000

# criterion 2: partition properties
C2_EXHAUSTIVE_BOUND = 64
C2_LP_RANGE = 4096
C2_LP_TOL = 1e-12

# criterion 3: integration-by-parts identity
C3_TOL = 1e-10
C3_TIME_BUDGET = 120.0
C3_MAX_MODE = 128
C3_N_FIELDS = 100
C3_COMBOS = ((16, 1), (32, 1), (32, 2), (64, 1), (64, 2), (64, 4))
C3_ETA_SUP = 8.0

# criterion 4: exact cancellations
C4_TOL = 1e-12
C4_N_FIELDS = 20
C4_OUT_MODES = (32, 64)

# criterion 5: solver correctness
C5_L2_TOL = 1e-8
C5_K, C5_DT, C5_T, C5_EPS = 128, 1e-4, 0.5, 0.1
C5_ORDER_WINDOW = (3.5, 4.5)
C5_ORDER_DTS = (2e-4, 1e-4, 5e-5)
C5_ORDER_K, C5_ORDER_EPS, C5_ORDER_T = 32, 2.0, 0.05
C5_FIXED_POINT_TOL = 1e-15  # ulp scale for an O(1) constant

# criterion 6: gauge equivalence
C6_SUP_TOL = 1e-6
C6_ROUNDTRIP_TOL = 1e-12
C6_K, C6_DT, C6_T, C6_EPS = 128, 1e-4, 0.25, 0.1

# criterion 7: coercivity sandwich
C7_N_PAIRS = 100
C7_S_PRIME = 5.0 / 24.0
C7_WINDOW = (0.5, 2.0)
C7_K = 256
C7_LIVE_K = 2048

# criterion 8: smoothing-effect amplitude scaling
C8_RATIO_WINDOW = (8.0, 32.0)
C8_K, C8_DT, C8_T, C8_SIGMA = 256, 1e-4, 0.25, 2.0
C8_EPS_LIST = [0.05, 0.1]
C8_WATCH = [32, 64, 128]
C8_GOLDEN_BAND = 0.2

# criterion 9: modified-energy mechanism at high mode
C9_TIME_BUDGET = 600.0
C9_K, C9_WATCH = 2 ** 11, 2 ** 10
C9_T, C9_DT, C9_SIGMA = 0.1, 2e-4, 1.0
C9_EPS_MAX = 0.05
C9_GOLDEN_BAND = 0.2


def test_criterion_1_resonance_identities():
    t0 = time.monotonic()
    # dual cubic formulas agree exactly on the exhaustive box (int64 is exact
    # here: the largest cube is (3*64)^3, far inside the 2^63 range)
    b = C1_EXHAUSTIVE_BOUND
    ks = np.arange(-b, b + 1, dtype=np.int64)
    k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
    lhs = k1 ** 3 + k2 ** 3 + k3 ** 3 - (k1 + k2 + k3) ** 3
    assert np.array_equal(lhs, -3 * (k1 + k2) * (k1 + k3) * (k2 + k3))

    # the scalar entry points on wide random triples, in exact Python ints
    rng = np.random.default_rng(0)
    wide = rng.integers(-C1_WIDE, C1_WIDE + 1, size=(C1_N_WIDE, 3)).tolist()
    assert all(omega3(a, b_, c) == omega3_factored(a, b_, c)
               for a, b_, c in wide)

    # quintic splitting: exhaustive over the zero-sum six-tuples, chunked on
    # the first slot; both sides are sums of cubes so int64 stays exact
    b5 = C1_GAMMA5_BOUND
    r5 = np.arange(-b5, b5 + 1, dtype=np.int64)
    g2, g3, g4, g5 = np.meshgrid(r5, r5, r5, r5, indexing="ij")
    checked = 0
    for a in r5:
        k6 = -(a + g2 + g3 + g4 + g5)
        ok = np.abs(k6) <= b5
        full = a ** 3 + g2 ** 3 + g3 ** 3 + g4 ** 3 + g5 ** 3 + k6 ** 3
        first = (a ** 3 + g2 ** 3 + g3 ** 3) - (a + g2 + g3) ** 3
        second = (g4 ** 3 + g5 ** 3 + k6 ** 3) - (g4 + g5 + k6) ** 3
        assert np.array_equal(full[ok], (first + second)[ok])
        checked += int(np.count_nonzero(ok))
    assert checked > 1_000_000
    # and through the scalar functions on a random slice of the same set
    for row in rng.integers(-b5, b5 + 1, size=(2000, 5)).tolist():
        tup = row + [-sum(row)]
        assert omega5(tup) == omega3(*tup[:3]) + omega3(*tup[3:])

    # septic additivity on random zero-sum eight-tuples
    for row in rng.integers(-C1_WIDE, C1_WIDE + 1, size=(C1_N_SEVEN, 7)).tolist():
        ks8 = row + [-sum(row)]
        inner = ks8[3:6]
        assert omega7(ks8) == (omega5(ks8[:3] + [sum(inner)] + ks8[6:])
                               + omega3(*inner))

    assert time.monotonic() - t0 <= C1_TIME_BUDGET


def test_criterion_2_partition_properties():
    # the A-indicators tile, and the scalar classifier lands on the same
    # cell for every triple in the exhaustive box
    b = C2_EXHAUSTIVE_BOUND
    ks = np.arange(-b, b + 1)
    k1, k2, k3 = np.meshgrid(ks, ks, ks, indexing="ij")
    m1, m2, m3 = np.abs(k2 + k3), np.abs(k1 + k3), np.abs(k1 + k2)
    a1, a2, a3 = (a_cell(j, m1, m2, m3) for j in (1, 2, 3))
    assert np.array_equal(a1.astype(int) + a2 + a3, np.ones_like(k1))
    expected_a = (1 * a1 + 2 * a2 + 3 * a3).astype(np.int8)

    srt = np.sort(np.stack([m1, m2, m3]), axis=0)
    m_min, m_med = srt[0], srt[1]
    k_out = np.abs(k1 + k2 + k3)
    is_none = m_min == 0
    is_d1 = ~is_none & (m_med <= MED_RATIO * k_out)
    expected_d = np.where(is_none, 0, np.where(is_d1, 1, 2)).astype(np.int8)

    d_names = {"none": 0, "D1": 1, "D2": 2}
    n = 2 * b + 1
    for i in range(n):
        for j in range(n):
            for l in range(n):
                tc = classify(ks[i], ks[j], ks[l])
                assert tc.a_class == expected_a[i, j, l]
                assert d_names[tc.d_class] == expected_d[i, j, l]
        # the array classifier lands on the same cells, one k1 slab at a time
        arr_a, arr_d = classify_array(k1[i], k2[i], k3[i])
        assert np.array_equal(arr_a, expected_a[i])
        assert np.array_equal(arr_d, expected_d[i])

    # the box has no D1 triples (they need |k1+k2+k3| >= 512); check the
    # disjointness and totality of the D-split on constructed ones as well
    assert not np.any(is_d1)
    d1_rows = d1_triples(1024, 2048)
    assert len(d1_rows) > 0
    for row in np.asarray(d1_rows)[:200].tolist():
        assert classify(*row).d_class == "D1"

    # smooth dyadic partition of unity on the resolved range
    lp_ks = np.arange(-C2_LP_RANGE, C2_LP_RANGE + 1)
    total = np.zeros(lp_ks.shape)
    for N in dyadic_blocks(2 * C2_LP_RANGE):
        total += phi_dyadic(N, lp_ks)
    assert np.max(np.abs(total - 1.0)) <= C2_LP_TOL


def test_criterion_3_integration_by_parts():
    t0 = time.monotonic()
    checks = suite_ibp(seed=0, max_mode=C3_MAX_MODE, n_fields=C3_N_FIELDS,
                       combos=C3_COMBOS, tol=C3_TOL)
    for c in checks:
        assert c.tol == C3_TOL
        assert c.passed, f"{c.name}: residual {c.residual:.3e}"

    # sampled sup of the assembled symbol stays under the declared bound
    for N, M in C3_COMBOS:
        syms = ibp_symbols(M, N)
        assert syms.eta_total.sup_bound <= C3_ETA_SUP
        s = np.arange(-2 * M, 2 * M + 1)
        pair, k3 = np.meshgrid(s, np.arange(-4 * N, 4 * N + 1,
                                            max(1, N // 16)), indexing="ij")
        zero = np.zeros_like(pair)
        vals = np.abs(syms.eta_total.eval(pair, zero, k3))
        assert vals.max() <= C3_ETA_SUP + 1e-12
    assert time.monotonic() - t0 <= C3_TIME_BUDGET


def test_criterion_4_exact_cancellations():
    checks = suite_pairing(seed=0, n_fields=C4_N_FIELDS, tol=C4_TOL)
    checks += suite_skew(seed=0, out_modes=C4_OUT_MODES,
                         n_fields=C4_N_FIELDS, tol=C4_TOL)
    assert len(checks) == 4
    for c in checks:
        assert c.tol == C4_TOL
        assert c.passed, f"{c.name}: residual {c.residual:.3e}"


def test_criterion_5_solver_correctness():
    u0 = single_mode_profile(C5_K, C5_EPS)
    res = simulate(u0, ModelConfig(max_mode=C5_K, dt=C5_DT, t_final=C5_T))
    assert res.final.field.mode(0) == u0.mode(0)  # exact, not approximate
    assert abs(res.final.field.l2_norm() - u0.l2_norm()) <= C5_L2_TOL

    # temporal self-convergence order on the pinned dt ladder
    finals = []
    for dt in C5_ORDER_DTS:
        cfg = ModelConfig(max_mode=C5_ORDER_K, dt=dt, t_final=C5_ORDER_T)
        out = simulate(single_mode_profile(C5_ORDER_K, C5_ORDER_EPS), cfg)
        finals.append(out.final.field.coeffs)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = float(np.log2(e1 / e2))
    assert C5_ORDER_WINDOW[0] <= order <= C5_ORDER_WINDOW[1]

    # constant initial data is a machine-precision fixed point: the mean is
    # pinned bitwise, the zero modes stay at the FFT roundoff floor
    const = FourierField.from_modes(C5_K, {0: 0.4})
    out = simulate(const, ModelConfig(max_mode=C5_K, dt=1e-3, t_final=0.01))
    assert out.final.field.mode(0) == const.mode(0)
    assert np.max(np.abs(out.final.field.coeffs - const.coeffs)) \
        <= C5_FIXED_POINT_TOL


def test_criterion_6_gauge_equivalence():
    u0 = single_mode_profile(C6_K, C6_EPS)
    plain_cfg = ModelConfig(max_mode=C6_K, dt=C6_DT, t_final=C6_T,
                            renormalized=False)
    renorm_cfg = ModelConfig(max_mode=C6_K, dt=C6_DT, t_final=C6_T,
                             renormalized=True)
    sample = 250
    plain = simulate(u0, plain_cfg, sample_every=sample)
    renorm = simulate(u0, renorm_cfg, sample_every=sample)
    sup = 0.0
    for sp, sr in zip(plain.snapshots, renorm.snapshots):
        assert sp.t == sr.t
        gauged = gauge_forward(sp, plain_cfg)
        sup = max(sup, sobolev_norm(gauged.field - sr.field, 1.0 / 3.0))
    assert sup <= C6_SUP_TOL

    back = gauge_backward(gauge_forward(plain.final, plain_cfg), plain_cfg)
    assert np.max(np.abs(back.field.coeffs - plain.final.field.coeffs)) \
        <= C6_ROUNDTRIP_TOL


def _unit_ball_pair(max_mode, rng, target=None):
    out = []
    for _ in range(2):
        f = random_real_field(max_mode, rng, decay=1.0)
        r = target if target is not None else rng.uniform(0.2, 1.0)
        out.append((r / sobolev_norm(f, 1.0 / 3.0)) * f)
    return out


def test_criterion_7_coercivity_sandwich():
    rng = np.random.default_rng(0)
    lo, hi = C7_WINDOW
    for _ in range(C7_N_PAIRS):
        u, v = _unit_ball_pair(C7_K, rng)
        n0 = default_block_floor(u, v)
        assert n0 >= 512  # the largeness rule keeps every resolved block plain
        m = coercivity_margin(u, v, s_prime=C7_S_PRIME)
        assert lo <= m <= hi

    # same sandwich where the corrected blocks actually engage: pairs whose
    # norms sum below one, at a resolution with blocks above the floor
    engaged = False
    for seed in (1, 2, 3):
        rng_live = np.random.default_rng(seed)
        u, v = _unit_ball_pair(C7_LIVE_K, rng_live, target=0.45)
        n0 = default_block_floor(u, v)
        assert n0 == 512
        m = coercivity_margin(u, v, s_prime=C7_S_PRIME)
        assert lo <= m <= hi
        engaged = engaged or m != 1.0
    assert engaged  # at least one live pair got a nonzero correction


def test_criterion_8_smoothing_amplitude_scaling():
    rep = smoothing_scan(decaying_profile(C8_K, 1.0, C8_SIGMA, seed=0),
                         ModelConfig(max_mode=C8_K, dt=C8_DT, t_final=C8_T),
                         C8_EPS_LIST, C8_WATCH)
    for k in C8_WATCH:
        ratio = rep.ratios[k][C8_EPS_LIST[0]]
        assert C8_RATIO_WINDOW[0] <= ratio <= C8_RATIO_WINDOW[1], \
            f"k={k}: doubling ratio {ratio:.2f} outside the quartic window"

    # regression against the calibrated baseline record
    golden = json.loads((GOLDEN / "smoothing.json").read_text())
    assert golden["config"]["max_mode"] == C8_K
    assert golden["config"]["eps_list"] == C8_EPS_LIST
    for k in C8_WATCH:
        want = golden["ratios"][str(k)]
        assert abs(rep.ratios[k][C8_EPS_LIST[0]] - want) <= C8_GOLDEN_BAND * want
        for eps in C8_EPS_LIST:
            w = golden["sup_deviation"][str(eps)][str(k)]
            assert abs(rep.sup_deviation[eps][k] - w) <= C8_GOLDEN_BAND * w


def _c9_scan(run):
    c = run["config"]
    # the pinned experiment shape, not whatever the record happens to hold
    assert c["max_mode"] == C9_K and c["k_watch"] == C9_WATCH
    assert c["t_final"] == C9_T and c["dt"] == C9_DT
    assert c["sigma"] == C9_SIGMA and c["eps"] <= C9_EPS_MAX
    model = ModelConfig(max_mode=c["max_mode"], dt=c["dt"], t_final=c["t_final"],
                        integrator=c.get("integrator", "ifrk4"))
    u0 = decaying_profile(c["max_mode"], c["eps"], c["sigma"], seed=c["seed"])
    rep = energy_drift_scan(u0, model, c["k_watch"], sample_every=c["sample_every"])
    for got, want in ((rep.drift_quadratic, run["drift_quadratic"]),
                      (rep.drift_total, run["drift_total"]),
                      (rep.ratio, run["ratio"])):
        assert abs(got - want) <= C9_GOLDEN_BAND * abs(want)
    return c["eps"], rep.ratio


@pytest.mark.slow
def test_criterion_9_modified_energy_drift():
    t0 = time.monotonic()
    golden = json.loads((GOLDEN / "energy_drift.json").read_text())
    # IFRK4 at the pinned dt: banded, not gated (it measures its own error)
    for run in golden["runs"]:
        assert run["config"].get("integrator", "ifrk4") == "ifrk4"
        _c9_scan(run)
    measured = {}
    for run in golden["resolved_runs"]:
        assert run["config"]["integrator"] == "exact-phase"
        eps, ratio = _c9_scan(run)
        measured[eps] = ratio
    assert time.monotonic() - t0 <= C9_TIME_BUDGET

    assert sorted(measured) == sorted(r["config"]["eps"] for r in golden["runs"])
    for eps in sorted(measured, reverse=True):
        ratio = measured[eps]
        assert ratio < 1.0, (
            f"at eps={eps} the exact-phase run gives a corrected/quadratic "
            f"drift ratio of {ratio:.9f}: the corrections do not cancel the "
            f"nonresonant quartic drift of mode {C9_WATCH}. A first-order "
            f"Duhamel sum over the triples feeding it (exact phases, frozen "
            f"amplitudes) gives 0.0034 at this shape. The IFRK4 ratio is not "
            f"evidence either way: its phases turn >= 305 rad per step at "
            f"dt={C9_DT}. See README.md, 'Acceptance status'."
        )
