"""Diagnostics tests: profile builders, the cancellation identities and
their bundled suites, the scan reports, the norms report, and the
command-line wrapper (exit codes, outputs, determinism)."""
import itertools
import json
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remkdv import diagnostics, resonance
from remkdv.cli import DEFAULTS, main
from remkdv.diagnostics import (
    decaying_profile,
    diff_resonant_pairing,
    energy_drift_scan,
    norms_report,
    profile_from_csv,
    profile_to_csv,
    quartic_skew_sum,
    random_real_field,
    resonant_pairing,
    run_identity_suites,
    sextic_skew_sum,
    single_mode_profile,
    smoothing_scan,
    suite_partition,
    suite_resonance,
)
from remkdv.energy import energy_mode
from remkdv.evolve import BlowUpError, ModelConfig, SimulationState, simulate, step
from remkdv.fields import FourierField, phi_dyadic, sobolev_norm


class TestProfiles:
    def test_single_mode(self):
        u = single_mode_profile(8, 0.3)
        assert u.mode(1) == pytest.approx(0.3)
        assert u.mode(-1) == pytest.approx(0.3)
        assert abs(u.mode(0)) == 0.0 and abs(u.mode(2)) == 0.0
        u.require_real()

    def test_decaying_amplitudes(self):
        eps, sigma = 0.2, 1.5
        u = decaying_profile(32, eps, sigma, seed=4)
        ks = np.arange(1, 33)
        want = eps * (1.0 + ks.astype(float) ** 2) ** (-sigma / 2.0)
        got = np.abs(u.coeffs[33:])
        assert np.allclose(got, want, rtol=1e-14)
        assert abs(u.mode(0)) == pytest.approx(eps)
        u.require_real()

    def test_decaying_deterministic_and_linear_in_eps(self):
        a = decaying_profile(24, 0.2, 2.0, seed=9)
        b = decaying_profile(24, 0.2, 2.0, seed=9)
        assert np.array_equal(a.coeffs, b.coeffs)
        # the phases come from the seed alone, so the sweep rescales one field
        double = decaying_profile(24, 0.4, 2.0, seed=9)
        assert np.allclose(2.0 * a.coeffs, double.coeffs, rtol=1e-15)
        other = decaying_profile(24, 0.2, 2.0, seed=10)
        assert not np.allclose(a.coeffs, other.coeffs)

    def test_csv_roundtrip(self, tmp_path):
        u = random_real_field(12, np.random.default_rng(1), decay=1.0)
        path = tmp_path / "profile.csv"
        profile_to_csv(u, str(path))
        back = profile_from_csv(str(path), 12)
        assert back.max_mode == 12
        assert np.array_equal(back.coeffs, u.coeffs)

    def test_csv_read_at_max_mode(self, tmp_path):
        # the file's modes land in a field of the asked degree, the others
        # zero; a mode beyond that degree is refused by its line
        u = random_real_field(12, np.random.default_rng(1), decay=1.0)
        path = tmp_path / "profile.csv"
        profile_to_csv(u, str(path))
        back = profile_from_csv(str(path), 20)
        assert back.max_mode == 20
        assert np.array_equal(back.coeffs[8:33], u.coeffs)
        assert not back.coeffs[:8].any() and not back.coeffs[33:].any()
        with pytest.raises(ValueError, match=r"profile.csv, line 2: mode -12 outside \[-11, 11\]"):
            profile_from_csv(str(path), 11)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k,re,im\n")
        with pytest.raises(ValueError, match="no coefficient rows"):
            profile_from_csv(str(path), 4)

    def test_csv_signed_first_row_is_data(self, tmp_path):
        # a first row is a header only when int() refuses its k
        path = tmp_path / "signed.csv"
        path.write_text("+1,0.5,0\n-1,0.5,0\n")
        u = profile_from_csv(str(path), 1)
        assert u.mode(1) == 0.5 and u.mode(-1) == 0.5
        u.require_real()

    # only the first row may be a header; each bad row is named by its line
    @pytest.mark.parametrize("text,line", [
        pytest.param("k,re,im\n1,0.05\n", 2, id="two_fields"),
        pytest.param("k,re,im\n1,0.05,0,7\n", 2, id="four_fields"),
        pytest.param("k,re,im\n1,abc,0\n", 2, id="not_a_number"),
        pytest.param("1,0.05,0\n2.0,0.05,0\n", 2, id="float_k"),
        pytest.param("1,0.05,0\nk,re,im\n", 2, id="late_header"),
        pytest.param("k,re,im\n0,1,0\n1,nan,0\n", 3, id="nan"),
        pytest.param("k,re,im\n1,0.05,0\n-1,0.05,inf\n", 3, id="inf"),
        pytest.param("k,re,im\n1,0.05,0\n-1,0.05,0\n1,0.05,0\n", 4, id="repeated_k"),
        # refused before any array is sized by it
        pytest.param("k,re,im\n1,0.05,0\n1000000000000000,0,0\n", 3, id="mode_beyond_max_mode"),
    ])
    def test_csv_bad_row_rejected(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"bad.csv, line {line}:"):
            profile_from_csv(str(path), 4)

    def test_random_real_field(self):
        u = random_real_field(16, np.random.default_rng(2), decay=2.0)
        u.require_real()
        flat = random_real_field(16, np.random.default_rng(2))
        # the decay weight shrinks the high modes, never the mean
        assert abs(u.mode(16)) < abs(flat.mode(16))
        assert u.mode(0) == flat.mode(0)


class TestPairingIdentities:
    @pytest.mark.parametrize("seed,N", [(0, 8), (1, 8), (2, 16), (3, 16), (4, 32)])
    def test_resonant_pairing_purely_imaginary(self, seed, N):
        u = random_real_field(64, np.random.default_rng(seed), decay=1.0)
        value, scale = resonant_pairing(u, N)
        assert scale > 0
        assert abs(value.real) <= 1e-13 * scale

    def test_resonant_pairing_matches_diagonal_formula(self):
        # the pairing reduces to -3 (2 pi i k) |u^(k)|^4 per mode; for real u
        # the +-k pairs then cancel the whole sum, so both sides are roundoff
        # zeros and only the term-magnitude scale gives a usable tolerance
        u = random_real_field(48, np.random.default_rng(5), decay=1.0)
        N = 16
        value, scale = resonant_pairing(u, N)
        ks = u.modes
        want = np.sum(phi_dyadic(N, ks) ** 2 * (-3.0) * (2j * np.pi * ks)
                      * np.abs(u.coeffs) ** 4)
        assert abs(value - want) <= 1e-13 * scale
        assert abs(value) <= 1e-13 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_diff_pairing_vanishes(self, seed):
        rng = np.random.default_rng(seed)
        u = random_real_field(64, rng, decay=1.0)
        w = random_real_field(64, rng, decay=0.5)
        value, scale = diff_resonant_pairing(u, w, 16)
        assert scale > 0
        assert abs(value) <= 1e-13 * scale

    def test_diff_pairing_rejects_mismatched(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            diff_resonant_pairing(random_real_field(8, rng),
                                  random_real_field(16, rng), 4)


class TestSkewSums:
    @pytest.mark.parametrize("seed", range(3))
    def test_quartic_vanishes_for_real_fields(self, seed):
        u = random_real_field(48, np.random.default_rng(seed), decay=0.5)
        value, scale = quartic_skew_sum(u, 16)
        assert scale > 0
        assert abs(value) <= 1e-12 * scale

    def test_quartic_vanishes_for_complex_fields(self):
        # the swap cancellation needs no reality, only the symmetric cutoff
        rng = np.random.default_rng(7)
        c = rng.standard_normal(2 * 32 + 1) + 1j * rng.standard_normal(2 * 32 + 1)
        value, scale = quartic_skew_sum(FourierField(c), 12)
        assert abs(value) <= 1e-12 * scale

    @pytest.mark.parametrize("cutoff", [1, 4, 6])
    def test_quartic_matches_the_four_fold_sum(self, cutoff):
        rng = np.random.default_rng(cutoff)
        u = FourierField(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        assert not u.is_real()
        r = range(-cutoff, cutoff + 1)
        value, scale = 0j, 0.0
        for k12, k13, k2 in itertools.product(r, r, r):
            k3 = -(k12 + k13 + k2)
            if abs(k3) <= cutoff and k2 + k3 != 0:
                term = u.mode(k12) * u.mode(k13) * u.mode(k2) * u.mode(k3) / (k2 + k3)
                value += term
                scale += abs(term)
        got, got_scale = quartic_skew_sum(u, cutoff)
        assert got_scale == pytest.approx(scale, rel=1e-13)
        assert abs(got - value) <= 1e-13 * scale

    @pytest.mark.parametrize("seed,k", [(0, 24), (1, 24), (2, 48)])
    def test_sextic_imaginary_part_vanishes(self, seed, k):
        u = random_real_field(64, np.random.default_rng(seed), decay=0.5)
        imag, scale = sextic_skew_sum(u, k, 12)
        assert scale > 0
        assert abs(imag) <= 1e-12 * scale

    @pytest.mark.parametrize("cutoff,k", [(1, 3), (4, -5), (6, 7)])
    def test_sextic_matches_the_triple_loop(self, cutoff, k):
        # a non-Hermitian field, so that the imaginary part is nonzero; the
        # modes k1 = k - k2 - k3 past max_mode = 8 read 0
        rng = np.random.default_rng(cutoff)
        u = FourierField(rng.standard_normal(17) + 1j * rng.standard_normal(17))
        assert not u.is_real()
        r = range(-cutoff, cutoff + 1)
        value, scale = 0j, 0.0
        for k2, k3, k42 in itertools.product(r, r, r):
            sig, k43 = k2 + k3, -(k2 + k3) - k42
            if sig != 0 and abs(k43) <= cutoff:
                k1 = k - sig
                term = (k / sig * u.mode(k1) * u.mode(k2) * u.mode(k3)
                        * u.mode(-k1) * u.mode(k42) * u.mode(k43))
                value += term
                scale += abs(term)
        got, got_scale = sextic_skew_sum(u, k, cutoff)
        assert abs(value.imag) > 1e-3 * scale
        assert got_scale == pytest.approx(scale, rel=1e-13)
        assert abs(got - value.imag) <= 1e-13 * scale


class TestSuites:
    def test_quick_bundle_passes(self):
        checks = run_identity_suites(seed=0, quick=True)
        assert len(checks) == 9
        names = [c.name for c in checks]
        assert len(set(names)) == len(names)
        for c in checks:
            assert c.passed, f"{c.name}: residual {c.residual} > tol {c.tol}"

    def test_skew_suite_holds_no_lattice_cube(self):
        # the sextic sum at cutoff 16 holds one (2c+1)^3 complex array of
        # terms, 0.57 MB, not the index grids and gathers it is built from
        diagnostics.suite_skew(0)
        tracemalloc.start()
        try:
            diagnostics.suite_skew(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_partition_suite_standalone(self):
        for c in suite_partition(bound=16):
            assert c.passed

    def test_partition_suite_makes_no_scalar_classify_call(self, monkeypatch):
        calls = []
        classify = resonance.classify

        def counting(*t):
            calls.append(t)
            return classify(*t)

        monkeypatch.setattr(resonance, "classify", counting)
        monkeypatch.setattr(diagnostics, "classify", counting)
        [c] = suite_partition(bound=16)
        assert c.passed and calls == []

    def test_resonance_suite_catches_one_wrong_box_triple(self, monkeypatch):
        factored = resonance.omega3_factored

        def off_by_one(k1, k2, k3):
            return factored(k1, k2, k3) + ((k1 == 5) & (k2 == -7) & (k3 == 11))

        monkeypatch.setattr(diagnostics, "omega3_factored", off_by_one)
        box, five, seven = suite_resonance(exhaustive_bound=11, n_random=50)
        assert not box.passed and box.residual == 1
        assert five.passed and seven.passed

    def test_resonance_suite_checks_the_wide_draws_in_python_ints(self, monkeypatch):
        # a factored form that wraps modulo 2^64, as int64 arithmetic would,
        # is caught only if the suite's own omega3 does not wrap too
        factored = resonance.omega3_factored

        def wraps(k1, k2, k3):
            if isinstance(k2, np.ndarray):  # a box slab: exact in int64
                return factored(k1, k2, k3)
            exact = -3 * (int(k1) + int(k2)) * (int(k1) + int(k3)) * (int(k2) + int(k3))
            return (exact + 2 ** 63) % 2 ** 64 - 2 ** 63

        monkeypatch.setattr(diagnostics, "omega3_factored", wraps)
        box = suite_resonance(exhaustive_bound=4, n_random=50)[0]
        assert not box.passed and box.residual >= 2 ** 63

    def test_partition_suite_catches_a_wrong_tie_break(self, monkeypatch):
        a_cell = resonance.a_cell

        def m1_m2_ties_to_a2(j, m1, m2, m3):
            if j == 1:
                return (m1 < m2) & (m1 <= m3)
            if j == 2:
                return (m2 <= m1) & (m2 <= m3)
            return a_cell(j, m1, m2, m3)

        monkeypatch.setattr(resonance, "a_cell", m1_m2_ties_to_a2)
        [c] = suite_partition(bound=8)
        assert not c.passed and c.residual > 0


SMALL = ModelConfig(max_mode=32, dt=1e-3, t_final=0.02)
BASE = decaying_profile(32, 1.0, 2.0, seed=0)


class TestSmoothingScan:
    def test_structure_and_determinism(self):
        rep = smoothing_scan(BASE, SMALL, [0.05, 0.1], [8, 16])
        assert set(rep.sup_deviation) == {0.05, 0.1}
        for eps in (0.05, 0.1):
            assert set(rep.sup_deviation[eps]) == {8, 16}
            for dev in rep.sup_deviation[eps].values():
                assert dev > 0
        # 0.1 = 2 * 0.05 is the one doubling pair in the list
        for k in (8, 16):
            assert list(rep.ratios[k]) == [0.05]
        again = smoothing_scan(BASE, SMALL, [0.05, 0.1], [8, 16])
        assert again.sup_deviation == rep.sup_deviation

    def test_quartic_amplitude_scaling_small(self):
        rep = smoothing_scan(BASE, SMALL, [0.05, 0.1], [8, 16])
        for k in (8, 16):
            assert rep.ratios[k][0.05] == pytest.approx(16.0, rel=0.5)

    def test_streamed_equals_snapshot_path(self):
        # the scan steps and keeps only the watched modes; the deviations are
        # those of a run of the same config that keeps every state, bit for
        # bit, for the default flow, the plain one of the other sign and the
        # exact-phase integrator
        plain = ModelConfig(max_mode=32, dt=1e-3, t_final=0.02, sign=-1,
                            renormalized=False)
        exact = ModelConfig(max_mode=16, dt=1e-3, t_final=0.02, integrator="exact-phase")
        for cfg in (SMALL, plain, exact):
            base = decaying_profile(cfg.max_mode, 1.0, 2.0, seed=0)
            rep = smoothing_scan(base, cfg, [0.05, 0.1], [8, 16, 8, 31])
            for eps in (0.05, 0.1):
                snaps = simulate(eps * base, cfg, sample_every=1).snapshots
                assert len(snaps) == 21
                for k in (8, 16, 31):
                    col = np.abs(np.array([s.field.mode(k) for s in snaps])) ** 2
                    assert rep.sup_deviation[eps][k] == float(np.max(np.abs(col - col[0])))

    def test_edge_cases_keep_their_values(self):
        # the values of separate one-amplitude runs at K = 32: a mode beyond
        # K and the pinned mean read 0, -k reads as k, and repeated
        # amplitudes and modes repeat their entries
        rep = smoothing_scan(BASE, SMALL, [0.05, 0.1, 0.05], [8, -8, 0, 40, 8, 31])
        assert rep.eps_list == [0.05, 0.1, 0.05]
        assert rep.watch_modes == [8, -8, 0, 40, 8, 31]
        assert rep.sup_deviation == {
            0.05: {8: 6.591085008577294e-10, -8: 6.591085008577294e-10, 0: 0.0,
                   40: 0.0, 31: 2.2058783854881445e-11},
            0.1: {8: 1.0548962960061122e-08, -8: 1.0548962960061122e-08, 0: 0.0,
                  40: 0.0, 31: 3.54971867520141e-10},
        }
        assert rep.ratios == {8: {0.05: 16.00489592583505},
                              -8: {0.05: 16.00489592583505}, 0: {}, 40: {},
                              31: {0.05: 16.09208693713132}}
        empty = smoothing_scan(BASE, SMALL, [], [8])
        assert empty.sup_deviation == {} and empty.ratios == {8: {}}

    @pytest.mark.parametrize("eps_list", [[], [0.05]])
    def test_base_max_mode_checked_whatever_the_amplitudes(self, eps_list):
        with pytest.raises(ValueError, match="max_mode differs"):
            smoothing_scan(decaying_profile(16, 1.0, 2.0, seed=0), SMALL, eps_list, [8])

    def test_blowup_carries_the_failing_amplitude(self):
        # amplitudes run in eps_list order: 2.0 fails in its step from
        # t = 0.009 and is reported, though 50.0 fails sooner (from t = 0.001)
        base = decaying_profile(16, 1.0, 2.0, seed=0)
        cfg = ModelConfig(max_mode=16, dt=1e-3, t_final=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy overflow warning first
            with pytest.raises(BlowUpError, match="non-finite at t=0.009$") as info:
                smoothing_scan(base, cfg, [0.05, 2.0, 50.0], [4, 8])
        last = info.value.last_good
        assert isinstance(last, SimulationState)
        # the same run of the failing amplitude alone, one step at a time
        state = SimulationState(0.0, 2.0 * base)
        with pytest.raises(BlowUpError) as alone:
            for _ in range(cfg.n_steps):
                state = step(state, cfg)
        want = alone.value.last_good
        assert last.t == want.t and abs(last.t - 0.009) < 1e-12
        assert np.array_equal(last.field.coeffs, want.field.coeffs)
        assert np.all(np.isfinite(last.field.coeffs))
        assert last.alpha_accum == want.alpha_accum

    def test_mass_overflow_of_one_row(self):
        # 0.3 keeps finite coefficients (near 1e3 at t = 0.4) whose step from
        # there overflows the mass; 100.0, listed after it, overflows at
        # t = 0 and is dropped; 0.01 runs on to t_final
        base = single_mode_profile(16, 1.0)
        cfg = ModelConfig(max_mode=16, dt=0.1, t_final=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match=r"mass became non-finite at t=0.4$") as info:
                smoothing_scan(base, cfg, [0.01, 0.3, 100.0], [1, 2])
            state = SimulationState(0.0, 0.3 * base)
            with pytest.raises(BlowUpError, match=r"mass became non-finite at t=0.4$") as alone:
                for _ in range(cfg.n_steps):
                    state = step(state, cfg)
        last, want = info.value.last_good, alone.value.last_good
        assert last.t == want.t
        assert np.array_equal(last.field.coeffs, want.field.coeffs)
        assert np.all(np.isfinite(last.field.coeffs))
        assert last.alpha_accum == want.alpha_accum and np.isfinite(last.alpha_accum)
        # two rows failing in one step: the first listed is the one reported
        with pytest.raises(BlowUpError, match=r"mass became non-finite at t=0$") as info:
            smoothing_scan(base, cfg, [100.0, 200.0], [1])
        assert np.array_equal(info.value.last_good.field.coeffs, (100.0 * base).coeffs)


DRIFT = ModelConfig(max_mode=64, dt=1e-3, t_final=0.02)


class TestEnergyDriftScan:
    def test_below_threshold_is_pure_quadratic(self):
        # watched mode under the correction threshold: total == quadratic,
        # so the report must come out with ratio exactly one
        u0 = decaying_profile(64, 0.1, 1.0, seed=0)
        rep = energy_drift_scan(u0, DRIFT, 16, sample_every=5)
        assert rep.k == 16
        assert rep.times == pytest.approx([0.0, 5e-3, 1e-2, 1.5e-2, 2e-2])
        assert rep.total == rep.quadratic
        assert rep.drift_total == rep.drift_quadratic
        assert rep.drift_quadratic > 0
        assert rep.ratio == 1.0

    def test_integrator_keyword(self):
        u0 = decaying_profile(64, 0.1, 1.0, seed=0)
        ifrk4 = energy_drift_scan(u0, DRIFT, 16, sample_every=5)
        exact = energy_drift_scan(
            u0, ModelConfig(max_mode=64, dt=1e-3, t_final=0.02, integrator="exact-phase"),
            16, sample_every=5)
        assert exact.quadratic[0] == ifrk4.quadratic[0]
        assert exact.drift_quadratic > 0
        assert exact.drift_quadratic != ifrk4.drift_quadratic
        with pytest.raises(ValueError, match="unknown integrator"):
            ModelConfig(max_mode=64, dt=1e-3, t_final=0.02, integrator="euler")

    @pytest.mark.parametrize("sample_every,kept", [(3, 8), (25, 2)])
    def test_equals_simulate_then_energy_mode(self, sample_every, kept):
        # the states simulate keeps, bit for bit: 20 steps every 3 keep the
        # final one too, and sample_every past the run keeps the endpoints;
        # mode 600 > K_THRESHOLD carries its corrections
        cfg = ModelConfig(max_mode=640, dt=1e-4, t_final=2e-3)
        u0 = decaying_profile(640, 0.05, 1.0, seed=0)
        rep = energy_drift_scan(u0, cfg, 600, sample_every=sample_every)
        snaps = simulate(u0, cfg, sample_every=sample_every).snapshots
        reports = [energy_mode(s.field, 600) for s in snaps]
        assert len(snaps) == kept
        assert rep.times == [s.t for s in snaps]
        assert rep.quadratic == [r.quadratic for r in reports]
        assert rep.total == [r.total for r in reports]
        assert rep.total != rep.quadratic

    def test_blowup_carries_the_last_good_state_of_simulate(self):
        u0 = 2.0 * decaying_profile(16, 1.0, 2.0, seed=0)
        cfg = ModelConfig(max_mode=16, dt=1e-3, t_final=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match="non-finite at t=0.009$") as scan:
                energy_drift_scan(u0, cfg, 8, sample_every=1)
            with pytest.raises(BlowUpError) as run:
                simulate(u0, cfg, sample_every=1)
        last, want = scan.value.last_good, run.value.last_good
        assert last.t == want.t
        assert np.array_equal(last.field.coeffs, want.field.coeffs)
        assert last.alpha_accum == want.alpha_accum

    def test_peak_does_not_grow_with_the_samples(self):
        # kept states would cost 8.2 KB each at K = 256: 1.2 MB more at 200
        # steps than at 50
        u0 = decaying_profile(256, 0.05, 1.0, seed=0)

        def peak(n_steps):
            cfg = ModelConfig(max_mode=256, dt=1e-4, t_final=n_steps * 1e-4)
            tracemalloc.start()
            try:
                energy_drift_scan(u0, cfg, 128, sample_every=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short = peak(50)
        assert peak(200) - short < 100_000

    def test_initial_quadratic_value(self):
        eps, sigma, k = 0.1, 1.0, 16
        u0 = decaying_profile(64, eps, sigma, seed=0)
        rep = energy_drift_scan(u0, ModelConfig(max_mode=64, dt=1e-3, t_final=1e-3),
                                k, sample_every=1)
        amp = eps * (1.0 + k ** 2) ** (-sigma / 2.0)
        assert rep.quadratic[0] == pytest.approx(0.5 * k * amp ** 2, rel=1e-12)


class TestNormsReport:
    KEYS = {"linf_hs", "l4t_l20x", "l4t_l4x_d524", "xsb_diag"}

    def test_zero_trajectory(self):
        fields = [FourierField.zeros(16) for _ in range(5)]
        times = np.linspace(0.0, 1.0, 5)
        rep = norms_report(fields, times)
        assert set(rep) == self.KEYS
        assert all(v == 0.0 for v in rep.values())

    def test_linf_hs_matches_max_sobolev(self):
        rng = np.random.default_rng(3)
        fields = [random_real_field(24, rng, decay=1.0) for _ in range(6)]
        times = np.linspace(0.0, 0.5, 6)
        rep = norms_report(fields, times, s=1.0 / 3.0)
        want = max(sobolev_norm(f, 1.0 / 3.0) for f in fields)
        assert rep["linf_hs"] == pytest.approx(want, rel=1e-14)
        assert all(np.isfinite(v) and v >= 0 for v in rep.values())

    def test_free_evolution_keeps_hs_constant(self):
        # pure dispersion only rotates phases, so every snapshot has the
        # H^s norm of the initial field
        K = 32
        u0 = decaying_profile(K, 0.1, 2.0, seed=1)
        ks = np.arange(-K, K + 1)
        times = np.linspace(0.0, 0.3, 7)
        fields = [u0.multiplied(np.exp(8j * np.pi ** 3 * ks ** 3 * t))
                  for t in times]
        rep = norms_report(fields, times, s=1.0 / 3.0)
        assert rep["linf_hs"] == pytest.approx(sobolev_norm(u0, 1.0 / 3.0),
                                               rel=1e-12)

    def test_accepts_simulation_states(self):
        u0 = single_mode_profile(16, 0.05)
        res = simulate(u0, ModelConfig(max_mode=16, dt=1e-3, t_final=5e-3),
                       sample_every=1)
        rep = norms_report(res.snapshots, res.times)
        assert rep["linf_hs"] == pytest.approx(sobolev_norm(u0, 1.0 / 3.0),
                                               rel=1e-6)


FAST_SIM = ["--override", "model.max_mode=16", "--override", "model.dt=1e-3",
            "--override", "model.t_final=0.01", "--override", "sample_every=5"]


class TestCli:
    def test_simulate_writes_outputs(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), *FAST_SIM])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["model"]["max_mode"] == 16
        assert manifest["results"]["l2_drift"] <= 1e-6
        assert manifest["results"]["n_snapshots"] == 3  # t=0, 5e-3, 1e-2
        assert (tmp_path / "snapshots.csv").exists()

    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--out", str(a), *FAST_SIM]) == 0
        assert main(["simulate", "--out", str(b), *FAST_SIM]) == 0
        assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()

    def test_seed_flag_lands_in_manifest(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--seed", "3", *FAST_SIM])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3

    def test_config_file_merges(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "model": {"max_mode": 16, "dt": 1e-3, "t_final": 0.01},
            "sample_every": 5,
        }))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0

    def test_exit_2_on_bad_step_count(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path),
                   "--override", "model.dt=0.3"])
        assert rc == 2

    def test_exit_2_on_blowup(self, tmp_path):
        with np.errstate(all="ignore"):
            rc = main(["simulate", "--out", str(tmp_path),
                       "--override", "model.max_mode=16",
                       "--override", "profile.eps=100.0",
                       "--override", "model.dt=0.5",
                       "--override", "model.t_final=5.0"])
        assert rc == 2

    @pytest.mark.parametrize("command,overrides", [
        ("energy-drift", ["profile.eps=1e200", "model.t_final=0.0002"]),
        ("smoothing", ["eps_list=[1e300]"]),
    ])
    def test_blowup_at_start_prints_only_the_exit_line(self, tmp_path, capsys,
                                                       command, overrides):
        # the t = 0 sample overflows: the scan's own reads must not warn first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--out", str(tmp_path),
                       *(arg for o in overrides for arg in ("--override", o))])
        assert rc == 2
        assert capsys.readouterr().err == "blow-up: state became non-finite at t=0\n"

    @pytest.mark.parametrize("command", ["simulate", "energy-drift"])
    def test_exit_2_on_max_mode_too_large_to_allocate(self, tmp_path, capsys, command):
        # 2K+1 complex coefficients at K = 1e15 are 28 PiB, beyond any
        # address space, so numpy refuses the array without allocating it
        rc = main([command, "--out", str(tmp_path),
                   "--override", "model.max_mode=1000000000000000"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("runtime error: Unable to allocate")

    @pytest.mark.parametrize("override", [
        "nonsense=1",
        "model.never=2",
        "profile.type=bogus",
        "gauge=sideways",
    ])
    def test_exit_3_on_bad_config(self, tmp_path, override):
        rc = main(["simulate", "--out", str(tmp_path), *FAST_SIM,
                   "--override", override])
        assert rc == 3

    def test_exit_3_on_missing_config_file(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_exit_3_on_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 3

    # a config file that is not an object of config keys, or whose section
    # is not one, is refused before it is merged
    @pytest.mark.parametrize("content,key", [
        ([1, 2], "the config"),
        ({"model": 5}, "model"),
    ])
    def test_exit_3_on_config_file_of_wrong_shape(self, tmp_path, capsys, content, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(content))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    def test_bad_gauge_refused_before_stepping(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate called with a bad gauge")
        monkeypatch.setattr("remkdv.cli.simulate", no_run)
        rc = main(["simulate", "--out", str(tmp_path), "--override", "gauge=sideways"])
        assert rc == 3

    # a gate that no result can pass is refused before the scan runs
    @pytest.mark.parametrize("command,scan,override", [
        ("smoothing", "smoothing_scan", "scaling_band=[32.0,8.0]"),
        ("energy-drift", "energy_drift_scan", "require_ratio_below=0"),
        ("energy-drift", "energy_drift_scan", "require_ratio_below=-1"),
    ])
    def test_unsatisfiable_gate_refused_before_stepping(self, tmp_path, capsys,
                                                        monkeypatch, command, scan,
                                                        override):
        def no_run(*args, **kwargs):
            raise AssertionError(f"{scan} called with an unsatisfiable gate")
        monkeypatch.setattr(f"remkdv.cli.{scan}", no_run)
        rc = main([command, "--out", str(tmp_path), "--override", override])
        assert rc == 3
        key = override.partition("=")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    # a malformed or non-Hermitian profile file is refused before any step
    @pytest.mark.parametrize("text", [
        pytest.param("k,re,im\n1,0.05\n-1,0.05,0\n", id="two_fields"),
        pytest.param("k,re,im\n1,abc,0\n-1,0.05,0\n", id="not_a_number"),
        pytest.param("k,re,im\n1,nan,0\n-1,nan,0\n", id="nan"),
        pytest.param("k,re,im\n1,0.05,0.01\n-1,0.05,0.01\n", id="non_hermitian"),
        pytest.param("k,re,im\n1,0.05,0\n-1,0.05,0\n1,0.05,0\n", id="repeated_k"),
    ])
    def test_exit_3_on_bad_profile_file(self, tmp_path, capsys, monkeypatch, text):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate called with a bad profile file")

        monkeypatch.setattr("remkdv.cli.simulate", no_run)
        path = tmp_path / "profile.csv"
        path.write_text(text)
        rc = main(["simulate", "--out", str(tmp_path), *FAST_SIM,
                   "--override", "profile.type=file",
                   "--override", f"profile.path={path}"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("config error: profile.path:")

    def test_exit_3_on_profile_mode_beyond_max_mode(self, tmp_path, capsys):
        # the file's largest mode is checked against model.max_mode before
        # any field is sized by it
        path = tmp_path / "profile.csv"
        path.write_text("1000000000000000,0,0\n")
        rc = main(["simulate", "--out", str(tmp_path), *FAST_SIM,
                   "--override", "profile.type=file",
                   "--override", f"profile.path={path}"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: profile.path:")
        assert "line 1: mode 1000000000000000 outside [-16, 16]" in err

    def test_profile_file_runs(self, tmp_path):
        path = tmp_path / "profile.csv"
        profile_to_csv(single_mode_profile(8, 0.1), str(path))
        rc = main(["simulate", "--out", str(tmp_path), *FAST_SIM,
                   "--override", "profile.type=file",
                   "--override", f"profile.path={path}"])
        assert rc == 0

    def test_exit_3_on_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 3

    def test_identities_quick(self, tmp_path):
        rc = main(["identities", "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["results"]["n_failed"] == 0
        assert manifest["results"]["n_checks"] == 9
        rows = (tmp_path / "identities.csv").read_text().strip().splitlines()
        assert len(rows) == 10  # header + one per check
        assert all(row.endswith(",1") for row in rows[1:])

    def test_norms_outputs(self, tmp_path):
        rc = main(["norms", "--out", str(tmp_path), *FAST_SIM[:-2],
                   "--override", "sample_every=2"])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["results"]) == TestNormsReport.KEYS

    def test_smoothing_band_enforcement(self, tmp_path):
        fast = ["--override", "model.max_mode=32",
                "--override", "model.dt=1e-3",
                "--override", "model.t_final=0.02",
                "--override", "watch_modes=[8,16]"]
        ok = main(["smoothing", "--out", str(tmp_path / "ok"), *fast,
                   "--override", "scaling_band=[4,64]"])
        assert ok == 0
        bad = main(["smoothing", "--out", str(tmp_path / "bad"), *fast,
                    "--override", "scaling_band=[1000,2000]"])
        assert bad == 1

    def test_smoothing_exit_2_on_blowup(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["smoothing", "--out", str(tmp_path),
                       "--override", "eps_list=[0.05, 50.0]",
                       "--override", "model.max_mode=16",
                       "--override", "model.dt=1e-3",
                       "--override", "model.t_final=0.05",
                       "--override", "watch_modes=[4,8]"])
        assert rc == 2
        assert capsys.readouterr().err == "blow-up: state became non-finite at t=0.001\n"

    def test_smoothing_repeats_rows_and_writes_empty_scan(self, tmp_path):
        fast = ["--override", "model.max_mode=32",
                "--override", "model.dt=1e-3",
                "--override", "model.t_final=0.02"]
        rc = main(["smoothing", "--out", str(tmp_path / "dup"), *fast,
                   "--override", "eps_list=[0.05, 0.05]",
                   "--override", "watch_modes=[8, -8, 40, 8]"])
        assert rc == 0
        rows = (tmp_path / "dup" / "smoothing.csv").read_text().splitlines()
        dev = "6.591085008577294e-10"
        assert rows == ["eps,k,sup_deviation"] + [
            f"0.05,{k},{v}" for k, v in [(8, dev), (-8, dev), (40, "0.0"), (8, dev)]] * 2
        rc = main(["smoothing", "--out", str(tmp_path / "none"), *fast,
                   "--override", "eps_list=[]"])
        assert rc == 0
        assert (tmp_path / "none" / "smoothing.csv").read_text().splitlines() == [
            "eps,k,sup_deviation"]

    def test_energy_drift_ratio_enforcement(self, tmp_path):
        fast = ["--override", "model.max_mode=64",
                "--override", "model.dt=1e-3",
                "--override", "model.t_final=0.02",
                "--override", "k_watch=16",
                "--override", "sample_every=5"]
        ok = main(["energy-drift", "--out", str(tmp_path / "ok"), *fast,
                   "--override", "require_ratio_below=2.0"])
        assert ok == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["results"]["ratio"] == 1.0  # watched mode below threshold
        bad = main(["energy-drift", "--out", str(tmp_path / "bad"), *fast,
                    "--override", "require_ratio_below=0.5"])
        assert bad == 1

    def test_energy_drift_honours_integrator(self, tmp_path):
        fast = ["--override", "model.max_mode=64",
                "--override", "model.dt=1e-3",
                "--override", "model.t_final=0.02",
                "--override", "k_watch=16",
                "--override", "sample_every=5"]
        drifts = {}
        for name in ("ifrk4", "exact-phase"):
            out = tmp_path / name
            rc = main(["energy-drift", "--out", str(out), *fast,
                       "--override", f"model.integrator={name}"])
            assert rc == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["model"]["integrator"] == name
            drifts[name] = manifest["results"]["drift_quadratic"]
        assert drifts["ifrk4"] != drifts["exact-phase"]

    @pytest.mark.parametrize("override", [
        "model.integrator=euler",
        "model.dt=-1",
        "model.sign=2",
    ])
    def test_energy_drift_exit_3_on_bad_model(self, tmp_path, override):
        rc = main(["energy-drift", "--out", str(tmp_path),
                   "--override", override])
        assert rc == 3

    # keys these scans never read are not accepted: setting one is an
    # unknown-key config error rather than a silent no-op
    @pytest.mark.parametrize("command,override", [
        ("energy-drift", "model.renormalized=false"),
        ("energy-drift", "model.dealias=false"),
        ("energy-drift", "profile.type=decaying"),
        ("smoothing", "model.renormalized=false"),
        ("smoothing", "model.dealias=false"),
        ("smoothing", "profile.type=decaying"),
        ("smoothing", "model.integrator=bogus"),
        ("simulate", "model.dealias=false"),
        ("norms", "model.dealias=false"),
        ("energy-drift", "energy.alpha=2.0"),
    ])
    def test_exit_3_on_unhonoured_key(self, tmp_path, capsys, command, override):
        rc = main([command, "--out", str(tmp_path), *FAST_SIM[:6],
                   "--override", override])
        assert rc == 3
        assert "unknown config key" in capsys.readouterr().err

    def test_smoothing_exit_3_on_bad_model(self, tmp_path):
        rc = main(["smoothing", "--out", str(tmp_path), "--override", "model.dt=-1"])
        assert rc == 3

    # a non-finite number (an amplitude, a decay rate, a step) is a config
    # error, not a blow-up
    @pytest.mark.parametrize("command,overrides", [
        ("simulate", ["profile.eps=NaN"]),
        ("simulate", ["profile.type=decaying", "profile.sigma=Infinity"]),
        ("norms", ["profile.eps=NaN"]),
        ("norms", ["profile.sigma=NaN"]),
        ("energy-drift", ["profile.eps=NaN"]),
        ("energy-drift", ["profile.sigma=-Infinity"]),
        ("smoothing", ["profile.sigma=NaN"]),
        ("smoothing", ["eps_list=[0.05, NaN]"]),
        ("simulate", ["model.dt=1e400"]),
        ("simulate", [f"model.dt={10 ** 400}"]),  # an integer past the float range
    ])
    def test_exit_3_on_non_finite_profile(self, tmp_path, capsys, command, overrides):
        args = [a for o in overrides for a in ("--override", o)]
        rc = main([command, "--out", str(tmp_path), *FAST_SIM[:6], *args])
        assert rc == 3
        assert "must be a finite number" in capsys.readouterr().err

    # a value of the wrong type is a config error that names its key
    @pytest.mark.parametrize("command,override,key", [
        ("smoothing", "eps_list=5", "eps_list"),
        ("smoothing", "watch_modes=7", "watch_modes"),
        ("smoothing", "watch_modes=[8, \"x\"]", "watch_modes"),
        ("energy-drift", "k_watch=abc", "k_watch"),
        ("energy-drift", "sample_every=[5]", "sample_every"),
        ("simulate", "sample_every=often", "sample_every"),
        ("identities", "seed=abc", "seed"),
        ("identities", "quick=no", "quick"),
        ("simulate", "model.max_mode=2.5", "model.max_mode"),
        ("smoothing", "model.max_mode=40.5", "model.max_mode"),
        ("simulate", "model.integrator=5", "model.integrator"),
        ("simulate", "model=5", "model"),
        ("smoothing", "profile=3", "profile"),
        ("simulate", "profile.eps=true", "profile.eps"),
        ("simulate", "model.sign=1.0", "model.sign"),
        ("energy-drift", "model.sign=true", "model.sign"),
        ("norms", "profile.type=file", "profile.type"),  # norms has no profile.path
        ("identities", "seed=-1", "seed"),
    ])
    def test_exit_3_on_wrong_type(self, tmp_path, capsys, command, override, key):
        rc = main([command, "--out", str(tmp_path), "--override", override])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err

    # the watched mode is refused before any stepping: zero, or outside the
    # truncation (energy_mode would refuse it only after the whole run)
    @pytest.mark.parametrize("overrides", [
        ["k_watch=0"],
        ["model.max_mode=16", "model.dt=1e-3", "model.t_final=0.01"],
        ["model.max_mode=64", "k_watch=-65"],
    ])
    def test_energy_drift_exit_3_on_bad_k_watch(self, tmp_path, capsys, monkeypatch,
                                                overrides):
        def no_run(*args, **kwargs):
            raise AssertionError("energy_drift_scan called with a bad k_watch")

        monkeypatch.setattr("remkdv.cli.energy_drift_scan", no_run)
        args = [a for o in overrides for a in ("--override", o)]
        rc = main(["energy-drift", "--out", str(tmp_path), *args])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: k_watch must be")

    # norms needs at least 4 uniformly spaced samples: a sample_every that
    # does not divide the step count (the final state would fall off the
    # grid) or leaves fewer is refused before any step
    @pytest.mark.parametrize("sample_every", [300, 2500])
    def test_norms_exit_3_on_unusable_sample_every(self, tmp_path, capsys, monkeypatch,
                                                   sample_every):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate called with an unusable sample_every")

        monkeypatch.setattr("remkdv.cli.simulate", no_run)
        rc = main(["norms", "--out", str(tmp_path),
                   "--override", f"sample_every={sample_every}"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("config error: sample_every must divide")

    def test_energy_drift_exit_3_on_no_step(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("energy_drift_scan called with no step to take")

        monkeypatch.setattr("remkdv.cli.energy_drift_scan", no_run)
        rc = main(["energy-drift", "--out", str(tmp_path), "--override", "model.t_final=0",
                   "--override", "model.max_mode=64", "--override", "k_watch=16"])
        assert rc == 3
        assert "at least one step" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "norms", "energy-drift"])
    def test_exit_3_on_sample_every_below_one(self, tmp_path, capsys, command):
        rc = main([command, "--out", str(tmp_path), *FAST_SIM[:6],
                   "--override", "sample_every=0"])
        assert rc == 3
        assert "sample_every" in capsys.readouterr().err


# The 0/1/2/3 exit contract over drawn configs: any override set, keys from
# DEFAULTS and values from a fixed pool of JSON literals, ends in a code (or
# argparse's SystemExit(3)), never a traceback, and the same code twice. The
# run shape is pinned after the draws, so no draw can ask for a long run.
def _config_keys(section: dict, prefix: str = ""):
    for name, value in section.items():
        yield prefix + name
        if isinstance(value, dict):
            yield from _config_keys(value, f"{prefix}{name}.")


LITERALS = ['"none"', '"forward"', '"decaying"', '"file"', '"exact-phase"',
            '"x"', '""', '"."', "true", "false", "null", "[]", "[1, 2]", '[0.5, "x"]',
            "{}", "NaN", "0", "1", "-1", "2", "0.5", "-2.5", "2.5"]
# norms at sample_every=2, since 5 of 10 steps leaves it 3 samples of the 4 it needs
PINNED = {"simulate": FAST_SIM, "norms": [*FAST_SIM[:6], "--override", "sample_every=2"],
          "energy-drift": FAST_SIM,
          "smoothing": FAST_SIM[:6], "identities": ["--override", "quick=true"]}


def _exit_code(argv: list[str]) -> int:
    try:
        with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"):
            return main([*argv, "--out", out])
    except SystemExit as exc:
        assert exc.code == 3
        return 3


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_every_config_ends_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(DEFAULTS)))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(list(_config_keys(DEFAULTS[command]))),
                                         st.sampled_from(LITERALS)),
                               min_size=1, max_size=3))
    argv = [command, *(a for key, raw in pairs for a in ("--override", f"{key}={raw}")),
            *PINNED[command]]
    code = _exit_code(argv)
    assert code in (0, 1, 2, 3)
    assert _exit_code(argv) == code
