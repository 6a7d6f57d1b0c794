"""Solver tests: config validation and the integrator registry, the exact
Galerkin cubic, its pocketfft calls and reused work arrays, tendency algebra,
conservation and fixed points, local step order, the half-spectrum IFRK4
step against a full-spectrum reference and on stacks of fields, the
exact-phase step against direct triple sums, snapshot bookkeeping, blow-up
reporting, and the gauge maps."""
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.fft

from remkdv import _fft, evolve
from remkdv.diagnostics import (decaying_profile, energy_drift_scan,
                                single_mode_profile, smoothing_scan)
from remkdv.evolve import (
    INTEGRATORS,
    BlowUpError,
    ModelConfig,
    SimulationState,
    cubic_coefficients,
    gauge_backward,
    gauge_forward,
    rhs,
    rhs_split,
    simulate,
    step,
)
from remkdv.evolve import (_cube_half, _cube_plan, _default_block,
                           _exact_phase_coeffs, _ifrk4_coeffs,
                           _inverse_resonance_cube, _kernel_plan, _mass_half,
                           _mirror, _step_rows)
from remkdv.fields import FourierField, deriv_multiplier


def _random_real(K, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(scale * c).hermitized()


def _single_mode(K, eps, k=1):
    c = np.zeros(2 * K + 1, dtype=np.complex128)
    c[K + k] = eps / 2.0
    c[K - k] = eps / 2.0
    return FourierField(c)


def _cfg(**kw):
    base = dict(max_mode=32, dt=1e-3, t_final=1e-2)
    base.update(kw)
    return ModelConfig(**base)


class TestModelConfig:
    @pytest.mark.parametrize("bad", [
        dict(max_mode=0),
        dict(max_mode=-4),
        dict(max_mode=2.0),
        dict(max_mode=2.5),
        dict(max_mode=True),
        dict(dt=0.0),
        dict(dt=-1e-3),
        dict(t_final=-0.1),
        dict(sign=0),
        dict(sign=2),
        dict(integrator="euler"),
        dict(dt=float("nan")),
        dict(dt=float("inf")),
        dict(t_final=float("nan")),
        dict(t_final=float("inf")),
        dict(integrator=None),
        dict(renormalized="no"),
        dict(renormalized=1),
        dict(sign=True),
        dict(sign=1.0),
        dict(dt=True),
        dict(t_final="0.25"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            _cfg(**bad)

    def test_integrator_case_insensitive(self):
        assert _cfg(integrator="IFRK4").integrator == "IFRK4"
        assert _cfg(integrator="Exact-Phase").integrator == "Exact-Phase"

    def test_registry_names(self):
        assert set(INTEGRATORS) == {"ifrk4", "exact-phase"}

    def test_frozen(self):
        cfg = _cfg()
        with pytest.raises(Exception):
            cfg.dt = 2e-3


def _not_real(K):
    c = np.zeros(2 * K + 1, dtype=np.complex128)
    c[K + 1] = 1.0  # no conjugate partner
    return FourierField(c)


def _wrapped_cube(c, n):
    """O(K^3) triple convolution of the centered coefficients c on an n-point
    grid: every k1 + k2 + k3 congruent to k mod n lands on mode k."""
    K = c.size // 2
    ks = np.arange(-K, K + 1)
    out = np.zeros_like(c)
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            s = (k1 + k2 + ks - ks[:, None]) % n == 0   # [k, k3]
            out += c[i] * c[j] * (s @ c)
    return out


class TestCubic:
    def test_plan_kernel_matches_triple_convolution(self):
        # the real grid is 18 points at K = 4 (even) and 25 at K = 6 (odd,
        # test_matches_triple_convolution)
        K, n = 4, 18
        assert _kernel_plan(K)[0] == n
        u = _random_real(K, seed=K, scale=1.0)
        want = _wrapped_cube(u.coeffs, n)
        got = cubic_coefficients(u).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_half_kernel_on_any_grid_length(self, extra):
        # odd 4K+1, even 4K+2 and odd 4K+8, all alias-free
        K = 5
        n = 4 * K + 1 + extra
        u = _random_real(K, seed=extra, scale=1.0)
        want = _wrapped_cube(u.coeffs, n)
        got = _cube_half(u.coeffs[K:], n)
        assert np.max(np.abs(got - want[K:])) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("K", [1, 16, 256, 2048])
    def test_grid_renormalization_is_the_spectral_one(self, K):
        # u (u^2 - 3 P0(u^2)) with P0 the grid mean of u^2 is the cube minus
        # 3 P0 u with P0 from the modes, on the kernel's grid and on odd
        # 4K+1; each row of a stack is its one-row call bit for bit
        stack = np.array([_random_real(K, seed=s, scale=1.0).coeffs[K:] for s in (1, 2, 3)])
        for n in (_kernel_plan(K)[0], 4 * K + 1):
            got = _cube_half(stack, n, renormalized=True)
            want = _cube_half(stack, n) - 3.0 * _mass_half(stack)[:, None] * stack
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), n
            for row, g in zip(stack, got):
                assert np.array_equal(_cube_half(row, n, renormalized=True), g)

    @pytest.mark.parametrize("K", [4, 6, 256, 2048])
    def test_direct_pocketfft_equals_public_scipy_fft(self, K, monkeypatch):
        # the cubic's c2r/r2c run on scipy's compiled pocketfft module,
        # loaded without scipy.fft; they and the cube must be the public
        # scipy.fft and numpy.fft functions' bit for bit, on the module and
        # on its numpy.fft fallback alike
        n = _kernel_plan(K)[0]
        h = np.array([_random_real(K, seed=s, scale=1.0).coeffs[K:] for s in (1, 2)])
        pad = np.zeros((2, n // 2 + 1), dtype=np.complex128)
        pad[:, :K + 1] = h
        vals = scipy.fft.irfft(h, n, norm="forward")
        vals *= vals * vals
        cube = scipy.fft.rfft(vals, norm="forward")[:, :K + 1]
        for pf in (_fft._PF, None):
            monkeypatch.setattr(_fft, "_PF", pf)
            for ref in (scipy.fft, np.fft):
                for norm in (None, "forward"):
                    grid = _fft.irfft(pad, n, norm=norm)
                    assert np.array_equal(grid, ref.irfft(pad, n, norm=norm))
                    assert np.array_equal(_fft.irfft(h, n, norm=norm), grid)
                    assert np.array_equal(_fft.rfft(grid, norm=norm),
                                          ref.rfft(grid, norm=norm))
            out = np.empty((2, n))
            assert _fft.irfft(pad, n, norm="forward", out=out) is out
            spec = np.empty((2, n // 2 + 1), dtype=np.complex128)
            assert _fft.rfft(out, norm="forward", out=spec) is spec
            for got, want in ((_cube_half(h, n), cube), (_cube_half(h[1], n), cube[1])):
                assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("K", [64, 2048])
    def test_exact_phase_transforms_equal_public_ones(self, K, monkeypatch):
        # the exact-phase kernel's c2c transforms at its zero-padded lengths
        # m1, m2, m3 and the 4K grid, along the last axis and along axis 0,
        # out of place and in place
        A, W, nodes, lam, nv, rn, m1, m2, tw, rnn, m3, rhat = _cube_plan(K, _default_block(K))
        L, rng = _default_block(K), np.random.default_rng(K)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        cases = [(cplx(2, 4 * K), {"norm": "forward"}), (cplx(2, 3, 4 * K), {}),
                 (cplx(2, W), {"n": m1}), (cplx(2, 3, 4 * L - 1), {"n": m1}),
                 (cplx(2, 2 * W + L - 2), {"n": m2}), (cplx(2, 5, m2), {}),
                 (cplx(2, 2 * K + 1), {"n": m3}), (cplx(9, 2 * K + 1), {"axis": 0}),
                 (cplx(2, 4 * K), {"n": 4 * K - 3})]
        reals = [(rng.standard_normal(4 * K + 1), {"n": m3}),
                 (rng.standard_normal(2 * K + 1), {}),
                 (rng.standard_normal((9, 5)), {"axis": 0, "norm": "forward"})]
        for pf in (_fft._PF, None):
            monkeypatch.setattr(_fft, "_PF", pf)
            for x, kw in cases + reals:
                refs = (scipy.fft, np.fft) if np.iscomplexobj(x) else (scipy.fft,)
                for name in ("fft", "ifft"):
                    got = getattr(_fft, name)(x, **kw)
                    for ref in refs:
                        assert np.array_equal(got, getattr(ref, name)(x, **kw)), (name, kw)
                    if "n" not in kw and np.iscomplexobj(x):
                        y = x.copy()
                        assert getattr(_fft, name)(y, **kw, out=y) is y
                        assert np.array_equal(y, got)

    @pytest.mark.parametrize("K, block", [(16, 2), (256, None)])
    def test_inverse_resonance_cube_without_the_module(self, K, block, monkeypatch):
        g = np.array([_random_real(K, seed=s, scale=1.0).coeffs[K:] for s in (3, 4)])
        got = _inverse_resonance_cube(g, block)
        monkeypatch.setattr(_fft, "_PF", None)
        assert np.array_equal(_inverse_resonance_cube(g, block), got)

    def test_matches_triple_convolution(self):
        K = 6
        assert _kernel_plan(K)[0] == 25   # an odd real grid
        u = _random_real(K, seed=3, scale=1.0)
        got = cubic_coefficients(u)
        ks = np.arange(-K, K + 1)
        want = np.zeros(2 * K + 1, dtype=np.complex128)
        for i, k1 in enumerate(ks):
            for j, k2 in enumerate(ks):
                for l, k3 in enumerate(ks):
                    k = k1 + k2 + k3
                    if abs(k) <= K:
                        want[K + k] += u.coeffs[i] * u.coeffs[j] * u.coeffs[l]
        assert np.max(np.abs(got.coeffs - want)) <= 1e-12 * np.max(np.abs(want))

    def test_single_cosine_closed_form(self):
        # cos^3 = (3 cos + cos 3.)/4, so modes +-1 carry 3/8 and +-3 carry 1/8
        K = 8
        u = _single_mode(K, 1.0)
        got = cubic_coefficients(u)
        want = np.zeros(2 * K + 1, dtype=np.complex128)
        want[K + 1] = want[K - 1] = 3.0 / 8.0
        want[K + 3] = want[K - 3] = 1.0 / 8.0
        assert np.max(np.abs(got.coeffs - want)) <= 1e-14

    def test_real_in_real_out(self):
        u = _random_real(12, seed=5, scale=1.0)
        cubic_coefficients(u).require_real()

    @pytest.mark.parametrize("fn", [
        cubic_coefficients, rhs_split, lambda u: rhs(u, _cfg(max_mode=8)),
        lambda u: step(SimulationState(0.0, u), _cfg(max_mode=8)),
        lambda u: smoothing_scan(u, _cfg(max_mode=8), [0.1], [1]),
        # the base itself is checked, not only the (here real) zero row
        lambda u: smoothing_scan(u, _cfg(max_mode=8), [0.0], [1]),
        lambda u: energy_drift_scan(u, _cfg(max_mode=8), 4),
    ], ids=["cubic_coefficients", "rhs_split", "rhs", "step", "smoothing_scan",
            "smoothing_scan_zero_amplitude", "energy_drift_scan"])
    def test_rejects_non_real_field(self, fn):
        with pytest.raises(ValueError, match="Hermitian"):
            fn(_not_real(8))


class TestRhsSplit:
    def test_b_is_resonant_diagonal(self):
        u = _random_real(16, seed=2)
        _, b = rhs_split(u)
        d = deriv_multiplier(u.modes)
        want = -3.0 * d * np.abs(u.coeffs) ** 2 * u.coeffs
        assert np.max(np.abs(b.coeffs - want)) <= 1e-15

    def test_split_reassembles_transport(self):
        # A + B = d/dx (u^3 - 3 P0(u^2) u), the renormalized transport term
        u = _random_real(16, seed=4)
        a, b = rhs_split(u)
        d = deriv_multiplier(u.modes)
        cub = cubic_coefficients(u)
        want = d * (cub.coeffs - 3.0 * u.mass() * u.coeffs)
        got = a.coeffs + b.coeffs
        assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1.0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rhs_is_dispersion_minus_signed_transport(self, sign):
        u = _random_real(16, seed=6)
        cfg = _cfg(max_mode=16, sign=sign)
        a, b = rhs_split(u)
        d = deriv_multiplier(u.modes)
        lin = -(d ** 3) * u.coeffs
        want = lin - sign * (a.coeffs + b.coeffs)
        got = rhs(u, cfg).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_plain_vs_renormalized_offset(self, sign):
        # dropping the mean-correction changes the tendency by
        # +3 sign P0(u^2) d/dx u exactly
        u = _random_real(16, seed=7)
        plain = rhs(u, _cfg(max_mode=16, sign=sign, renormalized=False))
        renorm = rhs(u, _cfg(max_mode=16, sign=sign, renormalized=True))
        d = deriv_multiplier(u.modes)
        diff = plain.coeffs - renorm.coeffs
        want = -3.0 * sign * u.mass() * d * u.coeffs
        assert np.max(np.abs(diff - want)) <= 1e-12 * np.max(np.abs(want))

    def test_constant_field_zero_tendency(self):
        # FFT roundoff leaves ~1e-16 in the off-diagonal modes of the cube
        c = np.zeros(2 * 8 + 1, dtype=np.complex128)
        c[8] = 0.7
        u = FourierField(c)
        a, b = rhs_split(u)
        assert np.max(np.abs(a.coeffs)) <= 1e-13
        assert np.all(b.coeffs == 0.0)
        assert np.max(np.abs(rhs(u, _cfg(max_mode=8)).coeffs)) <= 1e-13

    def test_rhs_real_in_real_out(self):
        u = _random_real(16, seed=8)
        rhs(u, _cfg(max_mode=16)).require_real()


class TestStep:
    def test_max_mode_mismatch(self):
        state = SimulationState(0.0, _random_real(8))
        with pytest.raises(ValueError):
            step(state, _cfg(max_mode=16))

    def test_constant_field_is_fixed_point(self):
        # the mean is pinned bitwise; the zero modes may collect FFT
        # roundoff from the cube of the constant, nothing more
        c = np.zeros(2 * 16 + 1, dtype=np.complex128)
        c[16] = 0.3
        u = FourierField(c)
        res = simulate(u, _cfg(max_mode=16, dt=1e-2, t_final=0.1))
        assert res.final.field.mode(0) == 0.3
        assert np.max(np.abs(res.final.field.coeffs - u.coeffs)) <= 1e-15

    def test_mean_pinned_exactly(self):
        u = _random_real(32, seed=9) + _single_mode(32, 0.0)  # keep real
        c = u.coeffs.copy()
        c[32] = 0.25
        u = FourierField(c)
        res = simulate(u, _cfg(max_mode=32, dt=1e-3, t_final=0.01))
        assert res.final.field.mode(0) == u.mode(0)

    def test_l2_drift_small(self):
        u = _single_mode(32, 0.1)
        res = simulate(u, _cfg(max_mode=32, dt=2e-4, t_final=0.05))
        assert abs(res.final.field.l2_norm() - u.l2_norm()) <= 1e-9

    def test_reality_preserved(self):
        u = _random_real(32, seed=10)
        res = simulate(u, _cfg(max_mode=32, dt=1e-3, t_final=0.01))
        res.final.field.require_real()

    def test_local_order_is_five(self):
        # one step of size dt against two of size dt/2: the difference decays
        # like dt^5 for a fourth-order method
        u = _single_mode(32, 2.0)

        def local_diff(dt):
            one = step(SimulationState(0.0, u.copy()),
                       _cfg(max_mode=32, dt=dt, t_final=dt))
            s = SimulationState(0.0, u.copy())
            half = _cfg(max_mode=32, dt=dt / 2, t_final=dt)
            s = step(step(s, half), half)
            return float(np.linalg.norm(one.field.coeffs - s.field.coeffs))

        e1, e2 = local_diff(2e-4), local_diff(1e-4)
        exponent = np.log2(e1 / e2)
        assert 4.5 <= exponent <= 5.5

    def test_blowup_carries_last_good(self):
        u = _single_mode(16, 100.0)
        cfg = _cfg(max_mode=16, dt=1.0, t_final=10.0)
        with np.errstate(all="ignore"):
            with pytest.raises(BlowUpError) as info:
                simulate(u, cfg)
        last = info.value.last_good
        assert np.all(np.isfinite(last.field.coeffs))
        assert last.t < 10.0

    def test_blowup_is_reported_by_the_check_alone(self):
        # the overflow inside the failing step raises no numpy warning of
        # its own; the state it starts from is the one the error carries
        cfg = _cfg(max_mode=16, dt=1e-3)
        state = SimulationState(0.5, _single_mode(16, 1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match=r"non-finite at t=0\.5$") as info:
                step(state, cfg)
        assert info.value.last_good is state

    def test_mass_overflow_is_a_blowup(self):
        # one step takes this mode to finite coefficients near 1e188, whose
        # squares overflow: the mass check raises, with no numpy warning,
        # before an infinite alpha_accum can reach a returned state
        u = _single_mode(16, 100.0)
        cfg = _cfg(max_mode=16, dt=1.0, t_final=10.0)
        state = SimulationState(0.0, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowUpError, match=r"mass became non-finite at t=0$") as info:
                step(state, cfg)
            assert info.value.last_good is state
            with pytest.raises(BlowUpError) as info:
                simulate(u, cfg)
        # the first step fails: the state it carries is the input, byte for byte
        assert info.value.last_good.field.coeffs.tobytes() == u.coeffs.tobytes()
        assert np.isfinite(info.value.last_good.alpha_accum)


def _c2c_ifrk4_step(c, cfg):
    """Reference IFRK4 step on the full spectrum: complex FFTs of the whole
    padded grid for each stage, then averaging with the reflected conjugate
    and pinning the mean."""
    K, dt = cfg.max_mode, cfg.dt
    n = scipy.fft.next_fast_len(4 * K + 1)
    idx = np.arange(-K, K + 1) % n
    d = deriv_multiplier(np.arange(-K, K + 1))
    E = np.exp(0.5 * dt * -(d ** 3))

    def N(x):
        spec = np.zeros(n, dtype=np.complex128)
        spec[idx] = x
        vals = scipy.fft.ifft(spec) * n
        cub = (scipy.fft.fft(vals * vals * vals) / n)[idx]
        if cfg.renormalized:
            cub = cub - 3.0 * np.sum(np.abs(x) ** 2) * x
        return -cfg.sign * d * cub

    k1 = N(c)
    k2 = N(E * (c + 0.5 * dt * k1))
    k3 = N(E * c + 0.5 * dt * k2)
    k4 = N(E * E * c + dt * E * k3)
    out = E * E * c + (dt / 6.0) * (E * E * k1 + 2.0 * E * (k2 + k3) + k4)
    out = 0.5 * (out + np.conj(out[::-1]))
    out[K] = c[K]
    return out


class TestHalfSpectrumStep:
    @pytest.mark.parametrize("K, dt, eps, sigma", [
        (128, 1e-4, 0.1, 2.0),     # the smoothing scan's shape
        (2048, 2e-4, 0.05, 1.0),   # criterion 9's shape
    ])
    def test_matches_full_spectrum_reference(self, K, dt, eps, sigma):
        cfg = ModelConfig(max_mode=K, dt=dt, t_final=dt)
        want = decaying_profile(K, eps, sigma, seed=0).coeffs
        got = want[K:]
        for i in range(50):
            got, want = _ifrk4_coeffs(got, cfg), _c2c_ifrk4_step(want, cfg)
            if i in (0, 49):   # one step, and 50 chained steps
                err = np.max(np.abs(_mirror(got) - want))
                assert err <= 1e-14 * np.max(np.abs(want)), i

    @pytest.mark.parametrize("renormalized", [True, False])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_reference_on_every_model(self, renormalized, sign):
        K = 24
        cfg = _cfg(max_mode=K, dt=1e-4, sign=sign, renormalized=renormalized)
        c = _random_real(K, seed=3, scale=0.1).coeffs
        want = _c2c_ifrk4_step(c, cfg)
        got = _mirror(_ifrk4_coeffs(c[K:], cfg))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
    def test_output_hermitian_bitwise_and_mean_pinned(self, integrator):
        K = 64
        c = _random_real(K, seed=14, scale=0.3).coeffs.copy()
        c[K] = 0.125
        cfg = _cfg(max_mode=K, dt=1e-3, integrator=integrator)
        assert INTEGRATORS[integrator](c[K:], cfg)[0] == 0.125
        out = step(SimulationState(0.0, FourierField(c)), cfg).field.coeffs
        assert np.array_equal(out[:K], np.conj(out[:K:-1]))
        assert out[K] == 0.125

    @pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
    def test_reads_the_modes_k_ge_0(self, integrator):
        # a real row and the same row with its negative modes moved by 1e-12,
        # inside HERMITIAN_TOL, are one real field to step with either
        # integrator: they step to the same bits
        K = 32
        c = _random_real(K, seed=7, scale=0.3).coeffs
        moved = c.copy()
        moved[:K] += 1e-12 * (1 + 1j)
        FourierField(moved).require_real()
        cfg = _cfg(max_mode=K, dt=1e-3, integrator=integrator)
        got, want = (step(SimulationState(0.0, FourierField(x)), cfg).field.coeffs
                     for x in (moved, c))
        assert np.array_equal(got, want)


class TestBatchedStep:
    @pytest.mark.parametrize("K", [16, 2048])
    def test_masses_are_per_row_vdot(self, K):
        # a mass along the last axis rounds the same for a row whatever the
        # stack around it: 3-D stacks and strided half-spectrum views give
        # each row's 1-D value and np.vdot's, bit for bit
        rng = np.random.default_rng(K)
        c = rng.standard_normal((2, 3, 2 * K + 1)) + 1j * rng.standard_normal((2, 3, 2 * K + 1))
        for stack in (c[..., K:], np.ascontiguousarray(c[..., K:])):
            half = _mass_half(stack)
            assert half.shape == (2, 3)
            for i, j in np.ndindex(2, 3):
                r = stack[i, j]
                want = 2.0 * np.vdot(r, r).real - np.abs(r[0]) ** 2
                assert half[i, j] == _mass_half(r) == want

    @pytest.mark.parametrize("K, dt", [(32, 1e-3), (256, 1e-4), (2048, 2e-4)])
    def test_stack_equals_single_rows_bitwise(self, K, dt):
        # one stack of three fields, stepped together, against the three
        # fields stepped one at a time: equal bit for bit after 30 steps
        cfg = ModelConfig(max_mode=K, dt=dt, t_final=dt)
        base = decaying_profile(K, 1.0, 2.0, seed=5).coeffs[K:]
        rows = [eps * base for eps in (0.025, 0.05, 0.1)]
        stack = np.array(rows)
        for _ in range(30):
            stack = _ifrk4_coeffs(stack, cfg)
            rows = [_ifrk4_coeffs(r, cfg) for r in rows]
        assert stack.shape == (3, K + 1) and np.all(np.isfinite(stack))
        for got, want in zip(stack, rows):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("renormalized", [True, False])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_stack_on_every_model(self, renormalized, sign):
        cfg = _cfg(max_mode=24, dt=1e-4, sign=sign, renormalized=renormalized)
        rows = [_random_real(24, seed=s, scale=0.1).coeffs[24:] for s in (1, 2)]
        got = _ifrk4_coeffs(np.array(rows), cfg)
        for g, r in zip(got, rows):
            assert np.array_equal(g, _ifrk4_coeffs(r, cfg))

    @pytest.mark.parametrize("renormalized", [True, False])
    @pytest.mark.parametrize("K", [16, 64])
    def test_exact_phase_stack_equals_single_rows_bitwise(self, K, renormalized):
        cfg = ModelConfig(max_mode=K, dt=1e-4, t_final=1e-4, renormalized=renormalized,
                          integrator="exact-phase")
        base = decaying_profile(K, 1.0, 2.0, seed=5).coeffs[K:]
        rows = [eps * base for eps in (0.1, 0.3, 1.0)]
        stack = np.array(rows)
        for _ in range(3):
            stack = _exact_phase_coeffs(stack, cfg)
            rows = [_exact_phase_coeffs(r, cfg) for r in rows]
        assert stack.shape == (3, K + 1) and np.all(np.isfinite(stack))
        for got, want in zip(stack, rows):
            assert np.array_equal(got, want)

    def test_cube_results_outlive_the_next_call(self):
        # the kernel reuses its work arrays per stack shape; what it returns
        # must not
        K = 32
        n = _kernel_plan(K)[0]
        h1, h2 = (_random_real(K, seed=s, scale=1.0).coeffs[K:] for s in (1, 2))
        first = _cube_half(h1, n)
        kept = first.copy()
        second = _cube_half(h2, n)
        assert np.array_equal(first, kept) and not np.shares_memory(first, second)
        assert np.array_equal(_cube_half(h1, n), kept)

    def test_interleaved_shapes_equal_separate_runs(self):
        # a (2, K+1) stack and a single row at two K, stepped in turn,
        # against each run on its own
        runs = []
        for K in (16, 64):
            cfg = ModelConfig(max_mode=K, dt=1e-4, t_final=1e-4)
            base = decaying_profile(K, 1.0, 2.0, seed=5).coeffs[K:]
            runs += [(cfg, np.array([0.1 * base, 0.3 * base])), (cfg, 0.2 * base)]
        alone = []
        for cfg, c in runs:
            for _ in range(5):
                c = _ifrk4_coeffs(c, cfg)
            alone.append(c)
        states = [c for _, c in runs]
        for _ in range(5):
            states = [_ifrk4_coeffs(c, cfg) for (cfg, _), c in zip(runs, states)]
        for got, want in zip(states, alone):
            assert np.array_equal(got, want)

    def test_threads_step_alone(self):
        # the work arrays are per thread: four threads (more than the cores
        # here) stepping fields of one shape at a short switch interval give
        # each field's single-threaded result
        K = 256
        cfg = ModelConfig(max_mode=K, dt=1e-4, t_final=1e-4)
        base = decaying_profile(K, 1.0, 2.0, seed=5).coeffs[K:]
        starts = [eps * base for eps in (0.05, 0.1, 0.2, 0.4)]

        def run(c):
            for _ in range(200):
                c = _ifrk4_coeffs(c, cfg)
            return c

        want = [run(c) for c in starts]
        got = [None] * len(starts)

        def work(i):
            got[i] = run(starts[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(starts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for g, w in zip(got, want):
            assert g is not None and np.array_equal(g, w)

    @pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
    def test_row_stepper_is_step_per_row(self, integrator):
        # states, masses and alpha_accum of a stack stepped together are
        # those of step on each field alone, bit for bit, and alpha_accum is
        # the trapezoid sum of the fields' masses P0(u^2) on the modes k >= 0
        K = 16
        cfg = ModelConfig(max_mode=K, dt=1e-3, t_final=1e-3, integrator=integrator)
        base = decaying_profile(K, 1.0, 2.0, seed=5)
        states = [SimulationState(0.0, eps * base) for eps in (0.1, 0.5, 1.0)]
        h, alpha, mass = np.array([s.field.coeffs[K:] for s in states]), np.zeros(3), None
        trap = [0.0] * 3
        for _ in range(5):
            h, mass, alpha, fault = _step_rows(h, alpha, cfg, mass)
            old = [_mass_half(s.field.coeffs[K:]) for s in states]
            states = [step(s, cfg) for s in states]
            trap = [a + 0.5 * cfg.dt * (m + _mass_half(s.field.coeffs[K:]))
                    for a, m, s in zip(trap, old, states)]
            assert fault is None
        for r, s in enumerate(states):
            assert np.array_equal(_mirror(h[r]), s.field.coeffs)
            assert mass[r] == _mass_half(s.field.coeffs[K:])
            assert alpha[r] == s.alpha_accum == trap[r]


def _triples(K, k, first=None):
    """All (a, b, c) with a + b + c = k inside [-K, K] and no vanishing pair
    sum, with their exact resonance Omega3 (int64 is exact up to K ~ 10^5).
    first restricts a to the given values."""
    ks = np.arange(-K, K + 1, dtype=np.int64)
    a, b = np.meshgrid(ks if first is None else first, ks, indexing="ij")
    c = k - a - b
    ok = (np.abs(c) <= K) & (a + b != 0) & (a + c != 0) & (b + c != 0)
    a, b, c = a[ok], b[ok], c[ok]
    return a, b, c, -3 * (a + b) * (a + c) * (b + c)


def _direct_exact_phase_step(c, cfg):
    """O(K^3) reference for one exact-phase step: every nondegenerate triple
    with its own weight (exp(i (2pi)^3 Omega dt) - 1) / (i (2pi)^3 Omega),
    then the exact resonant rotation, re-symmetrization and mean pinning."""
    K, dt = cfg.max_mode, cfg.dt
    ks = np.arange(-K, K + 1)
    v = np.empty_like(c)
    for k in ks:
        a, b, cc, om = _triples(K, k)
        ph = (2 * np.pi) ** 3 * om
        w = np.expm1(1j * ph * dt) / (1j * ph)
        incr = -cfg.sign * 2j * np.pi * k * np.sum(c[a + K] * c[b + K] * c[cc + K] * w)
        v[k + K] = np.exp(1j * (2 * np.pi) ** 3 * k ** 3 * dt) * (c[k + K] + incr)
    amp = np.abs(v) ** 2
    offset = 0.0 if cfg.renormalized else amp.sum()
    out = np.exp(6j * np.pi * cfg.sign * dt * ks * (amp - offset)) * v
    out = 0.5 * (out + np.conj(out[::-1]))
    out[K] = c[K]
    return out


class TestExactPhase:
    @pytest.mark.parametrize("K", [4, 12, 32])
    def test_kernel_matches_direct_sum(self, K):
        # the factorized kernel against sum g1 g2 g3 / Omega3 triple by
        # triple; small blocks force the Chebyshev far field into play
        g = _random_real(K, seed=K, scale=1.0).coeffs
        want = np.zeros(K + 1, dtype=np.complex128)
        for k in range(1, K + 1):
            a, b, c, om = _triples(K, k)
            want[k] = np.sum(g[a + K] * g[b + K] * g[c + K] / om)
        scale = np.max(np.abs(want))
        for block in (1, 2, 4, K // 2, None):
            got = _inverse_resonance_cube(g[K:], block)[0]
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, block

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("renormalized", [True, False])
    def test_step_matches_direct_triple_sum(self, sign, renormalized, monkeypatch):
        K = 16
        c = _random_real(K, seed=21, scale=0.3).coeffs
        cfg = _cfg(max_mode=K, dt=1e-4, sign=sign, renormalized=renormalized,
                   integrator="exact-phase")
        want = _direct_exact_phase_step(c, cfg)
        default = _default_block
        for block in (2, 4, None):
            monkeypatch.setattr(evolve, "_default_block",
                                default if block is None else lambda max_mode, b=block: b)
            got = _mirror(_exact_phase_coeffs(c[K:], cfg))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), block
        out = step(SimulationState(0.0, FourierField(c)), cfg).field.coeffs
        assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))

    def test_one_step_is_first_order_duhamel_at_criterion_9_datum(self):
        # one step from the criterion-9 datum moves the quadratic density of
        # mode 1024 by the frozen-amplitude Duhamel increment, summed here
        # over all 1.15e7 nondegenerate triples feeding that mode, 256 values
        # of the first frequency at a time to keep the memory small
        K, k, dt = 2048, 1024, 2e-4
        u0 = decaying_profile(K, 0.05, 1.0, seed=0)
        cfg = ModelConfig(max_mode=K, dt=dt, t_final=dt, integrator="exact-phase")
        got = step(SimulationState(0.0, u0), cfg).field
        dq = 0.5 * k * (abs(got.mode(k)) ** 2 - abs(u0.mode(k)) ** 2)
        c = u0.coeffs
        ks = np.arange(-K, K + 1, dtype=np.int64)
        acc = 0j
        for j in range(0, ks.size, 256):
            a, b, cc, om = _triples(K, k, ks[j:j + 256])
            ph = (2 * np.pi) ** 3 * om
            acc += np.sum(c[a + K] * c[b + K] * c[cc + K] * np.expm1(1j * ph * dt) / (1j * ph))
        incr = -2j * np.pi * k * acc
        want = 0.5 * k * (abs(u0.mode(k) + incr) ** 2 - abs(u0.mode(k)) ** 2)
        assert want != 0.0
        assert dq == pytest.approx(want, rel=1e-7)

    def test_self_convergence_is_first_order(self):
        # against an IFRK4 run whose step turns every phase by at most 1 rad
        K, T = 16, 0.02
        # Omega3 flips sign under k -> -k, so k >= 0 covers every rate
        rate = (2 * np.pi) ** 3 * max(np.max(np.abs(_triples(K, k)[3]))
                                     for k in range(K + 1))
        u0 = single_mode_profile(K, 1.0)
        n_ref = int(np.ceil(T * rate))
        ref = simulate(u0, _cfg(max_mode=K, dt=T / n_ref, t_final=T)).final.field
        errs = []
        for n in (100, 200, 400):
            cfg = _cfg(max_mode=K, dt=T / n, t_final=T, integrator="exact-phase")
            out = simulate(u0, cfg).final.field
            errs.append(np.linalg.norm(out.coeffs - ref.coeffs))
        for e1, e2 in zip(errs, errs[1:]):
            assert 0.5 <= np.log2(e1 / e2) <= 1.5

    def test_mean_pinned_and_real(self):
        u = _random_real(32, seed=9)
        res = simulate(u, _cfg(max_mode=32, dt=1e-3, t_final=0.01,
                               integrator="exact-phase"))
        assert res.final.field.mode(0) == u.mode(0)
        res.final.field.require_real()


class TestSimulate:
    def test_t_final_must_divide(self):
        u = _single_mode(8, 0.1)
        with pytest.raises(ValueError, match="integer multiple"):
            simulate(u, _cfg(max_mode=8, dt=0.3, t_final=1.0))

    def test_rejects_complex_initial_data(self):
        c = np.zeros(2 * 8 + 1, dtype=np.complex128)
        c[8 + 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError):
            simulate(FourierField(c), _cfg(max_mode=8))

    def test_rejects_mismatched_max_mode(self):
        with pytest.raises(ValueError):
            simulate(_single_mode(8, 0.1), _cfg(max_mode=16))

    @pytest.mark.parametrize("sample_every", [0, -1])
    def test_rejects_sample_every_below_one(self, sample_every):
        with pytest.raises(ValueError, match="sample_every"):
            simulate(_single_mode(8, 0.1), _cfg(max_mode=8, dt=1e-3, t_final=1e-2),
                     sample_every=sample_every)

    def test_snapshot_layout(self):
        u = _single_mode(8, 0.01)
        cfg = _cfg(max_mode=8, dt=1e-3, t_final=1e-2)
        res = simulate(u, cfg, sample_every=3)
        # initial state, every third step, and the final step
        want = np.array([0.0, 3e-3, 6e-3, 9e-3, 1e-2])
        assert np.allclose(res.times, want, atol=1e-15)
        assert len(res.snapshots) == 5
        assert res.snapshots[0].t == 0.0
        assert res.snapshots[-1].t == res.final.t

    def test_snapshot_endpoints_only(self):
        u = _single_mode(8, 0.01)
        res = simulate(u, _cfg(max_mode=8, dt=1e-3, t_final=1e-2))
        assert len(res.snapshots) == 2
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(1e-2)

    def test_zero_time_run(self):
        u = _single_mode(8, 0.01)
        res = simulate(u, _cfg(max_mode=8, t_final=0.0))
        assert len(res.snapshots) == 1
        assert res.final.t == 0.0
        assert np.array_equal(res.final.field.coeffs, u.coeffs)

    def test_initial_snapshot_is_a_copy(self):
        u = _single_mode(8, 0.05)
        res = simulate(u, _cfg(max_mode=8, dt=1e-3, t_final=5e-3),
                       sample_every=1)
        # bytes, so that the sign of a zero counts: a mirror of the modes
        # k >= 0 would turn the input's imaginary +0.0 into -0.0
        assert res.snapshots[0].field.coeffs.tobytes() == u.coeffs.tobytes()
        assert res.snapshots[0].field.coeffs is not u.coeffs

    @pytest.mark.parametrize("sample_every", [1, 3])
    @pytest.mark.parametrize("integrator", sorted(INTEGRATORS))
    def test_is_the_step_chain(self, integrator, sample_every):
        # every kept snapshot is the matching state of a loop of step calls,
        # bit for bit, read after the run: no later step writes into it
        cfg = _cfg(max_mode=16, dt=1e-3, t_final=1e-2, integrator=integrator)
        u = decaying_profile(16, 1.0, 2.0, seed=5)
        res = simulate(u, cfg, sample_every=sample_every)
        chain = [SimulationState(0.0, u)]
        for _ in range(cfg.n_steps):
            chain.append(step(chain[-1], cfg))
        kept = chain[::sample_every]
        if cfg.n_steps % sample_every:
            kept.append(chain[-1])
        assert len(res.snapshots) == len(kept)
        for got, want in zip(res.snapshots, kept):
            assert got.t == want.t and got.alpha_accum == want.alpha_accum
            assert np.array_equal(got.field.coeffs, want.field.coeffs)
        assert res.times.tolist() == [s.t for s in kept]

    def test_alpha_accum_tracks_mass_integral(self):
        u = _single_mode(32, 0.1)
        T = 0.05
        res = simulate(u, _cfg(max_mode=32, dt=2e-4, t_final=T))
        # mass is conserved to time-stepping error, so the accumulated
        # integral of P0(u^2) is T * mass to the same accuracy
        assert res.final.alpha_accum == pytest.approx(T * u.mass(), rel=1e-8)

    def test_translation_equivariance(self):
        K = 24
        u = _random_real(K, seed=11, scale=0.1)
        x0 = 0.3127
        phase = np.exp(-2j * np.pi * np.arange(-K, K + 1) * x0)
        cfg = _cfg(max_mode=K, dt=1e-3, t_final=0.02)
        moved_first = simulate(u.multiplied(phase), cfg).final.field
        moved_last = simulate(u, cfg).final.field.multiplied(phase)
        scale = np.max(np.abs(moved_last.coeffs))
        assert np.max(np.abs(moved_first.coeffs - moved_last.coeffs)) <= 1e-12 * scale


class TestGauge:
    def test_roundtrip_identity(self):
        u = _random_real(16, seed=12)
        state = SimulationState(0.4, u, alpha_accum=0.0137)
        cfg = _cfg(max_mode=16)
        back = gauge_backward(gauge_forward(state, cfg), cfg)
        assert np.max(np.abs(back.field.coeffs - u.coeffs)) <= 1e-12
        assert back.t == state.t and back.alpha_accum == state.alpha_accum

    def test_noop_at_zero_alpha(self):
        u = _random_real(16, seed=13)
        state = SimulationState(0.0, u, alpha_accum=0.0)
        out = gauge_forward(state, _cfg(max_mode=16))
        assert np.array_equal(out.field.coeffs, u.coeffs)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_gauge_links_plain_and_renormalized(self, sign):
        # the renormalized flow is the plain flow composed with the mean-drift
        # translation; push the plain endpoint forward and compare fields
        u = _single_mode(32, 0.1)
        plain_cfg = _cfg(max_mode=32, dt=1e-3, t_final=0.05, sign=sign,
                         renormalized=False)
        renorm_cfg = _cfg(max_mode=32, dt=1e-3, t_final=0.05, sign=sign,
                          renormalized=True)
        plain = simulate(u, plain_cfg).final
        renorm = simulate(u, renorm_cfg).final
        gauged = gauge_forward(plain, plain_cfg)
        scale = np.max(np.abs(renorm.field.coeffs))
        assert np.max(np.abs(gauged.field.coeffs - renorm.field.coeffs)) <= 1e-10 * scale
