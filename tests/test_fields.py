import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remkdv.fields import (
    FourierField,
    chi,
    deriv_multiplier,
    dyadic_blocks,
    evaluate,
    phi,
    phi_dyadic,
    project_dyadic,
    project_leq,
    riesz_potential,
    sobolev_norm,
    space_time_norm,
    synthesize,
    xsb_norm_diagnostic,
)


def _random_real(K, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(c).hermitized()


class TestFourierField:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError):
            FourierField(np.zeros(4, dtype=complex))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            FourierField(np.zeros((3, 3), dtype=complex))

    def test_copy_false_casts_when_it_must(self):
        # copy=False copies only where the cast to complex128 needs it
        for coeffs in (np.array([0.0, 1.0, 0.0]), [0.0, 1.0, 0.0]):
            f = FourierField(coeffs, copy=False)
            assert f.coeffs.dtype == np.complex128
            assert f.coeffs.tolist() == [0.0, 1.0, 0.0]
        c = np.array([0.0, 1.0 + 2.0j, 0.0])
        assert np.shares_memory(FourierField(c, copy=False).coeffs, c)
        assert not np.shares_memory(FourierField(c).coeffs, c)

    def test_mode_lookup(self):
        f = FourierField.from_modes(4, {2: 1.0 + 2.0j, -2: 1.0 - 2.0j})
        assert f.mode(2) == 1.0 + 2.0j
        assert f.mode(0) == 0.0
        assert f.mode(99) == 0.0  # outside the lattice

    def test_gather_matches_mode_lookup(self):
        f = _random_real(5)
        ks = np.array([[-9, -5, 0], [3, 5, 6]])
        got = f.gather(ks)
        assert got.shape == ks.shape
        assert got.tolist() == [[f.mode(int(k)) for k in row] for row in ks]

    def test_hermitized_is_real(self):
        f = _random_real(16)
        assert f.is_real()
        assert f.hermitian_defect() <= 1e-15

    def test_require_real_rejects(self):
        c = np.zeros(9, dtype=complex)
        c[6] = 1.0  # mode +2 without its mirror
        with pytest.raises(ValueError):
            FourierField(c).require_real()

    def test_l2_norm_parseval(self):
        # sobolev_norm(., 0)^2 equals the grid L2 inner product
        for K in (8, 64, 512):
            f = _random_real(K, seed=K)
            n = 4 * K + 5
            samples = synthesize(f, n)
            grid = np.sqrt(np.mean(samples.real ** 2))
            assert abs(grid - sobolev_norm(f, 0.0)) <= 1e-10

    def test_mass_is_l2_squared(self):
        f = _random_real(32)
        assert f.mass() == pytest.approx(f.l2_norm() ** 2, rel=1e-14)

    def test_arithmetic(self):
        f = _random_real(8, seed=1)
        g = _random_real(8, seed=2)
        h = f + g - g
        assert np.allclose(h.coeffs, f.coeffs, atol=1e-15)
        assert np.allclose((f * 2.0).coeffs, 2.0 * f.coeffs)
        assert np.allclose((-f).coeffs, -f.coeffs)

    def test_derivative_single_mode(self):
        # d/dx e^{2pi i 3 x} = (2pi i 3) e^{2pi i 3 x}
        f = FourierField.from_modes(8, {3: 1.0, -3: 1.0})
        d = f.derivative()
        assert d.mode(3) == pytest.approx(2j * np.pi * 3)
        assert d.mode(-3) == pytest.approx(-2j * np.pi * 3)

    def test_deriv_multiplier_convention(self):
        ks = np.array([-2, 0, 5])
        assert np.array_equal(deriv_multiplier(ks), 2j * np.pi * ks)


@given(st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=50, deadline=None)
def test_from_modes_hermitize_always_real(K, seed):
    rng = np.random.default_rng(abs(seed) % 2 ** 32)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    assert FourierField(c).hermitized().is_real()


def test_synthesize_evaluate_roundtrip():
    f = _random_real(24, seed=9)
    g = evaluate(synthesize(f, 101), 24)
    assert np.allclose(g.coeffs, f.coeffs, atol=1e-12)


def test_synthesize_known_cosine():
    # eps*2cos(2pi x) from modes +-1 at eps
    f = FourierField.from_modes(4, {1: 0.3, -1: 0.3})
    x = np.arange(16) / 16.0
    assert np.allclose(synthesize(f, 16), 0.6 * np.cos(2 * np.pi * x), atol=1e-14)


def test_synthesize_rejects_coarse_grid():
    f = FourierField.from_modes(4, {1: 0.3, -1: 0.3})
    with pytest.raises(ValueError):
        synthesize(f, 7)


class TestCutoffs:
    def test_chi_plateau_and_support(self):
        assert chi(np.array([0.0, 1.0, -1.0])).tolist() == [1.0, 1.0, 1.0]
        assert chi(np.array([2.0, -2.0, 3.0])).tolist() == [0.0, 0.0, 0.0]
        assert 0.0 < chi(np.array([1.5]))[0] < 1.0

    def test_phi_from_chi(self):
        x = np.linspace(-3, 3, 61)
        assert np.allclose(phi(x), chi(x) - chi(2 * x), atol=1e-15)

    def test_phi_dyadic_zero_block(self):
        ks = np.arange(-5, 6)
        w = phi_dyadic(0, ks)
        assert w[5] == 1.0 and np.count_nonzero(w) == 1

    @pytest.mark.parametrize("N", [0] + [2 ** i for i in range(15)])
    def test_phi_dyadic_table_equals_formula(self, N):
        # integers are read from a table, floats take the formula
        L = max(2 * N, 1)
        ks = np.arange(-3 * L - 2, 3 * L + 3)
        for k in (ks, ks.reshape(-1, 1)[: 2 * L], np.array([-2 ** 40, 2 ** 40])):
            got, want = phi_dyadic(N, k), phi_dyadic(N, k.astype(np.float64))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        for k in (N // 2 + 1, -N, np.int64(N), np.asarray(3)):
            got, want = phi_dyadic(N, k), phi_dyadic(N, float(k))
            assert np.shape(got) == np.shape(want) == ()
            assert got.dtype == want.dtype and got == want

    def test_phi_dyadic_result_is_a_fresh_array(self):
        first = phi_dyadic(8, np.arange(-20, 21))
        first[:] = -1.0
        assert phi_dyadic(8, np.arange(-20, 21)).min() == 0.0

    def test_dyadic_blocks_cover(self):
        blocks = dyadic_blocks(4096)
        assert blocks[0] == 0 and blocks[1] == 1 and blocks[-1] >= 4096
        assert all(b == 2 * a for a, b in zip(blocks[1:], blocks[2:]))

    def test_disjoint_projectors_annihilate(self):
        # P_N P_M = 0 when the dyadic gap is >= 2
        f = _random_real(64, seed=3)
        g = project_dyadic(project_dyadic(f, 4), 16)
        assert np.max(np.abs(g.coeffs)) == 0.0
        h = project_dyadic(project_dyadic(f, 4), 8)  # adjacent blocks overlap
        assert np.max(np.abs(h.coeffs)) > 0.0

    def test_projection_sums_back(self):
        f = _random_real(40, seed=4)
        acc = FourierField.zeros(40)
        for N in dyadic_blocks(40):
            acc = acc + project_dyadic(f, N)
        assert np.allclose(acc.coeffs, f.coeffs, atol=1e-12)

    def test_project_leq_cutoff_shape(self):
        f = _random_real(32, seed=5)
        lo = project_leq(f, 8)
        assert lo.mode(8) == f.mode(8)
        assert 0.0 < abs(lo.mode(9)) < abs(f.mode(9))  # smooth shoulder
        assert lo.mode(16) == 0.0


class TestPotentials:
    def test_riesz_drops_mean(self):
        f = FourierField.from_modes(4, {0: 5.0, 1: 1.0, -1: 1.0})
        g = riesz_potential(f, 1.0)
        assert g.mode(0) == 0.0
        assert g.mode(1) == pytest.approx(1.0)
        # s = 0 drops it too, by convention, where |k|^0 would keep it
        assert riesz_potential(f, 0.0).mode(0) == 0.0

    def test_riesz_negative_order_needs_mean_free(self):
        f = FourierField.from_modes(4, {0: 5.0, 1: 1.0, -1: 1.0})
        with pytest.raises(ValueError):
            riesz_potential(f, -1.0)

    def test_sobolev_norm_monotone_in_s(self):
        f = _random_real(16, seed=6)
        assert sobolev_norm(f, 1.0) >= sobolev_norm(f, 1.0 / 3.0) >= sobolev_norm(f, 0.0)


@pytest.mark.parametrize("p, q", [(np.inf, 4.0), (4.0, np.inf)])
def test_space_time_norm_refuses_infinite_exponents(p, q):
    # no quadrature here takes a sup: an infinite exponent is refused, not
    # turned into (mean |u|^inf)^0 = 1
    f = _random_real(8, seed=1)
    with pytest.raises(ValueError, match="finite"):
        space_time_norm([f, f], [0.0, 1.0], p, q)


def test_xsb_free_evolution_b0_value():
    # with b = 0 the twisted-trajectory diagnostic reduces to
    # sqrt(T)*||u0||_{H^s} for data evolved by the linear group alone
    K = 16
    u0 = _random_real(K, seed=11)
    ks = np.arange(-K, K + 1)
    times = np.linspace(0.0, 0.5, 201)
    phase = np.exp((2j * np.pi * ks) ** 3 * times[:, None])
    snaps = [FourierField(u0.coeffs * phase[i]) for i in range(len(times))]
    s = 1.0 / 3.0
    got = xsb_norm_diagnostic(snaps, times, s, 0.0)
    want = np.sqrt(0.5) * sobolev_norm(u0, s)
    assert got == pytest.approx(want, rel=1e-6)
