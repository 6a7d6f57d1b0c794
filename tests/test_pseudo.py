import json
from pathlib import Path

import numpy as np
import pytest

from remkdv import pseudo
from remkdv.diagnostics import random_real_field
from remkdv.fields import (
    FourierField,
    deriv_multiplier,
    evaluate,
    phi_dyadic,
    project_dyadic,
    synthesize,
)
from remkdv.pseudo import (
    IBPSymbols,
    SymbolFn,
    _a3_row_sums,
    _off_a3_windows,
    _support_sums,
    estimate_quadrilinear_ratio,
    ibp_symbols,
    near_projector_blocks,
    pseudoproduct,
    pseudoproduct_restricted,
    symbol_one,
    t_functional,
    verify_ibp,
)
from remkdv.resonance import a_cell

GOLDEN = Path(__file__).parent / "golden"


def _random_real(K, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(c).hermitized()


def _random_complex(K, seed=0):
    rng = np.random.default_rng(seed)
    return FourierField(rng.standard_normal(2 * K + 1)
                        + 1j * rng.standard_normal(2 * K + 1))


def _grid_product(f, g, h, K_out):
    # alias-free grid product: modes reach 3K, so 8K+3 points leave the
    # window |k| <= K_out clean
    n = 8 * f.max_mode + 3
    vals = synthesize(f, n) * synthesize(g, n) * synthesize(h, n)
    return evaluate(vals, K_out)


def _grid_product_complex(fields, K_out):
    # same padded-grid oracle without the real-field restriction
    n = 8 * fields[0].max_mode + 3
    vals = np.ones(n, dtype=np.complex128)
    for f in fields:
        spec = np.zeros(n, dtype=np.complex128)
        spec[f.modes % n] = f.coeffs
        vals = vals * (np.fft.ifft(spec) * n)
    spec = np.fft.fft(vals) / n
    ks = np.arange(-K_out, K_out + 1)
    return FourierField(spec[ks % n])


class TestPseudoproduct:
    def test_symbol_one_is_plain_product(self):
        K = 24
        f, g, h = (_random_real(K, seed=s) for s in (1, 2, 3))
        got = pseudoproduct(symbol_one(), f, g, h)
        want = _grid_product(f, g, h, K)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10

    def test_single_modes_land_on_sum(self):
        K = 16
        f = FourierField.from_modes(K, {2: 1.0})
        g = FourierField.from_modes(K, {3: 1.0})
        h = FourierField.from_modes(K, {5: 1.0})
        out = pseudoproduct(symbol_one(), f, g, h)
        assert out.mode(10) == pytest.approx(1.0)
        assert np.count_nonzero(out.coeffs) == 1

    def test_first_slot_derivative_symbol(self):
        # eta = k1 acts as (2 pi i)^{-1} d/dx on the first slot (the result is
        # imaginary for real f, so the oracle runs on the complex grid)
        K = 12
        f, g, h = (_random_real(K, seed=s) for s in (4, 5, 6))
        eta = SymbolFn(lambda k1, k2, k3: k1.astype(np.float64), float(K), "k1")
        got = pseudoproduct(eta, f, g, h)
        fprime = f.derivative() * (1.0 / (2j * np.pi))
        want = _grid_product_complex([fprime, g, h], K)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10

    def test_trilinearity(self):
        K = 10
        f, f2, g, h = (_random_complex(K, seed=s) for s in (7, 8, 9, 10))
        lam = 0.7 - 1.3j
        eta = symbol_one()
        left = pseudoproduct_restricted(eta, 2, 2, f + f2 * lam, g, h)
        right = (pseudoproduct_restricted(eta, 2, 2, f, g, h)
                 + pseudoproduct_restricted(eta, 2, 2, f2, g, h) * lam)
        assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-12

    def test_mismatched_lattices_rejected(self):
        with pytest.raises(ValueError):
            pseudoproduct(symbol_one(), _random_real(8), _random_real(8),
                          _random_real(16))

    def test_restricted_rejects_bad_j(self):
        f = _random_real(8)
        with pytest.raises(ValueError):
            pseudoproduct_restricted(symbol_one(), 4, 1, f, f, f)

    def test_reassembly(self):
        # summing the (j, M) restrictions over all classes and all dyadic
        # blocks (pair sums reach 2K, so blocks through 2K suffice) recovers
        # the unrestricted operator
        K = 32
        f, g, h = (_random_real(K, seed=s) for s in (11, 12, 13))
        total = FourierField.zeros(K)
        blocks = [0, 1, 2, 4, 8, 16, 32, 64]
        for j in (1, 2, 3):
            for M in blocks:
                total = total + pseudoproduct_restricted(symbol_one(), j, M, f, g, h)
        want = pseudoproduct(symbol_one(), f, g, h)
        assert np.max(np.abs(total.coeffs - want.coeffs)) <= 1e-10


class TestSupportSums:
    def test_zero_block(self):
        assert _support_sums(0).tolist() == [0]

    def test_dyadic_block(self):
        got = _support_sums(4)
        want = [-7, -6, -5, -4, -3, 3, 4, 5, 6, 7]
        assert got.tolist() == want
        assert all(phi_dyadic(4, np.array([s]))[0] > 0 for s in got)
        assert phi_dyadic(4, np.array([2]))[0] == 0.0
        assert phi_dyadic(4, np.array([8]))[0] == 0.0


def _paired(prod, f4):
    # integral of prod * f4 over the torus: f4^(-k) indexed like k
    return complex(np.sum(prod.coeffs * f4.coeffs[::-1]))


class TestPairedQuadrilinear:
    # the row path serves slot 3 alone: A1 and A2 pairings have no engine
    @pytest.mark.parametrize("j", [3])
    @pytest.mark.parametrize("M", [0, 1, 2, 4])
    def test_matches_direct_sum(self, j, M):
        # oracle: build the restricted product on the full lattice, then pair
        K = 16
        f1, f2, f3, f4 = (_random_complex(K, seed=10 * j + M + s)
                          for s in (0, 1, 2, 3))
        eta = SymbolFn(lambda k1, k2, k3: np.cos(0.1 * (k1 + k2))
                       + 0.2 * np.sin(k1 + k2 - k3), 1.2, "test")
        want = _paired(pseudoproduct_restricted(eta, j, M, f1, f2, f3), f4)
        got = _a3_row_sums(M, f1, f2, [(eta, f3, f4)])[0]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_single_mode_bound(self):
        # one-term sums stay below the M * prod L2 budget
        K = 16
        f = FourierField.from_modes(K, {3: 1.0, -3: 1.0})
        g = FourierField.from_modes(K, {2: 0.5, -2: 0.5})
        for M in (1, 2, 4):
            val = abs(_a3_row_sums(M, f, g, [(symbol_one(), f, g)])[0])
            budget = M * (f.l2_norm() ** 2) * (g.l2_norm() ** 2)
            assert val <= budget + 1e-12


def _one_sign(eta, sign):
    # eta restricted to pair sums s = k1 + k2 of one sign; still a function
    # of s and k3 alone
    return SymbolFn(lambda k1, k2, k3: eta.eval(k1, k2, k3) * (sign * (k1 + k2) > 0),
                    eta.sup_bound, f"{eta.name}[{sign:+d}]")


class TestA3RowSums:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("M", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("K", [2, 3, 4, 8, 16, 33])
    def test_matches_grid_sum(self, K, M, sign):
        # small K clips the windows at +-K, and rows k near s/2 hold both
        # windows at once; exact zeros come back as roundoff of the prefix
        # sums, so the scale is the fields' l1 norms
        f1, f2, f3, f4 = (_random_complex(K, seed=1000 * K + 10 * M + sign + s)
                          for s in (0, 1, 2, 3))
        scale = np.prod([np.sum(np.abs(f.coeffs)) for f in (f1, f2, f3, f4)])
        syms = ibp_symbols(M, 16 * M)
        shift = SymbolFn(lambda k1, k2, k3: syms.eta_shift_out.eval(k1, k2, k3)
                         + syms.eta_shift_diff.eval(k1, k2, k3), 2.0 + 2.0 * np.pi)
        etas = [_one_sign(eta, sign) for eta in
                (symbol_one(), shift, syms.eta_boundary, *syms)]
        got = _a3_row_sums(M, f1, f2, [(eta, f3, f4) for eta in etas])
        for eta, val in zip(etas, got):
            want = _paired(pseudoproduct_restricted(eta, 3, M, f1, f2, f3), f4)
            assert abs(val - want) <= 1e-15 * scale, eta.name
            assert _a3_row_sums(M, f1, f2, [(eta, f3, f4)]) == [val]

    def test_windows_are_the_off_a3_columns(self):
        # column a of row k leaves A3 exactly in the union of the two clipped
        # windows; covers the ties |k - a| = |s| and windows beyond +-K
        for K in (2, 5, 33):
            ks = np.arange(-K, K + 1)
            k, a = ks[:, None], ks[None, :]
            for M in (1, 2, 4, 8, 16):
                for s in _support_sums(M):
                    lo1, hi1, lo2, hi2 = (b[:, None] for b in _off_a3_windows(K, s, ks))
                    union = ((lo1 <= a) & (a < hi1)) | ((lo2 <= a) & (a < hi2))
                    off = ~a_cell(3, np.abs(k - a), np.abs(a + k - s), abs(s))
                    assert np.array_equal(union, off), (K, M, s)

    @pytest.mark.parametrize("M,N", [(1, 16), (2, 32), (4, 64), (1, 1024)])
    def test_ibp_symbols_depend_on_pair_sum_and_k3(self, M, N):
        # the row path reads each symbol once per row, at (0, s, k - s)
        # k1 + k2 spans the pair-sum support, k3 the blocks around N
        small = np.arange(-4 * M, 4 * M + 1)
        wide = np.arange(-3 * N, 3 * N + 1, max(1, N // 16))
        k1, k2, k3, t = np.meshgrid(small, small, wide, np.arange(-3, 4), indexing="ij")
        for sym in ibp_symbols(M, N):
            assert np.array_equal(sym.eval(k1 + t, k2 - t, k3), sym.eval(k1, k2, k3))
        one = symbol_one()
        assert np.array_equal(one.eval(k1 + t, k2 - t, k3), one.eval(k1, k2, k3))


class TestTFunctional:
    def test_matches_direct_pairing(self):
        # spec-scale oracle: K=64, N=16, M=2 against the O(K^3) lattice sum
        K, N, M = 64, 16, 2
        f1, f2, g = (_random_real(K, seed=s) for s in (21, 22, 23))
        prod = pseudoproduct_restricted(symbol_one(), 3, M, f1, f2, g)
        ks = np.arange(-K, K + 1)
        # pairing weight at frequency -k: phi_N(k)^2 * (2 pi i (-k))
        w = phi_dyadic(N, ks) ** 2 * deriv_multiplier(ks)
        want = float(np.sum(prod.coeffs * (w * g.coeffs)[::-1]).real)
        got = t_functional(M, N, f1, f2, g)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_requires_real_fields(self):
        f = _random_complex(16, seed=1)
        with pytest.raises(ValueError):
            t_functional(2, 8, f, f, f)

    def test_small_n_rejected(self):
        f = _random_real(16)
        with pytest.raises(ValueError):
            t_functional(1, 2, f, f, f)


class TestIBPSymbols:
    def test_boundary_value_on_block(self):
        M, N = 4, 64
        syms = ibp_symbols(M, N)
        v = syms.eta_boundary.eval(np.array([2]), np.array([2]), np.array([50]))
        assert v[0] == pytest.approx(-0.5)

    def test_boundary_support(self):
        M, N = 4, 64
        syms = ibp_symbols(M, N)
        k3 = np.array([50])
        assert syms.eta_boundary.eval(np.array([1]), np.array([1]), k3)[0] == 0.0
        assert syms.eta_boundary.eval(np.array([4]), np.array([4]), k3)[0] == 0.0

    def test_requires_16m_leq_n(self):
        with pytest.raises(ValueError):
            ibp_symbols(8, 64)
        with pytest.raises(ValueError):
            ibp_symbols(0, 64)
        assert isinstance(ibp_symbols(4, 64), IBPSymbols)

    @pytest.mark.parametrize("M,N", [(1, 16), (1, 1024), (2, 32), (4, 64),
                                     (8, 512), (16, 256), (64, 1024)])
    def test_sampled_sups_within_declared(self, M, N):
        syms = ibp_symbols(M, N)
        s = np.arange(-2 * M, 2 * M + 1)
        k1, s3 = np.meshgrid(s, np.arange(-4 * N, 4 * N + 1, max(1, N // 16)),
                             indexing="ij")
        k2 = np.zeros_like(k1)  # k1 spans the pair sum directly
        for sym in syms:
            vals = np.abs(sym.eval(k1 + k2, k2, s3))
            assert vals.max() <= sym.sup_bound + 1e-12
        assert syms.eta_total.sup_bound <= 8.0


class TestNearProjector:
    def test_blocks(self):
        assert near_projector_blocks(64) == [16, 32, 64, 128, 256]
        with pytest.raises(ValueError):
            near_projector_blocks(2)


class TestVerifyIBP:
    def test_residual_tiny(self):
        K = 64
        for seed, (M, N) in enumerate([(1, 16), (1, 32), (2, 32)]):
            f1, f2, g = (_random_real(K, seed=100 + 3 * seed + s) for s in (0, 1, 2))
            assert verify_ibp(M, N, f1, f2, g) <= 1e-12

    def test_few_mode_field(self):
        K = 64
        f = FourierField.from_modes(K, {1: 0.3, -1: 0.3, 2: 0.1j, -2: -0.1j})
        g = FourierField.from_modes(K, {17: 1.0, -17: 1.0, 30: 0.5, -30: 0.5})
        assert verify_ibp(1, 32, f, f, g) <= 1e-12

    def test_zero_input_is_zero(self):
        K = 64
        z = FourierField.zeros(K)
        assert verify_ibp(1, 16, z, z, z) == 0.0

    def test_cancelling_pieces_stay_within_tolerance(self):
        # Field 81 of suite_ibp at seed 1518544146 (N = 64, M = 1): the shift
        # and boundary pieces, each of size ~263, cancel to an LHS of 0.136.
        # Scaled by max(|LHS|, |RHS|) its roundoff read 2.29e-10 > 1e-10.
        rng = np.random.default_rng(1518544146)
        for _ in range(82):
            f1, f2, g = (random_real_field(128, rng) for _ in range(3))
        assert abs(t_functional(1, 64, f1, f2, g)) < 0.2
        assert verify_ibp(1, 64, f1, f2, g) <= 1e-12

    def test_wrong_boundary_symbol_is_caught(self, monkeypatch):
        def off_by_one_percent(M, N):
            syms = ibp_symbols(M, N)
            b = syms.eta_boundary
            return syms._replace(eta_boundary=SymbolFn(
                lambda k1, k2, k3: 1.01 * b.eval(k1, k2, k3), b.sup_bound, b.name))

        # scaling by the pieces must not hide a real error: a 1% boundary
        # error reads 10^7 above the suites' 1e-10 tolerance
        monkeypatch.setattr(pseudo, "ibp_symbols", off_by_one_percent)
        for seed in (200, 300):
            f1, f2, g = (_random_real(64, seed=seed + s) for s in (0, 1, 2))
            assert verify_ibp(1, 16, f1, f2, g) >= 1e-3


class TestQuadrilinearRatio:
    def test_zero_symbol(self):
        zero = SymbolFn(lambda k1, k2, k3: np.zeros(np.broadcast(k1, k2, k3).shape),
                        0.0, "0")
        assert estimate_quadrilinear_ratio(zero, 2, trials=3, K=16) == 0.0

    def test_golden_baselines(self):
        data = json.loads((GOLDEN / "quadrilinear_ratio.json").read_text())
        for run in data["runs"]:
            syms = ibp_symbols(run["M"], run["N"])
            sym = {"one": symbol_one(), "shift": syms.eta_shift_out,
                   "boundary": syms.eta_boundary}[run["symbol"]]
            got = estimate_quadrilinear_ratio(sym, run["M"], trials=run["trials"],
                                              K=run["K"], seed=run["seed"])
            assert got == pytest.approx(run["ratio"], rel=1e-9)

    def test_refuses_symbol_of_k1(self):
        # the row path reads eta once per row, at (0, k1 + k2, k3)
        eta = SymbolFn(lambda k1, k2, k3: np.cos(0.1 * k1), 1.0, "cos")
        with pytest.raises(ValueError, match="not a function of k1 \\+ k2 and k3"):
            estimate_quadrilinear_ratio(eta, 2, trials=1, K=16)
