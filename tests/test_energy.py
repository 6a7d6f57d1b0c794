import functools
import json
from pathlib import Path

import numpy as np
import pytest

from remkdv import energy, resonance
from remkdv.diagnostics import decaying_profile
from remkdv.energy import (
    FOUR_PI_SQ,
    K_THRESHOLD,
    LL_RATIO,
    THETA1,
    THETA2,
    EnergyReport,
    coercivity_margin,
    default_block_floor,
    diff_energy_dyadic,
    diff_energy_total,
    energy_mode,
)
from remkdv.fields import FourierField, phi_dyadic, sobolev_norm
from remkdv.resonance import (INT64_BOUND, MED_RATIO, d1_cells, d1_omega3,
                              d1_small_sums, d1_triples, omega3)

GOLDEN = Path(__file__).parent / "golden"
K_BIG = 2048
K_MODE = 1024


def _random_real(K, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(scale * c).hermitized()


def _mode(u, k):
    return complex(u.mode(k))


def _e31_keep(k):
    """The cells of e31: D1(k) with the dyadic shadow of m_min below |k|^THETA1."""
    def keep(rows, m):
        d1 = (m[:, 0] >= 1) & (m[:, 1] <= MED_RATIO * abs(k))
        shadow = 2.0 ** np.floor(np.log2(np.where(d1, m[:, 0], 1)))
        return d1 & (shadow < abs(k) ** THETA1)
    return keep


def _e32_keep(k):
    """The cells of e32: D2(k) with the median |k_i| below |k|^THETA2."""
    def keep(rows, m):
        d2 = (m[:, 0] >= 1) & (m[:, 1] > MED_RATIO * abs(k))
        med = np.sort(np.abs(rows), axis=1)[:, 1]
        return d2 & (med < abs(k) ** THETA2)
    return keep


@pytest.fixture(scope="module")
def cells(lattice_scan):
    """cells(part, k, K): the triples that correction part ("e31" or "e32") of
    mode k sums over at truncation K, by direct scan, each scanned once."""
    keeps = {"e31": _e31_keep, "e32": _e32_keep}

    @functools.cache
    def get(part, k, K):
        return lattice_scan(k, K, keeps[part](k))

    return get


def _gather(u, ks):
    K = u.max_mode
    ok = np.abs(ks) <= K
    return np.where(ok, u.coeffs[np.clip(ks, -K, K) + K], 0)


def _cell_sum(u, k, rows):
    om = -3.0 * ((rows[:, 0] + rows[:, 1]) * (rows[:, 0] + rows[:, 2])
                 * (rows[:, 1] + rows[:, 2])).astype(np.float64)
    prod = _gather(u, rows[:, 0]) * _gather(u, rows[:, 1]) * _gather(u, rows[:, 2])
    return float(np.real(np.sum(prod / (FOUR_PI_SQ * om)) * _mode(u, -k)))


class TestEnergyMode:
    def test_rejects_zero_and_out_of_range(self):
        u = _random_real(64)
        # a bool is no mode, and a fractional k has no coefficient
        for k in (0, 65, 3.5, True):
            with pytest.raises(ValueError):
                energy_mode(u, k)

    def test_below_threshold_is_quadratic(self):
        u = _random_real(K_BIG, seed=3)
        rep = energy_mode(u, 100)
        assert isinstance(rep, EnergyReport)
        assert rep.quadratic == pytest.approx(0.5 * 100 * abs(_mode(u, 100)) ** 2)
        assert rep.e31 == rep.e32 == rep.e5 == 0.0
        assert rep.total == rep.quadratic

    def test_negation_symmetry(self):
        u = _random_real(K_BIG, seed=4)
        a = energy_mode(u, K_MODE)
        b = energy_mode(u, -K_MODE)
        assert b.quadratic == pytest.approx(a.quadratic, rel=1e-12)
        assert b.e31 == pytest.approx(a.e31, rel=1e-10)
        assert b.e32 == pytest.approx(a.e32, rel=1e-10)
        assert b.total == pytest.approx(a.total, rel=1e-12)

    def test_weights_enter_total_only(self):
        # every correction enters the total with unit coupling, bit for bit
        rep = energy_mode(_random_real(K_BIG, seed=5), K_MODE)
        assert rep.e31 != 0.0 and rep.e32 != 0.0
        assert rep.total == rep.quadratic + rep.e31 + rep.e32 + rep.e5

    def test_lists_no_triples(self, monkeypatch):
        # e31 and e5 sum D1 grids (d1_cells); the triple lister is never
        # called, on a first call or a repeat, at a (k, K) no other test uses
        def refuse(k, bound):
            raise AssertionError("energy_mode listed triples")
        monkeypatch.setattr(resonance, "d1_triples", refuse)
        u = _random_real(1536, seed=6, scale=1e-3)
        first = energy_mode(u, -1100)
        assert first.e31 != 0.0
        assert energy_mode(u, -1100) == first

    @pytest.mark.parametrize("eps", [0.05, 0.025])
    def test_initial_energy_matches_golden(self, eps):
        # the criterion-9 datum's record, written by tests/golden/regenerate.py
        runs = json.loads((GOLDEN / "energy_drift.json").read_text())["resolved_runs"]
        run = next(r for r in runs if r["config"]["eps"] == eps)
        cfg = run["config"]
        u0 = decaying_profile(cfg["max_mode"], eps, cfg["sigma"], seed=cfg["seed"])
        rep = energy_mode(u0, cfg["k_watch"])
        for key, want in run["initial"].items():
            assert getattr(rep, key) == pytest.approx(want, rel=1e-12, abs=0.0), key

    def test_e5_dormant_at_default_cut(self):
        # e5 keeps a pair only where the inner |Omega3| is at least
        # 1/LL_RATIO times the outer one. Bound that ratio without a field,
        # over every corrected k with |k| <= K: the largest inner |Omega3| of
        # any entry of D1(k) or of -k, over the smallest |Omega3| on D1(k).
        assert K_THRESHOLD == 512
        vals = d1_small_sums(K_BIG)  # every mode's small sums lie within these
        a, b = vals[:, None], vals[None, :]
        ki = np.arange(-K_BIG, K_BIG + 1)[:, None, None]
        _, ok = d1_cells(ki, a, b, K_BIG)
        inner = np.where(ok, np.abs(d1_omega3(ki, a, b)), 0).max(axis=(1, 2))
        k = np.arange(K_THRESHOLD + 1, K_BIG + 1)
        k = np.concatenate([k, -k])[:, None, None]
        cells, ok = d1_cells(k, a, b, K_BIG)
        outer = np.where(ok, np.abs(d1_omega3(k, a, b)), np.inf).min(axis=(1, 2))
        entries = inner[np.clip(cells, -K_BIG, K_BIG) + K_BIG].max(axis=0)
        worst = np.maximum(np.where(ok, entries, 0).max(axis=(1, 2)),
                           inner[K_BIG - k.ravel()])
        ratio = worst / outer
        assert ratio.max() == pytest.approx(16.02, abs=0.01)
        assert ratio.max() < 1 / LL_RATIO
        assert energy_mode(_random_real(K_BIG, seed=6), K_MODE).e5 == 0.0

    @pytest.mark.parametrize("K,k", [(2048, 1024), (2048, -2048), (1024, 513),
                                     (4096, 3001), (8192, -8000)])
    def test_e5_inner_bound_holds_on_the_grid(self, K, k):
        # _e5 skips its inner grid when min |Omega_out| exceeds LL_RATIO times
        # this bound; it must cover every |Omega_in| the grid would build
        vals = d1_small_sums(k)
        a, b = np.meshgrid(vals, vals, indexing="ij")
        cells, ok = d1_cells(k, a, b, K)
        quad = np.concatenate([cells[:, ok].ravel(), [-k]])
        kmax = int(np.abs(quad).max())
        inner = d1_small_sums(kmax)
        om_in = d1_omega3(quad[:, None, None], inner[:, None], inner[None, :])
        bound = energy._e5_inner_bound(kmax)
        assert np.abs(om_in).max() <= bound < 1.1 * np.abs(om_in).max()

    @pytest.mark.parametrize("k", [K_MODE, -K_MODE, 2048, -513])
    def test_e5_skip_gives_the_grid_zero(self, monkeypatch, k):
        # the skipped e5 is the same signed zero the grid path sums (-0.0
        # for k < 0), so the reports stay bit-identical
        u = _random_real(K_BIG, seed=10)
        grids = []
        monkeypatch.setattr(energy, "d1_cells",
                            lambda *args: grids.append(1) or d1_cells(*args))
        fast = energy_mode(u, k).e5
        assert len(grids) == 1  # the outer cells only: the inner grid is skipped
        monkeypatch.setattr(energy, "_e5_inner_bound", lambda kmax: 2 ** 62)
        grid = energy_mode(u, k).e5
        assert len(grids) == 3
        assert fast == grid == 0.0
        assert np.copysign(1.0, fast) == np.copysign(1.0, grid) == np.sign(k)


class TestCorrectionOracles:
    def test_e31_matches_direct_scan(self, cells):
        u = _random_real(K_BIG, seed=7)
        want = K_MODE ** 2 * _cell_sum(u, K_MODE, cells("e31", K_MODE, K_BIG))
        got = energy_mode(u, K_MODE).e31
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K,k", [
        (2048, 1024),
        (1024, -1024),   # negative output mode; |k - s| <= K cuts the third entry
        (1024, 513),     # first corrected mode
        (1024, 700),
    ])
    def test_e32_matches_direct_scan(self, cells, K, k):
        u = _random_real(K, seed=8)
        want = abs(k) * k * _cell_sum(u, k, cells("e32", k, K))
        assert energy_mode(u, k).e32 == pytest.approx(want, rel=1e-12)

    def test_e32_factorization_precondition(self):
        # the convolution counts each median-cut cell once only while
        # 3 ceil(|k|^THETA2) <= |k|; pin it for every corrected mode
        ks = np.arange(K_THRESHOLD + 1, INT64_BOUND)
        assert np.all(3 * np.ceil(ks ** THETA2) <= ks)

    @pytest.mark.parametrize("k", [K_MODE, -K_MODE])
    def test_e5_matches_plain_loop(self, monkeypatch, k):
        # a plain-Python walk over every row of d1_triples (itself
        # scan-verified in the resonance tests): each of the nine slot orders
        # of a pair of grid cells, and the sign of k, enters on its own.
        # e5 is 0 at LL_RATIO (test_e5_dormant_at_default_cut), so the cut
        # is raised to 1, where exactly resonant pairs become reachable
        monkeypatch.setattr(energy, "LL_RATIO", 1.0)
        u = _random_real(K_BIG, seed=9)
        outer = d1_triples(k, K_BIG)
        total = 0.0
        for row in outer:
            om_out = omega3(*(int(x) for x in row))
            quad = [int(row[0]), int(row[1]), int(row[2]), -k]
            cvals = [_mode(u, q) for q in quad]
            for i, ki in enumerate(quad):
                inner = d1_triples(ki, K_BIG)
                others = 1.0 + 0.0j
                for j, c in enumerate(cvals):
                    if j != i:
                        others = others * c
                for irow in inner:
                    om_in = omega3(*(int(x) for x in irow))
                    if abs(om_out) > abs(om_in):
                        continue
                    if om_out + om_in == 0:  # exactly resonant pair
                        continue
                    prod = (_mode(u, int(irow[0])) * _mode(u, int(irow[1]))
                            * _mode(u, int(irow[2])))
                    total += ki * (others * prod / (om_out * (om_out + om_in))).real
        want = abs(k) * k * total / FOUR_PI_SQ ** 2
        got = energy_mode(u, k).e5
        assert got != 0.0
        assert got == pytest.approx(want, rel=1e-10)


class TestDriftCancellation:
    """The defining property of the corrections: under the linear flow, the
    time derivative of each correction equals minus the quadratic-energy drift
    its cells would produce through the cubic nonlinearity (default sign +1,
    unit couplings).  Checked by central differences on exactly-evolved
    phases, so no integrator enters.
    """

    H = 1e-13

    @staticmethod
    def _phase_shift(u, t):
        ks = u.modes.astype(np.float64)
        return FourierField(u.coeffs * np.exp(8j * np.pi ** 3 * ks ** 3 * t))

    def _fd_vs_cells(self, u, k, rows, part):
        up = self._phase_shift(u, self.H)
        um = self._phase_shift(u, -self.H)
        fd = (getattr(energy_mode(up, k), part)
              - getattr(energy_mode(um, k), part)) / (2 * self.H)
        cell_sum = complex(np.sum(
            _gather(u, rows[:, 0]) * _gather(u, rows[:, 1]) * _gather(u, rows[:, 2])))
        quad_drift = abs(k) * ((-2j * np.pi * k) * cell_sum * _mode(u, -k)).real
        assert abs(fd + quad_drift) <= 1e-3 * max(abs(fd), abs(quad_drift))

    def test_e31_cancels_its_cells(self, cells):
        u = _random_real(K_BIG, seed=11)
        self._fd_vs_cells(u, K_MODE, cells("e31", K_MODE, K_BIG), "e31")

    def test_e32_cancels_its_cells(self, cells):
        u = _random_real(K_BIG, seed=12)
        self._fd_vs_cells(u, K_MODE, cells("e32", K_MODE, K_BIG), "e32")


class TestDiffEnergy:
    def test_low_block_is_plain_quadratic(self):
        u = _random_real(256, seed=21)
        v = _random_real(256, seed=22)
        w = u - v
        for N in (1, 8, 64):
            base = 0.5 * float(np.sum(phi_dyadic(N, w.modes) ** 2
                                      * np.abs(w.coeffs) ** 2))
            assert diff_energy_dyadic(u, v, N, 512) == base

    def test_rejects_bad_blocks(self):
        u = _random_real(32)
        with pytest.raises(ValueError):
            diff_energy_dyadic(u, u, 3, 512)
        with pytest.raises(ValueError):
            diff_energy_dyadic(u, _random_real(16), 4, 512)

    @staticmethod
    def _plain_correction(u, v, N):
        """The polarized cubic correction of block N by a plain loop over the
        phi_N-active modes and the rows of d1_triples."""
        K = u.max_mode
        w = u - v
        corr = 0.0
        for a in range(N // 2 + 1, 2 * N):
            for k in (a, -a):
                ph = float(phi_dyadic(N, np.array([k]))[0])
                if ph == 0.0 or a > K:
                    continue
                s = 0.0 + 0.0j
                for row in d1_triples(k, K):
                    k1, k2, k3 = (int(x) for x in row)
                    om = omega3(k1, k2, k3)
                    pair = (_mode(u, k1) * _mode(u, k2) + _mode(u, k1) * _mode(v, k2)
                            + _mode(v, k1) * _mode(v, k2))
                    s += pair * _mode(w, k3) / om
                corr += ph * ph * float((k * s * _mode(w, -k)).real) / FOUR_PI_SQ
        return corr

    @staticmethod
    def _base(u, v, N):
        w = u - v
        return 0.5 * float(np.sum(phi_dyadic(N, w.modes) ** 2 * np.abs(w.coeffs) ** 2))

    @pytest.mark.parametrize("N", [1024, 2048])
    def test_live_block_correction(self, N):
        # above the floor the block carries the polarized cubic correction;
        # reproduce it with a plain loop over the phi_N-active modes. Block
        # 1024 reaches floor(|k|/512) = 3, block 2048 reaches 4.
        u = _random_real(K_BIG, seed=23, scale=2e-3)
        v = _random_real(K_BIG, seed=24, scale=2e-3)
        got = diff_energy_dyadic(u, v, N, 512)
        base = self._base(u, v, N)
        assert got - base != 0.0
        # got - base keeps the rounding of base (one ulp); approx's default
        # abs of 1e-12 would pass any error in this ~1e-11 correction
        assert got - base == pytest.approx(self._plain_correction(u, v, N),
                                           rel=1e-10, abs=np.spacing(base))

    def test_complex_pair_matches_plain_loop(self):
        # no Hermitian symmetry: the slices of u, v, w at k - a, k - b and
        # a + b - k must not assume u^(-k) = conj(u^(k))
        K = N = 1024
        rng = np.random.default_rng(27)
        u, v = (FourierField(2e-3 * (rng.standard_normal(2 * K + 1)
                                     + 1j * rng.standard_normal(2 * K + 1)))
                for _ in range(2))
        assert not u.is_real() and not v.is_real()
        got = diff_energy_dyadic(u, v, N, 512)
        base = self._base(u, v, N)
        assert got - base != 0.0
        assert got - base == pytest.approx(self._plain_correction(u, v, N),
                                           rel=1e-10, abs=np.spacing(base))

    def test_block_beyond_the_truncation_is_base(self, monkeypatch):
        # phi_4096 lives on 2048 < |k| < 8192, past K = 2048: no active mode,
        # so the corrected block is its plain quadratic part, exactly, and
        # walks no pair of small sums
        u = _random_real(K_BIG, seed=28, scale=2e-3)
        v = _random_real(K_BIG, seed=29, scale=2e-3)
        monkeypatch.setattr(energy, "d1_k_runs", None)
        assert diff_energy_dyadic(u, v, 4096, 512) == self._base(u, v, 4096)

    def test_total_is_weighted_ladder(self):
        u = _random_real(128, seed=25)
        v = _random_real(128, seed=26)
        s_prime = 5.0 / 24.0
        want = 0.0
        N = 1
        while N <= 256:
            want += N ** (2 * s_prime) * diff_energy_dyadic(u, v, N, 512)
            N *= 2
        assert diff_energy_total(u, v, 512, s_prime) == pytest.approx(want, rel=1e-14)


class TestBlockFloor:
    def test_zero_fields(self):
        z = FourierField.zeros(16)
        assert default_block_floor(z, z) == 512

    def test_cubic_growth(self):
        # two fields of H^{1/3} norm 0.7 each: ceil(1.4^3) = 3 blocks of 512
        c = 0.7 / np.sqrt(2.0 * 2.0 ** (1.0 / 3.0))
        u = FourierField.from_modes(16, {1: c, -1: c})
        assert sobolev_norm(u, 1.0 / 3.0) == pytest.approx(0.7)
        assert default_block_floor(u, u) == 3 * 512

    def test_norm_one_pair_keeps_floor_at_512(self):
        c = 0.5 / np.sqrt(2.0 * 2.0 ** (1.0 / 3.0))
        u = FourierField.from_modes(16, {1: c, -1: c})
        assert default_block_floor(u, u) == 512


class TestCoercivity:
    def test_low_frequency_pair_is_exact(self):
        u = _random_real(64, seed=31, scale=1e-2)
        v = _random_real(64, seed=32, scale=1e-2)
        assert coercivity_margin(u, v) == 1.0  # all blocks below the floor

    def test_identical_fields(self):
        u = _random_real(64, seed=33)
        assert coercivity_margin(u, u) == 1.0

    def test_live_blocks_stay_coercive(self):
        u = _random_real(K_BIG, seed=34, scale=6e-4)
        v = _random_real(K_BIG, seed=35, scale=6e-4)
        assert default_block_floor(u, v) == 512  # corrections active above it
        margin = coercivity_margin(u, v)
        assert 0.5 <= margin <= 2.0
        assert margin != 1.0
