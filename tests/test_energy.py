import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from remkdv import resonance
from remkdv.diagnostics import decaying_profile
from remkdv.energy import (
    FOUR_PI_SQ,
    K_THRESHOLD,
    THETA1,
    THETA2,
    EnergyConfig,
    EnergyReport,
    coercivity_margin,
    default_block_floor,
    diff_energy_dyadic,
    diff_energy_total,
    energy_mode,
)
from remkdv.fields import FourierField, phi_dyadic, sobolev_norm
from remkdv.resonance import (INT64_BOUND, MED_RATIO, d1_table, d1_triples,
                              d2_triples_medcut, omega3)

GOLDEN = Path(__file__).parent / "golden"
K_BIG = 2048
K_MODE = 1024


def _random_real(K, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return FourierField(scale * c).hermitized()


def _mode(u, k):
    return complex(u.mode(k))


@pytest.fixture(scope="module")
def lattice_rows():
    """All triples summing to K_MODE with |k_i| <= K_BIG, with their pair sums.

    Chunked direct scan; the independent ground truth for the cell filters.
    """
    k = K_MODE
    r = np.arange(-K_BIG, K_BIG + 1, dtype=np.int64)
    rows = []
    for lo in range(0, r.size, 512):
        k1 = r[lo:lo + 512]
        K1, K2 = np.meshgrid(k1, r, indexing="ij")
        K3 = k - K1 - K2
        ok = np.abs(K3) <= K_BIG
        rows.append(np.stack([K1[ok], K2[ok], K3[ok]], axis=1))
    rows = np.concatenate(rows, axis=0)
    m = np.abs(np.stack([rows[:, 1] + rows[:, 2],
                         rows[:, 0] + rows[:, 2],
                         rows[:, 0] + rows[:, 1]], axis=1))
    m.sort(axis=1)
    return rows, m


def _gather(u, ks):
    K = u.max_mode
    ok = np.abs(ks) <= K
    return np.where(ok, u.coeffs[np.clip(ks, -K, K) + K], 0)


def _cell_sum(u, k, rows):
    om = -3.0 * ((rows[:, 0] + rows[:, 1]) * (rows[:, 0] + rows[:, 2])
                 * (rows[:, 1] + rows[:, 2])).astype(np.float64)
    prod = _gather(u, rows[:, 0]) * _gather(u, rows[:, 1]) * _gather(u, rows[:, 2])
    return float(np.real(np.sum(prod / (FOUR_PI_SQ * om)) * _mode(u, -k)))


class TestEnergyConfig:
    def test_defaults_valid(self):
        cfg = EnergyConfig()
        assert cfg.alpha == cfg.beta == cfg.gamma == 1.0
        assert [f.name for f in fields(cfg)] == ["alpha", "beta", "gamma", "ll_ratio"]
        assert K_THRESHOLD == 512

    # the ids keep the numbering of the cases that remain after the theta and
    # k_threshold fields became module constants
    @pytest.mark.parametrize("kw", [
        pytest.param({"alpha": float("nan")}, id="kw0"),
        pytest.param({"ll_ratio": float("nan")}, id="kw1"),
        pytest.param({"ll_ratio": 0.0}, id="kw4"),
        pytest.param({"ll_ratio": -1.0}, id="kw5"),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            EnergyConfig(**kw)


class TestEnergyMode:
    def test_rejects_zero_and_out_of_range(self):
        u = _random_real(64)
        with pytest.raises(ValueError):
            energy_mode(u, 0)
        with pytest.raises(ValueError):
            energy_mode(u, 65)

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
        u = _random_real(K_BIG, seed=5)
        base = energy_mode(u, K_MODE)
        cfg = EnergyConfig(alpha=2.0, beta=0.5, gamma=0.0, ll_ratio=1.0)
        rep = energy_mode(u, K_MODE, cfg)
        assert rep.e31 == pytest.approx(base.e31, rel=1e-12)
        assert rep.total == pytest.approx(
            rep.quadratic + 2.0 * rep.e31 + 0.5 * rep.e32, rel=1e-12)

    def test_repeat_call_builds_no_cell_table(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("energy_mode enumerated D2 cells")

        monkeypatch.setattr(resonance, "d2_triples_medcut", no_enumeration)
        monkeypatch.setattr(resonance, "enumerate_D2", no_enumeration)
        u = _random_real(K_BIG, seed=6, scale=1e-3)
        first = energy_mode(u, K_MODE)
        d1_before = d1_table.cache_info()
        assert energy_mode(u, K_MODE) == first
        assert d1_table.cache_info().misses == d1_before.misses

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
        # at k = 2^10 both resonance factors live on comparable cells, so the
        # 2^-6 ratio cut removes every candidate pair
        u = _random_real(K_BIG, seed=6)
        assert energy_mode(u, K_MODE).e5 == 0.0


class TestCorrectionOracles:
    def test_e31_matches_direct_scan(self, lattice_rows):
        rows, m = lattice_rows
        u = _random_real(K_BIG, seed=7)
        cfg = EnergyConfig()
        d1 = (m[:, 0] >= 1) & (m[:, 1] <= MED_RATIO * K_MODE)
        shadow = 2.0 ** np.floor(np.log2(np.where(d1, m[:, 0], 1)))
        keep = d1 & (shadow < K_MODE ** THETA1)
        want = K_MODE ** 2 * _cell_sum(u, K_MODE, rows[keep])
        got = energy_mode(u, K_MODE, cfg).e31
        assert got == pytest.approx(want, rel=1e-12)

    def test_e32_matches_direct_scan(self, lattice_rows):
        rows, m = lattice_rows
        u = _random_real(K_BIG, seed=8)
        cfg = EnergyConfig()
        med = np.sort(np.abs(rows), axis=1)[:, 1]
        d2 = (m[:, 0] >= 1) & (m[:, 1] > MED_RATIO * K_MODE)
        keep = d2 & (med < K_MODE ** THETA2)
        want = K_MODE ** 2 * _cell_sum(u, K_MODE, rows[keep])
        got = energy_mode(u, K_MODE, cfg).e32
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K,k", [
        (2048, -1024),   # negative output mode
        (2048, 513),     # first corrected mode
        (2048, 2048),    # |k - s| <= K cuts the third entry
        (1024, 700),
    ])
    def test_e32_matches_medcut_cells(self, K, k):
        u = _random_real(K, seed=10)
        rows = d2_triples_medcut(k, K, abs(k) ** THETA2)
        want = abs(k) * k * _cell_sum(u, k, rows)
        assert energy_mode(u, k).e32 == pytest.approx(want, rel=1e-12)

    def test_e32_factorization_precondition(self):
        # the convolution counts each median-cut cell once only while
        # 3 ceil(|k|^THETA2) <= |k|; pin it for every corrected mode
        ks = np.arange(K_THRESHOLD + 1, INT64_BOUND)
        assert np.all(3 * np.ceil(ks ** THETA2) <= ks)

    def test_e5_matches_plain_loop(self):
        # inner cells come from d1_triples (itself scan-verified in the
        # resonance tests); this re-walks the paired sum in plain Python
        u = _random_real(K_BIG, seed=9)
        cfg = EnergyConfig(ll_ratio=1.0)
        k = K_MODE
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
                    if abs(om_out) > cfg.ll_ratio * abs(om_in):
                        continue
                    if om_out + om_in == 0:  # exactly resonant pair
                        continue
                    prod = (_mode(u, int(irow[0])) * _mode(u, int(irow[1]))
                            * _mode(u, int(irow[2])))
                    total += ki * (others * prod / (om_out * (om_out + om_in))).real
        want = k * k * total / FOUR_PI_SQ ** 2
        got = energy_mode(u, k, cfg).e5
        assert got != 0.0
        assert got == pytest.approx(want, rel=1e-10)


class TestDriftCancellation:
    """The defining property of the corrections: under the linear flow, the
    time derivative of each correction equals minus the quadratic-energy drift
    its cells would produce through the cubic nonlinearity (default sign +1,
    alpha = beta = 1).  Checked by central differences on exactly-evolved
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

    def test_e31_cancels_its_cells(self, lattice_rows):
        rows, m = lattice_rows
        u = _random_real(K_BIG, seed=11)
        d1 = (m[:, 0] >= 1) & (m[:, 1] <= MED_RATIO * K_MODE)
        shadow = 2.0 ** np.floor(np.log2(np.where(d1, m[:, 0], 1)))
        keep = d1 & (shadow < K_MODE ** THETA1)
        self._fd_vs_cells(u, K_MODE, lattice_rows[0][keep], "e31")

    def test_e32_cancels_its_cells(self, lattice_rows):
        rows, m = lattice_rows
        u = _random_real(K_BIG, seed=12)
        med = np.sort(np.abs(rows), axis=1)[:, 1]
        d2 = (m[:, 0] >= 1) & (m[:, 1] > MED_RATIO * K_MODE)
        keep = d2 & (med < K_MODE ** THETA2)
        self._fd_vs_cells(u, K_MODE, rows[keep], "e32")


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

    @pytest.mark.parametrize("N", [1024, 2048])
    def test_live_block_correction(self, N):
        # above the floor the block carries the polarized cubic correction;
        # reproduce it with a plain loop over the phi_N-active modes. Block
        # 1024 reaches floor(|k|/512) = 3, block 2048 reaches 4.
        u = _random_real(K_BIG, seed=23, scale=2e-3)
        v = _random_real(K_BIG, seed=24, scale=2e-3)
        w = u - v
        n0 = 512
        got = diff_energy_dyadic(u, v, N, n0)
        base = 0.5 * float(np.sum(phi_dyadic(N, w.modes) ** 2
                                  * np.abs(w.coeffs) ** 2))
        corr = 0.0
        for a in range(N // 2 + 1, 2 * N):
            for k in (a, -a):
                ph = float(phi_dyadic(N, np.array([k]))[0])
                if ph == 0.0 or a > K_BIG:
                    continue
                tri = d1_triples(k, K_BIG)
                if tri.shape[0] == 0:
                    continue
                s = 0.0 + 0.0j
                for row in tri:
                    k1, k2, k3 = (int(x) for x in row)
                    om = omega3(k1, k2, k3)
                    pair = (_mode(u, k1) * _mode(u, k2) + _mode(u, k1) * _mode(v, k2)
                            + _mode(v, k1) * _mode(v, k2))
                    s += pair * _mode(w, k3) / om
                corr += ph * ph * float((k * s * _mode(w, -k)).real) / FOUR_PI_SQ
        assert got - base != 0.0
        # got - base keeps the rounding of base (one ulp); approx's default
        # abs of 1e-12 would pass any error in this ~1e-11 correction
        assert got - base == pytest.approx(corr, rel=1e-10, abs=np.spacing(base))

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
