import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remkdv.resonance import (
    D1_BRANCHES,
    INT64_BOUND,
    MED_RATIO,
    TripleClass,
    classify,
    classify_array,
    d1_cells,
    d1_k_runs,
    d1_omega3,
    d1_small_sums,
    d1_triples,
    dyadic_shadow,
    omega3,
    omega3_factored,
    omega5,
    omega7,
    pair_sums,
)

WIDE = st.integers(min_value=-(2 ** 20), max_value=2 ** 20)


def _d1_scan(lattice_scan, k, bound):
    """D1(k) with |k_i| <= bound by direct scan: no zero pair sum and
    m_med <= MED_RATIO |k|."""
    return lattice_scan(k, bound,
                        lambda rows, m: (m[:, 0] >= 1) & (m[:, 1] <= MED_RATIO * abs(k)))


def _rowset(arr):
    return set(map(tuple, np.asarray(arr, dtype=np.int64).reshape(-1, 3).tolist()))


class TestOmega:
    def test_known_value(self):
        assert omega3(1, 2, 3) == -180
        assert omega3_factored(1, 2, 3) == -180

    def test_zero_iff_pair_vanishes(self):
        assert omega3(1, -1, 5) == 0
        assert omega3(4, 4, -4) == 0
        assert omega3(1, 1, 1) != 0

    @given(WIDE, WIDE, WIDE)
    @settings(max_examples=300, deadline=None)
    def test_factored_formula_agrees(self, k1, k2, k3):
        # exercised at widths where (k1+k2+k3)^3 overflows int64
        assert omega3(k1, k2, k3) == omega3_factored(k1, k2, k3)

    def test_omega5_domain(self):
        assert omega5((1, -1, 2, -2, 3, -3)) == 0
        assert omega5((1, 2, 3, -1, -2, -3)) == 0
        with pytest.raises(ValueError):
            omega5((1, 2, 3))
        with pytest.raises(ValueError):
            omega5((1, 1, 1, 1, 1, 1))

    def test_omega7_domain(self):
        assert omega7((2, -2, 1, -1, 3, -3, 4, -4)) == 0
        with pytest.raises(ValueError):
            omega7((1, -1, 2, -2, 3, -3))
        with pytest.raises(ValueError):
            omega7((1, 1, 1, 1, 1, 1, 1, 1))

    def test_omega5_splits_into_two_cubics(self):
        # sum-of-cubes additivity across the two halves of a zero-sum 6-tuple
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.integers(-50, 51, size=5)
            ks = list(map(int, a)) + [-int(a.sum())]
            assert omega5(ks) == omega3(*ks[:3]) + omega3(*ks[3:])

    def test_omega7_peels_off_a_cubic(self):
        # collapsing one inner triple to its sum costs exactly one omega3
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.integers(-50, 51, size=7)
            ks = list(map(int, a)) + [-int(a.sum())]
            inner = ks[3:6]
            collapsed = ks[:3] + [sum(inner)] + ks[6:]
            assert omega7(ks) == omega5(collapsed) + omega3(*inner)


class TestShadow:
    def test_values(self):
        assert dyadic_shadow(0) == 0
        assert dyadic_shadow(1) == 1
        assert dyadic_shadow(5) == 4
        assert dyadic_shadow(1024) == 1024
        assert dyadic_shadow(1025) == 1024

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dyadic_shadow(-1)

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=100, deadline=None)
    def test_halfopen_bracket(self, m):
        M = dyadic_shadow(m)
        assert M <= m < 2 * M


class TestClassify:
    def test_generic_triple(self):
        c = classify(1, 2, 3)
        assert (c.m1, c.m2, c.m3) == (5, 4, 3)
        assert c.m_min == 3 and c.m_med == 4
        assert c.a_class == 3
        assert c.d_class == "D2"
        assert c.omega3 == -180
        assert c.k == 6

    def test_resonant_triple(self):
        c = classify(1, -1, 5)
        assert c.m3 == 0
        assert c.d_class == "none"
        assert c.omega3 == 0

    def test_d1_triple(self):
        c = classify(1024, -1023, 1024)
        assert (c.m1, c.m2, c.m3) == (1, 2048, 1)
        assert c.k == 1025
        assert c.m_med == 1
        assert c.d_class == "D1"
        assert c.a_class == 1
        assert c.shadow == 1

    def test_a_priority(self):
        # ties go to the lower index
        c = classify(2, 2, -1)  # m = (1, 1, 4)
        assert (c.m1, c.m2, c.m3) == (1, 1, 4)
        assert c.a_class == 1

    @given(st.integers(-200, 200), st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=300, deadline=None)
    def test_invariants(self, k1, k2, k3):
        c = classify(k1, k2, k3)
        assert isinstance(c, TripleClass)
        assert (c.d_class == "none") == (c.omega3 == 0) == (c.m_min == 0)
        sums = pair_sums(k1, k2, k3)
        assert sorted(sums)[:2] == [c.m_min, c.m_med]
        assert c.a_class == 1 + [c.m1, c.m2, c.m3].index(c.m_min)
        assert c.omega3 == omega3(k1, k2, k3)
        assert c.triple == (k1, k2, k3) and c.k == k1 + k2 + k3

    def test_record_is_immutable_and_exact_at_any_size(self):
        big = 10 ** 30
        c = classify(big, big + 1, 5 - big)    # pair sums 6, 5, 2 big + 1
        assert type(c.omega3) is int and c.omega3 == omega3(big, big + 1, 5 - big)
        assert (c.m_min, c.m_med, c.a_class, c.shadow) == (5, 6, 2, 4)
        with pytest.raises(AttributeError):
            c.k = 0
        assert classify(np.int64(3), np.int64(-7), np.int64(11)) == classify(3, -7, 11)


D_CODES = {"none": 0, "D1": 1, "D2": 2}


def _scalar_classes(rows):
    cls = [classify(*map(int, r)) for r in rows]
    return ([c.a_class for c in cls], [D_CODES[c.d_class] for c in cls])


class TestClassifyArray:
    def test_matches_scalar_on_box(self):
        ks = np.arange(-12, 13)
        rows = np.stack(np.meshgrid(ks, ks, ks, indexing="ij"), axis=-1).reshape(-1, 3)
        a, d = classify_array(*rows.T)
        assert (a.tolist(), d.tolist()) == _scalar_classes(rows)
        assert a.dtype == d.dtype == np.int8

    def test_matches_scalar_on_wide_random_triples(self):
        rng = np.random.default_rng(20)
        rows = rng.integers(-2 ** 20, 2 ** 20 + 1, size=(20000, 3))
        # ties and D1 cells are rare among uniform triples: add both
        rows[:2000, 1] = rows[:2000, 0]
        rows[2000:4000, 2] = -rows[2000:4000, 1]
        k = rng.integers(2 ** 19, 2 ** 20, size=2000)
        pa, pb = (rng.integers(1, k // 512 + 1) * rng.choice([-1, 1], size=2000)
                  for _ in range(2))
        cells, ok = d1_cells(k, pa, pb, 2 ** 20)
        rows = np.concatenate([rows, cells[:, ok].T])
        a, d = classify_array(*rows.T)
        assert (a.tolist(), d.tolist()) == _scalar_classes(rows)
        assert set(d.tolist()) == {0, 1, 2}

    def test_broadcasts(self):
        a, d = classify_array(3, np.arange(-4, 5)[:, None], np.arange(-4, 5)[None, :])
        assert a.shape == d.shape == (9, 9)
        assert a[0, 0] == classify(3, -4, -4).a_class


class TestInt64Guard:
    B = INT64_BOUND

    @pytest.mark.parametrize("call", [
        lambda B: classify_array(B, 0, 0),
        lambda B: classify_array(0, np.array([1, -B]), 0),
        lambda B: d1_cells(B, 1, 1, 16),
        lambda B: d1_cells(np.array([600, -B]), 1, 1, 16),
        lambda B: d1_cells(600, 1, 1, B),
        lambda B: d1_k_runs(1, 1, B),
    ])
    def test_rejects_the_int64_bound(self, call):
        with pytest.raises(ValueError, match="below"):
            call(self.B)

    @pytest.mark.parametrize("first", [np.array([INT64_BOUND - 1]),
                                       np.int64(INT64_BOUND - 1)])
    def test_omega3_factored_refuses_to_wrap(self, first):
        # at k1 = k2 = k3 = 2^21 - 1 the int64 product of the pair sums wraps
        # (to 316659197804568); the exact value needs 68 bits
        k = self.B - 1
        assert omega3_factored(k, k, k) == omega3(k, k, k) == -221360612225316814824
        with pytest.raises(ValueError, match="overflow"):
            omega3_factored(first, k, k)

    def test_omega3_factored_exact_below_its_range(self):
        # every |k_i| < 2^19 stays below the guard, including the extremes
        k = 2 ** 19 - 1
        ks = np.array([k, -k, k, 3, 0], dtype=np.int64)
        got = omega3_factored(ks, ks[::-1].copy(), np.full(5, k, dtype=np.int64))
        want = [omega3(int(a), int(b), k) for a, b in zip(ks, ks[::-1])]
        assert got.tolist() == want

    def test_accepts_just_below(self):
        B = self.B - 1
        assert classify_array(B, -B, B)[1] == D_CODES[classify(B, -B, B).d_class]
        assert d1_cells(B, 1, 1, B)[1].all()


class TestD1Enumeration:
    def test_empty_below_threshold(self):
        # m_med <= |k|/512 needs |k| >= 512 to admit a nonzero pair sum
        assert d1_triples(511, 2048).shape == (0, 3)
        assert d1_triples(-300, 2048).shape == (0, 3)
        assert d1_triples(512, 2048).shape[0] > 0

    @pytest.mark.parametrize("k", [512, 700, 1025])
    def test_matches_brute_scan(self, lattice_scan, k):
        fast = d1_triples(k, 2048)
        assert _rowset(fast) == _rowset(_d1_scan(lattice_scan, k, 2048))
        assert fast.shape[0] == len(_rowset(fast))  # no duplicate rows

    def test_tight_bound_is_respected(self, lattice_scan):
        k = 1025
        assert _rowset(d1_triples(k, 1026)) == _rowset(_d1_scan(lattice_scan, k, 1026))

    def test_negation_symmetry(self):
        a = _rowset(d1_triples(1025, 4096))
        b = _rowset(-d1_triples(-1025, 4096))
        assert a == b

    def test_membership(self):
        for row in d1_triples(1025, 4096):
            assert classify(*row).d_class == "D1"

    def test_structural_bounds_exhaustively(self):
        # every D1 triple with |k_i| <= 2^11: component ratio <= 8 and the
        # large pair sum is >= |k|/8 (it is in fact ~2|k|)
        found = 0
        for k in range(512, 3 * 2048 + 1):
            arr = d1_triples(k, 2048)
            if arr.shape[0] == 0:
                continue
            found += arr.shape[0]
            a = np.abs(arr)
            assert np.all(a.max(axis=1) <= 8 * a.min(axis=1))
            m = np.abs(np.stack([arr[:, 1] + arr[:, 2],
                                 arr[:, 0] + arr[:, 2],
                                 arr[:, 0] + arr[:, 1]], axis=1))
            assert np.all(m.max(axis=1) >= k / 8)
        assert found > 10000


class TestCells:
    def test_branches_carry_a_and_b_as_pair_sums(self):
        k, a, b = 1500, -2, 1
        cells, ok = d1_cells(k, a, b, 2048)
        assert cells.tolist() == [k - a, k - b, a + b - k] and ok
        tri = np.array([cells[list(order)] for order in D1_BRANCHES])
        assert np.all(tri.sum(axis=1) == k)
        p = k - tri  # signed pair sums p_i = k - k_i
        assert [p[0, 0], p[0, 1]] == [a, b]
        assert [p[1, 0], p[1, 2]] == [a, b]
        assert [p[2, 1], p[2, 2]] == [a, b]

    def test_mask_is_d1_membership(self):
        ks = np.arange(-1600, 1601, 7)
        for a, b in [(1, 1), (-3, 2), (2, 0), (4, -1)]:
            cells, ok = d1_cells(ks, a, b, 1550)
            for order in D1_BRANCHES:
                for row, keep in zip(cells[list(order)].T, ok):
                    inside = (classify(*row).d_class == "D1"
                              and np.all(np.abs(row) <= 1550))
                    assert keep == inside

    def test_entries_and_mask_reproduce_d1_triples(self):
        # the three branches written out, in the row order of d1_triples:
        # branch by branch, then (a, b) lexicographic
        for k in [*range(-2048, -512), *range(513, 2049)]:
            vals = d1_small_sums(k)
            a, b = (x.ravel() for x in np.meshgrid(vals, vals, indexing="ij"))
            (ka, kb, kc), ok = d1_cells(k, a, b, 2048)
            ka, kb, kc = ka[ok], kb[ok], kc[ok]
            want = np.concatenate([np.stack([ka, kb, kc], axis=1),
                                   np.stack([ka, kc, kb], axis=1),
                                   np.stack([kc, ka, kb], axis=1)])
            assert np.array_equal(d1_triples(k, 2048), want)

    def test_omega3_on_every_cell(self):
        # every branch of a cell has Omega3 = -3 a b (2k - a - b) = d1_omega3
        for k in (-2048, -1537, -700, 513, 1024, 1999, 2048):
            vals = d1_small_sums(k)
            a, b = (x.ravel() for x in np.meshgrid(vals, vals, indexing="ij"))
            cells, ok = d1_cells(k, a, b, 2048)
            want = (-3 * a * b * (2 * k - a - b))[ok].tolist()
            assert d1_omega3(k, a, b)[ok].tolist() == want
            for order in D1_BRANCHES:
                tri = cells[list(order)][:, ok].tolist()
                assert [omega3(*t) for t in zip(*tri)] == want

    @pytest.mark.parametrize("bound", [600, 1024, 2048, 2051])
    def test_k_runs_are_the_mask(self, bound):
        # past +-bound on both sides, so the runs' ends come from the mask
        ks = np.arange(-bound - 40, bound + 41)
        empty = 0
        for a in range(-6, 7):
            for b in range(-6, 7):
                runs = d1_k_runs(a, b, bound)
                got = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
                want = ks[np.flatnonzero(d1_cells(ks, a, b, bound)[1])]
                assert np.array_equal(got, want), (a, b)
                (n_lo, n_hi), (p_lo, p_hi) = runs
                assert n_hi <= 0 <= p_lo
                if a * b != 0:
                    empty += (n_hi <= n_lo) + (p_hi <= p_lo)
        # 512 max(|a|, |b|) beyond bound + 6 leaves both runs empty
        assert empty > 0


class TestD2Enumeration:
    def test_pair_median_bounds_components(self):
        # Calibrated regression bound: on D2 with |k_i| <= 2^10 the pair-sum
        # median controls the largest component, max|k_i| <= 513 * m_med, and
        # 513 is sharp: (513,-512,-512) has m_med = 1 > 511/512 so it is D2,
        # with max = 513.  (Sharpness in general: two pair sums of size <= d
        # force max <= |p_big|/2 + d and |k| >= |p_big|/2 - d, and the D2 cut
        # d > |k|/512 then gives max < 514 d.)
        # Violations of 513 would need m_med = 1 (since 513*2 > 1024), i.e.
        # two signed pair sums of size <= 15; scanning that thin region is
        # therefore exhaustive-equivalent for the claim at this bound.
        RATIO_BOUND = 513
        t = 15
        vals = np.concatenate([np.arange(-t, 0), np.arange(1, t + 1)])
        a, b = np.meshgrid(vals, vals, indexing="ij")
        a, b = a.ravel(), b.ravel()
        checked = 0
        worst = 0.0
        for k in range(-3 * 1024, 3 * 1024 + 1):
            if k == 0:
                continue
            cells = [
                np.stack([k - a, k - b, a + b - k], axis=1),
                np.stack([k - a, a + b - k, k - b], axis=1),
                np.stack([a + b - k, k - a, k - b], axis=1),
            ]
            for tri in cells:
                keep = np.all(np.abs(tri) <= 1024, axis=1)
                if not np.any(keep):
                    continue
                tri = tri[keep]
                m = np.abs(np.stack([tri[:, 1] + tri[:, 2],
                                     tri[:, 0] + tri[:, 2],
                                     tri[:, 0] + tri[:, 1]], axis=1))
                m.sort(axis=1)
                d2 = (m[:, 0] >= 1) & (m[:, 1] > MED_RATIO * abs(k)) & (m[:, 1] <= 15)
                if not np.any(d2):
                    continue
                tri, m = tri[d2], m[d2]
                checked += tri.shape[0]
                ratios = np.abs(tri).max(axis=1) / m[:, 1]
                worst = max(worst, float(ratios.max()))
                assert np.all(ratios <= RATIO_BOUND)
        assert checked > 1000
        assert worst == RATIO_BOUND  # the witness is in range, so the bound is sharp
        assert classify(513, -512, -512).d_class == "D2"
