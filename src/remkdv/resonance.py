"""Exact integer combinatorics of frequency interactions.

Everything here is arithmetic on lattice triples (k1, k2, k3): the cubic
resonance functions, the pair-sum magnitudes m1, m2, m3, the A1/A2/A3
classification, the D / D1 / D2 split of nonresonant triples and the D1
parametrization: d1_cells gives the D1 cells on a grid of output modes k and
small pair sums (a, b), d1_k_runs the output modes of one (a, b) that have
a cell, and d1_omega3 their exact Omega3. The energy
functionals sum those grids; d1_triples lists the same cells as (n, 3) rows,
one per slot order. Energy sums the median-cut D2 cells as a convolution, with no
cell list. Other modules take cells, pair sums, the A-cell tie-break and
Omega3 from here.

The scalar functions work in Python integers, which are exact at any size.
The array paths (classify_array, d1_cells and d1_triples) work in int64 and
raise ValueError for |k_i|, |k| or bound >= INT64_BOUND = 2^21, so that the
cube of every entry fits in 63 bits; d1_k_runs refuses the same bounds.
omega3_factored on numpy integers raises ValueError wherever its product of
three pair sums could leave int64 (possible from |k_i| ~ 2^19.5 on).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "MED_RATIO",
    "INT64_BOUND",
    "omega3",
    "omega3_factored",
    "omega5",
    "omega7",
    "pair_sums",
    "dyadic_shadow",
    "TripleClass",
    "classify",
    "a_cell",
    "classify_array",
    "d1_small_sums",
    "D1_BRANCHES",
    "d1_cells",
    "d1_k_runs",
    "d1_omega3",
    "d1_triples",
]

# D1 cut: m_med <= MED_RATIO * |k1+k2+k3|, with the constant frozen at 2^-9 so
# the D1 parametrization and the classifier stay in exact agreement.
MED_RATIO = 2.0 ** -9

# Entries and bounds of the int64 paths stay below this, so cubes fit in 63 bits.
INT64_BOUND = 2 ** 21


def _check_int64_range(*values) -> None:
    """Raise ValueError unless every entry of every value is below INT64_BOUND
    in size."""
    if any(np.abs(v).max(initial=0) >= INT64_BOUND for v in values):
        raise ValueError(f"frequencies and bounds must be below {INT64_BOUND} "
                         f"on the int64 paths")


def omega3(k1: int, k2: int, k3: int) -> int:
    """k1^3 + k2^3 + k3^3 - (k1+k2+k3)^3, exactly."""
    s = k1 + k2 + k3
    return k1 ** 3 + k2 ** 3 + k3 ** 3 - s ** 3


def omega3_factored(k1: int, k2: int, k3: int) -> int:
    """-3 (k1+k2)(k1+k3)(k2+k3); equal to omega3 on every triple.

    Exact on Python integers. On numpy integers (arrays or scalars) it raises
    ValueError where 3 |(k1+k2)(k1+k3)(k2+k3)| reaches 2^62, short of the
    int64 wrap at 2^63; no triple with every |k_i| < 2^19 gets there.
    """
    m = (k1 + k2, k1 + k3, k2 + k3)
    python_ints = type(m[0]) is type(m[1]) is type(m[2]) is int   # the hot scalar path
    if not python_ints and any(isinstance(x, (np.ndarray, np.integer)) for x in m):
        # a cheap bound from the largest pair sums, then entry by entry
        if 3 * math.prod(int(np.abs(x).max(initial=0)) for x in m) >= 2 ** 62:
            worst = 3.0 * np.abs(np.multiply(np.multiply(m[0], m[1], dtype=np.float64), m[2]))
            if worst.max(initial=0.0) >= 2.0 ** 62:
                raise ValueError("omega3_factored would overflow int64: "
                                 "3 |(k1+k2)(k1+k3)(k2+k3)| >= 2^62")
    return -3 * m[0] * m[1] * m[2]


def omega5(ks) -> int:
    """Sum of cubes of a 6-tuple with zero sum (order-5 resonance function)."""
    ks = [int(k) for k in ks]
    if len(ks) != 6:
        raise ValueError("omega5 takes a 6-tuple")
    if sum(ks) != 0:
        raise ValueError("omega5 is only defined on zero-sum tuples")
    return sum(k ** 3 for k in ks)


def omega7(ks) -> int:
    """Sum of cubes of an 8-tuple with zero sum (order-7 resonance function)."""
    ks = [int(k) for k in ks]
    if len(ks) != 8:
        raise ValueError("omega7 takes an 8-tuple")
    if sum(ks) != 0:
        raise ValueError("omega7 is only defined on zero-sum tuples")
    return sum(k ** 3 for k in ks)


def pair_sums(k1: int, k2: int, k3: int) -> tuple[int, int, int]:
    """(m1, m2, m3) = (|k2+k3|, |k1+k3|, |k1+k2|)."""
    return abs(k2 + k3), abs(k1 + k3), abs(k1 + k2)


def dyadic_shadow(m: int) -> int:
    """Largest power of two <= m (0 for m = 0), so m lies in [M, 2M)."""
    if m < 0:
        raise ValueError("dyadic_shadow takes a nonnegative integer")
    if m == 0:
        return 0
    return 1 << (m.bit_length() - 1)


class TripleClass(NamedTuple):
    """Full classification record for one lattice triple. A named tuple:
    immutable and cheap to build, which matters to callers that classify
    millions of triples one at a time."""

    triple: tuple[int, int, int]
    k: int
    m1: int
    m2: int
    m3: int
    m_min: int
    m_med: int
    omega3: int
    a_class: int        # 1, 2 or 3
    d_class: str        # "none", "D1" or "D2"

    @property
    def shadow(self) -> int:
        return dyadic_shadow(self.m_min)


def classify(k1: int, k2: int, k3: int) -> TripleClass:
    """Classify a triple: A_j by priority (A1 first, then A2), D1/D2 within D.

    D is the set where no pair sums to zero; within D, D1 holds when
    m_med <= MED_RATIO * |k1+k2+k3| and D2 is the rest.
    """
    k1, k2, k3 = int(k1), int(k2), int(k3)
    k = k1 + k2 + k3
    m1, m2, m3 = pair_sums(k1, k2, k3)
    m_min, m_med, _ = sorted((m1, m2, m3))
    if m1 == m_min:
        a_class = 1
    elif m2 == m_min:
        a_class = 2
    else:
        a_class = 3
    if m_min == 0:
        d_class = "none"
    elif m_med <= MED_RATIO * abs(k):
        d_class = "D1"
    else:
        d_class = "D2"
    return TripleClass((k1, k2, k3), k, m1, m2, m3, m_min, m_med,
                       omega3_factored(k1, k2, k3), a_class, d_class)


def a_cell(j: int, m1, m2, m3) -> np.ndarray:
    """Indicator of A_j on arrays of pair-sum magnitudes: m_j is the smallest,
    and a tie goes to the lower index (A1 first, then A2), as in classify."""
    m = (m1, m2, m3)
    mj = m[j - 1]
    # strictly below the earlier slots, at most the later ones
    first, second = [mj < mi for mi in m[:j - 1]] + [mj <= mi for mi in m[j:]]
    return first & second


def classify_array(k1, k2, k3) -> tuple[np.ndarray, np.ndarray]:
    """classify on int64 arrays, broadcast over the three entries.

    Returns (a_class, d_class) as int8 arrays: a_class is 1, 2 or 3 as in
    classify, d_class is 0 off D (a zero pair sum), 1 on D1 and 2 on D2.
    Raises ValueError for |k_i| >= INT64_BOUND.
    """
    k1, k2, k3 = (np.asarray(k, dtype=np.int64) for k in (k1, k2, k3))
    _check_int64_range(k1, k2, k3)
    m1, m2, m3 = pair_sums(k1, k2, k3)
    a_class = np.where(a_cell(1, m1, m2, m3), 1,
                       np.where(a_cell(2, m1, m2, m3), 2, 3)).astype(np.int8)
    m_min = np.minimum(np.minimum(m1, m2), m3)
    m_med = np.maximum(np.minimum(m1, m2), np.minimum(np.maximum(m1, m2), m3))
    d_class = np.where(m_min == 0, 0,
                       np.where(m_med <= MED_RATIO * np.abs(k1 + k2 + k3), 1, 2))
    return a_class, d_class.astype(np.int8)


def d1_small_sums(k: int) -> np.ndarray:
    """The values a small pair sum of a D1(k) cell takes: 1 <= |a| <= floor(|k|/512)."""
    t = int(np.floor(MED_RATIO * abs(int(k))))
    return np.concatenate([np.arange(-t, 0), np.arange(1, t + 1)])


# The slot orders of a D1 cell's entries (k - a, k - b, a + b - k): the
# branches whose small pair sums (p1, p2), (p1, p3), (p2, p3) are (a, b).
D1_BRANCHES = ((0, 1, 2), (0, 2, 1), (2, 0, 1))


def d1_cells(k, a, b, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The D1 cells of output k whose two small signed pair sums are a, b.

    On D1 exactly two of the three pair sums p_i = k - k_i are small (all
    three sum to 2k), so a cell is fixed by which two indices carry the small
    values and by those values a, b. Broadcasts over (k, a, b) to shape S and
    returns the entries, shape (3, *S): k - a, k - b and a + b - k, and the
    mask, shape S, of the cells in D1(k) with |k_i| <= bound:
    1 <= |a|,|b| <= floor(|k|/512) and every entry within the bound. The
    three branches are the slot orders D1_BRANCHES of the same entries, so
    they share the mask and Omega3 (d1_omega3). The third pair sum
    has size ~2|k|, so the branches are disjoint. Raises ValueError for |k|
    or bound >= INT64_BOUND.
    """
    _check_int64_range(bound, k)
    k, a, b = (np.asarray(x, dtype=np.int64) for x in (k, a, b))
    cells = np.stack(np.broadcast_arrays(k - a, k - b, a + b - k))
    # |a| <= floor(|k|/512) is |a| <= |k|/512 for an integer a
    small = (a != 0) & (b != 0) & (np.maximum(np.abs(a), np.abs(b)) <= MED_RATIO * np.abs(k))
    return cells, small & (np.abs(cells).max(axis=0) <= bound)


def d1_k_runs(a: int, b: int, bound: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The output modes k at which d1_cells(k, a, b, bound) has a cell, as
    one half-open run (lo, hi) of k < 0 and one of k > 0 (empty when
    hi <= lo): |k| >= max(|a|, |b|)/MED_RATIO and every entry within the
    bound. Raises ValueError for a bound >= INT64_BOUND."""
    _check_int64_range(bound)
    a, b = int(a), int(b)
    if a == 0 or b == 0:
        return (0, 0), (0, 0)
    cut = math.ceil(max(abs(a), abs(b)) / MED_RATIO)
    # |k - a|, |k - b|, |a + b - k| <= bound
    lo = max(a, b, a + b) - bound
    hi = min(a, b, a + b) + bound + 1
    return (lo, min(hi, 1 - cut)), (max(lo, cut), hi)


def d1_omega3(k, a, b):
    """Omega3 on every branch of the D1 cell (k, a, b) of d1_cells: the pair
    sums of its entries are a, b and 2k - a - b, so Omega3 = -3 a b (2k - a - b)."""
    return -3 * a * b * (2 * k - a - b)


def d1_triples(k: int, bound: int) -> np.ndarray:
    """D1(k) with |k_i| <= bound as an (n, 3) int64 array, branch by branch
    (D1_BRANCHES) and, within a branch, in (a, b) lexicographic order."""
    vals = d1_small_sums(k)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    cells, ok = d1_cells(k, a.ravel(), b.ravel(), bound)
    cells = cells[:, ok].T
    return np.concatenate([cells[:, list(order)] for order in D1_BRANCHES])
