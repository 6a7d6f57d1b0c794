"""The tests' one oracle for the cell sets: a direct scan of the lattice."""
import numpy as np
import pytest


def scan(k, bound, keep):
    """The triples with k1 + k2 + k3 = k and |k_i| <= bound that keep selects,
    found by direct scan, as an (n, 3) int64 array.

    keep(rows, m) returns a boolean mask over one slab of rows, given the
    rows and their pair-sum magnitudes sorted along each row (m_min, m_med,
    m_max). The lattice is walked 512 values of k1 at a time, so only the
    kept rows are held.
    """
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    kept = []
    for lo in range(0, r.size, 512):
        K1, K2 = np.meshgrid(r[lo:lo + 512], r, indexing="ij")
        K3 = k - K1 - K2
        ok = np.abs(K3) <= bound
        rows = np.stack([K1[ok], K2[ok], K3[ok]], axis=1)
        m = np.abs(np.stack([rows[:, 1] + rows[:, 2],
                             rows[:, 0] + rows[:, 2],
                             rows[:, 0] + rows[:, 1]], axis=1))
        m.sort(axis=1)
        kept.append(rows[keep(rows, m)])
    return np.concatenate(kept)


@pytest.fixture(scope="session")
def lattice_scan():
    return scan
