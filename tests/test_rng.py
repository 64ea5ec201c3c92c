from __future__ import annotations

import numpy as np
import pytest

from matcon.rng import integers

# (low, high, chi-square critical value at p = 0.001 for high - low degrees
# of freedom), fixed before the test was first run
CHI2_CASES = [(1, 6, 20.52), (0, 12, 32.91), (0, 1, 10.83)]
CHI2_SEEDS = (11, 12, 13, 14, 15)
DRAWS = 60_000


@pytest.mark.parametrize("low,high,critical", CHI2_CASES)
@pytest.mark.parametrize("seed", CHI2_SEEDS)
def test_integers_uniform_chi_square(seed, low, high, critical):
    x = integers(seed, 3, np.arange(DRAWS), 0, low, high)
    assert x.dtype == np.int64
    assert (x.min(), x.max()) == (low, high)
    counts = np.bincount(x - low, minlength=high - low + 1)
    expected = DRAWS / (high - low + 1)
    assert ((counts - expected) ** 2 / expected).sum() < critical


def test_integers_per_case_upper_bound():
    r = integers(5, 1, np.arange(4000), 1, 0, 3)
    q = integers(5, 1, np.arange(4000), 2, 0, 2 * r)
    assert ((0 <= q) & (q <= 2 * r)).all()
    for rr in range(4):
        assert set(q[r == rr].tolist()) == set(range(2 * rr + 1))


def test_integers_single_value_and_key_purity():
    assert (integers(1, 2, np.arange(10), 3, 4, 4) == 4).all()
    block = integers(9, 0, np.arange(100), 7, 1, 6)
    alone = [int(integers(9, 0, i, 7, 1, 6)) for i in range(100)]
    assert block.tolist() == alone


@pytest.mark.parametrize("low,high", [(1, 0), (0, 1 << 32)])
def test_integers_rejects_bad_span(low, high):
    with pytest.raises(ValueError):
        integers(0, 0, 0, 0, low, high)
