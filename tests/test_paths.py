import numpy as np
import pytest

from varsmile import PathPair


def test_validation():
    p = PathPair(np.zeros(11), np.ones(11))
    assert p.n == 11
    assert p.dt == 0.1
    assert np.array_equal(p.t, np.linspace(0.0, 1.0, 11))
    with pytest.raises(ValueError):
        PathPair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        PathPair(np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError):
        PathPair(np.zeros((3, 3)), np.zeros((3, 3)))


@pytest.mark.parametrize("n", [3, 11, 101, 201, 401, 801])
def test_dt_is_the_grid_step(n):
    # 1 / (n - 1) is linspace's step, bit for bit
    t = np.linspace(0.0, 1.0, n)
    assert PathPair.constant(0.0, 0.0, n).dt == t[1] - t[0]


def test_constant():
    p = PathPair.constant(1.5, -2.3, n=21)
    assert np.all(p.g == 1.5) and np.all(p.h == -2.3)
