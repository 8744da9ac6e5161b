import numpy as np
import pytest

from varsmile import PathPair


def test_validation():
    t = np.linspace(0.0, 1.0, 11)
    p = PathPair(t, np.zeros(11), np.ones(11))
    assert p.n == 11
    assert abs(p.dt - 0.1) < 1e-15
    with pytest.raises(ValueError):
        PathPair(t[:2], np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        PathPair(t, np.zeros(10), np.zeros(11))
    bad = t.copy()
    bad[5] += 0.03
    with pytest.raises(ValueError):
        PathPair(bad, np.zeros(11), np.zeros(11))
    with pytest.raises(ValueError):
        PathPair(t + 0.5, np.zeros(11), np.zeros(11))


def test_constant():
    p = PathPair.constant(1.5, -2.3, n=21)
    assert np.all(p.g == 1.5) and np.all(p.h == -2.3)
