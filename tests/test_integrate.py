"""RK4 with step doubling: right-hand side evaluations per step and the
path against the textbook form of the scheme."""

import numpy as np
import pytest

from coisolab.integrate import StepSizeError, rk4_flow, split_duration


def pendulum(y):
    return np.array([y[1], -np.sin(y[0])])


def rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + (h / 2.0) * k1)
    k3 = rhs(y + (h / 2.0) * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_eleven_rhs_calls_per_step():
    calls = []

    def counted(y):
        calls.append(1)
        return pendulum(y)

    path = rk4_flow(counted, [0.3, 0.0], 0.35, 0.1)
    assert len(path) == 5   # three full steps and a tail step
    assert len(calls) == 11 * 4


def test_zero_duration_is_the_start_point():
    def never(y):
        raise AssertionError("rhs called for a zero duration")

    path = rk4_flow(never, [0.3, 0.2], 0.0, 0.1)
    assert path.shape == (1, 2) and np.array_equal(path, [[0.3, 0.2]])


@pytest.mark.parametrize("duration", [0.35, -0.35])
def test_path_is_step_doubled_rk4(duration):
    """Bit-identical to a full step checked against two fresh half steps."""
    y = np.array([0.3, 0.2])
    want = [y]
    n_full, tail = split_duration(duration, 0.1)
    for dt in [0.1] * n_full + [tail]:
        hs = np.copysign(dt, duration)
        y = rk4_step(pendulum, rk4_step(pendulum, y, hs / 2.0), hs / 2.0)
        want.append(y)
    assert np.array_equal(rk4_flow(pendulum, [0.3, 0.2], duration, 0.1), np.array(want))


@pytest.mark.parametrize("duration, h", [(1.0, 0.0), (1.0, -0.1), (1.0, np.inf), (1.0, np.nan),
                                         (np.inf, 0.1), (np.nan, 0.1), (1e300, 1e-3),
                                         (1e18, 1.0)])
def test_refused_before_any_step(duration, h):
    # 1e18 steps fit an index, but their path exceeds any 64-bit address
    # space: it is refused when the path is allocated, before the first step
    def never(y):
        raise AssertionError("rhs called for a refused step count")

    with pytest.raises(ValueError):
        rk4_flow(never, [0.3, 0.2], duration, h)


def test_nan_error_estimate_is_rejected():
    with pytest.raises(StepSizeError):
        rk4_flow(lambda y: np.full(2, np.nan), [0.3, 0.2], 0.3, 0.1)
