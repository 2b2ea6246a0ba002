import math
import warnings

import numpy as np
import pytest

from sbmpot import laplace
from sbmpot.errors import NumericAccuracyError


def test_talbot_exponential():
    t = np.geomspace(1e-2, 10.0, 20)
    vals = laplace.talbot_inversion(lambda s: 1.0 / (s + 1.0), t)
    np.testing.assert_allclose(vals, np.exp(-t), rtol=2e-7)


def test_talbot_power_law():
    t = np.geomspace(1e-3, 100.0, 25)
    vals = laplace.talbot_inversion(lambda s: s**-0.5, t)
    np.testing.assert_allclose(vals, t**-0.5 / math.gamma(0.5), rtol=1e-10)


def test_talbot_residual_small_on_smooth_transform():
    # stay above the absolute round-off floor of double-precision Talbot
    t = np.geomspace(1e-2, 5.0, 15)
    vals, residual = laplace.talbot_with_residual(lambda s: 1.0 / (s + 2.0), t)
    np.testing.assert_allclose(vals, np.exp(-2.0 * t), rtol=1e-6)
    assert residual < 1e-6


def test_talbot_residual_flags_disagreement():
    # a transform evaluated inconsistently between rule sizes cannot certify:
    # the +-1e-3 jitter is far past the 1e-6 tolerance
    calls = {"n": 0}

    def unstable(s):
        calls["n"] += 1
        jitter = 1.0 + (1e-3 if calls["n"] % 2 else -1e-3)
        return jitter / (s + 1.0)

    with pytest.raises(NumericAccuracyError):
        laplace.talbot_with_residual(unstable, np.array([1.0]))


def test_gaver_stehfest_exponential():
    # Stehfest loses ~12 digits to coefficient cancellation; 1e-4 is its realm
    t = np.geomspace(0.1, 2.0, 9)
    vals = laplace.gaver_stehfest(lambda s: 1.0 / (s + 1.0), t)
    np.testing.assert_allclose(vals, np.exp(-t), rtol=1e-4)


def test_stehfest_residual():
    t = np.geomspace(0.1, 5.0, 9)
    vals, residual = laplace.stehfest_with_residual(lambda s: s**-0.5, t)
    np.testing.assert_allclose(vals, t**-0.5 / math.gamma(0.5), rtol=1e-6)
    assert residual < 1e-4


def _nan_on_check_rule(s):
    check = s.shape[-1] in (laplace._TALBOT_CHECK_NODES, laplace._STEHFEST_CHECK_TERMS)
    return np.full(np.shape(s), math.nan) if check else 1.0 / (s + 1.0)


@pytest.mark.parametrize("transform", [
    lambda s: np.full(np.shape(s), math.nan, dtype=np.result_type(s)),
    lambda s: np.full(np.shape(s), math.inf, dtype=np.result_type(s)),
    _nan_on_check_rule,  # finite values, NaN residual
], ids=["nan", "inf", "nan_check_rule"])
def test_non_finite_inversion_is_refused(transform):
    # no residual can certify a NaN or inf: both paired rules refuse, and
    # without a warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rule in (laplace.talbot_with_residual, laplace.stehfest_with_residual):
            with pytest.raises(NumericAccuracyError):
                rule(transform, np.array([0.5, 1.0]))
