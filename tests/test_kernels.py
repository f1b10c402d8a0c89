import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import kernels

import reference


def close(a, b):
    """Equal to rtol 1e-12, with elements that cancel to near zero held to
    1e-12 of the array's largest magnitude."""
    return a.shape == b.shape and np.allclose(a, b, rtol=1e-12,
                                               atol=1e-12 * np.abs(b).max())


def cell(rng, T, d, H, scale=1.0):
    """(x, wx, wh, b, dh_out) of a random cell."""
    return (rng.normal(size=(T, d)), scale * rng.normal(size=(4 * H, d)),
            scale * rng.normal(size=(4 * H, H)), scale * rng.normal(size=4 * H),
            rng.normal(size=(T, H)))


def assert_kernels_match_reference(x, wx, wh, b, dh_out):
    fwd = kernels.lstm_forward(x, wx, wh, b)
    ref_fwd = reference.lstm_forward(x, wx, wh, b)
    for name, got, want in zip(("h", "c", "gates", "tc"), fwd, ref_fwd):
        assert close(got, want), name
    bwd = kernels.lstm_backward(x, wx, wh, *fwd, dh_out)
    ref_bwd = reference.lstm_backward(x, wx, wh, *ref_fwd, dh_out)
    for name, got, want in zip(("gwx", "gwh", "gb", "dx"), bwd, ref_bwd):
        assert close(got, want), name
    return bwd


@pytest.mark.parametrize("T", range(1, 9))
def test_matches_per_step_reference(T):
    gwx, gwh, gb, dx = assert_kernels_match_reference(*cell(np.random.default_rng(T), T, 5, 3))
    if T == 1:  # no step has a previous state, so wh gets no gradient at all
        assert np.array_equal(gwh, np.zeros((12, 3)))


@given(T=st.integers(1, 10), d=st.integers(1, 6), H=st.integers(1, 5),
       scale=st.floats(0.01, 2.0), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_property_matches_per_step_reference(T, d, H, scale, seed):
    # Weights stay within twice the unit scale. Far beyond it, saturated
    # gates leave some gradient elements more than 1e-12 below their
    # array's largest magnitude, where both summation orders are off the
    # exact value by the same few ulps of the larger terms.
    assert_kernels_match_reference(*cell(np.random.default_rng(seed), T, d, H, scale))


def test_projection_overflow_raises():
    x = np.full((2, 3), 1e200)
    wx = np.full((8, 3), 1e200)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        kernels.lstm_forward(x, wx, np.zeros((8, 2)), np.zeros(8))


def test_saturated_gate_is_exact_and_silent():
    x, wx, wh, b, dh_out = cell(np.random.default_rng(0), 3, 4, 2)
    b[0:2] = -800.0  # exp(800) overflows inside the input gate's sigmoid
    with np.errstate(all="raise"):
        h, c, gates, tc = kernels.lstm_forward(x, wx, wh, b)
        kernels.lstm_backward(x, wx, wh, h, c, gates, tc, dh_out)
    assert np.array_equal(gates[:, 0:2], np.zeros((3, 2)))
    assert np.array_equal(c, np.zeros((3, 2)))
