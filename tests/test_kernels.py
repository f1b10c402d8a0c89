import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyponli import kernels, model

import reference
from helpers import as_csr, close
from test_model import make_params, same_bits


def cell(rng, T, d, H, scale=1.0):
    """(x, wx, wh, b, dh_out) of a random cell."""
    return (rng.normal(size=(T, d)), scale * rng.normal(size=(4 * H, d)),
            scale * rng.normal(size=(4 * H, H)), scale * rng.normal(size=4 * H),
            rng.normal(size=(T, H)))


def run_kernels(x, wx, wh, b, dh_out):
    """The forward and backward pass of one sentence as model.py composes
    the kernels: ((h, c, gates, tc), (gwx, gwh, gb, dx)). dh_out is left
    as it was."""
    T, H = dh_out.shape
    gates = x @ wx.T + b
    half_wh = kernels.halve_ifo(gates, wh)
    h, c, tc = np.empty((3, T, H))
    kernels.lstm_forward(gates, half_wh, h, c, tc)
    c_prev = np.zeros_like(c)
    c_prev[1:] = c[:-1]
    local, dc_from_dh = kernels.local_derivatives(gates, c_prev, tc)
    dz = np.empty((T, 4, H))
    kernels.lstm_backward(wh, gates[:, H:2 * H], local, dc_from_dh, dh_out.copy(), dz)
    dz = dz.reshape(T, 4 * H)
    return (h, c, gates, tc), (dz.T @ x, dz[1:].T @ h[:-1], dz.sum(axis=0), dz @ wx)


def activated_gates(v):
    """The gates lstm_forward leaves in z when every pre-activation of row
    t is v[t] (T, H), with no recurrent input."""
    T, H = v.shape
    z = np.tile(v, 4)
    h, c, tc = np.empty((3, T, H))
    kernels.lstm_forward(z, kernels.halve_ifo(z, np.zeros((4 * H, H))), h, c, tc)
    return z


def assert_kernels_match_reference(x, wx, wh, b, dh_out):
    fwd, bwd = run_kernels(x, wx, wh, b, dh_out)
    ref_fwd = reference.lstm_forward(x, wx, wh, b)
    for name, got, want in zip(("h", "c", "gates", "tc"), fwd, ref_fwd):
        assert close(got, want), name
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
@settings(max_examples=100, deadline=None, derandomize=True)
def test_property_matches_per_step_reference(T, d, H, scale, seed):
    # Weights stay within twice the unit scale. Far beyond it, saturated
    # gates leave some gradient elements more than 1e-12 below their
    # array's largest magnitude, where both summation orders are off the
    # exact value by the same few ulps of the larger terms.
    assert_kernels_match_reference(*cell(np.random.default_rng(seed), T, d, H, scale))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "an output-gate pre-activation near -12 to -16 leaves o near 5e-6, which the tanh form "
    "holds only to a few ulps of 1/2, a relative error near 1e-11 that h and the gradients "
    "through o carry; an exact oracle puts the reference within about 1 ulp there"))
@pytest.mark.parametrize("T, d, H, scale, seed", [(1, 5, 1, 2.0, 2555332),
                                                  (3, 5, 1, 1.923, 731531867)],
                         ids=["h-gwx-gb-dx", "gwh"])
def test_saturated_output_gate_is_held_to_ulps_of_one_half(T, d, H, scale, seed):
    """Two cells the property above once drew, pinned so that a change in
    the kernels' rounding shows: at both the kernels miss the reference by
    3e-18 to 4e-17 in arrays whose largest value is 2e-6 to 1.1e-5."""
    assert_kernels_match_reference(*cell(np.random.default_rng(seed), T, d, H, scale))


@pytest.mark.parametrize("s", [slice(0, 4), slice(2, 7), slice(4, 5), slice(6, 9)],
                         ids=["first", "middle", "one-token", "last"])
def test_reversed_views_of_batch_slices_match_reversed_copies(s):
    """model._encode_backward and the backward direction of _encode pass
    the kernels [::-1] views of one sentence's slices of (N, ...) batch
    arrays. The kernels must write through those views, dz.reshape
    included, bit for bit as into contiguous reversed copies, and nowhere
    outside them. Every output starts as NaN in the batch and as zero in
    the copies, so a write into a temporary shows."""
    rng = np.random.default_rng(s.start)
    N, H = 9, 3
    T = s.stop - s.start
    x, wx, wh, b, _ = cell(rng, N, 4, H)
    z = x @ wx.T + b
    half_wh = kernels.halve_ifo(z, wh)
    h, c, tc = np.full((3, N, H), np.nan)
    views = [a[s][::-1] for a in (z, h, c, tc)]
    copies = [views[0].copy(), *np.zeros((3, T, H))]
    kernels.lstm_forward(views[0], half_wh, *views[1:])
    kernels.lstm_forward(copies[0], half_wh, *copies[1:])
    for view, copy in zip(views, copies):
        assert same_bits(view, copy)
    outside = np.ones(N, dtype=bool)
    outside[s] = False
    assert np.isnan(np.stack([h, c, tc])[:, outside]).all()

    f, dc_from_dh, dh_out = rng.normal(size=(3, N, H))
    local = rng.normal(size=(N, 4, H))
    dz = np.full((N, 4, H), np.nan)
    given_dh = dh_out.copy()
    views = [a[s][::-1] for a in (f, local, dc_from_dh, dh_out, dz)]
    copies = [view.copy() for view in views[:4]] + [np.zeros((T, 4, H))]
    kernels.lstm_backward(wh, *views)
    kernels.lstm_backward(wh, *copies)
    for view, copy in zip(views[3:], copies[3:]):
        assert same_bits(view, copy)
    assert np.isnan(dz[outside]).all()
    assert same_bits(dh_out[outside], given_dh[outside])
    # every step but the sentence's first passes a gradient to its previous state
    assert (dh_out[s] != given_dh[s]).any(axis=1).sum() == T - 1


def test_projection_overflow_raises():
    params = make_params("birnn-maxpool")
    params.arrays["emb"][...] = 1e200
    params.arrays["wf_x"][...] = 1e200
    rows, tokens = as_csr([np.array([0, 1])])
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        model.loss_and_gradients(rows, tokens, np.array([0]), params)


def test_sigmoid_gates_match_the_exp_form():
    # the tanh form agrees with 1/(1+exp(-v)) to within 2^-51 absolute, and
    # the candidate gate is tanh(v) itself
    v = np.linspace(-50.0, 50.0, 100 * 64).reshape(100, 64)
    gates = activated_gates(v)
    sigmoid = 1.0 / (1.0 + np.exp(-v))
    for k in (0, 1, 3):
        assert np.abs(gates[:, k * 64:(k + 1) * 64] - sigmoid).max() <= 2.0 ** -51
    assert np.array_equal(gates[:, 128:192], np.tanh(v))


def test_sigmoid_of_zero_is_one_half():
    gates = activated_gates(np.zeros((2, 3)))
    assert np.array_equal(gates, np.tile([[0.5] * 3 + [0.5] * 3 + [0.0] * 3 + [0.5] * 3], (2, 1)))


def test_saturated_gate_is_exact_and_silent():
    for bias, gate in ((-800.0, 0.0), (800.0, 1.0)):
        x, wx, wh, b, dh_out = cell(np.random.default_rng(0), 3, 4, 2)
        b[0:2] = bias  # far beyond where the input gate's sigmoid rounds to its limit
        with np.errstate(all="raise"):
            (h, c, gates, tc), _ = run_kernels(x, wx, wh, b, dh_out)
        assert np.array_equal(gates[:, 0:2], np.full((3, 2), gate))
        if gate == 0.0:
            assert np.array_equal(c, np.zeros((3, 2)))
