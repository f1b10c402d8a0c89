"""Recurrent-cell kernels of the encoder, in plain numpy.

Only the recurrence runs here one sentence at a time. model.py does the
rest once per direction per batch: the input projection z = x @ wx.T + b
before lstm_forward, the per-token local derivatives (local_derivatives,
over all of a batch's rows at once) before lstm_backward, and every
weight gradient and dx from the dz that lstm_backward returns.

Gate layout inside the stacked weight matrices is [input, forget,
candidate, output].
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    """1/(1+exp(-z)) in place. exp may overflow for very negative z; the
    result, 0, is the exact limit, so that overflow alone is not reported."""
    with np.errstate(over="ignore"):
        np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


def lstm_forward(z, wh):
    """Run the cell over one sentence's input projections z (T, 4H) =
    x @ wx.T + b, with zero initial states, activating z in place.

    Returns h (T, H), c (T, H), gates (z itself, now holding the activated
    i/f/g/o values) and tc (T, H) = tanh(c), all needed by the backward
    pass.
    """
    T = z.shape[0]
    H = wh.shape[1]
    h = np.empty((T, H))
    c = np.empty((T, H))
    tc = np.empty((T, H))
    c_prev = np.zeros(H)
    for t in range(T):
        zt = z[t]
        if t:  # the initial state is zero, so step 0 adds nothing
            zt += wh @ h_prev
        g = np.tanh(zt[2 * H:3 * H])
        _sigmoid(zt)
        zt[2 * H:3 * H] = g
        c_prev = c[t] = zt[H:2 * H] * c_prev + zt[0:H] * g
        np.tanh(c_prev, out=tc[t])
        h_prev = h[t] = zt[3 * H:4 * H] * tc[t]
    return h, c, z, tc


def local_derivatives(gates, c_prev, tc):
    """The step-local derivatives of any number of rows (N) of the cell.

    c_prev (N, H) is each row's previous cell state, zero at a sentence's
    first step. Returns local (N, 4, H), holding dc/dz of the i, f and g
    pre-activations and dh/dz of o's, and dc_from_dh (N, H), dh/dc
    through tanh(c).
    """
    H = tc.shape[1]
    i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
    local = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g),
                      tc * o * (1.0 - o)], axis=1)
    return local, o * (1.0 - tc * tc)


def lstm_backward(wh, f, local, dc_from_dh, dh_out):
    """Backpropagate dh_out (T, H) through one sentence's recurrence.

    f (T, H) holds its forget gates, and local and dc_from_dh its rows of
    local_derivatives. Returns dz (T, 4H), the gradient of the
    pre-activations z.
    """
    T, H = dh_out.shape
    dz = np.empty((T, 4, H))
    dh_next = dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t] + dh_next
        dc = dh * dc_from_dh[t] + dc_next
        np.multiply(dc, local[t, 0:3], out=dz[t, 0:3])
        np.multiply(dh, local[t, 3], out=dz[t, 3])
        if t:  # step 0 has no previous state to pass a gradient to
            dh_next = dz[t].reshape(-1) @ wh
            dc_next = dc * f[t]
    return dz.reshape(T, 4 * H)
