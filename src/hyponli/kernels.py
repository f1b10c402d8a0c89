"""Recurrent-cell kernels of the encoder, in plain numpy.

Only the recurrence runs step by step. The forward pass projects every
input at once (x @ wx.T + b) and each step adds wh @ h[t-1] and activates
the gates in place; the backward loop only fills the pre-activation
gradients dz, and every weight gradient and dx is then one matmul over
the sentence.

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


def lstm_forward(x, wx, wh, b):
    """Run the cell over x (T, d) with zero initial states.

    Returns h (T, H), c (T, H), gates (T, 4H) holding the activated
    i/f/g/o values, and tc (T, H) = tanh(c), all needed by the backward
    pass.
    """
    T = x.shape[0]
    H = wh.shape[1]
    gates = x @ wx.T + b
    h = np.empty((T, H))
    c = np.empty((T, H))
    tc = np.empty((T, H))
    h_prev = c_prev = np.zeros(H)
    for t in range(T):
        z = gates[t]
        z += wh @ h_prev
        g = np.tanh(z[2 * H:3 * H])
        _sigmoid(z)
        z[2 * H:3 * H] = g
        c_prev = c[t] = z[H:2 * H] * c_prev + z[0:H] * g
        np.tanh(c_prev, out=tc[t])
        h_prev = h[t] = z[3 * H:4 * H] * tc[t]
    return h, c, gates, tc


def lstm_backward(x, wx, wh, h, c, gates, tc, dh_out):
    """Backpropagate dh_out (T, H) through the recurrence.

    Returns (gwx, gwh, gb, dx) where dx (T, d) is the gradient w.r.t. the
    input vectors.
    """
    T, H = h.shape
    i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
    c_prev = np.zeros_like(c)
    c_prev[1:] = c[:-1]
    # dc/dz of the i, f and g pre-activations and dh/dz of o's, per step
    local = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g),
                      tc * o * (1.0 - o)], axis=1)
    dc_from_dh = o * (1.0 - tc * tc)  # dh/dc through tanh(c)
    dz = np.empty((T, 4, H))
    dh_next = dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t] + dh_next
        dc = dh * dc_from_dh[t] + dc_next
        np.multiply(dc, local[t, 0:3], out=dz[t, 0:3])
        np.multiply(dh, local[t, 3], out=dz[t, 3])
        dh_next = dz[t].reshape(-1) @ wh
        dc_next = dc * f[t]
    dz = dz.reshape(T, 4 * H)
    return dz.T @ x, dz[1:].T @ h[:-1], dz.sum(axis=0), dz @ wx
