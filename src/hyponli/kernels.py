"""Recurrent-cell kernels: the hot per-timestep loops of the encoder, in
plain numpy.

Gate layout inside the stacked weight matrices is [input, forget,
candidate, output].
"""

from __future__ import annotations

import numpy as np


def lstm_forward(x, wx, wh, b):
    """Run the cell over x (T, d) with zero initial states.

    Returns h (T, H), c (T, H), gates (T, 4H) holding the activated
    i/f/g/o values, and tc (T, H) = tanh(c), all needed by the backward
    pass.
    """
    T = x.shape[0]
    H = wh.shape[1]
    h = np.zeros((T, H))
    c = np.zeros((T, H))
    gates = np.zeros((T, 4 * H))
    tc = np.zeros((T, H))
    h_prev = np.zeros(H)
    c_prev = np.zeros(H)
    for t in range(T):
        z = np.dot(wx, x[t]) + np.dot(wh, h_prev) + b
        i = 1.0 / (1.0 + np.exp(-z[0:H]))
        f = 1.0 / (1.0 + np.exp(-z[H:2 * H]))
        g = np.tanh(z[2 * H:3 * H])
        o = 1.0 / (1.0 + np.exp(-z[3 * H:4 * H]))
        c_t = f * c_prev + i * g
        tc_t = np.tanh(c_t)
        h_t = o * tc_t
        gates[t, 0:H] = i
        gates[t, H:2 * H] = f
        gates[t, 2 * H:3 * H] = g
        gates[t, 3 * H:4 * H] = o
        c[t] = c_t
        tc[t] = tc_t
        h[t] = h_t
        h_prev = h_t
        c_prev = c_t
    return h, c, gates, tc


def lstm_backward(x, wx, wh, h, c, gates, tc, dh_out):
    """Backpropagate dh_out (T, H) through the recurrence.

    Returns (gwx, gwh, gb, dx) where dx (T, d) is the gradient w.r.t. the
    input vectors.
    """
    T = x.shape[0]
    d = x.shape[1]
    H = wh.shape[1]
    gwx = np.zeros((4 * H, d))
    gwh = np.zeros((4 * H, H))
    gb = np.zeros(4 * H)
    dx = np.zeros((T, d))
    wxT = np.ascontiguousarray(wx.T)
    whT = np.ascontiguousarray(wh.T)
    zeros_h = np.zeros(H)
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    dz = np.empty(4 * H)
    for t in range(T - 1, -1, -1):
        i = gates[t, 0:H]
        f = gates[t, H:2 * H]
        g = gates[t, 2 * H:3 * H]
        o = gates[t, 3 * H:4 * H]
        c_prev = c[t - 1] if t > 0 else zeros_h
        h_prev = h[t - 1] if t > 0 else zeros_h
        dh = dh_out[t] + dh_next
        do = dh * tc[t]
        dc = dh * o * (1.0 - tc[t] * tc[t]) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz[0:H] = di * i * (1.0 - i)
        dz[H:2 * H] = df * f * (1.0 - f)
        dz[2 * H:3 * H] = dg * (1.0 - g * g)
        dz[3 * H:4 * H] = do * o * (1.0 - o)
        gb += dz
        gwx += dz.reshape(4 * H, 1) * x[t].reshape(1, d)
        gwh += dz.reshape(4 * H, 1) * h_prev.reshape(1, H)
        dx[t] = np.dot(wxT, dz)
        dh_next = np.dot(whT, dz)
        dc_next = dc * f
    return gwx, gwh, gb, dx

