"""Recurrent-cell kernels of the encoder, in plain numpy.

Only the recurrence runs here. lstm_forward_packed runs it over a whole
batch time-major, one step of every sentence still running per loop
iteration; prediction uses it. lstm_forward and lstm_backward run it one
sentence at a time; training uses them, for the reason model.py gives.
model.py does the rest once per direction per batch: the input projection
z = x @ wx.T + b and its halving (halve_ifo) before either forward kernel,
the per-token local derivatives (local_derivatives, over all of a batch's
rows at once) before lstm_backward, and every weight gradient and dx from
the dz that lstm_backward writes.

Gate layout inside the stacked weight matrices is [input, forget,
candidate, output].

The sigmoid gates take the tanh form sigmoid(v) = 1/2 + 1/2 tanh(v/2).
Each step runs one np.tanh over its whole 4H pre-activation row, then
scales and shifts it by _tanh_form's per-gate values. So the i, f and o
pre-activations must arrive halved: halve_ifo halves those columns of z
and those rows of wh once per batch, exactly, since the factor is a power
of two. The form holds a gate to a few ulps of 1/2, not of the gate: one
near 5e-6 (a pre-activation near -12) is off by about 1e-11 relative, and
so are the h and the gradients it scales, where 1/(1 + exp(-v)) would be
off by ulps. tanh cannot overflow, so the kernels leave the floating-point
error state alone; the projection, the one place an overflow can arise,
is computed in model.py under the caller's error state.

The kernels write into arrays their caller allocates once per direction
per batch: lstm_forward into per-sentence slices of h, c and tc,
lstm_forward_packed into the whole of them, and lstm_backward into
per-sentence slices of dz, adding each step's gradient of the previous
hidden state into dh_out in place.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _tanh_form(H):
    """(scale, shift) of the tanh form, each (4H,) and read-only: the
    per-gate factors [1/2, 1/2, 1, 1/2] and 1 - scale = [1/2, 1/2, 0, 1/2]."""
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], H)
    shift = 1.0 - scale
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def halve_ifo(z, wh):
    """Halve the i, f and o columns of the projections z (N, 4H) in place,
    and return a copy of wh (4H, H) with its i, f and o rows halved, by
    _tanh_form's factors: the operands lstm_forward takes."""
    scale = _tanh_form(wh.shape[1])[0]
    z *= scale
    return wh * scale[:, None]


def lstm_forward(z, wh, h, c, tc):
    """Run the cell over one sentence's halved projections z (T, 4H), with
    zero initial states and the halved recurrent weights wh (halve_ifo).

    Activates z in place, leaving the i/f/g/o gate values in it, and
    writes h, c and tc = tanh(c), each (T, H), all needed by the backward
    pass.
    """
    H = wh.shape[1]
    scale, shift = _tanh_form(H)
    c_prev = np.zeros(H)
    for t in range(z.shape[0]):
        zt = z[t]
        if t:  # the initial state is zero, so step 0 adds nothing
            zt += wh @ h_prev
        np.tanh(zt, out=zt)
        zt *= scale
        zt += shift
        c_prev = np.multiply(zt[H:2 * H], c_prev, out=c[t])
        c_prev += zt[0:H] * zt[2 * H:3 * H]
        np.tanh(c_prev, out=tc[t])
        h_prev = np.multiply(zt[3 * H:4 * H], tc[t], out=h[t])


def lstm_forward_packed(z, wh, h, c, tc, batch_sizes):
    """Run the cell over a batch of sentences at once, time-major, with the
    arguments of lstm_forward in packed order: the first batch_sizes[0]
    rows of z, h, c and tc are step 0 of each sentence, the next
    batch_sizes[1] rows step 1, and so on. The sentences are sorted longest
    first, so those still running at step t are the leading batch_sizes[t]
    of step t - 1, and each step is one (n_t, H) @ (H, 4H) product and the
    elementwise step of lstm_forward over n_t rows. batch_sizes is a list
    of ints, one per step.
    """
    H = wh.shape[1]
    scale, shift = _tanh_form(H)
    c_prev = np.zeros((batch_sizes[0] if batch_sizes else 0, H))
    start = 0
    for t, n in enumerate(batch_sizes):
        rows = slice(start, start + n)
        zt = z[rows]
        if t:  # the initial state is zero, so step 0 adds nothing
            zt += h_prev[:n] @ wh.T
        np.tanh(zt, out=zt)
        zt *= scale
        zt += shift
        c_prev = np.multiply(zt[:, H:2 * H], c_prev[:n], out=c[rows])
        c_prev += zt[:, 0:H] * zt[:, 2 * H:3 * H]
        np.tanh(c_prev, out=tc[rows])
        h_prev = np.multiply(zt[:, 3 * H:4 * H], tc[rows], out=h[rows])
        start += n


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


def lstm_backward(wh, f, local, dc_from_dh, dh_out, dz):
    """Backpropagate dh_out (T, H) through one sentence's recurrence,
    writing dz (T, 4, H), the gradient of the pre-activations z.

    f (T, H) holds its forget gates, and local and dc_from_dh its rows of
    local_derivatives. Each step adds its gradient of the previous hidden
    state into dh_out in place, so dh_out[t] ends as the whole gradient of
    h[t].
    """
    T, H = dh_out.shape
    flat = dz.reshape(T, 4 * H)
    dc_next = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dh_out[t]
        dc = dh * dc_from_dh[t]
        dc += dc_next
        np.multiply(dc, local[t, 0:3], out=dz[t, 0:3])
        np.multiply(dh, local[t, 3], out=dz[t, 3])
        if t:  # step 0 has no previous state to pass a gradient to
            dh_out[t - 1] += flat[t] @ wh
            dc_next = dc * f[t]
