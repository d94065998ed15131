"""Low-level statevector kernels on views of a complex amplitude array.

Each kernel takes a view of the amplitudes with one axis per register (the
controls' registers pinned away) and the numbers of the axes it acts on, both
from one :func:`qgpr.statevector._operand` call. All kernels but
:func:`spread_solve` (which reads one view and writes two views of a new
state) mutate the view in place. No kernel bounds its temporaries, which
come to a few times its view's size: the callers keep the views small. An
estimate runs every gate before the solver on the clock-free state (at most
2^14 amplitudes on the CLI path), and :func:`spread_solve` writes its
products straight into the new state. The solver response in
:mod:`qgpr.qla`, the one large view, is built in eigen-index chunks of at
most ``qgpr.qla._CHUNK`` amplitudes, or of two indices on a wider clock.

A real matrix (a Walsh block, X, a real eigenbasis) runs as one real product
on the float64 view of the (re, im) pairs: half the flops of a complex one.
"""

from __future__ import annotations

import math

import numpy as np


def _broadcast(table, ndim, *axes):
    """``table`` with its axes on ``axes`` of an ``ndim``-axis view, as a view that broadcasts."""
    if axes[0] > axes[-1]:  # C order of the broadcast shape runs the earlier axis first
        table, axes = table.T, axes[::-1]
    shape = [1] * ndim
    for axis, size in zip(axes, table.shape):
        shape[axis] = size
    return table.reshape(shape)


def apply_matrix(amps, mat, axes):
    """In place: ``amps <- mat(amps)`` on the ``axes``, the first the most significant."""
    view = np.moveaxis(amps, axes, range(len(axes)))
    flat = view.reshape(mat.shape[0], -1)  # copies when the view is strided
    real = mat.dtype == np.float64 and flat.strides[-1] == flat.itemsize  # adjacent (re, im)
    out = (mat @ flat.view(np.float64)).view(np.complex128) if real else mat @ flat
    view[...] = out.reshape(view.shape)


def reflect(amps, u, axes):
    """In place: ``amps <- (I - 2 u u^H)(amps)`` on the ``axes``, the first the most significant.

    A rank-1 update: one overlap per amplitude block instead of a dense product.
    """
    view = np.moveaxis(amps, axes, range(len(axes)))
    coef = u.conj() @ view.reshape(u.shape[0], -1)  # copies when the view is strided
    view -= np.multiply.outer(2.0 * u, coef).reshape(view.shape)


def fourier(amps, axis, inverse=False):
    """In place: QFT (or its inverse) along ``axis``; the forward QFT is
    numpy's orthonormal inverse DFT."""
    transform = np.fft.fft if inverse else np.fft.ifft
    amps[...] = transform(amps, axis=axis, norm="ortho")


def phase_mul(amps, table, caxis, taxis):
    """In place: multiply each amplitude by ``table[clock value, target value]``,
    the clock on axis ``caxis`` and the target on axis ``taxis``."""
    amps *= _broadcast(table, amps.ndim, caxis, taxis)


def pair_rot(amps, cos_t, sin_t, caxis, aaxis):
    """In place: rotate the one-qubit axis ``aaxis`` by the angle indexed by the clock axis.

    Maps ``|0> -> cos|0> + sin|1>`` and ``|1> -> -sin|0> + cos|1>`` with
    ``cos = cos_t[k]``, ``sin = sin_t[k]`` for clock value ``k``.
    """
    a0, a1 = (amps[(slice(None),) * aaxis + (slice(half, half + 1),)] for half in (0, 1))
    cos_nd, sin_nd = (_broadcast(t, amps.ndim, caxis) for t in (cos_t, sin_t))
    new0 = a0 * cos_nd - a1 * sin_nd
    a1 *= cos_nd
    a1 += sin_nd * a0  # a0 untouched until the next line
    a0[...] = new0


def spread_solve(src, dst, vec, g_c, g_s, axis):
    """Write the solver's rows into ``dst``, the views of a new state at
    ancilla 0 and 1 with ``src``'s axes and the clock last. Per target vector x
    along ``axis`` of ``src`` (the input at ancilla 0, which must be all of it):
    ``vec``^H, a Hadamard layer on a zero clock, the ancilla rotation by (target
    value, clock value) tables ``g_c``, ``g_s`` (as :func:`pair_rot`) and
    ``vec``. With a_0 = V^H x and W = V diag(a_0) / sqrt(T), that is W g_c at
    ancilla 0 and W g_s at ancilla 1: one product each, real ones when V and x
    are real.
    """
    big_t = dst[0].shape[-1]
    src = np.moveaxis(src, axis, -1)
    dst = [np.moveaxis(out, axis, -2) for out in dst]
    for idx in np.ndindex(src.shape[:-1]):
        x = src[idx]
        real = vec.dtype == np.float64 and not x.imag.any()
        a0 = vec.T @ x.real if real else vec.conj().T @ x
        w = vec * (a0 / math.sqrt(big_t))
        for g, out in zip((g_c, g_s), dst):
            np.matmul(w, g.view(w.dtype), out=out[idx].view(w.dtype))
