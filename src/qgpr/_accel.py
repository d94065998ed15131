"""Low-level statevector kernels on views of a complex amplitude array.

Each kernel takes a view of the amplitudes with one axis per register (the
controls' registers pinned away) and the numbers of the axes it acts on, both
from one :func:`qgpr.statevector._operand` call. All kernels but
:func:`spread_solve` (which reads one view and writes two views of a new
state) mutate the view in place. :func:`apply_matrix` and :func:`reflect` work piece by piece and
:func:`spread_solve` writes its products into the new state, so none of them
makes a state-sized temporary. :func:`fourier` does: its FFT output is the
size of its view, the whole state when uncontrolled (a 16.1 MiB tracemalloc
peak on a 16 MiB, 20-qubit state), and the solver response in
:mod:`qgpr.qla` runs it twice per config.

A real matrix (a Walsh block, X, a real eigenbasis) runs as one real product
on the float64 view of the (re, im) pairs: half the flops of a complex one.
"""

from __future__ import annotations

import math

import numpy as np

_PIECE = 1 << 14  # amplitudes per piece in apply_matrix and reflect


def _broadcast(table, ndim, *axes):
    """``table`` with its axes on ``axes`` of an ``ndim``-axis view, as a view that broadcasts."""
    if axes[0] > axes[-1]:  # C order of the broadcast shape runs the earlier axis first
        table, axes = table.T, axes[::-1]
    shape = [1] * ndim
    for axis, size in zip(axes, table.shape):
        shape[axis] = size
    return table.reshape(shape)


def _pieces(amps, axes):
    """``amps`` with the ``axes`` first and whole, cut on the next axes into
    pieces of at most ``_PIECE``. A state-sized temporary, freed after each
    gate, lets malloc hand the heap top back to the OS, so whether the next
    estimate faults its state in again hangs on heap layout."""
    view = np.moveaxis(amps, axes, range(len(axes)))
    if view.size <= _PIECE:
        return [view]
    k, size = len(axes), view.size
    while k < view.ndim and size > _PIECE:
        k, size = k + 1, size // view.shape[k]
    return [view[(slice(None),) * len(axes) + i] for i in np.ndindex(view.shape[len(axes) : k])]


def apply_matrix(amps, mat, axes):
    """In place: ``amps <- mat(amps)`` on the ``axes``, the first the most significant."""
    for part in _pieces(amps, axes):
        flat = part.reshape(mat.shape[0], -1)  # copies when the view is strided
        real = mat.dtype == np.float64 and flat.strides[-1] == flat.itemsize  # adjacent (re, im)
        out = (mat @ flat.view(np.float64)).view(np.complex128) if real else mat @ flat
        part[...] = out.reshape(part.shape)


def reflect(amps, u, axes):
    """In place: ``amps <- (I - 2 u u^H)(amps)`` on the ``axes``, the first the most significant.

    A rank-1 update: one overlap per amplitude block instead of a dense product.
    """
    for part in _pieces(amps, axes):
        coef = u.conj() @ part.reshape(u.shape[0], -1)  # copies when the view is strided
        part -= np.multiply.outer(2.0 * u, coef).reshape(part.shape)


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
