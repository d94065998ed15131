"""Low-level statevector kernels on a flat complex amplitude array.

Qubit positions are axis indices of the ``(2,)*m`` reshape of the amplitude
array: position 0 is the most significant bit of the basis index. A control
cuts its axis to a length-1 slice rather than dropping it, so positions
index the axes of every view the kernels take. All kernels but
:func:`spread_solve` (which writes a new state) mutate ``amps`` in place.
:func:`apply_matrix` and :func:`reflect` work piece by piece and
:func:`spread_solve` writes its products into the new state, so none of them
makes a state-sized temporary. :func:`fourier` does: its FFT output is the
size of its controlled block, the whole state when uncontrolled (a 16.1 MiB
tracemalloc peak on a 16 MiB, 20-qubit state), and the solver response in
:mod:`qgpr.qla` runs it twice per config.

A real matrix (a Walsh block, X, a real eigenbasis) runs as one real product
on the float64 view of the (re, im) pairs: half the flops of a complex one.
"""

from __future__ import annotations

import math

import numpy as np

_PIECE = 1 << 14  # amplitudes per piece in apply_matrix and reflect


def _pinned(amps, m, pins):
    """The ``(2,)*m`` view of ``amps`` with each ``(position, value)`` axis cut
    to the length-1 slice at its value."""
    idx = [slice(None)] * m
    for pos, val in pins:
        idx[pos] = slice(val, val + 1)
    return amps.reshape((2,) * m)[tuple(idx)]


def _broadcast(table, m, *blocks):
    """``table`` over one or two ``(start, width)`` blocks' values, as a view that broadcasts."""
    if blocks[0][0] > blocks[-1][0]:  # C order of the broadcast shape runs the earlier block first
        table, blocks = table.T, blocks[::-1]
    shape = [1] * m
    for start, width in blocks:
        shape[start : start + width] = [2] * width
    return table.reshape(shape)


def _pieces(amps, tpos, m, controls):
    """The controlled amplitudes with the ``tpos`` axes first and whole, cut on
    the next axes into pieces of at most ``_PIECE``. A state-sized temporary,
    freed after each gate, lets malloc hand the heap top back to the OS, so
    whether the next estimate faults its state in again hangs on heap layout."""
    view = np.moveaxis(_pinned(amps, m, controls), tpos, range(len(tpos)))
    if view.size <= _PIECE:
        return [view]
    k, size = len(tpos), view.size
    while k < view.ndim and size > _PIECE:
        k, size = k + 1, size // view.shape[k]
    return [view[(slice(None),) * len(tpos) + i] for i in np.ndindex(view.shape[len(tpos) : k])]


def apply_matrix(amps, mat, tpos, m, controls=()):
    """In place: ``amps <- (controls ? mat : id)(amps)`` on target qubits ``tpos``."""
    for part in _pieces(amps, tpos, m, controls):
        flat = part.reshape(mat.shape[0], -1)  # copies when the view is strided
        real = mat.dtype == np.float64 and flat.strides[-1] == flat.itemsize  # adjacent (re, im)
        out = (mat @ flat.view(np.float64)).view(np.complex128) if real else mat @ flat
        part[...] = out.reshape(part.shape)


def reflect(amps, u, tpos, m, controls=()):
    """In place: ``amps <- (controls ? I - 2 u u^H : id)(amps)`` on target qubits ``tpos``.

    A rank-1 update: one overlap per amplitude block instead of a dense product.
    """
    for part in _pieces(amps, tpos, m, controls):
        coef = u.conj() @ part.reshape(u.shape[0], -1)  # copies when the view is strided
        part -= np.multiply.outer(2.0 * u, coef).reshape(part.shape)


def fourier(amps, start, width, m, controls=(), inverse=False):
    """In place: QFT (or its inverse) on the ``width``-qubit block at ``start``.

    The forward QFT is numpy's orthonormal inverse DFT along the block.
    """
    sub = _pinned(amps, m, controls)
    shape = sub.shape
    block = sub.reshape(shape[:start] + (1 << width,) + shape[start + width:])
    transform = np.fft.fft if inverse else np.fft.ifft
    sub[...] = transform(block, axis=start, norm="ortho").reshape(shape)


def phase_mul(amps, table, cstart, cwidth, tstart, twidth, m, controls=()):
    """In place: multiply each amplitude by ``table[clock value, target value]``.

    ``cstart``/``tstart`` are the positions of the most significant qubit of
    each (contiguous) block; ``table`` has shape ``(2**cwidth, 2**twidth)``.
    """
    sub = _pinned(amps, m, controls)
    sub *= _broadcast(table, m, (cstart, cwidth), (tstart, twidth))


def pair_rot(amps, cos_t, sin_t, cstart, cwidth, apos, m, controls=()):
    """In place: rotate qubit ``apos`` by the angle indexed by the clock block.

    Maps ``|0> -> cos|0> + sin|1>`` and ``|1> -> -sin|0> + cos|1>`` with
    ``cos = cos_t[k]``, ``sin = sin_t[k]`` for clock value ``k``.
    """
    a0, a1 = (_pinned(amps, m, (*controls, (apos, half))) for half in (0, 1))
    cos_nd, sin_nd = (_broadcast(t, m, (cstart, cwidth)) for t in (cos_t, sin_t))
    new0 = a0 * cos_nd - a1 * sin_nd
    a1 *= cos_nd
    a1 += sin_nd * a0  # a0 untouched until the next line
    a0[...] = new0


def _solve_view(amps, m, tpos, tail, pins):
    """``amps`` pinned, its target axes moved before the last ``tail`` axes:
    shape ``(..., 2**len(tpos), 2**tail)``, a view."""
    k = m - tail
    view = np.moveaxis(_pinned(amps, m, pins), tpos, range(k - len(tpos), k))
    return view.reshape(view.shape[: k - len(tpos)] + (1 << len(tpos), 1 << tail))


def spread_solve(free, vec, g_c, g_s, tpos, apos, m, cwidth, controls=()):
    """A new ``m``-qubit state: ``free`` (x) |0> on a ``cwidth``-qubit clock
    appended last, then on the controlled rows ``vec``^H on the target, a
    Hadamard layer on the clock, the rotation of ancilla ``apos`` by (target
    value, clock value) tables ``g_c``, ``g_s`` (as :func:`pair_rot`) and
    ``vec`` on the target. The ancilla must be |0> on the controlled rows of
    ``free``. With x those rows at ancilla 0, a_0 = V^H x and W = V diag(a_0) /
    sqrt(T), it writes W g_c at ancilla 0 and W g_s at ancilla 1: one product
    per ancilla value and controlled block, real ones when V and x are real.
    """
    big_t = 1 << cwidth
    amps = np.zeros(free.size << cwidth, dtype=np.complex128)
    amps.reshape(-1, big_t)[:, 0] = free  # the controlled rows are overwritten below
    src = _solve_view(free, m - cwidth, tpos, 0, (*controls, (apos, 0)))
    dst = [_solve_view(amps, m, tpos, cwidth, (*controls, (apos, d))) for d in (0, 1)]
    for idx in np.ndindex(src.shape[:-2]):
        x = src[idx][:, 0]
        real = vec.dtype == np.float64 and not x.imag.any()
        a0 = vec.T @ x.real if real else vec.conj().T @ x
        w = vec * (a0 / math.sqrt(big_t))
        for g, out in zip((g_c, g_s), dst):
            np.matmul(w, g.view(w.dtype), out=out[idx].view(w.dtype))
    return amps
