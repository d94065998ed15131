"""Low-level statevector kernels on a flat complex amplitude array.

Qubit positions are axis indices of the ``(2,)*m`` reshape of the amplitude
array: position 0 is the most significant bit of the basis index. All
kernels mutate ``amps`` in place; callers own the buffer.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np


def _ctl_subview(psi, controls):
    """View of ``psi`` with control axes fixed, plus an axis remapper."""
    if not controls:
        return psi, lambda p: p
    idx = [slice(None)] * psi.ndim
    for pos, val in controls:
        idx[pos] = val
    fixed = sorted(pos for pos, _ in controls)

    def remap(p):
        return p - bisect_left(fixed, p)

    return psi[tuple(idx)], remap


def apply_matrix(amps, mat, tpos, m, controls=()):
    """In place: ``amps <- (controls ? mat : id)(amps)`` on target qubits ``tpos``."""
    psi = amps.reshape((2,) * m)
    sub, remap = _ctl_subview(psi, controls)
    axes = [remap(p) for p in tpos]
    moved = np.moveaxis(sub, axes, range(len(axes)))
    shape = moved.shape
    flat = moved.reshape(mat.shape[0], -1)  # copies when the view is strided
    out = mat @ flat
    moved[...] = out.reshape(shape)


def reflect(amps, u, tpos, m, controls=()):
    """In place: ``amps <- (controls ? I - 2 u u^H : id)(amps)`` on target qubits ``tpos``.

    A rank-1 update: one overlap per amplitude block instead of a dense product.
    """
    psi = amps.reshape((2,) * m)
    sub, remap = _ctl_subview(psi, controls)
    axes = [remap(p) for p in tpos]
    moved = np.moveaxis(sub, axes, range(len(axes)))
    coef = u.conj() @ moved.reshape(u.shape[0], -1)  # copies when the view is strided
    moved -= np.multiply.outer(2.0 * u, coef).reshape(moved.shape)


def fourier(amps, start, width, m, controls=(), inverse=False):
    """In place: QFT (or its inverse) on the ``width``-qubit block at ``start``.

    The forward QFT is numpy's orthonormal inverse DFT along the block.
    """
    psi = amps.reshape((2,) * m)
    sub, remap = _ctl_subview(psi, controls)
    s = remap(start)
    shape = sub.shape
    block = sub.reshape(shape[:s] + (1 << width,) + shape[s + width:])
    transform = np.fft.fft if inverse else np.fft.ifft
    sub[...] = transform(block, axis=s, norm="ortho").reshape(shape)


def phase_mul(amps, table, cstart, cwidth, tstart, twidth, m, controls=()):
    """In place: multiply each amplitude by ``table[clock value, target value]``.

    ``cstart``/``tstart`` are the positions of the most significant qubit of
    each (contiguous) block; ``table`` has shape ``(2**cwidth, 2**twidth)``.
    """
    psi = amps.reshape((2,) * m)
    sub, remap = _ctl_subview(psi, controls)
    c0, t0 = remap(cstart), remap(tstart)
    shape = [1] * sub.ndim
    for j in range(cwidth):
        shape[c0 + j] = 2
    for j in range(twidth):
        shape[t0 + j] = 2
    # C-order of the broadcast shape iterates the earlier block first
    block = table if c0 < t0 else np.ascontiguousarray(table.T)
    sub *= block.reshape(shape)


def pair_rot(amps, cos_t, sin_t, cstart, cwidth, apos, m, controls=()):
    """In place: rotate qubit ``apos`` by the angle indexed by the clock block.

    Maps ``|0> -> cos|0> + sin|1>`` and ``|1> -> -sin|0> + cos|1>`` with
    ``cos = cos_t[k]``, ``sin = sin_t[k]`` for clock value ``k``.
    """
    psi = amps.reshape((2,) * m)
    sub, remap = _ctl_subview(psi, controls)
    aax = remap(apos)
    idx0 = [slice(None)] * sub.ndim
    idx1 = [slice(None)] * sub.ndim
    idx0[aax], idx1[aax] = 0, 1
    a0, a1 = sub[tuple(idx0)], sub[tuple(idx1)]
    c0 = remap(cstart)
    if aax < c0:
        c0 -= 1  # slicing out the ancilla axis shifted the block left
    shape = [1] * a0.ndim
    for j in range(cwidth):
        shape[c0 + j] = 2
    cos_nd = cos_t.reshape(shape)
    sin_nd = sin_t.reshape(shape)
    new0 = a0 * cos_nd - a1 * sin_nd
    a1 *= cos_nd
    a1 += sin_nd * a0  # a0 untouched until the next line
    a0[...] = new0
