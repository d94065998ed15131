"""The amplitude kernels against dense operators built qubit by qubit with np.kron.

The kernels act on any view of the amplitudes; here every view is the
``(2,)*m`` qubit tensor, with controls cut to length-1 slices and blocks of
qubits merged into one axis where a kernel takes a register as one axis.
"""

from functools import reduce

import numpy as np
import pytest

from qgpr import _accel

I2 = np.eye(2)


def random_amps(rng, m):
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    return (amps / np.linalg.norm(amps)).astype(np.complex128)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def ket_bra(a, b):
    out = np.zeros((2, 2))
    out[a, b] = 1.0
    return out


def dense_operator(mat, tpos, m, controls=()):
    """The 2^m x 2^m operator applying ``mat`` to qubits ``tpos`` under ``controls``.

    Target ``tpos[j]`` is bit j (most significant first) of ``mat``'s index,
    and position 0 is the most significant qubit of the state, so
    ``mat = sum_ab mat[a, b] |a><b|`` expands to a Kronecker product with one
    factor per qubit.
    """
    k = len(tpos)
    ctl = dict(controls)

    def factor(q, a, b):
        if q in tpos:
            j = tpos.index(q)
            return ket_bra((a >> (k - 1 - j)) & 1, (b >> (k - 1 - j)) & 1)
        if q in ctl:
            return ket_bra(ctl[q], ctl[q])
        return I2

    op = sum(
        mat[a, b] * reduce(np.kron, [factor(q, a, b) for q in range(m)])
        for a in range(1 << k)
        for b in range(1 << k)
        if mat[a, b] != 0
    )
    matched = reduce(np.kron, [ket_bra(ctl[q], ctl[q]) if q in ctl else I2 for q in range(m)])
    return op + np.eye(1 << m) - matched


def block(start, width):
    return tuple(range(start, start + width))


def qubit_view(amps, m, controls=(), blocks=()):
    """The ``(2,)*m`` view of ``amps`` with each control ``(position, value)``
    cut to the length-1 slice at its value and each ``(start, width)`` block
    merged into one axis; and the axes of those blocks, in the order given."""
    idx = [slice(None)] * m
    for pos, val in controls:
        idx[pos] = slice(val, val + 1)
    view = amps.reshape((2,) * m)[tuple(idx)]
    for start, width in sorted(blocks, reverse=True):  # the later blocks first: no axis moves
        view = view.reshape(view.shape[:start] + (1 << width,) + view.shape[start + width :])
    assert np.shares_memory(view, amps)
    return view, [start - sum(w - 1 for s, w in blocks if s < start) for start, _ in blocks]


class TestDenseOperator:
    def test_single_qubit_is_kron_with_identities(self, rng):
        u = random_unitary(rng, 2)
        np.testing.assert_allclose(dense_operator(u, (1,), 3), np.kron(np.kron(I2, u), I2))

    def test_swapped_targets_swap_qubits(self, rng):
        u = random_unitary(rng, 4)
        swap = np.eye(4)[[0, 2, 1, 3]]
        np.testing.assert_allclose(dense_operator(u, (1, 0), 2), swap @ u @ swap, atol=1e-15)


class TestApplyMatrix:
    @pytest.mark.parametrize(
        "tpos, controls",
        [
            ((0, 1), ()),  # leading contiguous block: the view itself, uncopied
            ((0, 1), ((6, 1),)),  # control on the last qubit: strided
            ((3,), ()),
            ((5, 2), ()),
            ((5, 2), ((0, 1), (4, 0))),
            ((5, 2), ((4, 0), (0, 1))),
            ((6, 1, 3), ((4, 1),)),
        ],
    )
    def test_matches_dense_operator(self, rng, tpos, controls):
        m = 7
        mat = random_unitary(rng, 1 << len(tpos))
        amps = random_amps(rng, m)
        expected = dense_operator(mat, tpos, m, controls) @ amps
        _accel.apply_matrix(qubit_view(amps, m, controls)[0], mat, tpos)
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    # a real matrix runs as a real product on the float64 view when the
    # block's last axis has unit stride, and as the complex product otherwise
    @pytest.mark.parametrize(
        "tpos, controls",
        [
            ((0, 1), ()),  # leading contiguous block: the view itself, uncopied
            ((0, 1), ((6, 1),)),  # control on the last qubit: strided, complex product
            ((3,), ()),
            ((5, 2), ((0, 1), (4, 0))),
            ((6, 1, 3), ((4, 1),)),
        ],
    )
    def test_real_matrix_matches_dense_operator(self, rng, tpos, controls):
        m = 7
        mat = random_orthogonal(rng, 1 << len(tpos))
        amps = random_amps(rng, m)
        expected = dense_operator(mat, tpos, m, controls) @ amps
        _accel.apply_matrix(qubit_view(amps, m, controls)[0], mat, tpos)
        assert amps.dtype == np.complex128
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestPhaseMul:
    # the table is diagonal on the joint (clock, target) value, clock value first
    @pytest.mark.parametrize(
        "cstart, tstart, controls",
        [
            (3, 1, ()),  # clock after target
            (3, 1, ((0, 1),)),
            (4, 0, ((2, 0),)),  # clock after target, control between the blocks
            (0, 3, ()),  # clock before target
            (0, 4, ((3, 1),)),  # clock before target, control between the blocks
            (1, 4, ((6, 0),)),
        ],
    )
    def test_matches_dense_operator(self, rng, cstart, tstart, controls):
        m, cwidth, twidth = 7, 3, 2
        table = np.exp(1j * rng.normal(size=(1 << cwidth, 1 << twidth)))
        amps = random_amps(rng, m)
        tpos = block(cstart, cwidth) + block(tstart, twidth)
        expected = dense_operator(np.diag(table.ravel()), tpos, m, controls) @ amps
        view, axes = qubit_view(amps, m, controls, [(cstart, cwidth), (tstart, twidth)])
        _accel.phase_mul(view, table, *axes)
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestPairRot:
    # block-diagonal on (clock value, ancilla): one 2x2 rotation per clock value
    @pytest.mark.parametrize(
        "apos, cstart, controls",
        [
            (0, 1, ((6, 1),)),  # ancilla before the clock
            (0, 2, ()),
            (4, 1, ((6, 1),)),  # ancilla after the clock
            (5, 1, ((0, 0),)),  # ancilla after the clock, control before both
            (6, 2, ((5, 1), (0, 1))),
        ],
    )
    def test_matches_dense_operator(self, rng, apos, cstart, controls):
        m, cwidth = 7, 3
        theta = rng.uniform(0, np.pi, size=1 << cwidth)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        rot = np.zeros((2 << cwidth, 2 << cwidth))
        for k, (c, s) in enumerate(zip(cos_t, sin_t)):
            rot[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
        amps = random_amps(rng, m)
        tpos = block(cstart, cwidth) + (apos,)
        expected = dense_operator(rot, tpos, m, controls) @ amps
        view, axes = qubit_view(amps, m, controls, [(cstart, cwidth), (apos, 1)])
        _accel.pair_rot(view, cos_t, sin_t, *axes)
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestFourier:
    # the block at the start, middle and end of the state; controls before it,
    # after it and on both sides
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize(
        "start, controls",
        [
            (0, ()),
            (2, ()),
            (4, ()),
            (4, ((1, 1),)),  # control before the block
            (0, ((5, 0),)),  # control after the block
            (2, ((6, 1),)),
            (2, ((0, 1), (5, 0))),  # controls on both sides
            (3, ((6, 0), (1, 1), (0, 0))),
        ],
    )
    def test_matches_dense_operator(self, rng, start, controls, inverse):
        m, width = 7, 3
        dim = 1 << width
        k = np.arange(dim)
        mat = np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)
        if inverse:
            mat = mat.conj().T
        amps = random_amps(rng, m)
        expected = dense_operator(mat, block(start, width), m, controls) @ amps
        view, (axis,) = qubit_view(amps, m, controls, [(start, width)])
        _accel.fourier(view, axis, inverse)
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestReflect:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "tpos, controls",
        [
            ((0, 1), ()),  # leading contiguous block
            ((0, 1), ((6, 1),)),  # control on the last qubit: strided
            ((3,), ()),
            ((5, 2), ((0, 1),)),  # targets out of order, control before them
            ((1, 4), ((2, 0),)),  # control between the targets
            ((2, 0, 3), ((6, 1), (1, 0))),  # controls between and after
        ],
    )
    def test_matches_dense_operator(self, rng, tpos, controls, dtype):
        m, dim = 7, 1 << len(tpos)
        u = rng.normal(size=dim).astype(dtype)
        if dtype is complex:
            u += 1j * rng.normal(size=dim)
        u /= np.linalg.norm(u)
        amps = random_amps(rng, m)
        mat = np.eye(dim) - 2.0 * np.outer(u, u.conj())
        expected = dense_operator(mat, tpos, m, controls) @ amps
        _accel.reflect(qubit_view(amps, m, controls)[0], u, tpos)
        np.testing.assert_allclose(amps, expected, atol=1e-12)

