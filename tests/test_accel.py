"""The amplitude kernels against dense operators built qubit by qubit with np.kron."""

import tracemalloc
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
        _accel.apply_matrix(amps, mat, tpos, m, controls)
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
        _accel.apply_matrix(amps, mat, tpos, m, controls)
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
        _accel.phase_mul(amps, table, cstart, cwidth, tstart, twidth, m, controls)
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
        _accel.pair_rot(amps, cos_t, sin_t, cstart, cwidth, apos, m, controls)
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
        _accel.fourier(amps, start, width, m, controls, inverse)
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestReflect:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "tpos, controls",
        [
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
        _accel.reflect(amps, u, tpos, m, controls)
        np.testing.assert_allclose(amps, expected, atol=1e-12)


class TestPieces:
    """apply_matrix and reflect cut the amplitudes into pieces of at most _PIECE."""

    @pytest.mark.parametrize("piece", [1, 8, 32])
    @pytest.mark.parametrize(
        "tpos, controls",
        [
            ((0, 1), ()),  # leading block: contiguous pieces, uncopied
            ((0, 1), ((6, 1),)),  # control on the last qubit: strided pieces
            ((3,), ()),
            ((5, 2), ((0, 1), (4, 0))),
            ((6, 1, 3), ((4, 1),)),
        ],
    )
    def test_kernels_match_dense_operator_in_pieces(self, rng, monkeypatch, piece, tpos, controls):
        monkeypatch.setattr(_accel, "_PIECE", piece)
        m, dim = 7, 1 << len(tpos)
        for mat in (random_unitary(rng, dim), random_orthogonal(rng, dim)):
            amps = random_amps(rng, m)
            expected = dense_operator(mat, tpos, m, controls) @ amps
            _accel.apply_matrix(amps, mat, tpos, m, controls)
            np.testing.assert_allclose(amps, expected, atol=1e-12)
        u = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        u /= np.linalg.norm(u)
        amps = random_amps(rng, m)
        reflection = np.eye(dim) - 2.0 * np.outer(u, u.conj())
        expected = dense_operator(reflection, tpos, m, controls) @ amps
        _accel.reflect(amps, u, tpos, m, controls)
        np.testing.assert_allclose(amps, expected, atol=1e-12)

    @pytest.mark.parametrize("piece, size", [(8, 8), (2, 8)])  # targets alone exceed a piece of 2
    def test_pieces_tile_the_controlled_amplitudes(self, monkeypatch, piece, size):
        monkeypatch.setattr(_accel, "_PIECE", piece)
        amps = np.arange(1 << 7, dtype=np.complex128)
        parts = _accel._pieces(amps, (5, 2, 3), 7, ((0, 1),))
        assert all(p.size == size and np.shares_memory(p, amps) for p in parts)
        assert sorted(np.concatenate([p.ravel() for p in parts]).real) == list(range(64, 128))

    @pytest.mark.parametrize(
        "tpos, controls",
        [((0,), ()), ((17,), ((0, 0),)), ((9, 3), ((0, 1),))],  # contiguous, then strided
    )
    def test_temporaries_stay_piece_sized(self, rng, tpos, controls):
        m, dim = 18, 1 << len(tpos)
        amps = random_amps(rng, m)
        mat = random_unitary(rng, dim)
        u = mat[:, 0]
        tracemalloc.start()
        try:
            _accel.apply_matrix(amps, mat, tpos, m, controls)
            _accel.apply_matrix(amps, mat.real.copy(), tpos, m, controls)
            _accel.reflect(amps, u, tpos, m, controls)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _accel._PIECE * amps.itemsize < amps.nbytes / 2
