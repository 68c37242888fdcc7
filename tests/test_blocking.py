"""Partition arithmetic and block slicing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.blocking import Partition, assemble_blockdiag, submatrix
from susim.errors import DimensionMismatch


class TestPartition:
    def test_whole(self):
        p = Partition.whole(5)
        assert p.sizes == (5,)
        assert p.total == 5
        assert p.count == 1
        assert p.slice_of(0) == slice(0, 5)

    def test_offsets(self):
        p = Partition((2, 3, 1))
        assert p.offsets == (0, 2, 5, 6)
        assert p.slice_of(1) == slice(2, 5)
        assert p.total == 6

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Partition((2, 0, 1))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_refine_middle_class(self):
        p = Partition((2, 4, 1)).refine(1, (3, 1))
        assert p.sizes == (2, 3, 1, 1)
        assert p.total == 7

    def test_refine_must_preserve_size(self):
        with pytest.raises(DimensionMismatch):
            Partition((2, 4)).refine(1, (2, 1))

    def test_equality_by_sizes(self):
        assert Partition((1, 2)) == Partition((1, 2))
        assert Partition((1, 2)) != Partition((2, 1))


class TestSubmatrix:
    def test_square_cells(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        p = Partition((1, 3))
        assert submatrix(m, p, 0, p, 0).shape == (1, 1)
        assert submatrix(m, p, 0, p, 1).shape == (1, 3)
        assert np.array_equal(submatrix(m, p, 1, p, 1), m[1:, 1:])

    def test_rectangular_cells(self):
        m = np.arange(6, dtype=complex).reshape(2, 3)
        rows, cols = Partition((2,)), Partition((1, 2))
        assert np.array_equal(submatrix(m, rows, 0, cols, 1), m[:, 1:])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            submatrix(np.eye(3), Partition((2,)), 0, Partition((3,)), 0)


class TestAssembleBlockdiag:
    def test_identity_default(self):
        p = Partition((2, 2))
        u = assemble_blockdiag(p, {})
        assert np.array_equal(u, np.eye(4))

    def test_places_blocks(self):
        p = Partition((1, 2))
        blk = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        u = assemble_blockdiag(p, {1: blk})
        assert u[0, 0] == 1.0
        assert np.array_equal(u[1:, 1:], blk)
        assert np.count_nonzero(u[0, 1:]) == 0

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(DimensionMismatch):
            assemble_blockdiag(Partition((2, 2)), {0: np.eye(3)})

    def test_blockdiag_of_unitaries_is_unitary(self):
        rng = np.random.default_rng(0)
        p = Partition((2, 3))
        blocks = {}
        for i, s in enumerate(p.sizes):
            z = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
            q, r = np.linalg.qr(z)
            blocks[i] = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        u = assemble_blockdiag(p, blocks)
        assert np.allclose(u @ u.conj().T, np.eye(5))


@st.composite
def partitions(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    return Partition(tuple(sizes))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(partitions())
    def test_slices_tile_the_range(self, p):
        covered = []
        for i in range(p.count):
            sl = p.slice_of(i)
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(p.total))

    @settings(max_examples=50, deadline=None)
    @given(partitions(), st.data())
    def test_refine_preserves_total_and_prefix(self, p, data):
        idx = data.draw(st.integers(min_value=0, max_value=p.count - 1))
        size = p.sizes[idx]
        if size == 1:
            subs = [1]
        else:
            cut = data.draw(st.integers(min_value=1, max_value=size - 1))
            subs = [cut, size - cut]
        q = p.refine(idx, subs)
        assert q.total == p.total
        assert q.sizes[:idx] == p.sizes[:idx]
        assert q.sizes[idx + len(subs) :] == p.sizes[idx + 1 :]
