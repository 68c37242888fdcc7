"""Partition arithmetic, block slicing and class-local changes of basis.

:func:`blockdiag` is the dense identity-padded reference for
:func:`~susim.blocking.apply_blocks`; the refinement tests use it too.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susim.blocking import Partition, apply_blocks, cell_sums, submatrix
from susim.errors import DimensionMismatch
from susim.instances import random_unitary


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
        with pytest.raises(DimensionMismatch):
            cell_sums(np.ones((2, 3, 3)), Partition((3,)), Partition((1, 1)))

    def test_cell_sums_are_the_sums_of_the_submatrices(self):
        stack = np.arange(60, dtype=complex).reshape(2, 5, 6) * (1 - 2j)
        rows, cols = Partition((1, 2, 2)), Partition((3, 1, 2))
        sums = cell_sums(stack, rows, cols)
        assert sums.shape == (2, 3, 3)
        for l, i, j in itertools.product(range(2), range(3), range(3)):
            assert sums[l, i, j] == submatrix(stack[l], rows, i, cols, j).sum()
            assert cell_sums(stack[l], rows, cols)[i, j] == sums[l, i, j]


def blockdiag(partition, blocks):
    """Dense n x n matrix with the given per-class blocks, identity elsewhere."""
    y = np.eye(partition.total, dtype=complex)
    for i, blk in blocks.items():
        sl = partition.slice_of(i)
        y[sl, sl] = blk
    return y


def reference(m, partition, blocks, left, right):
    """``y m``, ``m y*`` or ``y m y*`` through the dense ``y``."""
    y = blockdiag(partition, blocks)
    out = y @ m if left else m
    return out @ y.conj().T if right else out


class TestApplyBlocks:
    def test_no_blocks_is_identity(self):
        m = np.arange(16, dtype=complex).reshape(4, 4)
        out = apply_blocks(m, Partition((2, 2)), {}, left=True, right=True)
        assert np.array_equal(out, m)
        assert out is not m

    def test_touches_only_the_class(self):
        p = Partition((1, 2))
        m = np.arange(9, dtype=complex).reshape(3, 3)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        out = apply_blocks(m, p, {1: swap}, left=True, right=True)
        assert np.array_equal(out, m[[0, 2, 1]][:, [0, 2, 1]])
        assert np.array_equal(out, reference(m, p, {1: swap}, True, True))

    def test_rejects_wrong_block_shape(self):
        with pytest.raises(DimensionMismatch):
            apply_blocks(np.eye(4), Partition((2, 2)), {0: np.eye(3)}, left=True, right=False)


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

    @settings(max_examples=80, deadline=None)
    @given(partitions(), st.data())
    def test_apply_blocks_matches_dense_reference(self, p, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        classes = data.draw(st.sets(st.integers(0, p.count - 1)))
        left, right = data.draw(st.sampled_from([(True, False), (False, True), (True, True)]))
        other = data.draw(st.integers(1, 5))
        shape = (p.total if left else other, p.total if right else other)
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = m.copy()
        blocks = {i: random_unitary(p.sizes[i], rng) for i in sorted(classes)}
        got = apply_blocks(m, p, blocks, left=left, right=right)
        assert np.allclose(got, reference(m, p, blocks, left, right), atol=1e-12)
        assert np.array_equal(m, before)
