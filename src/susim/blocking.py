"""Index partitions, block access and class-local changes of basis.

A :class:`Partition` splits the index range ``0..n`` into contiguous ordered
classes.  The solver conjugates every matrix so that the structure it has
discovered so far is aligned with such a partition; cells of a matrix are
then submatrices ``m[rows_i, cols_j]``.  Similarity problems use one
partition for both axes, equivalence problems an independent row and column
partition.  A change of basis that is the identity outside some classes
touches only their rows and columns; :func:`apply_blocks` applies it so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch
from .linalg import Matrix, adjoint

__all__ = ["Partition", "submatrix", "cell_sums", "apply_blocks"]


@dataclass(frozen=True)
class Partition:
    """Ordered contiguous partition of ``range(total)`` into classes."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any((not isinstance(s, (int, np.integer))) or s <= 0 for s in self.sizes):
            raise ValueError(f"class sizes must be positive integers, got {self.sizes}")
        sizes = tuple(int(s) for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        acc = [0]
        for s in sizes:
            acc.append(acc[-1] + s)
        object.__setattr__(self, "offsets", tuple(acc))

    @classmethod
    def whole(cls, n: int) -> "Partition":
        """The trivial partition with a single class of size n."""
        return cls((n,))

    @property
    def total(self) -> int:
        return self.offsets[-1]

    @property
    def count(self) -> int:
        return len(self.sizes)

    def slice_of(self, i: int) -> slice:
        """Index slice of class ``i``."""
        return slice(self.offsets[i], self.offsets[i + 1])

    def refine(self, index: int, subsizes: Iterable[int]) -> "Partition":
        """Split class ``index`` into consecutive subclasses of ``subsizes``."""
        subsizes = tuple(int(s) for s in subsizes)
        if sum(subsizes) != self.sizes[index]:
            raise DimensionMismatch(
                f"subclass sizes {subsizes} do not sum to class size {self.sizes[index]}"
            )
        return Partition(self.sizes[:index] + subsizes + self.sizes[index + 1 :])


def submatrix(m: Matrix, rows: Partition, i: int, cols: Partition, j: int) -> Matrix:
    """Cell ``(i, j)`` of ``m`` under the row and column partitions."""
    ro, co = rows.offsets, cols.offsets
    if m.shape != (ro[-1], co[-1]):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match partitions ({ro[-1]}, {co[-1]})"
        )
    return m[ro[i] : ro[i + 1], co[j] : co[j + 1]]


def cell_sums(x: np.ndarray, rows: Partition, cols: Partition) -> np.ndarray:
    """The sum over every cell of ``x`` in one pass: a ``(m, n)`` array, or a
    stack ``(p, m, n)`` of them, gives ``(rows.count, cols.count)``, or
    ``(p, rows.count, cols.count)``, whose element ``[..., i, j]`` is the sum
    of cell ``(i, j)``."""
    ro, co = rows.offsets, cols.offsets
    if x.shape[-2:] != (ro[-1], co[-1]):
        raise DimensionMismatch(
            f"matrix shape {x.shape[-2:]} does not match partitions ({ro[-1]}, {co[-1]})"
        )
    return np.add.reduceat(np.add.reduceat(x, ro[:-1], axis=-2), co[:-1], axis=-1)


def apply_blocks(
    m: Matrix, partition: Partition, blocks: Mapping[int, Matrix], *, left: bool, right: bool
) -> Matrix:
    """``y m`` (``left``), ``m y*`` (``right``) or ``y m y*`` (both), where ``y``
    holds ``blocks[i]`` on class ``i`` and is the identity elsewhere.  Computes
    only those classes' rows and columns, into a copy: ``m`` is never written."""
    out = np.array(m, dtype=np.complex128)
    for i, blk in blocks.items():
        s = partition.sizes[i]
        if blk.shape != (s, s):
            raise DimensionMismatch(
                f"block for class {i} has shape {blk.shape}, expected ({s}, {s})"
            )
        sl = partition.slice_of(i)
        if left:
            out[sl] = blk @ out[sl]
        if right:
            out[:, sl] = out[:, sl] @ adjoint(blk)
    return out
