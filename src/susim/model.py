"""Every type a susim document holds: instances, results, certificates and features.

An :class:`Instance` is two equally shaped tuples of complex matrices plus
the question being asked about them: ``"sus"`` for one unitary conjugating
every A matrix to its B partner, ``"sueq"`` for an independent unitary on
each side.  Solvers consume instances and produce a :class:`SolveResult`
that either carries the witness unitaries or a :class:`Certificate`, the
replayable refutation trail of :class:`RefinementStep` records.  The
canonical features of a collection are :class:`CanonicalFeatures`.  This
module imports only ``errors`` and ``linalg``: the loop, the codec, the
certificate checker and the oracles all take these types from here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, SpecInvalid
from .linalg import Matrix

__all__ = [
    "Instance", "Certificate", "SolveResult", "SOLVED", "NOT_SIMILAR", "FAILED",
    "HERM_REAL", "HERM_IMAG", "GRAM_LEFT", "GRAM_RIGHT", "PR_NORMAL",
    "EdgeStep", "PrPaths", "RefinementStep", "FeatureStep", "CanonicalFeatures",
]

SOLVED = "solved"
NOT_SIMILAR = "not_similar"
FAILED = "failed"

HERM_REAL = "herm_real"
HERM_IMAG = "herm_imag"
GRAM_LEFT = "gram_left"
GRAM_RIGHT = "gram_right"
PR_NORMAL = "pr_normal"

Groups = tuple[tuple[complex, int], ...]


@dataclass(frozen=True)
class EdgeStep:
    """One factor of a path product: cell ``(l, i, j)``, possibly inverted."""

    l: int
    i: int
    j: int
    invert: bool


PrPaths = tuple[tuple[EdgeStep, ...], tuple[EdgeStep, ...]]


@dataclass(frozen=True)
class RefinementStep:
    """Record of one refinement: the recipe plus both grouped spectra."""

    functional: str
    at: tuple[int, int, int]
    touch: tuple[str, int]
    groups_a: Groups
    groups_b: Groups
    pr_paths: PrPaths | None = None


@dataclass(frozen=True)
class FeatureStep:
    """One refinement of the self-paired run."""

    functional: str
    at: tuple[int, int, int]
    touch: tuple[str, int]
    rows_sizes: tuple[int, ...]
    cols_sizes: tuple[int, ...]
    groups: Groups


@dataclass(frozen=True, eq=False)
class CanonicalFeatures:
    """Full invariant trace of a collection.

    The values of the refined form are held as read-only arrays, each in
    scan order:

    * ``alphas``: complex, shape ``(count, classes)``, the diagonal scalar
      of each class in each matrix (``classes`` is 0 in equivalence mode);
    * ``edges``: int, shape ``(E, 3)``, the cell ``(l, i, j)`` of each edge;
    * ``scales``: float, shape ``(E,)``, the squared amplitude of each edge;
    * ``betas``: complex, shape ``(E,)``, the holonomy scalar of each edge.

    Two features are equal when every field is, arrays entry by entry.
    """

    mode: str
    shape: tuple[int, int]
    count: int
    steps: tuple[FeatureStep, ...]
    rows_sizes: tuple[int, ...]
    cols_sizes: tuple[int, ...]
    alphas: np.ndarray
    edges: np.ndarray
    scales: np.ndarray
    betas: np.ndarray
    components: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self) -> None:
        for name, dtype in _FEATURE_ARRAYS.items():
            view = np.asarray(getattr(self, name), dtype=dtype).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalFeatures):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            if f.name in _FEATURE_ARRAYS
            else getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
        )


_FEATURE_ARRAYS = {
    "alphas": np.complex128, "edges": np.intp, "scales": np.float64, "betas": np.complex128,
}


@dataclass(frozen=True)
class Instance:
    """A pair of matrix collections and the relation to decide."""

    mode: str
    a_mats: tuple[Matrix, ...]
    b_mats: tuple[Matrix, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("sus", "sueq"):
            raise SpecInvalid(f"unknown mode {self.mode!r}")
        if len(self.a_mats) != len(self.b_mats):
            raise DimensionMismatch(
                f"collection sizes differ: {len(self.a_mats)} vs {len(self.b_mats)}"
            )
        if not self.a_mats:
            raise SpecInvalid("empty collection")
        shape = self.a_mats[0].shape
        for m in (*self.a_mats, *self.b_mats):
            if m.ndim != 2 or m.shape != shape:
                raise DimensionMismatch(f"matrix of shape {m.shape}, expected {shape}")
        if 0 in shape:
            raise DimensionMismatch(f"matrices of shape {shape} hold no entry")
        if self.mode == "sus" and shape[0] != shape[1]:
            raise DimensionMismatch(
                f"similarity requires square matrices, got shape {shape}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.a_mats[0].shape

    @property
    def count(self) -> int:
        return len(self.a_mats)


@dataclass(frozen=True)
class Certificate:
    """Replayable evidence that no solution unitary exists.

    ``steps`` is the chain of refinements that forced any solution into an
    ever finer block-diagonal shape; the final entry explains the dead end:
    either two scalars that must agree (``kind "scalar"``, with the values)
    or two grouped spectra that must agree (``kind "eigenvalue"``, with the
    signatures).  ``pr_paths`` carries the edge descriptors needed to
    rebuild the path products when the final cell is a holonomy test.
    """

    mode: str
    kind: str
    target: str
    at: tuple[int, int, int]
    steps: tuple[RefinementStep, ...]
    iterations: int
    a_value: complex | None = None
    b_value: complex | None = None
    groups_a: tuple[tuple[complex, int], ...] | None = None
    groups_b: tuple[tuple[complex, int], ...] | None = None
    pr_paths: PrPaths | None = None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a decision run.

    ``status`` is ``"solved"`` with witnesses and the verified residual,
    ``"not_similar"`` with a certificate, or ``"failed"`` when the instance
    sits too close to the tolerance boundary to decide either way.
    """

    status: str
    mode: str
    iterations: int
    u: Matrix | None = None
    v: Matrix | None = None
    certificate: Certificate | None = None
    residual: float | None = None
    message: str = ""
