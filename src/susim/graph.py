"""Class graph, spanning forest and path products.

Once a collection passes the form scan, every nonzero square cell is a
scalar multiple of a unitary.  A cell whose scale is positive on both sides
defines an edge between two partition classes: between row classes ``i``
and ``j`` in similarity mode, between row class ``i`` and column class
``j`` in equivalence mode.  A cell that is zero on one side within
tolerance is no edge, since a path product through it would divide by a
zero scale.  Vertices are numbered by class: row class ``i`` is vertex
``i`` and column class ``j`` is vertex ``col0 + j``, where ``col0`` is 0 in
similarity mode (one partition serves both axes) and the row class count
in equivalence mode, so rows come first in ascending vertex order.  Only
documents and touches name a vertex by its ``("row", i)`` / ``("col", j)``
pair (:meth:`PathData.vertex`).

Each edge is stored once, as the :class:`~susim.model.EdgeStep` that
crosses it from either end: its witness cell from the row end, inverted
from the column end; certificates record paths of these steps as their
:data:`~susim.model.PrPaths`.  For every vertex ``v`` reachable from its component representative
``c`` the breadth-first forest yields a path, its parent's path plus the
step across their tree edge, and a path product, the ordered product of
edge cells and inverse cells along it.  It maps the space of ``v`` to the
space of ``c`` and is itself a scalar multiple of a unitary whose amplitude
is tracked separately.  The products on the two sides have the same edge
descriptors, so any blockwise solution is forced, up to one free unitary
per component, to the ratio of the two path products.

:func:`check_pr` then conjugates every edge cell back to the representative
space, all cells of one matrix at once.  In a solvable instance every such
matrix must be a scalar multiple of the identity with the same scalar on
both sides, and the check returns these holonomy scalars by edge; otherwise
it returns the first failing edge, a non-scalar one as the
:class:`~susim.structure.Violation` that drives the next refinement and a
scalar disagreement as the :class:`~susim.structure.ScalarMismatch` that
disproves the instance.  Both read edges, the nonzero cells of the form's
scale array, in array order, which is scan order.  When every B-side matrix
is its A-side matrix itself, the B side's path products and holonomies are
the A side's, computed once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .blocking import Partition, apply_blocks, cell_sums, submatrix
from .errors import InternalInconsistency
from .linalg import Matrix, Tolerances, adjoint
from .model import PR_NORMAL, EdgeStep, PrPaths
from .structure import ScalarMismatch, Violation

__all__ = ["PathData", "build_paths", "check_pr"]


@dataclass
class PathData:
    """Spanning forest with per-vertex path products on both sides.

    Vertex ``i`` is row class ``i`` and vertex ``col0 + j`` is column class
    ``j``; every list is indexed by vertex.
    """

    col0: int
    components: list[tuple[int, ...]]
    rep: list[int]
    paths_a: list[Matrix]
    paths_b: list[Matrix]
    amps_a: list[float]
    amps_b: list[float]
    steps_to: list[tuple[EdgeStep, ...]]

    def vertex(self, v: int) -> tuple[str, int]:
        """Vertex ``v`` as documents name it: ``("row", i)`` or ``("col", j)``."""
        return ("col", v - self.col0) if 0 < self.col0 <= v else ("row", v)

    def cell_paths(self, i: int, j: int) -> PrPaths:
        """Edge steps from the row and the column endpoint of cell (i, j)."""
        return self.steps_to[i], self.steps_to[self.col0 + j]


def build_paths(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    scales_a: np.ndarray,
    scales_b: np.ndarray,
) -> PathData:
    """Breadth-first forest over the class graph with path products.

    Components are explored from the smallest unvisited vertex, neighbours
    in ascending vertex order, so the representative of each component is
    its smallest vertex and the whole construction is deterministic.  The
    witness of an edge is its first nonzero cell in scan order.
    """
    col0 = 0 if mode == "sus" else rows.count
    sizes = rows.sizes[:col0] + cols.sizes
    count = len(sizes)

    # The witness of an edge is its first cell in scan order; in similarity
    # mode, cells (l, i, j) and (l', j, i) lie on the same edge.
    cells = np.argwhere(scales_a)
    ends = np.stack([cells[:, 1], col0 + cells[:, 2]])
    _, firsts = np.unique(ends.min(axis=0) * count + ends.max(axis=0), return_index=True)
    witness, ends = cells[firsts].tolist(), ends[:, firsts]
    # Step s crosses edge s % w, from its row end if s < w and inverted from
    # its column end otherwise; by (from, to), q's steps are
    # ranked[bounds[q]:bounds[q + 1]].  Only the forest's steps become
    # EdgeStep objects.
    w = len(witness)
    frm, to = np.concatenate([ends, ends[::-1]], axis=1)
    ranked = np.lexsort((to, frm))
    bounds = np.searchsorted(frm[ranked], np.arange(count + 1)).tolist()
    to, ranked = to[ranked].tolist(), ranked.tolist()

    components: list[tuple[int, ...]] = []
    rep = [-1] * count
    parent = [-1] * count
    steps_to: list[tuple[EdgeStep, ...]] = [()] * count
    order: list[int] = []  # breadth-first: every parent before its children
    for start in range(count):
        if rep[start] >= 0:
            continue
        rep[start] = start
        first = k = len(order)
        order.append(start)
        # order[k:] is the queue; once every vertex is in order, no step can
        # reach a new one.
        while k < len(order) < count:
            q, k = order[k], k + 1
            for e in range(bounds[q], bounds[q + 1]):
                v = to[e]
                if rep[v] < 0:
                    s = ranked[e]
                    rep[v], parent[v] = start, q
                    steps_to[v] = steps_to[q] + (EdgeStep(*witness[s % w], s >= w),)
                    order.append(v)
        components.append(tuple(sorted(order[first:])))

    def products(mats: list[Matrix], scales: np.ndarray):
        """Path products and amplitudes of one side, in breadth-first order."""
        prods: list[Matrix] = [None] * count
        amps = [1.0] * count
        for v in order:
            q = parent[v]
            if q < 0:
                prods[v] = np.eye(sizes[v], dtype=np.complex128)
                continue
            e = steps_to[v][-1]
            cell, r = submatrix(mats[e.l], rows, e.i, cols, e.j), scales[e.l, e.i, e.j]
            if e.invert:
                prods[v] = prods[q] @ adjoint(cell) / r
                amps[v] = amps[q] / np.sqrt(r)
            else:
                prods[v] = prods[q] @ cell
                amps[v] = amps[q] * np.sqrt(r)
        return prods, amps

    paths_a, amps_a = products(a_mats, scales_a)
    shared = all(map(operator.is_, b_mats, a_mats))
    paths_b, amps_b = (paths_a, amps_a) if shared else products(b_mats, scales_b)
    return PathData(col0, components, rep, paths_a, paths_b, amps_a, amps_b, steps_to)


def _scalar_cells(x: np.ndarray, rows: Partition, cols: Partition, tol: Tolerances):
    """Trace scalar ``alpha`` of every square cell of a stacked ``(p, m, n)``
    array, and whether the cell is ``alpha * I`` within ``cmp * (1 + own norm)``
    as :func:`~susim.linalg.identity_multiple` tests it.  The residual is the
    norm of the difference itself: ``‖X‖² - s|alpha|²`` cancels above ``cmp``."""
    local_r = np.arange(rows.total) - np.repeat(rows.offsets[:-1], rows.sizes)
    local_c = np.arange(cols.total) - np.repeat(cols.offsets[:-1], cols.sizes)
    diag = local_r[:, None] == local_c[None, :]
    alpha = cell_sums(x * diag, rows, cols) / np.asarray(rows.sizes)[:, None]
    diff = x - np.repeat(np.repeat(alpha, rows.sizes, axis=1), cols.sizes, axis=2) * diag
    residual = np.sqrt(cell_sums(np.abs(diff) ** 2, rows, cols))
    return alpha, residual <= tol.cmp * (1.0 + np.sqrt(cell_sums(np.abs(x) ** 2, rows, cols)))


def check_pr(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    scales_a: np.ndarray,
    paths: PathData,
    tol: Tolerances,
) -> np.ndarray | Violation | ScalarMismatch:
    """Test every edge cell conjugated to its representative space.

    Each cell must become a scalar multiple of the identity with matching
    scalars on both sides.  Every matrix is transported once per side, the
    row classes by their path products and the column classes by their
    inverses, so that cell ``(i, j)`` of the result is the holonomy of edge
    ``(l, i, j)``; all edge cells are then tested together.  Returns the
    A-side holonomy scalars of the edges, the nonzero cells of
    ``scales_a`` in array order, when all pass.  Otherwise the first
    failing cell in scan order is returned, either a refinement driver
    (non-scalar, a normal matrix on the representative space, carried with
    its B-side partner) or a scalar disproof; both carry the edge steps of
    the cell's two path products.
    """
    at = np.nonzero(scales_a)
    if not at[0].size:  # transporting every matrix would test nothing
        return np.zeros(0, dtype=np.complex128)
    col0, rep = paths.col0, np.asarray(paths.rep)
    if np.any(rep[at[1]] != rep[col0 + at[2]]):
        raise InternalInconsistency("edge spans two components")

    def holonomies(mats: list[Matrix], prods: list[Matrix], amps: list[float]):
        left = dict(enumerate(prods[: rows.count]))
        right = {j: p / a ** 2 for j, (p, a) in enumerate(zip(prods[col0:], amps[col0:]))}
        carried = [apply_blocks(m, rows, left, left=True, right=False) for m in mats]
        return np.stack([apply_blocks(m, cols, right, left=False, right=True) for m in carried])

    x_a = holonomies(a_mats, paths.paths_a, paths.amps_a)
    alpha_a, scalar_a = _scalar_cells(x_a, rows, cols, tol)
    if paths.paths_b is paths.paths_a:
        x_b, alpha_b, scalar_b = x_a, alpha_a, scalar_a
    else:
        x_b = holonomies(b_mats, paths.paths_b, paths.amps_b)
        alpha_b, scalar_b = _scalar_cells(x_b, rows, cols, tol)
    beta_a, beta_b = alpha_a[at], alpha_b[at]
    scalar = scalar_a[at] & scalar_b[at]
    close = np.abs(beta_a - beta_b) <= tol.cmp * np.maximum(np.abs(beta_a), np.abs(beta_b))
    failing = ~(scalar & close)
    if not failing.any():
        return beta_a
    k = int(np.argmax(failing))
    l, i, j = (int(x[k]) for x in at)
    pr_paths = paths.cell_paths(i, j)
    if not scalar[k]:
        # Copies: a view would keep both stacked arrays alive with the violation.
        pr_a = submatrix(x_a[l], rows, i, cols, j).copy()
        pr_b = pr_a if x_b is x_a else submatrix(x_b[l], rows, i, cols, j).copy()
        touch = paths.vertex(paths.rep[i])
        return Violation(PR_NORMAL, (l, i, j), touch, pr_a, pr_b, pr_paths=pr_paths)
    return ScalarMismatch("pr_beta", (l, i, j), complex(beta_a[k]), complex(beta_b[k]), pr_paths)
