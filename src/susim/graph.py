"""Class graph, spanning forest and path products.

Once a collection passes the form scan, every nonzero square cell is a
scalar multiple of a unitary.  A cell whose scale is positive on both sides
defines an edge between two partition classes: between row classes ``i``
and ``j`` in similarity mode, between row class ``i`` and column class
``j`` in equivalence mode.  A cell that is zero on one side within
tolerance is no edge, since a path product through it would divide by a
zero scale.  Vertices are ``("row", i)`` / ``("col", j)`` pairs in both modes.

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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .blocking import Partition, apply_blocks, cell_sums, submatrix
from .errors import InternalInconsistency
from .linalg import Matrix, Tolerances, adjoint
from .model import PR_NORMAL, EdgeStep, PrPaths
from .structure import ScalarMismatch, Violation

__all__ = ["Vertex", "PathData", "vertex_key", "endpoints", "build_paths", "check_pr"]

Vertex = tuple[str, int]


def vertex_key(v: Vertex) -> tuple[int, int]:
    """Total order on vertices: row classes first, then column classes."""
    axis, idx = v
    return (0 if axis == "row" else 1, idx)


def endpoints(mode: str, i: int, j: int) -> tuple[Vertex, Vertex]:
    """Vertices joined by cell (i, j): (row endpoint, column endpoint).

    The column endpoint is row class ``j`` in similarity mode, where one
    partition serves both axes, and column class ``j`` in equivalence mode.
    """
    if mode == "sus":
        return ("row", i), ("row", j)
    return ("row", i), ("col", j)


@dataclass
class PathData:
    """Spanning forest with per-vertex path products on both sides."""

    components: list[tuple[Vertex, ...]]
    rep_of: dict[Vertex, Vertex]
    paths_a: dict[Vertex, Matrix]
    paths_b: dict[Vertex, Matrix]
    amps_a: dict[Vertex, float]
    amps_b: dict[Vertex, float]
    steps_to: dict[Vertex, tuple[EdgeStep, ...]]

    def cell_paths(self, mode: str, i: int, j: int) -> PrPaths:
        """Edge steps from the row and the column endpoint of cell (i, j)."""
        row_end, col_end = endpoints(mode, i, j)
        return self.steps_to[row_end], self.steps_to[col_end]


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
    vertices: list[Vertex] = [("row", i) for i in range(rows.count)]
    if mode == "sueq":
        vertices.extend(("col", j) for j in range(cols.count))

    # adjacency[q][v]: the fields (l, i, j, invert) of the step that crosses
    # edge {q, v} from q; only the forest's steps become EdgeStep objects.
    adjacency: dict[Vertex, dict[Vertex, tuple[int, int, int, bool]]] = {v: {} for v in vertices}
    for l, i, j in np.argwhere(scales_a).tolist():
        u, w = endpoints(mode, i, j)
        if w not in adjacency[u]:
            adjacency[u][w] = (l, i, j, False)
            adjacency[w][u] = (l, i, j, True)

    components: list[tuple[Vertex, ...]] = []
    rep_of: dict[Vertex, Vertex] = {}
    steps_to: dict[Vertex, tuple[EdgeStep, ...]] = {}
    parent: dict[Vertex, Vertex] = {}

    for start in sorted(vertices, key=vertex_key):
        if start in rep_of:
            continue
        rep_of[start] = start
        steps_to[start] = ()
        comp = [start]
        queue = deque([start])
        while queue:
            q = queue.popleft()
            for v in sorted(adjacency[q], key=vertex_key):
                if v in rep_of:
                    continue
                rep_of[v] = start
                parent[v] = q
                steps_to[v] = steps_to[q] + (EdgeStep(*adjacency[q][v]),)
                comp.append(v)
                queue.append(v)
        components.append(tuple(sorted(comp, key=vertex_key)))

    def products(mats: list[Matrix], scales: np.ndarray):
        """Path products and amplitudes of one side, in breadth-first order."""
        prods: dict[Vertex, Matrix] = {}
        amps: dict[Vertex, float] = {}
        for v, steps in steps_to.items():
            if not steps:
                size = (rows if v[0] == "row" else cols).sizes[v[1]]
                prods[v] = np.eye(size, dtype=np.complex128)
                amps[v] = 1.0
                continue
            q, e = parent[v], steps[-1]
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
    return PathData(components, rep_of, paths_a, paths_b, amps_a, amps_b, steps_to)


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
    mode: str,
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
    row_vs = [("row", i) for i in range(rows.count)]
    col_vs = row_vs if mode == "sus" else [("col", j) for j in range(cols.count)]
    comp = {v: k for k, c in enumerate(paths.components) for v in c}
    row_comp, col_comp = np.array([comp[v] for v in row_vs]), np.array([comp[v] for v in col_vs])
    if np.any(row_comp[at[1]] != col_comp[at[2]]):
        raise InternalInconsistency("edge spans two components")

    def holonomies(mats: list[Matrix], prods: dict[Vertex, Matrix], amps: dict[Vertex, float]):
        left = {i: prods[v] for i, v in enumerate(row_vs)}
        right = {j: prods[v] / amps[v] ** 2 for j, v in enumerate(col_vs)}
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
    pr_paths = paths.cell_paths(mode, i, j)
    if not scalar[k]:
        # Copies: a view would keep both stacked arrays alive with the violation.
        pr_a = submatrix(x_a[l], rows, i, cols, j).copy()
        pr_b = pr_a if x_b is x_a else submatrix(x_b[l], rows, i, cols, j).copy()
        touch = paths.rep_of[("row", i)]
        return Violation(PR_NORMAL, (l, i, j), touch, pr_a, pr_b, pr_paths=pr_paths)
    return ScalarMismatch("pr_beta", (l, i, j), complex(beta_a[k]), complex(beta_b[k]), pr_paths)
