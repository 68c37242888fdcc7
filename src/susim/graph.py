"""Class graph, spanning forest and path products.

Once a collection passes the form scan, every nonzero square cell is a
scalar multiple of a unitary.  A cell whose scale is positive on both sides
defines an edge between two partition classes: between row classes ``i``
and ``j`` in similarity mode, between row class ``i`` and column class
``j`` in equivalence mode.  A cell that is zero on one side within
tolerance is no edge, since a path product through it would divide by a
zero scale.  Vertices are ``("row", i)`` / ``("col", j)`` pairs in both modes.

For every vertex ``v`` reachable from its component representative ``c``
the breadth-first forest yields a path product, the ordered product of
edge cells and inverse cells along the tree path.  It maps the space of
``v`` to the space of ``c`` and is itself a scalar multiple of a unitary
whose amplitude is tracked separately.  The products on the two sides have
the same edge descriptors, so any blockwise solution is forced, up to one
free unitary per component, to the ratio of the two path products.

:func:`check_pr` then conjugates every edge cell back to the representative
space, all cells of one matrix at once.  In a solvable instance every such
matrix must be a scalar multiple of the identity with the same scalar on
both sides; a non-scalar one drives the next refinement and a scalar
disagreement is a disproof.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .blocking import Partition, apply_blocks, submatrix
from .errors import InternalInconsistency
from .linalg import Matrix, Tolerances, adjoint
from .structure import PR_NORMAL, ScalarMismatch, Violation

__all__ = [
    "Vertex", "EdgeStep", "PathData", "PrReport", "vertex_key", "endpoints", "build_paths", "check_pr"
]

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


@dataclass(frozen=True)
class EdgeStep:
    """One factor of a path product: cell ``(l, i, j)``, possibly inverted."""

    l: int
    i: int
    j: int
    invert: bool


PrPaths = tuple[tuple[EdgeStep, ...], tuple[EdgeStep, ...]]


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


@dataclass(frozen=True)
class PrReport:
    """Outcome of conjugating every edge cell to its representative space."""

    status: str
    violation: Violation | None = None
    mismatch: ScalarMismatch | None = None
    betas: dict[tuple[int, int, int], complex] = field(default_factory=dict)


def _vertex_size(v: Vertex, rows: Partition, cols: Partition) -> int:
    return rows.sizes[v[1]] if v[0] == "row" else cols.sizes[v[1]]


def build_paths(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    scales_a: dict[tuple[int, int, int], float],
    scales_b: dict[tuple[int, int, int], float],
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

    witness: dict[tuple[Vertex, Vertex], tuple[int, int, int]] = {}
    adjacency: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
    for (l, i, j) in scales_a:
        u, w = endpoints(mode, i, j)
        ekey = (u, w) if vertex_key(u) <= vertex_key(w) else (w, u)
        if ekey not in witness:
            witness[ekey] = (l, i, j)
            adjacency[u].append(w)
            adjacency[w].append(u)
    for v in adjacency:
        adjacency[v] = sorted(set(adjacency[v]), key=vertex_key)

    components: list[tuple[Vertex, ...]] = []
    rep_of: dict[Vertex, Vertex] = {}
    paths_a: dict[Vertex, Matrix] = {}
    paths_b: dict[Vertex, Matrix] = {}
    amps_a: dict[Vertex, float] = {}
    amps_b: dict[Vertex, float] = {}
    steps_to: dict[Vertex, tuple[EdgeStep, ...]] = {}

    for start in sorted(vertices, key=vertex_key):
        if start in rep_of:
            continue
        size = _vertex_size(start, rows, cols)
        rep_of[start] = start
        paths_a[start] = np.eye(size, dtype=np.complex128)
        paths_b[start] = np.eye(size, dtype=np.complex128)
        amps_a[start] = amps_b[start] = 1.0
        steps_to[start] = ()
        comp = [start]
        queue = deque([start])
        while queue:
            q = queue.popleft()
            for v in adjacency[q]:
                if v in rep_of:
                    continue
                ekey = (q, v) if vertex_key(q) <= vertex_key(v) else (v, q)
                l, wi, wj = witness[ekey]
                row_end, col_end = endpoints(mode, wi, wj)
                cell_a = submatrix(a_mats[l], rows, wi, cols, wj)
                cell_b = submatrix(b_mats[l], rows, wi, cols, wj)
                ra, rb = scales_a[(l, wi, wj)], scales_b[(l, wi, wj)]
                if q == row_end and v == col_end:
                    paths_a[v] = paths_a[q] @ cell_a
                    paths_b[v] = paths_b[q] @ cell_b
                    amps_a[v] = amps_a[q] * np.sqrt(ra)
                    amps_b[v] = amps_b[q] * np.sqrt(rb)
                    step = EdgeStep(l, wi, wj, invert=False)
                elif q == col_end and v == row_end:
                    paths_a[v] = paths_a[q] @ adjoint(cell_a) / ra
                    paths_b[v] = paths_b[q] @ adjoint(cell_b) / rb
                    amps_a[v] = amps_a[q] / np.sqrt(ra)
                    amps_b[v] = amps_b[q] / np.sqrt(rb)
                    step = EdgeStep(l, wi, wj, invert=True)
                else:
                    raise InternalInconsistency("edge endpoints disagree with adjacency")
                rep_of[v] = start
                steps_to[v] = steps_to[q] + (step,)
                comp.append(v)
                queue.append(v)
        components.append(tuple(sorted(comp, key=vertex_key)))
    return PathData(components, rep_of, paths_a, paths_b, amps_a, amps_b, steps_to)


def _cell_sums(x: np.ndarray, rows: Partition, cols: Partition) -> np.ndarray:
    """Per-cell sums of a stacked ``(p, m, n)`` array, shape ``(p, rows.count, cols.count)``."""
    return np.add.reduceat(np.add.reduceat(x, rows.offsets[:-1], axis=1), cols.offsets[:-1], axis=2)


def _scalar_cells(x: np.ndarray, rows: Partition, cols: Partition, tol: Tolerances):
    """Trace scalar ``alpha`` of every square cell of a stacked ``(p, m, n)``
    array, and whether the cell is ``alpha * I`` within ``cmp * (1 + own norm)``
    as :func:`~susim.linalg.identity_multiple` tests it.  The residual is the
    norm of the difference itself: ``‖X‖² - s|alpha|²`` cancels above ``cmp``."""
    local_r = np.arange(rows.total) - np.repeat(rows.offsets[:-1], rows.sizes)
    local_c = np.arange(cols.total) - np.repeat(cols.offsets[:-1], cols.sizes)
    diag = local_r[:, None] == local_c[None, :]
    alpha = _cell_sums(x * diag, rows, cols) / np.asarray(rows.sizes)[:, None]
    diff = x - np.repeat(np.repeat(alpha, rows.sizes, axis=1), cols.sizes, axis=2) * diag
    residual = np.sqrt(_cell_sums(np.abs(diff) ** 2, rows, cols))
    return alpha, residual <= tol.cmp * (1.0 + np.sqrt(_cell_sums(np.abs(x) ** 2, rows, cols)))


def check_pr(
    a_mats: list[Matrix],
    b_mats: list[Matrix],
    rows: Partition,
    cols: Partition,
    mode: str,
    scales_a: dict[tuple[int, int, int], float],
    paths: PathData,
    tol: Tolerances,
) -> PrReport:
    """Test every edge cell conjugated to its representative space.

    Each cell must become a scalar multiple of the identity with matching
    scalars on both sides.  Every matrix is transported once per side, the
    row classes by their path products and the column classes by their
    inverses, so that cell ``(i, j)`` of the result is the holonomy of edge
    ``(l, i, j)``; all edge cells are then tested together.  The first
    failing cell in scan order is either a refinement driver (non-scalar, a
    normal matrix on the representative space, carried with its B-side
    partner) or a scalar disproof; both carry the edge steps of the cell's
    two path products.
    """
    if not scales_a:
        return PrReport("ok")
    row_vs = [("row", i) for i in range(rows.count)]
    col_vs = row_vs if mode == "sus" else [("col", j) for j in range(cols.count)]
    edges = list(scales_a)
    at = tuple(np.array(edges, dtype=np.intp).T)
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
    x_b = holonomies(b_mats, paths.paths_b, paths.amps_b)
    alpha_a, scalar_a = _scalar_cells(x_a, rows, cols, tol)
    alpha_b, scalar_b = _scalar_cells(x_b, rows, cols, tol)
    beta_a, beta_b = alpha_a[at], alpha_b[at]
    scalar = scalar_a[at] & scalar_b[at]
    close = np.abs(beta_a - beta_b) <= tol.cmp * np.maximum(np.abs(beta_a), np.abs(beta_b))
    failing = ~(scalar & close)
    if not failing.any():
        return PrReport("ok", betas=dict(zip(edges, beta_a.tolist())))
    k = int(np.argmax(failing))
    l, i, j = edges[k]
    pr_paths = paths.cell_paths(mode, i, j)
    if not scalar[k]:
        # Copies: a view would keep both stacked arrays alive with the violation.
        pr_a = submatrix(x_a[l], rows, i, cols, j).copy()
        pr_b = submatrix(x_b[l], rows, i, cols, j).copy()
        v = Violation(PR_NORMAL, (l, i, j), paths.rep_of[("row", i)], pr_a, pr_b, pr_paths=pr_paths)
        return PrReport("violation", violation=v)
    mm = ScalarMismatch("pr_beta", (l, i, j), complex(beta_a[k]), complex(beta_b[k]), pr_paths)
    return PrReport("mismatch", mismatch=mm)
