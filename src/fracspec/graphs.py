"""Weighted undirected graphs and Cartesian products.

Graphs here are plain dense adjacency matrices: symmetric, nonnegative, zero
diagonal. Factor graphs (a spatial graph and a temporal graph) are combined
through the Kronecker sum ``A1 (+) A2 = A1 x I + I x A2`` under lexicographic
vertex order; the product adjacency is only ever materialized for validation
at small sizes, since all downstream transforms act separably on the factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError

__all__ = [
    "Graph",
    "path_graph",
    "knn_graph",
    "cartesian_product",
]

#: largest graph whose dense adjacency may be materialized: a product graph's
#: Kronecker sum, or a factor that a graph spec asks for, whether its size is
#: given or read from a file or a list of points
MATERIALIZE_CAP = 4096


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with a dense adjacency matrix.

    The adjacency is symmetrized exactly at construction ((A + A^T)/2, which
    is bitwise symmetric in IEEE arithmetic); nonnegativity, zero diagonal and
    finiteness are validated.
    """

    adjacency: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphError(f"adjacency must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise GraphError("graph needs at least one node")
        if not np.all(np.isfinite(a)):
            raise GraphError("adjacency contains non-finite entries")
        a = (a + a.T) / 2.0
        if np.any(a < 0):
            raise GraphError("adjacency entries must be nonnegative")
        if np.any(np.diag(a) != 0):
            raise GraphError("adjacency must have a zero diagonal (no self-loops)")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def path_graph(n: int) -> Graph:
    """Unit-weight path graph on ``n >= 2`` nodes.

    adjacency[i, i+1] = adjacency[i+1, i] = 1, all other entries zero.
    """
    if int(n) != n or n < 2:
        raise GraphError(f"path graph needs n >= 2 nodes, got {n}")
    n = int(n)
    a = np.zeros((n, n))
    i = np.arange(n - 1)
    a[i, i + 1] = 1.0
    a[i + 1, i] = 1.0
    return Graph(a, label=f"path({n})")


def knn_graph(points, k: int, label: str = "") -> Graph:
    """Unit-weight k-nearest-neighbor graph over coordinate vectors.

    Each node selects its ``k`` nearest neighbors (Euclidean metric); the
    directed relation is symmetrized by union, so an edge exists when either
    endpoint selects the other. Distance ties break toward the lower node
    index, which makes the construction fully deterministic.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Pairwise-distinct coordinate vectors.
    k : int
        Neighbors per node; requires ``k < n``.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if int(k) != k or k < 1 or k >= n:
        raise GraphError(f"k must satisfy 1 <= k < n = {n}, got {k}")
    k = int(k)

    # squared distances in row blocks, so the n x rows x d difference
    # temporary stays near 8 MiB whatever the dimension d
    d2 = np.empty((n, n))
    rows = max(1, (1 << 20) // max(1, n * pts.shape[1]))
    for lo in range(0, n, rows):
        diff = pts[lo:lo + rows, None, :] - pts[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=d2[lo:lo + rows])
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(d2[off_diag] == 0.0):
        i, j = np.argwhere((d2 == 0.0) & off_diag)[0]
        raise GraphError(f"duplicate points {i} and {j}: nearest-neighbor ties are ambiguous")

    a = np.zeros((n, n))
    idx = np.arange(n)
    for i in range(n):
        row = d2[i].copy()
        row[i] = np.inf
        # stable tie-break: sort by (distance, node index)
        order = np.lexsort((idx, row))[:k]
        a[i, order] = 1.0
    a = np.maximum(a, a.T)  # union symmetrization
    return Graph(a, label=label or f"knn(n={n},k={k})")


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product of two graphs: the Kronecker-sum adjacency in
    lexicographic vertex order ((1,1),(1,2),...), with ``g1`` the spatial and
    ``g2`` the temporal factor. Refused above ``MATERIALIZE_CAP`` nodes, since
    it is only needed for small-size validation."""
    if not isinstance(g1, Graph) or not isinstance(g2, Graph):
        raise GraphError("cartesian_product expects two Graph values")
    n = g1.n * g2.n
    if n > MATERIALIZE_CAP:
        raise GraphError(f"refusing to materialize a {n}x{n} product adjacency "
                         f"(cap {MATERIALIZE_CAP}); transforms operate on the factors")
    return Graph(np.kron(g1.adjacency, np.eye(g2.n)) + np.kron(np.eye(g1.n), g2.adjacency))
