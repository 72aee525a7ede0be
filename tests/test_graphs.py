import tracemalloc

import numpy as np
import pytest

from fracspec import (
    Graph,
    GraphError,
    cartesian_product,
    knn_graph,
    path_graph,
)


def brute_force_knn(points, k):
    """Independent oracle: all-pairs distances, per-node k smallest with
    lower-index tie break, union symmetrization."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    a = np.zeros((n, n))
    for i in range(n):
        cand = sorted(
            (float(np.sum((pts[i] - pts[j]) ** 2)), j) for j in range(n) if j != i
        )
        for _, j in cand[:k]:
            a[i, j] = 1.0
    return np.maximum(a, a.T)


class TestPathGraph:
    def test_three_nodes(self):
        want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(path_graph(3).adjacency, want)

    def test_two_nodes(self):
        assert np.array_equal(path_graph(2).adjacency, np.array([[0, 1], [1, 0.0]]))

    def test_single_node_rejected(self):
        with pytest.raises(GraphError):
            path_graph(1)


class TestKnnGraph:
    def test_three_collinear_points(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        g = knn_graph(pts, 1)
        assert np.array_equal(g.adjacency, brute_force_knn(pts, 1))
        # oracle result: the middle node breaks its distance tie to index 0
        want = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(g.adjacency, want)

    def test_k_equals_n_minus_1_is_complete(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = knn_graph(pts, 5)
        want = 1.0 - np.eye(6)
        assert np.array_equal(g.adjacency, want)

    def test_unit_square_k2_is_cycle(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]])
        g = knn_graph(pts, 2)
        assert np.array_equal(g.adjacency, brute_force_knn(pts, 2))
        assert g.adjacency[0, 2] == 0 and g.adjacency[1, 3] == 0  # no diagonals
        assert g.adjacency.sum() == 8  # 4 undirected edges

    def test_matches_brute_force_on_random_points(self, rng):
        pts = rng.uniform(size=(12, 3))
        for k in (1, 3, 5):
            assert np.array_equal(knn_graph(pts, k).adjacency, brute_force_knn(pts, k))

    def test_duplicate_points_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            knn_graph(np.array([[0.0], [0.0], [1.0]]), 1)

    def test_bad_k_rejected(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(GraphError):
            knn_graph(pts, 3)
        with pytest.raises(GraphError):
            knn_graph(pts, 0)

    def test_deterministic(self, rng):
        pts = rng.uniform(size=(15, 2))
        assert np.array_equal(knn_graph(pts, 4).adjacency, knn_graph(pts, 4).adjacency)

    @staticmethod
    def full_array_knn(pts, k):
        """The selection of ``knn_graph`` on distances from one n x n x d
        difference array: the reference for its row blocks."""
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        np.fill_diagonal(d2, np.inf)
        a = np.zeros_like(d2)
        for i, row in enumerate(d2):
            a[i, np.lexsort((np.arange(len(row)), row))[:k]] = 1.0
        return np.maximum(a, a.T)

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("d", [1, 2, 16, 64])
    def test_row_blocks_match_the_full_array(self, rng, n, d):
        # ties decide the graph, so the distances must agree to the bit. Grid
        # points at spacing 0.1 have many distances tied in exact arithmetic,
        # which another summation order (np.sum) breaks differently at d = 16
        grid = np.unique(rng.integers(0, 5, size=(4 * n, d)), axis=0)
        for pts in (rng.standard_normal((n, d)), 0.1 * rng.permutation(grid)[:n]):
            for k in (1, 4):
                assert np.array_equal(knn_graph(pts, k).adjacency, self.full_array_knn(pts, k))

    def test_memory_is_bounded_in_the_dimension(self, rng):
        # the n x n x d difference array of 500 points with 64 coordinates
        # would be 128 MB
        pts = rng.standard_normal((500, 64))
        tracemalloc.start()
        try:
            knn_graph(pts, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestGraphValidation:
    def test_symmetrization_is_exact(self, rng):
        a = rng.uniform(size=(7, 7))
        np.fill_diagonal(a, 0.0)
        g = Graph(a)
        assert np.linalg.norm(g.adjacency - g.adjacency.T) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([[0, -1], [-1, 0.0]]))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([[1, 0], [0, 0.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([[0, np.nan], [np.nan, 0]]))


class TestCartesianProduct:
    def test_path2_square_is_4cycle(self):
        prod = cartesian_product(path_graph(2), path_graph(2))
        want = np.array([
            [0, 1, 1, 0],
            [1, 0, 0, 1],
            [1, 0, 0, 1],
            [0, 1, 1, 0.0],
        ])
        assert np.array_equal(prod.adjacency, want)

    def test_single_node_factor(self):
        g1 = path_graph(3)
        trivial = Graph(np.zeros((1, 1)))
        prod = cartesian_product(g1, trivial)
        assert np.array_equal(prod.adjacency, g1.adjacency)

    def test_elementwise_definition(self, rng):
        a1 = rng.uniform(size=(3, 3))
        np.fill_diagonal(a1, 0.0)
        g1 = Graph(a1)
        a2 = rng.uniform(size=(2, 2))
        np.fill_diagonal(a2, 0.0)
        g2 = Graph(a2)
        prod = cartesian_product(g1, g2).adjacency
        for i1 in range(3):
            for i2 in range(2):
                for j1 in range(3):
                    for j2 in range(2):
                        want = g1.adjacency[i1, j1] * (i2 == j2) \
                            + (i1 == j1) * g2.adjacency[i2, j2]
                        assert prod[i1 * 2 + i2, j1 * 2 + j2] == want

    def test_materialization_cap(self):
        with pytest.raises(GraphError, match="cap"):
            cartesian_product(path_graph(100), path_graph(100))
