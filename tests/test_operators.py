import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import (
    DecompositionError,
    Graph,
    NotUnitaryError,
    TransformPlan,
    dfrft_matrix,
    eigendecompose,
    gft_matrix,
    graph_frft,
    knn_graph,
    path_graph,
    random_planar_points,
    unitarity_error,
    unitary_fractional_power,
)

from oracles import complex_forward, conjugated_inverse, eigenphase_power, real_schur_eigenpairs

SQRT2 = np.sqrt(2.0)


def dft(n):
    m = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)


def cycle_graph(n):
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = 1.0
    a[(i - 1) % n, i] = 1.0
    return Graph(a)


class TestEigendecompose:
    def test_path2(self):
        b = eigendecompose(path_graph(2))
        assert np.allclose(b.lam, [1.0, -1.0])
        assert np.allclose(b.v, np.array([[1, 1], [1, -1.0]]) / SQRT2)

    def test_empty_graph(self):
        b = eigendecompose(Graph(np.zeros((4, 4))))
        assert np.array_equal(b.lam, np.zeros(4))
        assert np.array_equal(b.v, np.eye(4))

    def test_path3_spectrum(self):
        # roots of lam^3 - 2 lam = 0
        b = eigendecompose(path_graph(3))
        assert np.allclose(b.lam, [SQRT2, 0.0, -SQRT2], atol=1e-12)

    def test_descending_order_and_reconstruction(self, rng):
        a = rng.uniform(size=(9, 9))
        np.fill_diagonal(a, 0.0)
        g = Graph(a)
        b = eigendecompose(g)
        assert np.all(np.diff(b.lam) <= 1e-12)
        assert np.linalg.norm((b.v * b.lam) @ b.v.T - g.adjacency) <= 1e-9 * np.linalg.norm(g.adjacency)
        assert unitarity_error(b.v.astype(complex)) <= 1e-10 * b.n

    def test_sign_convention(self, rng):
        a = rng.uniform(size=(6, 6))
        np.fill_diagonal(a, 0.0)
        b = eigendecompose(Graph(a))
        for k in range(6):
            col = b.v[:, k]
            assert col[int(np.argmax(np.abs(col)))] > 0


class TestGftMatrix:
    def test_path2(self):
        f = gft_matrix(eigendecompose(path_graph(2)))
        assert np.allclose(f.matrix, np.array([[1, 1], [1, -1]]) / SQRT2)

    def test_fg_times_v_is_identity(self, rng):
        a = rng.uniform(size=(7, 7))
        np.fill_diagonal(a, 0.0)
        b = eigendecompose(Graph(a))
        assert np.allclose(gft_matrix(b).matrix @ b.v, np.eye(7), atol=1e-12)

    def test_constant_signal_concentrates_on_top_mode(self):
        # 4-cycle is regular: its top adjacency eigenvector is constant
        b = eigendecompose(cycle_graph(4))
        coeffs = gft_matrix(b).matrix @ np.ones(4)
        assert abs(coeffs[0]) == pytest.approx(2.0)
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)


class TestUnitaryFractionalPower:
    def test_identity_any_order(self):
        for a in (-1.5, 0.0, 0.3, 2.0):
            out = unitary_fractional_power(np.eye(5), a)
            assert np.allclose(out.matrix, np.eye(5), atol=1e-12)

    def test_phase_doubling(self):
        u = np.diag([1j, -1j])
        out = unitary_fractional_power(u, 2.0)
        assert np.allclose(out.matrix, -np.eye(2), atol=1e-12)

    def test_hadamard_half_power_against_analytic_oracle(self):
        # 2x2 analytic eigendecomposition of the symmetric orthogonal GFT of
        # path(2): eigenvalues +-1, eigenvectors at angle pi/8. Half power is
        # v+ v+^T + j v- v-^T with cos^2 = (2+sqrt2)/4, sin^2 = (2-sqrt2)/4,
        # cos*sin = sqrt2/4.
        c2 = (2 + SQRT2) / 4
        s2 = (2 - SQRT2) / 4
        cs = SQRT2 / 4
        want = np.array([
            [c2 + 1j * s2, cs - 1j * cs],
            [cs - 1j * cs, s2 + 1j * c2],
        ])
        u = gft_matrix(eigendecompose(path_graph(2))).matrix
        out = unitary_fractional_power(u, 0.5)
        assert np.allclose(out.matrix, want, atol=1e-12)
        assert np.allclose(out.matrix @ out.matrix, u, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            unitary_fractional_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(NotUnitaryError):
            unitary_fractional_power(np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.5)

    def test_branch_cut_eigenspace_remix_invariance(self, rng):
        # exact -1 eigenvalue with multiplicity 2: remixing its eigenvectors
        # must leave the fractional power unchanged
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        d = np.exp(1j * np.array([np.pi, np.pi, 1.0, -0.5, -0.5, 2.7]))
        mix, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        q2 = q.copy()
        q2[:, :2] = q2[:, :2] @ mix
        u1 = (q * d) @ q.conj().T
        u2 = (q2 * d) @ q2.conj().T
        p1 = unitary_fractional_power(u1, 0.3)
        p2 = unitary_fractional_power(u2, 0.3)
        assert np.abs(p1.matrix - p2.matrix).max() <= 1e-8 * 6


class TestPrincipalBranch:
    @pytest.mark.parametrize("n", [30, 128])
    def test_minus_one_eigenvalue_of_a_basis_is_plus_pi(self, n):
        # det V = -1: V^T has one exact -1 eigenvalue, on the branch +pi
        basis = eigendecompose(knn_graph(random_planar_points(n, seed=7), 4))
        assert np.linalg.det(basis.v) == pytest.approx(-1.0)
        theta = basis.fourier_phase_decomposition[0]
        assert theta[0] == np.pi and theta[1] < np.pi - 1e-8 and theta[-1] > -np.pi + 1e-8

    @pytest.mark.parametrize("name", ["path10", "path16", "path128", "path256",
                                      "knn30", "knn64", "knn128", "knn512"])
    def test_basis_takes_one_real_eigh(self, monkeypatch, name):
        # the symmetric part's eigh resolves every fixture basis; the
        # gap-cut Cayley eigensolve is only its fallback
        from fracspec import SpectralBasis, operators
        basis = cut_basis(name)
        eigh, dtypes = np.linalg.eigh, []

        def recording_eigh(a, *args, **kwargs):
            dtypes.append(a.dtype)
            return eigh(a, *args, **kwargs)

        def no_cayley(*args, **kwargs):
            raise AssertionError("_cayley_eigenpairs called")

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(operators, "_cayley_eigenpairs", no_cayley)
        SpectralBasis(v=basis.v, lam=basis.lam).fourier_phase_decomposition
        assert dtypes == [np.float64]

    def test_singleton_just_past_the_cut_is_plus_pi(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        u = (q * np.exp(1j * np.array([-(np.pi - 1e-15), 2.0, 0.5, -1.0, -2.5]))) @ q.conj().T
        out = unitary_fractional_power(u, 0.5)
        assert out.phases[0] == np.pi and np.all(out.phases[1:] < 2.0 + 1e-12)


#: the fixture graphs, whose graph-Fourier bases the basis and gap-cut tests
#: decompose
CUT_GRAPHS = {
    "path10": lambda: path_graph(10),
    "path16": lambda: path_graph(16),
    "path128": lambda: path_graph(128),
    "path256": lambda: path_graph(256),
    "knn30": lambda: knn_graph(random_planar_points(30, seed=7), 4),
    "knn64": lambda: knn_graph(random_planar_points(64, seed=7), 4),
    "knn128": lambda: knn_graph(random_planar_points(128, seed=7), 4),
    "knn512": lambda: knn_graph(random_planar_points(512, seed=7), 4),
}


@functools.lru_cache(maxsize=None)
def cut_basis(name):
    return eigendecompose(CUT_GRAPHS[name]())


def interleaved_unitaries(n):
    """Two complex unitaries of size ``n`` whose eigenphases take one point
    of each pair ``+-phi_j``, ``phi_j = pi (j + 1/2) / n``: every second
    sign flipped, and random signs. The ``2n`` points ``+-phi_j`` are equally
    spaced, so the widest gap that the Hermitian part shows is ``pi / n``."""
    rng = np.random.default_rng(n)
    phi = np.pi * (np.arange(n) + 0.5) / n
    stack = []
    for signs in (np.where(np.arange(n) % 2, -1.0, 1.0), rng.choice([-1.0, 1.0], n)):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        stack.append((q * np.exp(1j * signs * phi)) @ q.conj().T)
    return np.array(stack)


def cut_clearance(stack):
    """Distance on the unit circle from each matrix's gap cut to its nearest
    eigenphase; the eigenphases come from the nonsymmetric ``eigvals``."""
    from fracspec import operators
    cut = operators._widest_gap_cut(stack)
    phases = np.angle(np.linalg.eigvals(stack))
    return np.min(np.abs(np.angle(np.exp(1j * (phases - cut[:, None])))), axis=-1)


class TestWidestGapCut:
    """The cut of a gap-cut Cayley eigensolve comes from the eigenvalues
    ``cos(theta)`` of the Hermitian part: exactly the eigenphases of a real
    orthogonal matrix, a superset of those of a complex unitary."""

    @pytest.mark.parametrize("name", list(CUT_GRAPHS))
    def test_real_basis_cut_clears_every_eigenphase_by_pi_over_n(self, name):
        v = cut_basis(name).v
        n = len(v)
        # arccos near +-1 is good to about sqrt(eps)
        assert cut_clearance(v.T[None])[0] >= np.pi / n - 1e-7

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_complex_cut_clears_every_eigenphase_by_pi_over_2n(self, n):
        u = interleaved_unitaries(n)
        assert np.all(cut_clearance(u) >= np.pi / (2 * n) * (1 - 1e-9))
        # the Cayley eigensolve at that cut meets its residual tolerance
        for m in u:
            assert np.abs(unitary_fractional_power(m, 1.0).matrix - m).max() <= 1e-12

    @pytest.mark.parametrize("name", ["path16", "knn128"])
    def test_decomposition_takes_no_nonsymmetric_eigensolve(self, monkeypatch, name):
        from fracspec import SpectralBasis

        def no_eigvals(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        basis = cut_basis(name)
        u = interleaved_unitaries(16)[0]
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        fresh = SpectralBasis(v=basis.v, lam=basis.lam)
        assert np.abs(graph_frft(fresh, 1.0).matrix - basis.v.T).max() <= 1e-12
        assert np.abs(unitary_fractional_power(u, 1.0).matrix - u).max() <= 1e-12


class TestGraphFrft:
    def test_order_zero_is_identity(self, small_ctx):
        f = graph_frft(small_ctx.spatial, 0.0)
        assert np.allclose(f.matrix, np.eye(f.n), atol=1e-12)

    def test_order_one_is_gft(self, small_ctx):
        f1 = graph_frft(small_ctx.spatial, 1.0)
        f = gft_matrix(small_ctx.spatial)
        assert np.abs(f1.matrix - f.matrix).max() <= 1e-8 * f.n

    def test_half_order_composes_to_gft(self, small_ctx):
        half = graph_frft(small_ctx.spatial, 0.5)
        full = gft_matrix(small_ctx.spatial)
        assert np.abs(half.matrix @ half.matrix - full.matrix).max() <= 1e-8 * full.n

    def test_branch_cut_sizes(self):
        # path(16) GFT has a -1 eigenspace straddling the principal branch cut
        for n in (14, 16, 24):
            b = eigendecompose(path_graph(n))
            half = graph_frft(b, 0.5)
            assert unitarity_error(half.matrix) <= 1e-9 * n
            assert np.abs(half.matrix @ half.matrix - gft_matrix(b).matrix).max() <= 1e-8 * n

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-2.5, 2.5),
        b=st.floats(-2.5, 2.5),
        n=st.integers(2, 12),
    )
    def test_additivity_property(self, a, b, n):
        basis = eigendecompose(path_graph(n))
        lhs = graph_frft(basis, a).matrix @ graph_frft(basis, b).matrix
        rhs = graph_frft(basis, a + b).matrix
        assert np.abs(lhs - rhs).max() <= 1e-8 * n

    def test_inverse_is_hermitian_transpose(self, small_ctx):
        f = graph_frft(small_ctx.spatial, 0.7)
        fneg = graph_frft(small_ctx.spatial, -0.7)
        assert np.abs(fneg.matrix - f.matrix.conj().T).max() <= 1e-8 * f.n

    def test_determinism(self):
        b1 = eigendecompose(path_graph(9))
        b2 = eigendecompose(path_graph(9))
        assert np.array_equal(graph_frft(b1, 0.37).matrix, graph_frft(b2, 0.37).matrix)


class TestDfrft:
    def test_order_zero_is_identity(self):
        for n in (2, 5, 8):
            assert np.abs(dfrft_matrix(n, 0.0).matrix - np.eye(n)).max() <= 1e-9 * n

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 32])
    def test_order_one_is_dft(self, n):
        assert np.abs(dfrft_matrix(n, 1.0).matrix - dft(n)).max() <= 1e-8 * n

    @pytest.mark.parametrize("n", [3, 6, 8, 11])
    def test_half_order_squares_to_dft(self, n):
        half = dfrft_matrix(n, 0.5).matrix
        assert np.abs(half @ half - dfrft_matrix(n, 1.0).matrix).max() <= 1e-8 * n

    def test_unitarity_sweep(self):
        for n in (2, 5, 9, 16):
            for a in (-1.5, -0.5, 0.3, 2.0):
                assert unitarity_error(dfrft_matrix(n, a).matrix) <= 1e-9 * n

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            dfrft_matrix(1, 0.5)

    def test_determinism(self):
        assert np.array_equal(dfrft_matrix(11, 0.43).matrix, dfrft_matrix(11, 0.43).matrix)


#: k-NN graphs of random points, and paths, whose graph Fourier matrices
#: have the eigenvalues 1 and -1 with multiplicity 3
REAL_FACTOR_GRAPHS = {
    "knn30": lambda: knn_graph(random_planar_points(30, seed=7), 4),
    "knn512": lambda: knn_graph(random_planar_points(512, seed=7), 4),
    "path10": lambda: path_graph(10),
    "path16": lambda: path_graph(16),
}


@functools.lru_cache(maxsize=None)
def real_factor_case(name):
    """(graph basis, Schur oracle phases, Schur oracle eigenvectors) of one
    graph of ``REAL_FACTOR_GRAPHS``."""
    basis = eigendecompose(REAL_FACTOR_GRAPHS[name]())
    return (basis, *real_schur_eigenpairs(basis.v.T))


def factor_error(op, want):
    """Largest deviation of the operator from the dense oracle ``want`` (one
    matrix per order): the dense matrix, its factored apply from the right,
    and the inverse ``M^H X M^*`` of a plan with the operator on both sides,
    on n x n blocks of unit-norm complex columns. The blocks are not
    C-contiguous: an F-ordered array, a row-strided view, and a
    column-strided view, whose float64 view cannot be taken at all."""
    n = op.n
    plan = TransformPlan("gbfrft2d", op, op, (op.order, op.order))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    x /= np.linalg.norm(x, axis=0)
    inputs = (np.asfortranarray(x[:n, :n]), x[::2, :n], x[n:, ::2])
    want_h = want.conj().swapaxes(-1, -2)
    errs = [np.abs(op.matrix - want).max()]
    for x in inputs:
        assert not x.flags.c_contiguous
        errs += [np.abs(op.apply_right_transpose(x.T) - x.T @ want.swapaxes(-1, -2)).max(),
                 np.abs(plan.apply_inverse(x) - want_h @ x @ want.conj()).max()]
    return max(errs)


class TestRealFactors:
    """Graph FRFTs and the DFRFT hold one real orthogonal factor ``Q`` and a
    middle factor ``R`` of 2x2 rotations; scipy's real Schur form is the
    oracle for ``P diag(exp(j order theta)) P^H``."""

    CASES = list(REAL_FACTOR_GRAPHS)
    ORDERS = np.array([-1.3, 0.0, 0.37, 1.0, 2.5])

    @pytest.mark.parametrize("name", CASES)
    def test_factor_is_real_orthogonal_and_order_one_is_the_gft(self, name):
        basis, _, _ = real_factor_case(name)
        theta, q, partner, unit, pi_lines = basis.fourier_phase_decomposition
        assert q.dtype == np.float64 and not np.iscomplexobj(graph_frft(basis, 0.5).right)
        # what the pairing implies, derived once per basis
        own = partner == np.arange(basis.n)
        assert np.array_equal(unit, np.where(own, 1j, 1.0))
        assert np.array_equal(np.arange(pi_lines), np.flatnonzero(own & (theta == np.pi)))
        # an F-ordered factor makes every product with it slower
        assert q.flags.c_contiguous
        assert np.abs(q.T @ q - np.eye(basis.n)).max() <= 1e-12
        assert np.array_equal(partner[partner], np.arange(basis.n))
        assert np.array_equal(theta[partner], np.where(partner == np.arange(basis.n), theta, -theta))
        assert np.abs(graph_frft(basis, 1.0).matrix - basis.v.T).max() <= 1e-12

    @pytest.mark.parametrize("name", CASES)
    def test_apply_matches_the_real_schur_oracle(self, name):
        basis, theta, p = real_factor_case(name)
        want = eigenphase_power(theta, p, self.ORDERS)
        assert factor_error(graph_frft(basis, self.ORDERS), want) <= 1e-12
        assert factor_error(graph_frft(basis, 0.37), want[2]) <= 1e-12

    @pytest.mark.parametrize("n", [10, 256])
    def test_dfrft_factor_is_real_and_order_one_is_the_dft(self, n):
        op = dfrft_matrix(n, self.ORDERS)
        assert op.left.dtype == np.float64 and op.partner is None
        assert np.abs(op.left.T @ op.left - np.eye(n)).max() <= 1e-12
        assert np.abs(dfrft_matrix(n, 1.0).matrix - dft(n)).max() <= 1e-12
        want = (op.left * np.exp(1j * self.ORDERS[:, None, None] * op.phases)) @ op.left.T
        assert factor_error(op, want) <= 1e-12

    @pytest.mark.parametrize("mutation", ["rotation_sign", "partner_swap"])
    @pytest.mark.parametrize("name", ["knn30", "path16"])
    def test_oracle_check_trips_under_a_targeted_fault(self, monkeypatch, name, mutation):
        basis, theta, p = real_factor_case(name)
        want = eigenphase_power(theta, p, self.ORDERS)
        op = graph_frft(basis, self.ORDERS)
        if mutation == "rotation_sign":
            # every pair rotates the wrong way, and -1 turns to exp(-j order pi)
            a, b = op.rotation
            monkeypatch.setattr(type(op), "rotation", property(lambda self: (a, -b)))
        else:
            # the first two pairs exchange partners
            q_theta, q, partner, unit, _ = basis.fourier_phase_decomposition
            i, j = np.flatnonzero(partner > np.arange(basis.n))[:2]
            swapped = partner.copy()
            swapped[[i, j]] = partner[[j, i]]
            swapped[partner[[i, j]]] = [j, i]
            op = type(op)(self.ORDERS, q_theta, q, q.T, swapped, unit)
        assert factor_error(op, want) > 1e-3


def engineered_orthogonal(phis, minus, plus, seed):
    """``Z T Z^T`` for a random orthogonal ``Z``, with ``T`` a 2x2 rotation
    by each angle of ``phis``, then ``minus`` eigenvalues -1 and ``plus``
    eigenvalues +1."""
    n = 2 * len(phis) + minus + plus
    rng = np.random.default_rng(seed)
    z, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = np.diag(np.r_[np.ones(2 * len(phis)), -np.ones(minus), np.ones(plus)])
    for j, phi in enumerate(phis):
        t[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
    return z @ t @ z.T


class TestSymmetricPartFactors:
    """A basis is decomposed from one real ``eigh`` of the symmetric part
    of ``V^T``, or, when that part has an eigenvalue cluster other than one
    rotation plane or one +-1 space, by the gap-cut Cayley fallback; scipy's
    real Schur form is the oracle, on engineered orthogonal matrices of odd
    and even size."""

    ORDERS = np.array([-1.3, 0.37, 1.0, 2.5])
    SPREAD = [0.5, 1.5, 2.5]
    #: name: (rotation angles, multiplicities of -1 and of +1, whether the
    #: real path takes it (None: either), largest deviation from the oracle)
    CASES = {
        "pm1_multiplicity_0_0": (SPREAD, 0, 0, True, 1e-12),
        "pm1_multiplicity_1_0": (SPREAD, 1, 0, True, 1e-12),
        "pm1_multiplicity_0_1": (SPREAD, 0, 1, True, 1e-12),
        "pm1_multiplicity_2_1": (SPREAD, 2, 1, True, 1e-12),
        "pm1_multiplicity_3_4": (SPREAD, 3, 4, True, 1e-12),
        "pm1_multiplicity_4_4": (SPREAD, 4, 4, True, 1e-12),
        "pm1_multiplicity_4_0": (SPREAD, 4, 0, True, 1e-12),
        "identity": ([], 0, 5, True, 1e-12),
        "minus_identity": ([], 6, 0, True, 1e-12),
        "theta_1e-7": ([1e-7, 1.3, 2.4], 1, 0, True, 1e-12),
        "theta_pi-1e-7": ([np.pi - 1e-7, 1.3], 0, 1, True, 1e-12),
        "theta_1e-7_and_pi-1e-7": ([1e-7, np.pi - 1e-7, 1.3], 0, 0, True, 1e-12),
        "equal_pairs": ([1.0, 1.0, 2.2], 1, 1, None, 1e-12),
        "pairs_1e-7_apart": ([1.0, 1.0 + 1e-7, 2.2], 1, 1, False, 1e-12),
        # phases within PHASE_CLUSTER_TOL share their mean: |order| * 5e-11 off
        "pairs_1e-10_apart": ([1.0, 1.0 + 1e-10, 2.2], 1, 1, False, 1e-9),
        # the fallback's Cayley eigenvectors at 1 and exp(+-1e-7 j) mix by
        # about 1e-9
        "theta_1e-7_beside_1": ([1e-7, 1.3], 0, 2, None, 1e-8),
        # the power jumps across the branch cut at -1: the oracle itself is
        # about 2e-9 from the exact power
        "theta_pi-1e-7_beside_-1": ([np.pi - 1e-7, 1.3], 1, 1, None, 1e-8),
    }

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_real_schur_oracle(self, name, seed):
        from fracspec import SpectralBasis, operators
        phis, minus, plus, real, tol = self.CASES[name]
        o = engineered_orthogonal(phis, minus, plus, seed)
        if real is not None:
            assert (operators._symmetric_part_factors(o) is not None) == real
        basis = SpectralBasis(v=o.T, lam=np.zeros(len(o)))
        want = eigenphase_power(*real_schur_eigenpairs(o), self.ORDERS)
        assert factor_error(graph_frft(basis, self.ORDERS), want) <= tol


@functools.lru_cache(maxsize=None)
def leading_pi_context(name):
    """A context over two engineered bases (seeds 3 and 4) of a
    ``TestLeadingPiLines`` case, each checked to take its path."""
    from fracspec import SpectralBasis, TransformContext, operators
    phis, minus, plus, real = TestLeadingPiLines.CASES[name]
    bases = []
    for seed in (3, 4):
        o = engineered_orthogonal(phis, minus, plus, seed)
        assert (operators._symmetric_part_factors(o) is not None) == real
        bases.append(SpectralBasis(v=o.T, lam=np.zeros(len(o))))
    return TransformContext(*bases)


class TestLeadingPiLines:
    """The real arithmetic of a real block takes the lines at phase pi to
    be the first ``pi_lines`` of the factor, on the real ``eigh`` path and
    on the gap-cut Cayley fallback (``_real_phase_factors``) alike:
    engineered orthogonal matrices with three eigenvalues -1 (the
    ``TestSymmetricPartFactors`` spread, and pairs 1e-7 apart, which the
    real path cannot resolve), against the complex arithmetic of the same
    factors."""

    #: name: (rotation angles, multiplicities of -1 and of +1, whether the
    #: real path takes it)
    CASES = {
        "real_path": (TestSymmetricPartFactors.SPREAD, 3, 4, True),
        "fallback": ([1.0, 1.0 + 1e-7, 2.2], 3, 1, False),
    }
    ALPHA = np.array([0.2, 0.7, 1.3, -0.4])
    BETA = np.array([0.6, 0.3, -0.45, 1.0])
    LAM = np.array([0.1, 0.5, 0.9, 0.3])

    @pytest.mark.parametrize("name", CASES)
    def test_pi_lines_lead(self, name):
        ctx = leading_pi_context(name)
        for basis in (ctx.spatial, ctx.temporal):
            theta, _, partner, _, pi_lines = basis.fourier_phase_decomposition
            own = partner == np.arange(basis.n)
            assert pi_lines == 3
            assert np.array_equal(np.flatnonzero(own & (theta == np.pi)), np.arange(pi_lines))

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    @pytest.mark.parametrize("name", CASES)
    def test_real_signal_plans_are_the_complex_arithmetic(self, name, family, batched):
        ctx = leading_pi_context(name)
        alpha, beta, lam = (self.ALPHA, self.BETA, self.LAM) if batched else \
            (self.ALPHA[1], self.BETA[1], self.LAM[1])
        plan = ctx.plan(family, (alpha,) if family == "gfrft2d" else (alpha, beta), lam=lam)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(ctx.shape)
        z = x + 1j * rng.standard_normal(ctx.shape)
        for got, want in ((plan.apply(x), complex_forward(plan, x.astype(np.complex128))),
                          (plan.apply_inverse(z, real=True), conjugated_inverse(plan, z).real)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("rates", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_real_row_pass_is_the_complex_arithmetic(self, name, rates, batched):
        basis = leading_pi_context(name).spatial
        row = graph_frft(basis, self.ALPHA[:3] if batched else 0.55)
        r = np.random.default_rng(7).standard_normal((3, basis.n, 4) if batched else (basis.n, 4))
        u = row.mix(r, row.rotation)
        if rates:
            u = np.concatenate([u, row.mix(u, row.generator_coefficients)], axis=-1)
        want = row.left @ u
        assert np.abs(row.real_row_pass(r, rates) - want).max() <= 1e-12 * np.abs(want).max()
