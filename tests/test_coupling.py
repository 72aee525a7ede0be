from unittest import mock

import numpy as np
import pytest

from fracspec import (
    ConfigError,
    DecompositionError,
    Graph,
    MarginViolationError,
    TransformContext,
    coupling_operator,
    dfrft_matrix,
    eigendecompose,
    geodesic_temporal_basis,
    graph_frft,
    knn_graph,
    path_graph,
    phase_decompose,
    random_planar_points,
    swapped_geodesic_temporal_basis,
    unitarity_error,
)
from fracspec import operators

LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))


def random_unitary(n, seed):
    """A Haar-random unitary matrix."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def projector(s, columns):
    """Orthogonal projector onto the span of the selected columns of ``s``."""
    return s[:, columns] @ s[:, columns].conj().T


def schur_eigendecomposition(u):
    """Oracle: ``_unitary_eigendecomposition`` with one complex Schur form per
    matrix (scipy) in place of the Cayley eigensolver, so that the branch
    snap, cluster unification and column phases are the same on both sides."""
    import scipy.linalg

    def schur_eigenpairs(stack, cut=None):
        t, z = zip(*(scipy.linalg.schur(m, output="complex") for m in stack))
        return np.diagonal(np.array(t), axis1=-2, axis2=-1).copy(), np.array(z)

    with mock.patch.object(operators, "_cayley_eigenpairs", schur_eigenpairs):
        return operators._unitary_eigendecomposition(u)


def assert_same_eigenspaces(theta, s, want_theta, want_s, tol=1e-10):
    """Phases and eigenprojectors equal within ``tol``, one projector per
    eigenspace: unified cluster phases may differ in the last bits."""
    assert np.abs(theta - want_theta).max() <= tol
    for phase in np.unique(want_theta):
        mine, ref = np.abs(theta - phase) < 1e-8, np.abs(want_theta - phase) < 1e-8
        assert np.abs(projector(s, mine) - projector(want_s, ref)).max() <= tol


def with_phases(phases, seed):
    """A unitary matrix with these eigenphases and a Haar-random eigenbasis."""
    q = random_unitary(len(phases), seed)
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def cycle_graph(n):
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return Graph(a)


#: unitary matrices decomposed with the cut in the widest eigenphase gap: the
#: graph-Fourier matrices V^T of path, k-NN and cycle graphs (path and k-NN
#: with an eigenvalue -1), and a -1 eigenvalue alone or three times repeated
GAP_CUT_CASES = {
    **{f"path{n}": lambda n=n: eigendecompose(path_graph(n)).v.T for n in (10, 16, 128)},
    **{f"knn{n}": lambda n=n: eigendecompose(knn_graph(random_planar_points(n, seed=7), 4)).v.T
       for n in (30, 64, 128)},
    "cycle4": lambda: eigendecompose(cycle_graph(4)).v.T,
    "minus_one": lambda: with_phases([np.pi, 2.0, 1.0, 0.3, -0.5, -2.9], 5),
    "minus_one_x3": lambda: with_phases([np.pi, np.pi, np.pi, 1.0, -0.5, -2.9], 6),
}


@pytest.fixture(scope="module")
def temporal_setup():
    basis = eigendecompose(path_graph(5))
    fg = graph_frft(basis, 0.5)
    fd = dfrft_matrix(5, 0.5)
    decomp = phase_decompose(coupling_operator(fg, fd))
    return fg, fd, decomp


class TestCouplingOperator:
    def test_same_basis_gives_identity(self, temporal_setup):
        fg, _, _ = temporal_setup
        assert np.allclose(coupling_operator(fg, fg), np.eye(5), atol=1e-12)

    def test_order_zero_bases_give_identity(self):
        basis = eigendecompose(path_graph(4))
        w = coupling_operator(graph_frft(basis, 0.0), dfrft_matrix(4, 0.0))
        assert np.allclose(w, np.eye(4), atol=1e-10)

    def test_unit_modulus_eigenvalues(self):
        # path(3) graph temporal basis vs DFRFT(3), order 0.5; eigendecompose
        # the coupling directly as the oracle
        basis = eigendecompose(path_graph(3))
        w = coupling_operator(graph_frft(basis, 0.5), dfrft_matrix(3, 0.5))
        eigvals = np.linalg.eigvals(w)
        assert np.abs(np.abs(eigvals) - 1.0).max() <= 1e-9

    def test_size_mismatch_rejected(self):
        basis = eigendecompose(path_graph(4))
        with pytest.raises(ValueError, match="size"):
            coupling_operator(graph_frft(basis, 0.5), dfrft_matrix(5, 0.5))

    def test_non_unitary_rejected(self):
        from fracspec import NotUnitaryError
        with pytest.raises(NotUnitaryError):
            coupling_operator(np.ones((3, 3)), np.eye(3))

    def test_non_finite_rejected(self):
        from fracspec import NotUnitaryError
        nan = np.eye(3)
        nan[0, 0] = np.nan
        with pytest.raises(NotUnitaryError):
            coupling_operator(nan, np.eye(3))


class TestPhaseDecompose:
    def test_identity(self):
        d = phase_decompose(np.eye(4))
        assert np.allclose(d.theta, 0.0)
        assert d.margin == pytest.approx(np.pi)

    def test_phase_at_cut_rejected(self):
        w = np.diag([np.exp(1j * 3.1415926), 1.0])
        with pytest.raises(MarginViolationError) as err:
            phase_decompose(w, margin_tol=1e-6)
        assert err.value.margin is not None
        assert err.value.index is not None

    def test_diagonal_case(self):
        w = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
        d = phase_decompose(w)
        assert np.allclose(sorted(d.theta, reverse=True), [np.pi / 2, -np.pi / 3])
        assert d.margin == pytest.approx(np.pi / 2)

    def test_stack_equals_per_matrix(self, temporal_setup):
        # W = I and a W with a repeated eigenphase have eigenvalue clusters,
        # so the stack also runs the per-matrix cluster unification
        fg, fd, _ = temporal_setup
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((5, 5)) + 0j)
        repeated = (q * np.exp(1j * np.array([0.3, 0.3, -1.0, 2.0, 0.0]))) @ q.conj().T
        ws = [coupling_operator(fg, fd), np.eye(5, dtype=complex), repeated,
              coupling_operator(fd, fg)]
        got = phase_decompose(np.stack(ws))
        assert got.s.shape == (4, 5, 5) and got.theta.shape == (4, 5) and got.margin.shape == (4,)
        assert got.failed == {} and got.n == 5
        for k, w in enumerate(ws):
            want = phase_decompose(w)
            assert np.array_equal(got.theta[k], want.theta)
            assert np.array_equal(got.s[k], want.s)
            assert got.margin[k] == want.margin
        assert got.theta[2, 1] == got.theta[2, 2] == pytest.approx(0.3)

    #: margin tolerances that are not a number of radians in [0, pi]
    BAD_MARGIN_TOLS = [True, "x", np.nan, -1.0, 3.5]

    @pytest.mark.parametrize("tol", BAD_MARGIN_TOLS, ids=["bool", "str", "nan", "negative", "above_pi"])
    def test_bad_margin_tolerance_rejected(self, tol):
        # NaN refused every matrix, -1 let a phase at the cut through, a
        # string failed in numpy's comparison and a bool read as 1 radian
        at_cut = np.diag([-1.0 + 0j, 1.0])
        with pytest.raises(ConfigError, match="margin tolerance"):
            phase_decompose(at_cut, margin_tol=tol)

    def test_margin_tolerance_of_pi_allowed(self):
        # the largest tolerance: no margin exceeds it, so every matrix fails
        with pytest.raises(MarginViolationError):
            phase_decompose(np.eye(2), margin_tol=np.pi)

    def test_stack_keeps_each_margin_failure(self):
        fine = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
        at_cut = np.diag([np.exp(1j * 3.1415926), 1.0])
        got = phase_decompose(np.stack([fine, at_cut, fine]), margin_tol=1e-6)
        assert list(got.failed) == [1] and isinstance(got.failed[1], MarginViolationError)
        assert got.failed[1].index == 0 and got.failed[1].margin < 1e-6
        assert list(got.margin[[0, 2]]) == [pytest.approx(np.pi / 2)] * 2

    def test_stack_checks_inputs_and_outputs(self, monkeypatch):
        from fracspec import DecompositionError, NotUnitaryError
        fine = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
        with pytest.raises(NotUnitaryError):
            phase_decompose(np.stack([fine, 1.01 * fine]))
        # a Cayley eigenbasis that lost orthonormality in one matrix of the stack
        eigh = np.linalg.eigh

        def drifting_eigh(h):
            lam, z = eigh(h)
            z[1] *= 1.001
            return lam, z

        monkeypatch.setattr(np.linalg, "eigh", drifting_eigh)
        with pytest.raises(DecompositionError):
            phase_decompose(np.stack([fine, fine]))

    def test_non_finite_input_rejected(self):
        from fracspec import NotUnitaryError
        w = np.eye(3, dtype=complex)
        w[1, 2] = np.nan
        with pytest.raises(NotUnitaryError):
            phase_decompose(w)
        with pytest.raises(NotUnitaryError):
            phase_decompose(np.stack([np.eye(3), w]))

    def test_residual_fallback_takes_only_that_member(self, monkeypatch):
        # an eigensolver whose basis for the last matrix of a three-matrix
        # batch is the identity leaves that matrix with a large Cayley
        # residual, so it alone is decomposed again, with its cut in its
        # widest eigenphase gap
        ws = np.stack([random_unitary(6, seed) for seed in (1, 2, 3)])
        want = phase_decompose(ws)
        eigh, cayley = np.linalg.eigh, operators._cayley_eigenpairs
        cuts = []

        def identity_for_last(h):
            lam, z = eigh(h)
            if len(h) == 3:
                z[-1] = np.eye(h.shape[-1])
            return lam, z

        def recording_cayley(stack, cut=None):
            cuts.append((stack, cut))
            return cayley(stack, cut)

        monkeypatch.setattr(np.linalg, "eigh", identity_for_last)
        monkeypatch.setattr(operators, "_cayley_eigenpairs", recording_cayley)
        got = phase_decompose(ws)
        assert len(cuts) == 2 and cuts[0][1] is None
        assert np.array_equal(cuts[1][0], ws[2:]) and cuts[1][1].shape == (1,)
        assert np.array_equal(got.theta[:2], want.theta[:2]) and np.array_equal(got.s[:2], want.s[:2])
        theta, s = operators._unitary_eigendecomposition(ws[2])
        assert np.array_equal(got.theta[2], theta) and np.array_equal(got.s[2], s)
        assert_same_eigenspaces(got.theta[2], got.s[2], want.theta[2], want.s[2])

    def test_gap_cut_residual_is_checked(self, monkeypatch):
        # a basis that stays wrong at the widest-gap cut has no further fallback
        eigh = np.linalg.eigh

        def identity_for_last(h):
            lam, z = eigh(h)
            z[-1] = np.eye(h.shape[-1])
            return lam, z

        monkeypatch.setattr(np.linalg, "eigh", identity_for_last)
        with pytest.raises(DecompositionError, match="widest eigenphase gap"):
            phase_decompose(np.stack([random_unitary(6, 1), random_unitary(6, 2)]))
        with pytest.raises(DecompositionError, match="widest eigenphase gap"):
            operators._unitary_eigendecomposition(random_unitary(6, 3))

    def test_singular_member_fails_alone(self):
        # I + W is exactly singular for the second matrix: a batched solve
        # of the whole stack raises, the decomposition keeps it per matrix
        ws = np.stack([random_unitary(4, 7), np.diag([-1, 1, 1j, -1j])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(4) + ws, np.eye(4) - ws)
        got = phase_decompose(ws)
        want = phase_decompose(ws[0])
        assert np.array_equal(got.theta[0], want.theta) and np.array_equal(got.s[0], want.s)
        assert list(got.failed) == [1] and isinstance(got.failed[1], MarginViolationError)
        assert got.failed[1].margin == 0.0

    @pytest.mark.parametrize("n", [6, 10, 32, 128])
    @pytest.mark.parametrize("margin", [1.0, 1e-2, 1e-4, 1e-6])
    def test_cayley_matches_schur(self, n, margin):
        # random eigenbases with a triple eigenphase, a pair within the
        # cluster tolerance, and one phase at the given margin from the cut
        rng = np.random.default_rng(n)
        ws = []
        for _ in range(3):
            phases = rng.uniform(-2.0, 2.0, n)
            phases[:4] = [np.pi - margin, 0.7, 0.7, 0.7]
            phases[4:6] = [-1.3, -1.3 + 3e-9]
            q = random_unitary(n, rng)
            ws.append((q * np.exp(1j * phases)) @ q.conj().T)
        ws = np.stack(ws)
        got = phase_decompose(ws, margin_tol=1e-7)
        assert got.failed == {}
        theta, s = schur_eigendecomposition(ws)
        for k in range(len(ws)):
            assert got.margin[k] == pytest.approx(margin, rel=1e-6)
            assert_same_eigenspaces(got.theta[k], got.s[k], theta[k], s[k])

    @pytest.mark.parametrize("case", list(GAP_CUT_CASES))
    def test_gap_cut_matches_schur(self, case):
        u = GAP_CUT_CASES[case]()
        theta, s = operators._unitary_eigendecomposition(u)
        assert_same_eigenspaces(theta, s, *schur_eigendecomposition(u))
        if case.startswith(("path", "knn", "minus_one")):
            assert theta[0] == np.pi

    def test_reconstruction(self, temporal_setup):
        fg, fd, decomp = temporal_setup
        w = coupling_operator(fg, fd)
        rebuilt = (decomp.s * np.exp(1j * decomp.theta)) @ decomp.s.conj().T
        assert np.abs(rebuilt - w).max() <= 1e-8 * 5
        assert unitarity_error(decomp.s) <= 1e-9 * 5


class TestGeodesicTemporalBasis:
    def test_lambda_zero_is_graph_basis(self, temporal_setup):
        fg, _, decomp = temporal_setup
        ft = geodesic_temporal_basis(fg, decomp, 0.0)
        assert np.array_equal(ft.matrix, fg.matrix @ np.eye(5) @ decomp.s @ decomp.s.conj().T) \
            or np.abs(ft.matrix - fg.matrix).max() <= 1e-12 * 5

    def test_lambda_one_is_dfrft(self, temporal_setup):
        fg, fd, decomp = temporal_setup
        ft = geodesic_temporal_basis(fg, decomp, 1.0)
        assert np.abs(ft.matrix - fd.matrix).max() <= 1e-8 * 5

    def test_matches_matrix_logarithm_oracle(self, temporal_setup):
        # independent oracle: scipy matrix exp/log of the coupling operator
        import scipy.linalg
        fg, fd, decomp = temporal_setup
        w = coupling_operator(fg, fd)
        for lam in (0.25, 0.5, 0.8):
            want = fg.matrix @ scipy.linalg.expm(lam * scipy.linalg.logm(np.asarray(w)))
            got = geodesic_temporal_basis(fg, decomp, lam).matrix
            assert np.abs(got - want).max() <= 1e-8 * 5

    def test_half_phase_squares_to_coupling(self, temporal_setup):
        fg, fd, decomp = temporal_setup
        w = coupling_operator(fg, fd)
        half_resid = fg.matrix.conj().T @ geodesic_temporal_basis(fg, decomp, 0.5).matrix
        assert np.abs(half_resid @ half_resid - w).max() <= 1e-8 * 5

    def test_unitarity_over_lambda_grid(self, temporal_setup):
        fg, _, decomp = temporal_setup
        for lam in LAMBDAS:
            ft = geodesic_temporal_basis(fg, decomp, lam)
            assert unitarity_error(ft.matrix) <= 1e-9 * 5

    def test_lambda_outside_unit_interval_rejected(self, temporal_setup):
        fg, _, decomp = temporal_setup
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError):
                geodesic_temporal_basis(fg, decomp, lam)

    def test_round_trip_reconstruction(self, temporal_setup, rng):
        fg, _, decomp = temporal_setup
        ft = geodesic_temporal_basis(fg, decomp, 0.6)
        vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        back = ft.matrix.conj().T @ (ft.matrix @ vec)
        assert np.linalg.norm(back - vec) <= 1e-9 * np.linalg.norm(vec)

    def test_decomposition_reused_across_lambda(self, temporal_setup):
        fg, _, decomp = temporal_setup
        a = geodesic_temporal_basis(fg, decomp, 0.3)
        b = geodesic_temporal_basis(fg, decomp, 0.9)
        assert a.phases is b.phases
        # a context forms L = F_graph^beta S and S^H once per temporal order
        ctx = TransformContext(path_graph(4), path_graph(5))
        p = ctx.plan("gcgfrft", (0.4, 0.5), lam=0.3)
        q = ctx.plan("gcgfrft", (0.4, 0.5), lam=0.9)
        assert p.col_op.left is q.col_op.left
        assert p.col_op.right is q.col_op.right
        assert p.col_op.order == 0.3 and q.col_op.order == 0.9


class TestEndpointSymmetry:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_swapped_equals_reversed(self, temporal_setup, lam):
        fg, fd, decomp = temporal_setup
        swapped_decomp = phase_decompose(coupling_operator(fd, fg))
        sw = swapped_geodesic_temporal_basis(fd, swapped_decomp, lam)
        direct = geodesic_temporal_basis(fg, decomp, 1.0 - lam)
        assert np.abs(sw.matrix - direct.matrix).max() <= 1e-8 * 5

    def test_swapped_endpoints(self, temporal_setup):
        fg, fd, decomp = temporal_setup
        swapped_decomp = phase_decompose(coupling_operator(fd, fg))
        assert np.abs(swapped_geodesic_temporal_basis(fd, swapped_decomp, 0.0).matrix
                      - fd.matrix).max() <= 1e-12 * 5
        assert np.abs(swapped_geodesic_temporal_basis(fd, swapped_decomp, 1.0).matrix
                      - fg.matrix).max() <= 1e-8 * 5


class TestPhaseLinearity:
    def test_residual_eigenphases_scale_linearly(self, temporal_setup):
        fg, _, decomp = temporal_setup
        for lam in (0.2, 0.5, 0.9):
            resid = fg.matrix.conj().T @ geodesic_temporal_basis(fg, decomp, lam).matrix
            got = np.sort(np.angle(np.linalg.eigvals(resid)))
            want = np.sort(lam * decomp.theta)
            assert np.abs(got - want).max() <= 1e-8
