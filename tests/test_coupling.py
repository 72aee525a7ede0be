import numpy as np
import pytest

from fracspec import (
    MarginViolationError,
    TransformContext,
    coupling_operator,
    dfrft_matrix,
    eigendecompose,
    geodesic_temporal_basis,
    graph_frft,
    path_graph,
    phase_decompose,
    swapped_geodesic_temporal_basis,
    unitarity_error,
)

LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))


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
        stacked = phase_decompose(np.stack(ws))
        assert len(stacked) == len(ws)
        for w, got in zip(ws, stacked):
            want = phase_decompose(w)
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.s, want.s)
            assert got.margin == want.margin
        assert stacked[2].theta[1] == stacked[2].theta[2] == pytest.approx(0.3)

    def test_stack_keeps_each_margin_failure(self):
        fine = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
        at_cut = np.diag([np.exp(1j * 3.1415926), 1.0])
        got = phase_decompose(np.stack([fine, at_cut, fine]), margin_tol=1e-6)
        assert isinstance(got[1], MarginViolationError)
        assert got[1].index == 0 and got[1].margin < 1e-6
        assert [d.margin for d in (got[0], got[2])] == [pytest.approx(np.pi / 2)] * 2

    def test_stack_checks_inputs_and_outputs(self, monkeypatch):
        from fracspec import DecompositionError, NotUnitaryError
        import scipy.linalg
        fine = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
        with pytest.raises(NotUnitaryError):
            phase_decompose(np.stack([fine, 1.01 * fine]))
        # a Schur basis that lost orthonormality in one matrix of the stack
        schur = scipy.linalg.schur
        calls = []

        def drifting_schur(a, output):
            t, z = schur(a, output=output)
            calls.append(a)
            return t, (1.001 * z if len(calls) == 2 else z)

        monkeypatch.setattr(scipy.linalg, "schur", drifting_schur)
        with pytest.raises(DecompositionError):
            phase_decompose(np.stack([fine, fine]))

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
