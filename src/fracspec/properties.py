"""Named property suite covering the proven invariants of every module.

Each check re-derives an identity from scratch (explicit Kronecker products,
fresh decompositions, brute-force index enumeration) rather than trusting the
code paths it is checking. The suite is what the ``verify`` command runs; a
fault-injection mode perturbs one operator entry to demonstrate that the
unitarity check actually trips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coupling import coupling_operator, geodesic_temporal_basis, phase_decompose, \
    swapped_geodesic_temporal_basis
from .graphs import Graph, cartesian_product, knn_graph, path_graph
from .harness import add_awgn, random_planar_points, synth_signal
from .operators import (
    _unitary_eigendecomposition,
    dfrft_matrix,
    eigendecompose,
    graph_frft,
    unitarity_error,
    unitary_fractional_power,
)
from .transforms import TimeVertexSignal, TransformContext, forward, inverse
from .wiener import (DEFAULT_LAMBDA_GRID, FilterParams, TrainConfig, closed_form_h,
                     denoise_complex, grad_h, loss, train)

__all__ = ["CheckResult", "PropertyReport", "verify_properties"]

ORDER_GRID = (-1.5, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0)
#: spatial and temporal sizes of the operator and coupling checks, and the
#: seeds of the random graphs and signals
N1_SIZES = (5, 8, 12)
N2_SIZES = (4, 6, 8)
SEEDS = (0, 1)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    results: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def format(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = [
            f"{'PASS' if r.passed else 'FAIL'}  {r.name.ljust(width)}  {r.detail}"
            for r in self.results
        ]
        n_fail = sum(not r.passed for r in self.results)
        lines.append(f"{len(self.results) - n_fail}/{len(self.results)} checks passed")
        return "\n".join(lines)


def _cycle_graph(n: int) -> Graph:
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = 1.0
    a[(i - 1) % n, i] = 1.0
    return Graph(a, label=f"cycle({n})")


def _test_graphs(seed: int):
    pts = random_planar_points(8, seed=seed)
    return [path_graph(5), _cycle_graph(4), knn_graph(pts, 3)]


def _kron_vec_oracle(row_mat: np.ndarray, col_mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(F_col kron F_row) vec(X) with column-major vec, reshaped back."""
    n1, n2 = x.shape
    big = np.kron(col_mat, row_mat)
    return (big @ x.ravel(order="F")).reshape((n1, n2), order="F")


def verify_properties(fault_injection: bool = False) -> PropertyReport:
    results: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str):
        results.append(CheckResult(name, bool(passed), detail))

    rng = np.random.default_rng(12345)

    # -- graphs ---------------------------------------------------------------
    worst = 0.0
    for g in _test_graphs(SEEDS[0]) + [path_graph(n) for n in N1_SIZES]:
        worst = max(worst, float(np.linalg.norm(g.adjacency - g.adjacency.T)))
    record("graph.symmetry_exact", worst == 0.0, f"max ||A - A^T|| = {worst:g}")

    g1 = knn_graph(random_planar_points(6, seed=SEEDS[0]), 2)
    g2 = path_graph(4)
    prod = cartesian_product(g1, g2).adjacency
    a1, a2 = g1.adjacency, g2.adjacency
    ok = True
    for i1 in range(6):
        for i2 in range(4):
            for j1 in range(6):
                for j2 in range(4):
                    want = a1[i1, j1] * (i2 == j2) + (i1 == j1) * a2[i2, j2]
                    if prod[i1 * 4 + i2, j1 * 4 + j2] != want:
                        ok = False
    record("graph.product_elementwise", ok, "brute-force over all index quadruples")

    pts = random_planar_points(10, seed=SEEDS[0])
    same = np.array_equal(knn_graph(pts, 3).adjacency, knn_graph(pts, 3).adjacency)
    record("graph.knn_deterministic", same, "bit-identical rebuild")

    # -- operators ------------------------------------------------------------
    worst = 0.0
    worst_name = ""
    for n1 in N1_SIZES:
        basis = eigendecompose(path_graph(n1))
        for a in ORDER_GRID:
            ops = [("graph_frft", graph_frft(basis, a)), ("dfrft", dfrft_matrix(n1, a))]
            for name, op in ops:
                m = np.array(op.matrix)
                if fault_injection:
                    m = m.copy()
                    m[0, 0] += 1e-3
                err = unitarity_error(m) / op.n
                if err > worst:
                    worst, worst_name = err, f"{name}(n={n1}, order={a})"
    record("operator.unitarity_sweep", worst <= 1e-9,
           f"worst ||M^H M - I||/n = {worst:.2e} at {worst_name}"
           + (" [fault injected]" if fault_injection else ""))

    worst = 0.0
    for n1 in N1_SIZES:
        basis = eigendecompose(path_graph(n1))
        for a, b in [(0.3, 0.4), (-0.5, 1.2), (0.5, 0.5)]:
            d = np.abs(graph_frft(basis, a).matrix @ graph_frft(basis, b).matrix
                       - graph_frft(basis, a + b).matrix).max()
            worst = max(worst, d / n1)
            d = np.abs(dfrft_matrix(n1, a).matrix @ dfrft_matrix(n1, b).matrix
                       - dfrft_matrix(n1, a + b).matrix).max()
            worst = max(worst, d / n1)
    record("operator.additivity", worst <= 1e-8, f"worst |F^a F^b - F^(a+b)|/n = {worst:.2e}")

    basis = eigendecompose(path_graph(N1_SIZES[-1]))
    d1 = np.abs(graph_frft(basis, -0.7).matrix - graph_frft(basis, 0.7).matrix.conj().T).max()
    d2 = np.abs(dfrft_matrix(N1_SIZES[-1], -0.7).matrix
                - dfrft_matrix(N1_SIZES[-1], 0.7).matrix.conj().T).max()
    record("operator.inverse_hermitian", max(d1, d2) <= 1e-8 * N1_SIZES[-1],
           f"|F^-a - (F^a)^H| = {max(d1, d2):.2e}")

    # degenerate eigenspaces: the unitary DFT of size 8 has the eigenvalues
    # 1, -1 and -j repeated (F^4 = I, so (1/4) sum_k (F / w)^k projects onto
    # the eigenvalue w). Its principal power, -1 at phase +pi, must not move
    # when the eigenvectors inside each repeated eigenvalue are remixed
    m = np.arange(8)
    dft = np.exp(-2j * np.pi * np.outer(m, m) / 8) / np.sqrt(8)
    powers = [np.linalg.matrix_power(dft, k) for k in range(4)]
    want = sum(np.exp(0.3j * phi) * sum(w ** -k * f for k, f in enumerate(powers)) / 4
               for phi, w in ((0.0, 1.0), (np.pi, -1.0), (-np.pi / 2, -1j), (np.pi / 2, 1j)))
    theta, p = _unitary_eigendecomposition(dft)
    w = np.exp(1j * theta)
    remixed = [c for c in {tuple(np.flatnonzero(np.abs(w - wi) < 1e-6)) for wi in w} if len(c) > 1]
    # a generator of its own leaves the later checks' draws as they were
    remix_rng, p2 = np.random.default_rng(8), np.array(p)
    for c in sorted(remixed):
        q, _ = np.linalg.qr(remix_rng.standard_normal((len(c), len(c)))
                            + 1j * remix_rng.standard_normal((len(c), len(c))))
        p2[:, c] = p2[:, c] @ q
    d = max(np.abs(unitary_fractional_power(u, 0.3).matrix - want).max()
            for u in (dft, (p2 * w) @ p2.conj().T))
    record("operator.eigenspace_remix_invariance", remixed and d <= 1e-8 * 8,
           f"unitary DFT(8), {len(remixed)} repeated eigenvalues remixed, deviation {d:.2e}")

    worst = 0.0
    for n2 in N2_SIZES:
        m = np.arange(n2)
        dft = np.exp(-2j * np.pi * np.outer(m, m) / n2) / np.sqrt(n2)
        worst = max(worst, np.abs(dfrft_matrix(n2, 1.0).matrix - dft).max() / n2)
    record("operator.dfrft_order1_is_dft", worst <= 1e-8, f"worst deviation/n = {worst:.2e}")

    b = eigendecompose(path_graph(6))
    bit_equal = np.array_equal(graph_frft(b, 0.37).matrix,
                               graph_frft(eigendecompose(path_graph(6)), 0.37).matrix)
    record("operator.determinism", bit_equal, "bit-identical rebuild from identical inputs")

    # -- coupling ---------------------------------------------------------------
    worst = 0.0
    endpoints = 0.0
    symmetry = 0.0
    phase_lin = 0.0
    round_trip = 0.0
    for n2 in N2_SIZES:
        tb = eigendecompose(path_graph(n2))
        for beta in (0.3, 0.5, 1.0):
            fg = graph_frft(tb, beta)
            fd = dfrft_matrix(n2, beta)
            dec = phase_decompose(coupling_operator(fg, fd))
            dec_swap = phase_decompose(coupling_operator(fd, fg))
            for lam in DEFAULT_LAMBDA_GRID:
                ft = geodesic_temporal_basis(fg, dec, lam)
                worst = max(worst, unitarity_error(ft.matrix) / n2)
                sw = swapped_geodesic_temporal_basis(fd, dec_swap, lam)
                direct = geodesic_temporal_basis(fg, dec, 1.0 - lam)
                symmetry = max(symmetry, np.abs(sw.matrix - direct.matrix).max() / n2)
            endpoints = max(endpoints,
                            np.abs(geodesic_temporal_basis(fg, dec, 0.0).matrix - fg.matrix).max() / n2,
                            np.abs(geodesic_temporal_basis(fg, dec, 1.0).matrix - fd.matrix).max() / n2)
            resid = fg.matrix.conj().T @ geodesic_temporal_basis(fg, dec, 0.4).matrix
            got = np.sort(np.angle(np.linalg.eigvals(resid)))
            want = np.sort(0.4 * dec.theta)
            phase_lin = max(phase_lin, float(np.abs(got - want).max()))
            vec = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
            ft = geodesic_temporal_basis(fg, dec, 0.7)
            round_trip = max(round_trip, float(
                np.linalg.norm(ft.matrix.conj().T @ (ft.matrix @ vec) - vec) / np.linalg.norm(vec)))
    record("coupling.unitarity_lambda_sweep", worst <= 1e-9, f"worst ||F^H F - I||/n = {worst:.2e}")
    record("coupling.endpoint_degeneracy", endpoints <= 1e-8, f"worst endpoint deviation/n = {endpoints:.2e}")
    record("coupling.endpoint_symmetry", symmetry <= 1e-8, f"worst swap deviation/n = {symmetry:.2e}")
    record("coupling.phase_linearity", phase_lin <= 1e-8, f"worst eigenphase deviation = {phase_lin:.2e}")
    record("coupling.round_trip", round_trip <= 1e-9, f"worst relative reconstruction = {round_trip:.2e}")

    # -- separable transforms -----------------------------------------------------
    parseval = 0.0
    kron = 0.0
    chain = 0.0
    addit = 0.0
    for seed in SEEDS:
        srng = np.random.default_rng(seed)
        n1, n2 = 6, 4
        ctx = TransformContext(knn_graph(random_planar_points(n1, seed=seed), 2), path_graph(n2))
        x = TimeVertexSignal(srng.standard_normal((n1, n2)) + 1j * srng.standard_normal((n1, n2)),
                             real_flag=False)
        plans = {
            "gfrft2d": ctx.plan("gfrft2d", (0.6,)),
            "gbfrft2d": ctx.plan("gbfrft2d", (0.6, 0.3)),
            "jfrft": ctx.plan("jfrft", (0.6, 0.3)),
            "gcgfrft": ctx.plan("gcgfrft", (0.6, 0.3), lam=0.4),
        }
        for plan in plans.values():
            xh = forward(plan, x)
            parseval = max(parseval, abs(xh.norm - x.norm) / x.norm)
            kron = max(kron, float(np.linalg.norm(
                xh.data - _kron_vec_oracle(plan.row_op.matrix, plan.col_op.matrix, x.data))
                / np.linalg.norm(xh.data)))
        rel = np.linalg.norm(forward(ctx.plan("gbfrft2d", (0.6, 0.6)), x).data
                             - forward(plans["gfrft2d"], x).data) / x.norm
        chain = max(chain, float(rel))
        # the plans at lam 0 and 1 are factored: against the geodesic operator
        # built from the coupling, as their column operator
        for lam, plan in ((0.0, plans["gbfrft2d"]), (1.0, plans["jfrft"])):
            geodesic = geodesic_temporal_basis(graph_frft(ctx.temporal, 0.3), ctx.coupling(0.3), lam)
            rel = np.linalg.norm(forward(replace(plan, col_op=geodesic), x).data
                                 - forward(plan, x).data) / x.norm
            chain = max(chain, float(rel))
        two_step = forward(ctx.plan("gbfrft2d", (0.5, -0.2)), forward(plans["gbfrft2d"], x))
        one_step = forward(ctx.plan("gbfrft2d", (1.1, 0.1)), x)
        addit = max(addit, float(np.linalg.norm(two_step.data - one_step.data) / x.norm))
    record("transform.parseval", parseval <= 1e-9, f"worst relative norm drift = {parseval:.2e}")
    record("transform.kronecker_consistency", kron <= 1e-10,
           f"worst relative deviation from the vec oracle = {kron:.2e}")
    record("transform.degeneracy_chain", chain <= 1e-8, f"worst relative deviation = {chain:.2e}")
    record("transform.additivity_2d", addit <= 1e-8, f"worst relative deviation = {addit:.2e}")

    # -- learnable filtering ---------------------------------------------------
    n1, n2 = 8, 6
    ctx = TransformContext(knn_graph(random_planar_points(n1, seed=SEEDS[0]), 3), path_graph(n2))
    x = synth_signal(ctx.spatial, n2, bandwidth=0.4, seed=SEEDS[0])
    y = add_awgn(x, 0.8, seed=SEEDS[0] + 1)
    params = FilterParams(alpha=0.5, beta=0.5, h=np.full((n1, n2), 0.7), lam=0.3)

    g = grad_h(y, x, params, ctx)
    fd = np.zeros_like(g)
    for i in range(n1):
        for j in range(n2):
            hp = params.h.copy()
            hm = params.h.copy()
            hp[i, j] += 1e-6
            hm[i, j] -= 1e-6
            fd[i, j] = (loss(y, x, FilterParams(0.5, 0.5, hp, 0.3), ctx)
                        - loss(y, x, FilterParams(0.5, 0.5, hm, 0.3), ctx)) / 2e-6
    rel = float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
    record("wiener.grad_h_matches_fd", rel <= 1e-6, f"relative deviation = {rel:.2e}")

    h_star = closed_form_h(y, x, params, ctx)
    best = loss(y, x, FilterParams(0.5, 0.5, h_star, 0.3), ctx)
    cfg = TrainConfig(lr_orders=0.0, lr_filter=0.1, epochs=150)
    gd_params, _ = train(y, x, 0.3, cfg, ctx)
    gd_loss = loss(y, x, gd_params, ctx)
    record("wiener.closed_form_optimality", best <= gd_loss + 1e-9,
           f"closed-form {best:.3e} vs filter-only GD {gd_loss:.3e}")

    full = denoise_complex(y, params, ctx)
    direct = float(np.mean(np.abs(full.data - x.data) ** 2))
    spectral = loss(y, x, params, ctx)
    rel = abs(direct - spectral) / max(spectral, 1e-300)
    record("wiener.unitary_collapse", rel <= 1e-9,
           f"vertex-domain vs spectral-domain risk deviation = {rel:.2e}")

    lam_in = 0.3
    trained, _ = train(y, x, lam_in, TrainConfig(epochs=3), ctx)
    record("wiener.lambda_fixed", trained.lam == lam_in,
           f"coupling in {lam_in} -> out {trained.lam}")

    return PropertyReport(results)
