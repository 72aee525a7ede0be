import functools
import gc
import traceback
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspec import (
    FAMILIES,
    ConfigError,
    MarginViolationError,
    TimeVertexSignal,
    TransformContext,
    TransformPlan,
    forward,
    graph_frft,
    inverse,
    knn_graph,
    path_graph,
    random_planar_points,
)
from fracspec import transforms

from oracles import (
    complex_forward,
    conjugated_inverse,
    dense_conjugated_inverse,
    dense_forward,
    with_geodesic_columns,
)


def kron_vec_oracle(plan, x):
    """Explicit (F_col kron F_row) vec(X) with column-major stacking."""
    n1, n2 = x.shape
    big = np.kron(plan.col_op.matrix, plan.row_op.matrix)
    return (big @ x.ravel(order="F")).reshape((n1, n2), order="F")


def random_signal(rng, n1, n2, complex_valued=True):
    data = rng.standard_normal((n1, n2))
    if complex_valued:
        data = data + 1j * rng.standard_normal((n1, n2))
    return TimeVertexSignal(data, real_flag=not complex_valued)


@pytest.fixture(scope="module")
def ctx():
    return TransformContext(knn_graph(random_planar_points(6, seed=1), 2), path_graph(4))


ALL_PLANS = [
    ("gfrft2d", (0.6,), None),
    ("gbfrft2d", (0.6, 0.3), None),
    ("jfrft", (0.6, 0.3), None),
    ("gcgfrft", (0.6, 0.3), 0.4),
]


class TestForwardInverse:
    def test_identity_plan_is_identity(self, ctx, rng):
        plan = ctx.plan("gbfrft2d", (0.0, 0.0))
        x = random_signal(rng, 6, 4)
        assert np.abs(forward(plan, x).data - x.data).max() <= 1e-12

    def test_unit_entry_maps_to_operator_columns(self, ctx):
        plan = ctx.plan("gbfrft2d", (0.7, 0.2))
        i, j = 2, 1
        e = np.zeros((6, 4))
        e[i, j] = 1.0
        out = forward(plan, TimeVertexSignal(e)).data
        want = np.outer(plan.row_op.matrix[:, i], plan.col_op.matrix[:, j])
        assert np.abs(out - want).max() <= 1e-12

    @pytest.mark.parametrize("family,orders,lam", ALL_PLANS)
    def test_kronecker_vec_identity(self, ctx, rng, family, orders, lam):
        plan = ctx.plan(family, orders, lam=lam)
        x = random_signal(rng, 6, 4)
        got = forward(plan, x).data
        want = kron_vec_oracle(plan, x.data)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("family,orders,lam", ALL_PLANS)
    def test_round_trip(self, ctx, rng, family, orders, lam):
        plan = ctx.plan(family, orders, lam=lam)
        x = random_signal(rng, 6, 4)
        back = inverse(plan, forward(plan, x))
        assert np.abs(back.data - x.data).max() <= 1e-10

    def test_inverse_via_negated_orders(self, ctx, rng):
        plan = ctx.plan("gbfrft2d", (0.6, 0.3))
        neg = ctx.plan("gbfrft2d", (-0.6, -0.3))
        x = random_signal(rng, 6, 4)
        xh = forward(plan, x)
        a = inverse(plan, xh).data
        b = forward(neg, xh).data
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(a)

    @pytest.mark.parametrize("family,orders,lam", ALL_PLANS)
    def test_parseval(self, ctx, rng, family, orders, lam):
        plan = ctx.plan(family, orders, lam=lam)
        x = random_signal(rng, 6, 4)
        assert abs(forward(plan, x).norm - x.norm) <= 1e-9 * x.norm

    def test_shape_mismatch_rejected(self, ctx, rng):
        plan = ctx.plan("gfrft2d", (0.5,))
        with pytest.raises(ValueError, match="shape"):
            forward(plan, random_signal(rng, 4, 6))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), so=st.floats(-2, 2), to=st.floats(-2, 2))
    def test_round_trip_property(self, ctx, seed, so, to):
        srng = np.random.default_rng(seed)
        plan = ctx.plan("gbfrft2d", (so, to))
        x = random_signal(srng, 6, 4)
        back = inverse(plan, forward(plan, x))
        assert np.abs(back.data - x.data).max() <= 1e-9


class TestFamilyDegeneracy:
    def test_gbfrft2d_equal_orders_is_gfrft2d(self, ctx, rng):
        x = random_signal(rng, 6, 4)
        a = forward(ctx.plan("gbfrft2d", (0.8, 0.8)), x).data
        b = forward(ctx.plan("gfrft2d", (0.8,)), x).data
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    # a gcgfrft plan at lam 0 or 1 is the factored endpoint itself, so the
    # geodesic operator built from the coupling is compared with it
    def test_gcgfrft_lambda0_is_gbfrft2d(self, ctx, rng):
        x = random_signal(rng, 6, 4)
        plan = ctx.plan("gbfrft2d", (0.6, 0.3))
        a = forward(with_geodesic_columns(ctx, plan, 0.0), x).data
        b = forward(plan, x).data
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

    def test_gcgfrft_lambda1_is_jfrft(self, ctx, rng):
        x = random_signal(rng, 6, 4)
        plan = ctx.plan("jfrft", (0.6, 0.3))
        a = forward(with_geodesic_columns(ctx, plan, 1.0), x).data
        b = forward(plan, x).data
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(b)

    def test_2d_additivity(self, ctx, rng):
        x = random_signal(rng, 6, 4)
        two = forward(ctx.plan("gbfrft2d", (0.5, -0.2)),
                      forward(ctx.plan("gbfrft2d", (0.6, 0.3)), x)).data
        one = forward(ctx.plan("gbfrft2d", (1.1, 0.1)), x).data
        assert np.linalg.norm(two - one) <= 1e-8 * np.linalg.norm(one)


class TestPlanConstruction:
    def test_gfrft2d_rejects_two_distinct_orders(self, ctx):
        with pytest.raises(ConfigError):
            ctx.plan("gfrft2d", (0.5, 0.7))

    def test_gcgfrft_requires_lambda(self, ctx):
        with pytest.raises(ConfigError):
            ctx.plan("gcgfrft", (0.5, 0.5))

    def test_unknown_family_rejected(self, ctx):
        with pytest.raises(ConfigError):
            ctx.plan("nope", (0.5,))

    @pytest.mark.parametrize("family, orders", [
        ("gbfrft2d", (np.nan, 0.5)), ("jfrft", (0.5, np.inf)), ("gfrft2d", -np.inf),
        ("gcgfrft", (np.array([0.1, 0.2]), np.array([0.5, np.nan])))])
    def test_non_finite_orders_rejected(self, ctx, family, orders):
        # a plan of them would fail in forward, which blames the signal
        with pytest.raises(ConfigError, match="orders must be finite"):
            ctx.plan(family, orders, lam=0.5)

    @pytest.mark.parametrize("family", ["gbfrft2d", "jfrft", "gcgfrft"])
    @pytest.mark.parametrize("batched", [0, 1])
    def test_scalar_order_broadcasts_beside_an_array(self, ctx, rng, family, batched):
        orders = [0.5, 0.5]
        orders[batched] = np.array([0.1, 0.2, 0.35])
        plan = ctx.plan(family, tuple(orders), lam=0.4)
        x = random_signal(rng, 6, 4)
        spectra = plan.apply(x.data)
        assert spectra.shape == (3, 6, 4)
        for i, order in enumerate(orders[batched]):
            one = list(orders)
            one[batched] = order
            assert np.abs(spectra[i] - ctx.plan(family, tuple(one), lam=0.4).apply(x.data)).max() \
                <= 1e-12

    def test_batched_orders_of_two_lengths_rejected(self, ctx):
        with pytest.raises(ConfigError, match="one length"):
            ctx.plan("gbfrft2d", (np.array([0.1, 0.2]), np.array([0.1, 0.2, 0.3])))

    @pytest.mark.parametrize("tol", [True, "x", np.nan, -1.0, 3.5],
                             ids=["bool", "str", "nan", "negative", "above_pi"])
    def test_bad_margin_tolerance_rejected_at_construction(self, tol):
        with pytest.raises(ConfigError, match="margin tolerance"):
            TransformContext(path_graph(3), path_graph(4), margin_tol=tol)

    def test_coupling_cache_reused(self, ctx):
        d1 = ctx.coupling(0.37)
        d2 = ctx.coupling(0.37)
        assert d1 is d2


class TestBatchedPlans:
    def test_coupling_batch_maps_each_order(self):
        ctx = TransformContext(path_graph(4), path_graph(5))
        orders = [0.45, 0.3, 0.45, 0.6, 0.3]
        got = ctx.coupling(np.array(orders))
        assert got[0] is got[2] and got[1] is got[4]
        alone = TransformContext(path_graph(4), path_graph(5))
        for beta, d in zip(orders, got):
            want = alone.coupling(beta)
            assert np.abs(d.theta - want.theta).max() <= 1e-12
            assert np.abs(d.s - want.s).max() <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batched_plan_applies_each_member(self, ctx, rng, family):
        alpha = np.array([0.2, 0.7, 0.2, 0.5])
        beta = np.array([0.6, 0.3, 0.6, 0.45])
        lam = np.array([0.1, 0.5, 0.9, 0.3])
        orders = (alpha,) if family == "gfrft2d" else (alpha, beta)
        plan = ctx.plan(family, orders, lam=lam)
        x = random_signal(rng, 6, 4)
        spectra = plan.apply(x.data)
        back = plan.apply_inverse(spectra)
        for i in range(len(alpha)):
            one = ctx.plan(family, tuple(o[i] for o in orders), lam=lam[i])
            assert np.abs(spectra[i] - one.apply(x.data)).max() <= 1e-12
            assert np.abs(back[i] - x.data).max() <= 1e-10

    def test_fresh_distinct_orders_share_the_cached_rows(self):
        # a request built entirely by one call hands its fresh stacks to the
        # plan, and each cache entry is its order's row of the same stacks
        ctx = TransformContext(path_graph(4), path_graph(5))
        betas = [0.35, 0.55, 0.45]
        plan = ctx.plan("gcgfrft", (np.full(3, 0.5), np.array(betas)), lam=np.array([0.2, 0.5, 0.8]))
        col = plan.col_op
        for i, beta in enumerate(betas):
            batch, row = ctx._coupling_cache[beta]
            theta, left, right = batch.factors(row)
            assert row == i
            assert np.shares_memory(col.phases, theta) and np.array_equal(col.phases[i], theta)
            assert np.shares_memory(col.left, left) and np.array_equal(col.left[i], left)
            assert np.shares_memory(col.right, right) and np.array_equal(col.right[i], right)

    def test_cached_rows_map_to_their_orders(self):
        # after one batched build, a request in another order and a single
        # order each read their own rows, as a cold context builds them
        betas = [0.35, 0.55, 0.45]
        ctx = TransformContext(path_graph(4), path_graph(5))
        ctx.plan("gcgfrft", (np.full(3, 0.5), np.array(betas)), lam=np.full(3, 0.5))
        request, lams = [betas[2], betas[0]], [0.3, 0.7]
        got = ctx.plan("gcgfrft", (np.full(2, 0.5), np.array(request)), lam=np.array(lams)).col_op
        one = ctx.coupling(betas[1])
        for i, (beta, lam) in enumerate(zip(request, lams)):
            want = TransformContext(path_graph(4), path_graph(5)).plan(
                "gcgfrft", (0.5, beta), lam=lam).col_op
            for a, b in ((got.phases, want.phases), (got.left, want.left), (got.right, want.right)):
                assert np.abs(a[i] - b).max() <= 1e-12
        want = TransformContext(path_graph(4), path_graph(5)).coupling(betas[1])
        assert np.abs(one.s - want.s).max() <= 1e-12
        assert np.abs(one.theta - want.theta).max() <= 1e-12
        assert abs(one.margin - want.margin) <= 1e-12
        assert ctx.coupling(betas[1]) is one

    def test_cached_failure_is_raised_without_a_growing_traceback(self):
        # a margin tolerance of pi fails every order; the order's cached
        # error is raised again, its traceback reset each time
        ctx = TransformContext(path_graph(4), path_graph(5), margin_tol=np.pi)
        raised = []
        for _ in range(3):
            with pytest.raises(MarginViolationError) as err:
                ctx.plan("gcgfrft", (0.5, 0.45), lam=0.5)
            raised.append(err.value)
        assert raised[0] is raised[1] is raised[2]
        assert ctx._coupling_cache[0.45] is raised[0]
        # each traceback holds this test's frame and the raising method's
        # only, not the frames of the earlier raises
        assert [len(traceback.extract_tb(e.__traceback__)) for e in raised] == [2, 2, 2]
        with pytest.raises(MarginViolationError) as err:
            ctx.coupling(0.45)
        assert err.value is raised[0] and len(traceback.extract_tb(err.value.__traceback__)) == 2

    def test_batched_plan_rejects_a_coupling_value_outside_the_unit_interval(self, ctx):
        with pytest.raises(ValueError):
            ctx.plan("gcgfrft", (np.array([0.5, 0.5]), np.array([0.5, 0.6])),
                     lam=np.array([0.5, 1.5]))


class TestRealSignals:
    """A real signal is stored float64 and meets real GEMMs, or half-width
    real GEMMs against a complex factor, until the rotations make it
    complex; its spectra are those of the same signal stored complex."""

    ALPHA = np.array([0.2, 0.7, 0.2, 0.5, 1.3])
    BETA = np.array([0.6, 0.3, 0.6, 0.45, -0.4])
    LAM = np.array([0.1, 0.5, 0.9, 0.3, 1.0])

    @pytest.fixture(scope="class")
    def wide_ctx(self):
        return TransformContext(knn_graph(random_planar_points(12, seed=3), 3), path_graph(9))

    def plans(self, ctx, family):
        """A scalar plan, a batched plan, and for gcgfrft a batched plan whose
        coupling rows come from two cached builds, so its factors are stacked."""
        one = ctx.plan(family, (0.6,) if family == "gfrft2d" else (0.6, 0.3), lam=0.4)
        orders = (self.ALPHA,) if family == "gfrft2d" else (self.ALPHA, self.BETA)
        plans = [one, ctx.plan(family, orders, lam=self.LAM)]
        if family == "gcgfrft":
            ctx.coupling(0.8)
            plans.append(ctx.plan(family, (self.ALPHA[:3], np.array([0.8, 0.3, 0.45])),
                                  lam=self.LAM[:3]))
        return plans

    @pytest.mark.parametrize("family", FAMILIES)
    def test_real_input_equals_complex_input(self, wide_ctx, rng, family):
        x = rng.standard_normal((12, 9))
        for plan in self.plans(wide_ctx, family):
            got = plan.apply(x)
            want = plan.apply(x.astype(np.complex128))
            dense = plan.row_op.matrix @ x @ plan.col_op.matrix.swapaxes(-1, -2)
            scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
            assert np.all(np.abs(got - dense) <= 1e-12 * scale)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_strided_real_input(self, wide_ctx, rng, family):
        x = rng.standard_normal((24, 18))[::2, 1::2]
        for plan in self.plans(wide_ctx, family):
            want = plan.apply(np.ascontiguousarray(x))
            assert np.abs(plan.apply(x) - want).max() <= 1e-12 * np.abs(want).max()

    def test_forward_of_a_real_signal(self, wide_ctx, rng):
        x = TimeVertexSignal(rng.standard_normal((12, 9)))
        plan = wide_ctx.plan("gcgfrft", (0.6, 0.3), lam=0.4)
        xhat = forward(plan, x)
        assert x.data.dtype == np.float64 and xhat.data.dtype == np.complex128
        assert xhat.real_flag
        back = inverse(plan, xhat)
        assert np.abs(back.data - x.data).max() <= 1e-12


#: spatial x temporal bases by their self-partnered lines at phase pi, on
#: which a graph FRFT's rotation is complex: path10 and path16 have three
#: each, the k-NN graph of 30 points one
PI_BASES = {
    "path16 x path10": lambda: (path_graph(16), path_graph(10)),
    "knn30 x path16": lambda: (knn_graph(random_planar_points(30, seed=7), 4), path_graph(16)),
    "path10 x knn30": lambda: (path_graph(10), knn_graph(random_planar_points(30, seed=7), 4)),
    "knn30 x path10": lambda: (knn_graph(random_planar_points(30, seed=7), 4), path_graph(10)),
}


@functools.lru_cache(maxsize=None)
def pi_context(name):
    ctx = TransformContext(*PI_BASES[name]())
    counts = [b.fourier_phase_decomposition.pi_lines for b in (ctx.spatial, ctx.temporal)]
    assert counts == [1 if n == 30 else 3 for n in ctx.shape]
    return ctx


class TestRealRotations:
    """A real block meets the graph FRFT's rotations in real arithmetic,
    with the imaginary parts of the lines at phase pi as rank-k parts: the
    forward of a real signal and the real projection of an inverse equal
    the complex arithmetic, and each lane of a batched plan equals its
    single plan bit for bit. A complex input keeps the complex arithmetic
    bit for bit."""

    ALPHA = np.array([0.2, 0.7, 1.3, -0.4])
    BETA = np.array([0.6, 0.3, -0.45, 1.0])
    LAM = np.array([0.1, 0.5, 0.9, 0.3])

    def plans(self, ctx, family):
        """A batched plan and each of its lanes as a single plan."""
        orders = (self.ALPHA,) if family == "gfrft2d" else (self.ALPHA, self.BETA)
        lanes = [ctx.plan(family, tuple(o[i] for o in orders), lam=self.LAM[i])
                 for i in range(len(self.ALPHA))]
        return ctx.plan(family, orders, lam=self.LAM), lanes

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", PI_BASES)
    def test_forward_of_a_real_signal(self, rng, name, family):
        ctx = pi_context(name)
        x = rng.standard_normal(ctx.shape)
        batched, lanes = self.plans(ctx, family)
        got = batched.apply(x)
        for i, plan in enumerate(lanes):
            want = complex_forward(plan, x.astype(np.complex128))
            one = plan.apply(x)
            assert one.dtype == np.complex128
            assert np.abs(one - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(got[i], one)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", PI_BASES)
    def test_real_projection_of_the_inverse(self, rng, name, family):
        ctx = pi_context(name)
        z = rng.standard_normal(ctx.shape) + 1j * rng.standard_normal(ctx.shape)
        batched, lanes = self.plans(ctx, family)
        got = batched.apply_inverse(z, real=True)
        assert got.dtype == np.float64
        for i, plan in enumerate(lanes):
            want = conjugated_inverse(plan, z).real
            one = plan.apply_inverse(z, real=True)
            assert np.abs(one - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(got[i], one)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("name", PI_BASES)
    def test_complex_input_keeps_the_complex_arithmetic(self, rng, name, family):
        # the geodesic column operator is applied through its dense matrix
        ctx = pi_context(name)
        z = rng.standard_normal(ctx.shape) + 1j * rng.standard_normal(ctx.shape)
        batched, lanes = self.plans(ctx, family)
        dense = family == "gcgfrft"
        forward_oracle = dense_forward if dense else complex_forward
        inverse_oracle = dense_conjugated_inverse if dense else conjugated_inverse
        for plan in (batched, lanes[0]):
            assert plan.col_op.dense == dense
            got = plan.apply(z), plan.apply_inverse(z)
            assert np.array_equal(got[0], forward_oracle(plan, z))
            assert np.array_equal(got[1], inverse_oracle(plan, z))
            # and the dense matrix is the operator's factors
            for g, want in zip(got, (complex_forward(plan, z), conjugated_inverse(plan, z))):
                scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(g - want) <= 1e-12 * scale)


class TestDenseGeodesic:
    """The geodesic column operator ``C`` is applied through its dense
    matrix (``apply`` and ``apply_inverse``: ``TestRealRotations``): the
    training spectra equal the factored complex arithmetic, on bases with
    lines at phase pi on both sides. A scalar plan takes its temporal
    order's operator at its coupling value, so plans at one (order,
    coupling value) share one matrix."""

    BASES = ("path16 x path10", "knn30 x path10")

    def plans(self, ctx):
        """A scalar plan and a 4-lane batched plan."""
        lanes = TestRealRotations
        return [ctx.plan("gcgfrft", (0.7, 0.3), lam=0.5),
                ctx.plan("gcgfrft", (lanes.ALPHA, lanes.BETA), lam=lanes.LAM)]

    @staticmethod
    def assert_close(got, want):
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("complex_input, row_first",
                             [(False, False), (False, True), (True, False)],
                             ids=["real-column_first", "real-row_first", "complex-column_first"])
    @pytest.mark.parametrize("name", BASES)
    def test_training_spectra_equal_the_factored_arithmetic(self, monkeypatch, rng, name,
                                                            complex_input, row_first):
        ctx = pi_context(name)
        monkeypatch.setattr(TransformPlan, "_row_factor_first", lambda plan, r: row_first)
        y, x = (random_signal(rng, *ctx.shape, complex_valued=complex_input) for _ in range(2))
        coords = ctx._stacked_coordinates(y, x)
        for plan in self.plans(ctx):
            r = coords if isinstance(plan.lam, float) else np.stack([coords] * len(plan.lam))
            yx, _, _, rate = plan._factored_spectra(r, alpha_rates=True)
            want = np.concatenate([complex_forward(plan, s.data.astype(np.complex128))
                                   for s in (y, x)], axis=-1)
            self.assert_close(yx, want)
            self.assert_close(rate, plan.row_op.generator() @ want)

    def test_scalar_plans_share_one_matrix_per_coupling_value(self, monkeypatch):
        ctx = TransformContext(path_graph(6), path_graph(8))
        decompose, calls = transforms.phase_decompose, []

        def counting_decompose(*args, **kwargs):
            calls.append(1)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(transforms, "phase_decompose", counting_decompose)
        one = ctx.plan("gcgfrft", (0.3, 0.45), lam=0.4)
        two = ctx.plan("gcgfrft", (0.8, 0.45), lam=0.4)
        assert one.col_op.matrix is two.col_op.matrix
        # another coupling value of the order gets its own matrix, and the
        # order is not decomposed again
        other = ctx.plan("gcgfrft", (0.3, 0.45), lam=0.6)
        assert other.col_op.matrix is not one.col_op.matrix
        assert ctx.plan("gcgfrft", (0.5, 0.45), lam=0.6).col_op.matrix is other.col_op.matrix
        assert len(calls) == 1
        dec, f = ctx.coupling(0.45), graph_frft(ctx.temporal, 0.45).matrix
        for plan, lam in ((one, 0.4), (other, 0.6)):
            want = f @ (dec.s * np.exp(1j * lam * dec.theta)) @ dec.s.conj().T
            assert np.abs(plan.col_op.matrix - want).max() <= 1e-12

    def test_an_evicted_order_drops_its_matrix(self):
        ctx = TransformContext(path_graph(6), path_graph(8))
        ctx.coupling(np.array([0.45, 0.55]))
        batch, row = ctx._coupling_cache[0.45]
        matrix = weakref.ref(ctx.plan("gcgfrft", (0.3, 0.45), lam=0.4).col_op.matrix)
        kept = ctx.plan("gcgfrft", (0.3, 0.55), lam=0.4).col_op
        gc.collect()
        assert matrix() is not None
        # 0.55 was asked for last, so one more order than the cache holds
        # evicts 0.45 alone, and its batch stays alive through 0.55
        ctx.coupling(np.linspace(0.6, 0.9, transforms.COUPLING_CACHE_SIZE - 1))
        gc.collect()
        assert 0.45 not in ctx._coupling_cache and ctx._coupling_cache[0.55][0] is batch
        assert matrix() is None and row not in batch._operators
        assert ctx.plan("gcgfrft", (0.3, 0.55), lam=0.4).col_op is kept


class TestTimeVertexSignal:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TimeVertexSignal(np.array([[np.inf, 0.0]]))

    def test_real_flag_detection(self, rng):
        assert TimeVertexSignal.from_array(rng.standard_normal((2, 3))).real_flag
        assert not TimeVertexSignal.from_array(
            rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))).real_flag

    def test_real_input_is_stored_float64(self, rng):
        real = rng.standard_normal((2, 3))
        cases = [(real, np.float64), (np.arange(6).reshape(2, 3), np.float64),
                 (real.astype(np.float32), np.float64), (real + 1j * real, np.complex128),
                 (real.astype(np.complex64), np.complex128)]
        for arr, dtype in cases:
            sig = TimeVertexSignal.from_array(arr)
            assert sig.data.dtype == dtype and sig.real_flag == (dtype == np.float64)
            assert np.array_equal(sig.data, arr)

    def test_data_is_an_own_read_only_copy(self, rng):
        arr = rng.standard_normal((2, 3))
        sig, before = TimeVertexSignal(arr), arr[0, 0]
        arr[0, 0] += 1.0
        assert sig.data[0, 0] == before
        assert not sig.data.flags.writeable and arr.flags.writeable
        # a real signal's real part is its data, uncopied
        assert sig.as_real() is sig.data

    def test_vector_rejected(self):
        with pytest.raises(ValueError):
            TimeVertexSignal(np.zeros(4))
