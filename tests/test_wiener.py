import numpy as np
import pytest

from fracspec import (
    ConfigError,
    FilterParams,
    Graph,
    MarginViolationError,
    TimeVertexSignal,
    TrainConfig,
    TransformContext,
    add_awgn,
    closed_form_h,
    denoise,
    denoise_complex,
    eigendecompose,
    graph_frft,
    grad_h,
    grad_orders,
    knn_graph,
    lambda_grid_search,
    loss,
    path_graph,
    random_planar_points,
    synth_signal,
    train,
)
from fracspec import operators, transforms
from fracspec.wiener import _train_lanes
from oracles import complex_forward, fd_order_gradient


def trivial_graph(n=1):
    return Graph(np.zeros((n, n)))


@pytest.fixture(scope="module")
def instance(small_ctx):
    x = synth_signal(small_ctx.spatial, 5, bandwidth=0.4, seed=2)
    y = add_awgn(x, 0.7, seed=3)
    return small_ctx, x, y


def unit_params(shape, lam=0.3, alpha=0.5, beta=0.5):
    return FilterParams(alpha=alpha, beta=beta, h=np.ones(shape), lam=lam)


def assert_same_training(row, params, trace, tol=1e-12):
    """A grid row's lane equals a single-lane training of its coupling value."""
    assert abs(row.params.alpha - params.alpha) <= tol
    assert abs(row.params.beta - params.beta) <= tol
    assert np.abs(row.params.h - params.h).max() <= tol
    assert len(row.trace) == len(trace)
    assert max(abs(a.loss - b.loss) for a, b in zip(row.trace, trace)) <= tol


class TestDenoise:
    def test_all_ones_filter_is_round_trip(self, instance):
        ctx, x, y = instance
        est = denoise(y, unit_params(y.shape), ctx)
        assert np.linalg.norm(est.data - y.data) <= 1e-9 * y.norm

    def test_all_zeros_filter(self, instance):
        ctx, _, y = instance
        params = FilterParams(0.5, 0.5, np.zeros(y.shape), 0.3)
        assert np.abs(denoise(y, params, ctx).data).max() <= 1e-12

    def test_indicator_bin_gives_rank_one_outer_product(self, instance):
        ctx, _, y = instance
        i, j = 2, 1
        h = np.zeros(y.shape)
        h[i, j] = 1.0
        params = FilterParams(0.5, 0.5, h, 0.3)
        est = denoise_complex(y, params, ctx)
        plan = ctx.plan("gcgfrft", (0.5, 0.5), lam=0.3)
        from fracspec import forward
        coeff = forward(plan, y).data[i, j]
        want = coeff * np.outer(plan.row_op.matrix[i, :].conj(),
                                plan.col_op.matrix[j, :].conj())
        assert np.abs(est.data - want).max() <= 1e-12
        assert np.linalg.matrix_rank(est.data, tol=1e-10) == 1

    def test_real_projection_for_real_sources(self, instance):
        ctx, _, y = instance
        params = FilterParams(0.4, 0.6, np.full(y.shape, 0.5), 0.3)
        est = denoise(y, params, ctx)
        assert est.real_flag and est.data.dtype == np.float64
        est_c = denoise_complex(y, params, ctx)
        assert np.abs(est_c.data.imag).max() > 0
        assert np.allclose(est.data.real, est_c.data.real)


    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    def test_real_projection_equals_the_complex_estimate(self, family):
        # path(16) x path(10): three lines at phase pi on each side
        ctx = TransformContext(path_graph(16), path_graph(10))
        rng = np.random.default_rng(3)
        y = TimeVertexSignal(rng.standard_normal(ctx.shape))
        params = FilterParams(0.35, 0.7, rng.uniform(size=ctx.shape), 0.6)
        est = denoise(y, params, ctx, family=family)
        want = denoise_complex(y, params, ctx, family=family).data.real
        assert est.data.dtype == np.float64
        assert np.abs(est.data - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    def test_complex_observation_is_the_complex_estimate(self, family):
        # a complex observation keeps the complex estimate, to the bit
        ctx = TransformContext(path_graph(16), path_graph(10))
        rng = np.random.default_rng(4)
        y = TimeVertexSignal.from_array(rng.standard_normal(ctx.shape)
                                        + 1j * rng.standard_normal(ctx.shape))
        params = FilterParams(0.35, 0.7, rng.uniform(size=ctx.shape), 0.6)
        est = denoise(y, params, ctx, family=family)
        assert not est.real_flag
        assert np.array_equal(est.data, denoise_complex(y, params, ctx, family=family).data)


class TestLoss:
    def test_zero_at_truth_with_unit_filter(self, instance):
        ctx, x, _ = instance
        assert loss(x, x, unit_params(x.shape), ctx) <= 1e-12 * x.norm**2

    def test_zero_filter_gives_mean_signal_power(self, instance):
        ctx, x, _ = instance
        params = FilterParams(0.5, 0.5, np.zeros(x.shape), 0.3)
        want = x.norm**2 / x.data.size  # mean-squared risk normalization
        assert loss(x, x, params, ctx) == pytest.approx(want, rel=1e-12)

    def test_scalar_sanity(self):
        # 1x1 trivial graphs: the transform is the unit scalar
        ctx = TransformContext(trivial_graph(), trivial_graph())
        y = TimeVertexSignal(np.array([[2.0]]))
        x = TimeVertexSignal(np.array([[1.0]]))
        params = FilterParams(0.5, 0.5, np.array([[0.5]]), 0.0)
        assert loss(y, x, params, ctx, family="gbfrft2d") == pytest.approx(0.0, abs=1e-15)

    def test_equals_full_denoise_residual(self, instance):
        ctx, x, y = instance
        params = FilterParams(0.45, 0.6, np.full(y.shape, 0.8), 0.3)
        spectral = loss(y, x, params, ctx)
        est = denoise_complex(y, params, ctx)
        direct = float(np.mean(np.abs(est.data - x.data) ** 2))
        assert abs(spectral - direct) <= 1e-9 * max(direct, 1e-30)


class TestGradH:
    def test_zero_at_closed_form_optimum(self, instance):
        ctx, x, y = instance
        params = unit_params(y.shape)
        params.h = closed_form_h(y, x, params, ctx)
        assert np.abs(grad_h(y, x, params, ctx)).max() <= 1e-9

    def test_zero_at_truth_with_unit_filter(self, instance):
        ctx, x, _ = instance
        assert np.abs(grad_h(x, x, unit_params(x.shape), ctx)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_central_differences(self, seed, small_ctx):
        ctx = small_ctx
        x = synth_signal(ctx.spatial, 5, bandwidth=0.5, seed=seed)
        y = add_awgn(x, 0.6, seed=seed + 100)
        srng = np.random.default_rng(seed)
        h = 0.2 + srng.uniform(size=x.shape)
        params = FilterParams(0.45, 0.55, h, 0.3)
        g = grad_h(y, x, params, ctx)
        fd = np.zeros_like(g)
        step = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += step
                hm[i, j] -= step
                fd[i, j] = (loss(y, x, FilterParams(0.45, 0.55, hp, 0.3), ctx)
                            - loss(y, x, FilterParams(0.45, 0.55, hm, 0.3), ctx)) / (2 * step)
        assert np.linalg.norm(g - fd) <= 1e-6 * np.linalg.norm(fd)


class TestGradOrders:
    def test_small_at_trained_minimum(self, instance):
        ctx, x, y = instance
        params, _ = train(y, x, 0.3, TrainConfig(), ctx)
        g = grad_orders(y, x, params, ctx)
        assert np.abs(g).max() <= 1e-3

    def test_degenerate_temporal_axis_has_zero_beta_gradient(self):
        # one temporal node: the temporal basis is the scalar 1 for every
        # order, so the risk cannot depend on it
        ctx = TransformContext(path_graph(6), trivial_graph(1))
        x = TimeVertexSignal(np.random.default_rng(0).standard_normal((6, 1)))
        y = TimeVertexSignal(x.data + 0.5)
        params = FilterParams(0.4, 0.7, np.full((6, 1), 0.8), 0.0)
        _, dbeta = grad_orders(y, x, params, ctx, family="gbfrft2d")
        assert abs(dbeta) <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_analytic_matches_fd(self, seed):
        ctx = TransformContext(knn_graph(random_planar_points(4, seed=seed), 2), path_graph(3))
        x = synth_signal(ctx.spatial, 3, bandwidth=0.6, seed=seed)
        y = add_awgn(x, 0.5, seed=seed + 50)
        srng = np.random.default_rng(seed + 7)
        params = FilterParams(0.45, 0.6, 0.3 + srng.uniform(size=(4, 3)), 0.4)
        ga = np.array(grad_orders(y, x, params, ctx))
        gf = fd_order_gradient(y, x, params, ctx)
        assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)

    def test_analytic_matches_fd_other_families(self, instance):
        ctx, x, y = instance
        srng = np.random.default_rng(9)
        h = 0.3 + srng.uniform(size=x.shape)
        for family in ("gbfrft2d", "jfrft"):
            params = FilterParams(0.45, 0.6, h, 0.0)
            ga = np.array(grad_orders(y, x, params, ctx, family=family))
            gf = fd_order_gradient(y, x, params, ctx, family=family)
            assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)


class TestClosedFormH:
    def test_truth_observation_gives_unit_filter_on_live_bins(self, instance):
        ctx, x, _ = instance
        params = unit_params(x.shape)
        h = closed_form_h(x, x, params, ctx)
        plan = ctx.plan("gcgfrft", (0.5, 0.5), lam=0.3)
        from fracspec import forward
        power = np.abs(forward(plan, x).data) ** 2
        live = power >= 1e-14 * power.mean()
        assert np.allclose(h[live], 1.0)
        assert np.all(h[~live] == 0.0)

    def test_zero_truth_gives_zero_filter(self, instance):
        ctx, _, y = instance
        zero = TimeVertexSignal(np.zeros(y.shape))
        h = closed_form_h(y, zero, unit_params(y.shape), ctx)
        assert np.all(h == 0.0)

    def test_scalar_case(self):
        ctx = TransformContext(trivial_graph(), trivial_graph())
        y = TimeVertexSignal(np.array([[2.0]]))
        x = TimeVertexSignal(np.array([[1.0]]))
        h = closed_form_h(y, x, FilterParams(0.5, 0.5, np.ones((1, 1)), 0.0), ctx,
                          family="gbfrft2d")
        assert h[0, 0] == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_beats_filter_only_gd(self, seed):
        # convexity: the closed form is the exact subproblem optimum
        ctx = TransformContext(knn_graph(random_planar_points(7, seed=seed), 2), path_graph(4))
        x = synth_signal(ctx.spatial, 4, bandwidth=0.5, seed=seed)
        y = add_awgn(x, 0.8, seed=seed + 31)
        params = unit_params(x.shape, lam=0.2)
        h_star = closed_form_h(y, x, params, ctx)
        best = loss(y, x, FilterParams(0.5, 0.5, h_star, 0.2), ctx)
        cfg = TrainConfig(lr_orders=0.0, lr_filter=0.1, epochs=200)
        gd_params, _ = train(y, x, 0.2, cfg, ctx)
        assert best <= loss(y, x, gd_params, ctx) + 1e-9


class TestObservationEntry:
    """``closed_form_h``, ``denoise`` and ``denoise_complex`` get ``Yhat``
    through the context's one observation entry: fitting a filter on ``Y``
    and applying it at one plan transforms ``Y`` once, and any other point,
    dtype or values miss it and give what a fresh context gives."""

    CASES = [("gfrft2d", 0.0), ("gbfrft2d", 0.0), ("jfrft", 1.0), ("gcgfrft", 0.3)]

    @pytest.fixture
    def applies(self, monkeypatch):
        """A copy of every array that ``TransformPlan.apply`` is given."""
        apply, seen = transforms.TransformPlan.apply, []

        def counting_apply(plan, x):
            seen.append(np.array(x))
            return apply(plan, x)

        monkeypatch.setattr(transforms.TransformPlan, "apply", counting_apply)
        return seen

    @staticmethod
    def fresh(ctx):
        return TransformContext(ctx.spatial, ctx.temporal)

    @staticmethod
    def fitted(y, x, params, ctx, family):
        h = closed_form_h(y, x, params, ctx, family=family)
        return FilterParams(params.alpha, params.beta, h, params.lam)

    @pytest.mark.parametrize("family, lam", CASES)
    def test_fit_then_denoise_transforms_y_once(self, instance, applies, family, lam):
        small, x, y = instance
        ctx = self.fresh(small)
        params = self.fitted(y, x, unit_params(y.shape, lam=lam), ctx, family)
        est = denoise(y, params, ctx, family=family)
        est_c = denoise_complex(y, params, ctx, family=family)
        assert sum(np.array_equal(a, y.data) for a in applies) == 1
        assert sum(np.array_equal(a, x.data) for a in applies) == 1
        want = self.fitted(y, x, unit_params(y.shape, lam=lam), self.fresh(small), family)
        assert np.array_equal(params.h, want.h)
        assert np.array_equal(est.data, denoise(y, want, self.fresh(small), family=family).data)
        assert np.array_equal(est_c.data,
                              denoise_complex(y, want, self.fresh(small), family=family).data)
        assert not ctx._observation[2].flags.writeable

    @staticmethod
    def writable(y):
        """A signal whose owned array is made writable again."""
        sig = TimeVertexSignal(y.data)
        sig.data.setflags(write=True)
        return sig

    @pytest.mark.parametrize("case", ["point", "lam", "complex", "in_place"])
    def test_miss_equals_a_fresh_context(self, instance, applies, case):
        small, x, y = instance
        ctx = self.fresh(small)
        y_fit = self.writable(y) if case == "in_place" else y
        params = self.fitted(y_fit, x, unit_params(y.shape, lam=0.3), ctx, "gcgfrft")
        y_est = y_fit
        if case == "point":
            params.beta = 0.7
        elif case == "lam":
            params.lam = 0.6
        elif case == "complex":
            y_est = TimeVertexSignal(y.data.astype(np.complex128), real_flag=y.real_flag)
        else:
            y_fit.data[2, 1] += 0.25
        est = denoise(y_est, params, ctx)
        assert len(applies) == 3
        assert np.array_equal(est.data, denoise(y_est, params, self.fresh(small)).data)

    def test_batched_plans_bypass_the_entry(self, instance):
        small, _, y = instance
        ctx = self.fresh(small)
        plan = ctx.plan("gbfrft2d", (np.array([0.3, 0.6]), 0.5))
        yhat = ctx._observation_spectrum(plan, y)
        assert yhat.shape == (2, *y.shape) and ctx._observation is None


class TestTrain:
    def test_zero_rates_leave_params_unchanged(self, instance):
        ctx, x, y = instance
        cfg = TrainConfig(lr_orders=0.0, lr_filter=0.0, epochs=1)
        params, trace = train(y, x, 0.3, cfg, ctx)
        assert params.alpha == 0.5 and params.beta == 0.5
        assert np.all(params.h == 1.0)
        assert len(trace) == 1
        assert trace[0].loss == pytest.approx(loss(y, x, params, ctx))

    def test_epochs_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_noiseless_training_reaches_zero(self, instance):
        ctx, x, _ = instance
        params, trace = train(x, x, 0.3, TrainConfig(), ctx)
        assert loss(x, x, params, ctx) <= 1e-6 * x.norm**2

    def test_loss_decreases_on_bundled_instance(self, instance):
        ctx, x, y = instance
        params, trace = train(y, x, 0.3, TrainConfig(), ctx)
        assert loss(y, x, params, ctx) < trace[0].loss

    def test_lambda_is_bit_identical_after_training(self, instance):
        ctx, x, y = instance
        lam = 0.30000000000000004  # deliberately non-round
        params, _ = train(y, x, lam, TrainConfig(epochs=5), ctx)
        assert params.lam == lam

    def test_deterministic_trace(self, instance):
        ctx, x, y = instance
        cfg = TrainConfig(epochs=20)
        _, t1 = train(y, x, 0.3, cfg, ctx)
        _, t2 = train(y, x, 0.3, cfg, ctx)
        assert [s.loss for s in t1] == [s.loss for s in t2]
        assert [s.alpha for s in t1] == [s.alpha for s in t2]

    def test_adam_optimizer_decreases_loss(self, instance):
        ctx, x, y = instance
        params, trace = train(y, x, 0.3, TrainConfig.adam(), ctx)
        assert loss(y, x, params, ctx) < trace[0].loss

    def test_gfrft2d_family_shares_one_order(self, instance):
        ctx, x, y = instance
        params, _ = train(y, x, None, TrainConfig(epochs=30), ctx, family="gfrft2d")
        assert params.alpha == params.beta

    @pytest.mark.parametrize("family", ["gcgfrft", "gbfrft2d", "jfrft"])
    def test_order_step_follows_oracle_gradient(self, instance, family):
        # the all-ones starting filter makes the risk order-independent, so
        # the orders first move in epoch 1, against the filter of epoch 0's step
        ctx, x, y = instance
        lam = 0.3 if family == "gcgfrft" else None
        cfg = TrainConfig(lr_orders=0.1, lr_filter=0.1, epochs=2)
        params, _ = train(y, x, lam, cfg, ctx, family=family)
        start = FilterParams(0.5, 0.5, np.ones(y.shape), lam or 0.0)
        start.h = start.h - cfg.lr_filter * grad_h(y, x, start, ctx, family=family)
        want = -cfg.lr_orders * fd_order_gradient(y, x, start, ctx, family=family)
        step = np.array([params.alpha - 0.5, params.beta - 0.5])
        assert np.linalg.norm(step - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("config", [TrainConfig(epochs=2), TrainConfig.adam(epochs=2)],
                             ids=["gd", "adam"])
    @pytest.mark.parametrize("family", ["gcgfrft", "gbfrft2d", "jfrft", "gfrft2d"])
    def test_first_order_step_is_exactly_zero(self, instance, config, family):
        # at the all-ones starting filter the risk does not depend on the
        # orders; Adam would turn the rounding of their gradient into a step
        ctx, x, y = instance
        _, trace = train(y, x, 0.3 if family == "gcgfrft" else None, config, ctx, family=family)
        assert (trace[1].alpha, trace[1].beta) == (0.5, 0.5)

    @pytest.mark.parametrize("config", [TrainConfig(epochs=40), TrainConfig.adam(epochs=40)],
                             ids=["gd", "adam"])
    def test_tied_lane_keeps_equal_orders(self, bench_ctx, config):
        # a gfrft2d lane shares its batch with an untied lane at lam 0
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=0.3, seed=5)
        y = add_awgn(x, 0.9, seed=6)
        (tied, trace, final), (untied, _, _) = _train_lanes(
            [(y, x)] * 2, [None, None], config, bench_ctx, ["gfrft2d", "gbfrft2d"], record=True)
        assert all(step.alpha == step.beta for step in trace)
        assert tied.alpha == tied.beta != 0.5 and untied.alpha != untied.beta
        alone, alone_trace = train(y, x, None, config, bench_ctx, family="gfrft2d")
        assert (alone.alpha, alone.beta) == (tied.alpha, tied.beta)
        assert np.array_equal(alone.h, tied.h) and alone_trace == trace

    def test_epoch_one_plans_at_the_cached_starting_order(self, monkeypatch):
        # the denoise run of the perfbench temporal_cli workload: 3 coupling
        # values, 5 Adam epochs at 64x128. Only the lam 0.5 lane builds
        # couplings, and epoch 1 plans it at the cached beta 0.5, so the run
        # builds 1 + 4 = 5 couplings, not 6
        decompose, matrices = transforms.phase_decompose, []

        def counting_decompose(w, **kwargs):
            matrices.append(len(w))
            return decompose(w, **kwargs)

        monkeypatch.setattr(transforms, "phase_decompose", counting_decompose)
        ctx = TransformContext(knn_graph(random_planar_points(64, seed=7), 4), path_graph(128))
        x = synth_signal(ctx.spatial, 128, bandwidth=0.3, seed=11)
        y = add_awgn(x, 0.9, seed=12)
        config = TrainConfig.adam(lr_orders=0.02, lr_filter=0.02, epochs=5)
        _, _, table = lambda_grid_search(y, x, [0.0, 0.5, 1.0], config, ctx)
        assert all(row.trace[1].beta == 0.5 for row in table)
        assert sum(matrices) == 5

    def test_no_jump_near_the_branch_cut(self, bench_ctx):
        # near epoch 151 this run passes within 2e-4 rad of the coupling's -1
        # branch cut, where a central difference whose two probes straddle
        # the cut overstates the temporal-order gradient ~1e5-fold
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        params, trace = train(y, x, 0.5, TrainConfig(), bench_ctx)
        assert max(abs(step.beta - 0.5) for step in trace) < 1.0
        assert abs(params.beta - 0.5) < 1.0
        assert loss(y, x, params, bench_ctx) < trace[100].loss

    @pytest.mark.parametrize("family", ["gbfrft2d", "jfrft", "gcgfrft"])
    def test_divergence_raises(self, family):
        # the spectra are not re-checked inside the loop, so a run whose
        # orders or filter blow up must still fail loudly
        ctx = TransformContext(knn_graph(random_planar_points(8, seed=0), 3), path_graph(6))
        x = synth_signal(ctx.spatial, 6, bandwidth=0.4, seed=0)
        y = add_awgn(x, 0.8, seed=1)
        cfg = TrainConfig(lr_orders=1e300, lr_filter=1e300, epochs=20)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged at epoch"):
            train(y, x, 0.5 if family == "gcgfrft" else None, cfg, ctx, family=family)

    def test_non_finite_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            FilterParams(alpha=np.inf, beta=0.5, h=np.ones((2, 2)))


class TestLambdaGridSearch:
    def test_single_point_grid(self, instance):
        ctx, x, y = instance
        best_lam, params, table = lambda_grid_search(y, x, [0.0], TrainConfig(epochs=20), ctx)
        assert best_lam == 0.0 and len(table) == 1
        direct, _ = train(y, x, 0.0, TrainConfig(epochs=20), ctx)
        assert params.alpha == direct.alpha and np.array_equal(params.h, direct.h)

    def test_endpoints_dominate(self, instance):
        ctx, x, y = instance
        cfg = TrainConfig(epochs=30)
        _, _, table = lambda_grid_search(y, x, [0.0, 0.5, 1.0], cfg, ctx)
        losses = {row.lam: row.loss for row in table}
        best = min(losses.values())
        assert best <= losses[0.0] and best <= losses[1.0]

    def test_tie_breaks_to_smaller_lambda(self, instance):
        ctx, x, _ = instance
        # noiseless: every coupling value reaches the same (zero) loss
        best_lam, _, _ = lambda_grid_search(x, x, [0.0, 0.5, 1.0],
                                            TrainConfig(epochs=2), ctx)
        assert best_lam == 0.0

    def test_empty_grid_rejected(self, instance):
        ctx, x, y = instance
        with pytest.raises(ConfigError):
            lambda_grid_search(y, x, [], TrainConfig(), ctx)

    @pytest.mark.parametrize("grid", [[True, 0.5], [0, False], ["0.5"], [0.5, 0.5], 0.5],
                             ids=["bool", "bool_after_zero", "string", "repeated", "scalar"])
    def test_malformed_grid_rejected(self, instance, grid):
        ctx, x, y = instance
        with pytest.raises(ConfigError):
            lambda_grid_search(y, x, grid, TrainConfig(epochs=1), ctx)

    def test_array_grid_accepted(self, instance):
        ctx, x, y = instance
        _, _, table = lambda_grid_search(y, x, np.array([0.0, 1.0]), TrainConfig(epochs=1), ctx)
        assert [row.lam for row in table] == [0.0, 1.0]

    @pytest.mark.parametrize("config", [TrainConfig(), TrainConfig.adam()], ids=["gd", "adam"])
    def test_rows_equal_single_lane_training(self, bench_ctx, config):
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=0.3, seed=11)
        y = add_awgn(x, 0.9, seed=12)
        _, _, table = lambda_grid_search(y, x, [round(0.1 * i, 1) for i in range(11)],
                                         config, bench_ctx)
        for row in table:
            assert_same_training(row, *train(y, x, row.lam, config, bench_ctx))

    def test_branch_cut_lane_leaves_the_batch(self, bench_ctx):
        # a 1e-3 rad margin tolerance puts the cut in the path of the lam 0.1
        # and 0.3 lanes (at epochs 93 and 64) and not of the other two
        ctx = TransformContext(bench_ctx.spatial, bench_ctx.temporal, margin_tol=1e-3)
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        _, _, table = lambda_grid_search(y, x, [0.1, 0.3, 0.6, 1.0], TrainConfig(), ctx)
        assert [row.params is None for row in table] == [True, True, False, False]
        for row in table:
            if row.params is None:
                with pytest.raises(MarginViolationError) as err:
                    train(y, x, row.lam, TrainConfig(), ctx)
                assert row.error == str(err.value)
                assert row.error.startswith("coupling margin violated at epoch")
            else:
                assert_same_training(row, *train(y, x, row.lam, TrainConfig(), ctx))

    @pytest.mark.parametrize("config", [TrainConfig(epochs=120), TrainConfig.adam(epochs=30)],
                             ids=["gd", "adam"])
    def test_trace_recording_leaves_training_unchanged(self, bench_ctx, config):
        # the margin setting above: in GD the lam 0.1 and 0.3 lanes leave the
        # batch, and their traces stop at the epoch they left
        ctx = TransformContext(bench_ctx.spatial, bench_ctx.temporal, margin_tol=1e-3)
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        lams = [0.1, 0.3, 0.6, 1.0]
        recorded, plain = (_train_lanes([(y, x)] * len(lams), lams, config, ctx, "gcgfrft",
                                        record=record) for record in (True, False))
        for (params, trace, final), (same_params, no_trace, same_final) in zip(recorded, plain):
            assert no_trace is None
            if params is None:
                assert same_params is None and str(final) == str(same_final)
                assert len(trace) == int(str(final).split("epoch ")[1].split(",")[0])
                continue
            assert (params.alpha, params.beta) == (same_params.alpha, same_params.beta)
            assert np.array_equal(params.h, same_params.h) and final == same_final
            assert [step.epoch for step in trace] == list(range(config.epochs))
        assert [p is None for p, _, _ in recorded] == ([True, True, False, False]
                                                      if config.optimizer == "gd" else [False] * 4)

    def test_failed_orders_are_decomposed_once(self, bench_ctx, monkeypatch):
        # the grid above: a lane's failed order is cached with its error, so
        # the fallback that plans the other lanes does not decompose it again;
        # the lam 1 lane decomposes nothing (measured: 355 matrices, as many
        # as the grid without lam 1)
        decompose, matrices = transforms.phase_decompose, []

        def counting_decompose(w, **kwargs):
            matrices.append(len(w))
            return decompose(w, **kwargs)

        monkeypatch.setattr(transforms, "phase_decompose", counting_decompose)
        ctx = TransformContext(bench_ctx.spatial, bench_ctx.temporal, margin_tol=1e-3)
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        _, _, table = lambda_grid_search(y, x, [0.1, 0.3, 0.6, 1.0], TrainConfig(), ctx)
        assert [row.params is None for row in table] == [True, True, False, False]
        assert sum(matrices) == 355

    def test_endpoint_grid_decomposes_nothing(self, bench_ctx, monkeypatch):
        # lam 0 and lam 1 take the factored endpoints: no coupling, so even a
        # margin tolerance of pi refuses neither
        decompose, matrices = transforms.phase_decompose, []

        def counting_decompose(w, **kwargs):
            matrices.append(len(w))
            return decompose(w, **kwargs)

        monkeypatch.setattr(transforms, "phase_decompose", counting_decompose)
        ctx = TransformContext(bench_ctx.spatial, bench_ctx.temporal, margin_tol=np.pi)
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        _, _, table = lambda_grid_search(y, x, [0.0, 1.0], TrainConfig(epochs=30), ctx)
        assert [row.params is None for row in table] == [False, False]
        assert matrices == []

    def test_final_losses_equal_per_lane_loss(self, bench_ctx):
        # with 93 epochs the lam 0.1 lane of the 1e-3 margin setting above
        # trains through and fails the margin at its final orders
        ctx = TransformContext(bench_ctx.spatial, bench_ctx.temporal, margin_tol=1e-3)
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=1001)
        y = add_awgn(x, 0.9, seed=1002)
        config = TrainConfig(epochs=93)
        _, _, table = lambda_grid_search(y, x, [0.1, 0.5, 0.6, 1.0], config, ctx)
        assert [row.params is None for row in table] == [True, False, False, False]
        params, _ = train(y, x, 0.1, config, ctx)
        with pytest.raises(MarginViolationError) as err:
            loss(y, x, params, ctx)
        assert table[0].error == str(err.value)
        for row in table[1:]:
            assert row.loss == pytest.approx(loss(y, x, row.params, ctx), rel=1e-12, abs=0)

    @pytest.mark.parametrize("n1, n2, config", [(30, 10, TrainConfig(epochs=20)),
                                                 (64, 128, TrainConfig.adam(epochs=5))])
    def test_table_losses_are_loss_exactly(self, n1, n2, config):
        # training and loss() evaluate the risk through one function, and a
        # lane of a batched plan takes its scalar plan's arithmetic, so every
        # table loss is loss() at its row's parameters to the last bit
        ctx = TransformContext(knn_graph(random_planar_points(n1, seed=7), 4), path_graph(n2))
        x = synth_signal(ctx.spatial, n2, bandwidth=0.3, seed=3)
        y = add_awgn(x, 0.9, seed=4)
        _, _, table = lambda_grid_search(y, x, [0.0, 0.3, 0.5, 1.0], config, ctx)
        assert [row.loss == loss(y, x, row.params, ctx) for row in table] == [True] * 4

    @pytest.mark.parametrize("family", ["gbfrft2d", "gfrft2d"])
    def test_final_losses_of_other_families(self, instance, family):
        ctx, x, y = instance
        _, _, table = lambda_grid_search(y, x, [0.0, 1.0], TrainConfig(epochs=5), ctx,
                                         family=family)
        for row in table:
            assert row.loss == pytest.approx(loss(y, x, row.params, ctx, family=family),
                                             rel=1e-12, abs=0)

    def test_desk_grid_runs_without_schur(self, monkeypatch):
        # the graph-Fourier bases go through the real eigh of their symmetric
        # part, and every coupling build, including the rare matrix the cut
        # at -1 cannot resolve, through the Cayley eigensolve
        import scipy.linalg

        from fracspec import operators

        def no_schur(*args, **kwargs):
            raise AssertionError("scipy.linalg.schur called")

        gap_cut, cut_matrices = operators._widest_gap_cut, []

        def counting_gap_cut(stack):
            cut_matrices.append(len(stack))
            return gap_cut(stack)

        monkeypatch.setattr(scipy.linalg, "schur", no_schur)
        monkeypatch.setattr(operators, "_widest_gap_cut", counting_gap_cut)
        ctx = TransformContext(knn_graph(random_planar_points(30, seed=7), 4), path_graph(10))
        x = synth_signal(ctx.spatial, 10, bandwidth=0.3, seed=11)
        y = add_awgn(x, 0.9, seed=12)
        _, _, table = lambda_grid_search(y, x, [round(0.1 * i, 1) for i in range(11)],
                                         TrainConfig(), ctx)
        assert all(row.loss is not None for row in table)
        # the coupling matrices that the cut at -1 could not resolve, which
        # moved their cut (measured: 17 of 2,190); the two graph-Fourier
        # bases take the real eigh and cut nothing
        assert sum(cut_matrices) > 2

    def test_divergence_in_the_grid_raises(self, instance):
        ctx, x, y = instance
        cfg = TrainConfig(lr_orders=1e300, lr_filter=1e300, epochs=20)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged at epoch"):
            lambda_grid_search(y, x, [0.0, 0.5, 1.0], cfg, ctx)


class TestMarginFailurePropagation:
    def test_error_names_epoch_and_order(self):
        # engineered failure: identical endpoint bases make W = I at order 0,
        # but a spoofed margin tolerance of pi forces a violation immediately
        ctx = TransformContext(path_graph(6), path_graph(4), margin_tol=np.pi)
        x = TimeVertexSignal(np.random.default_rng(1).standard_normal((6, 4)))
        with pytest.raises(MarginViolationError, match="epoch 0"):
            train(x, x, 0.5, TrainConfig(epochs=2), ctx)


class TestRowFirstOrder:
    """Training multiplies by the spatial factor ``Q`` before the column
    operator where that costs fewer multiply-adds
    (``TransformPlan._row_factor_first``).
    path(16) x path(3) takes that order for real signals in every family;
    its spatial basis has three self-partnered columns at phase pi, where
    the block ``[R r | G R r]`` that meets ``Q`` is complex."""

    @pytest.fixture(scope="class")
    def row_ctx(self):
        ctx = TransformContext(path_graph(16), path_graph(3))
        assert ctx.spatial.fourier_phase_decomposition.pi_lines == 3
        return ctx

    @staticmethod
    def pairs(ctx, complex_signals, count=3):
        rng = np.random.default_rng(5 + complex_signals)
        out = []
        for _ in range(count):
            x = rng.standard_normal(ctx.shape)
            if complex_signals:
                x = x + 1j * rng.standard_normal(ctx.shape)
            y = x + 0.6 * rng.standard_normal(ctx.shape)
            out.append((TimeVertexSignal.from_array(y), TimeVertexSignal.from_array(x)))
        return out

    @pytest.mark.parametrize("complex_signals", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    def test_training_spectra_equal_the_plan(self, row_ctx, family, complex_signals):
        # three lanes, each with its own signals and orders
        pairs = self.pairs(row_ctx, complex_signals)
        alpha, beta = np.array([0.3, 0.55, 0.8]), np.array([0.45, 0.6, 0.35])
        orders = (alpha,) if family == "gfrft2d" else (alpha, beta)
        plan = row_ctx.plan(family, orders, lam=np.array([0.2, 0.5, 0.9]) if family == "gcgfrft" else None)
        coords = np.stack([row_ctx._stacked_coordinates(y, x) for y, x in pairs])
        assert plan._row_factor_first(coords) != complex_signals
        _, yhat, xhat, _ = plan._factored_spectra(coords, alpha_rates=True)
        for i, (y, x) in enumerate(pairs):
            assert np.abs(yhat[i] - plan.apply(y.data)[i]).max() <= 1e-12
            assert np.abs(xhat[i] - plan.apply(x.data)[i]).max() <= 1e-12

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("alpha_rates", [False, True])
    @pytest.mark.parametrize("name", ["path10", "path16", "knn30"])
    def test_row_pass_is_the_complex_arithmetic(self, name, alpha_rates, batched):
        # the real block and its pi rows hold the bits that the complex
        # arithmetic of mix gives, so Q meets the same numbers
        graph = knn_graph(random_planar_points(30, seed=7), 4) if name == "knn30" \
            else path_graph(int(name[4:]))
        basis = eigendecompose(graph)
        f = basis.fourier_phase_decomposition
        assert f.pi_lines == (1 if name == "knn30" else 3)
        row = graph_frft(basis, np.array([0.3, 0.55, 1.4]) if batched else 0.55)
        r = np.random.default_rng(7).standard_normal((3, basis.n, 4) if batched else (basis.n, 4))
        got = row.real_row_pass(r, alpha_rates)
        u = row.mix(r, row.rotation)
        if alpha_rates:
            u = np.concatenate([u, row.mix(u, row.generator_coefficients)], axis=-1)
        want = np.empty(u.shape, dtype=np.complex128)
        want.imag = f.q[:, :f.pi_lines] @ u.imag[..., :f.pi_lines, :]
        want.real = f.q @ np.ascontiguousarray(u.real)
        assert np.array_equal(got, want)
        dense = row.matrix @ f.q @ r
        if alpha_rates:
            dense = np.concatenate([dense, row.generator() @ dense], axis=-1)
        assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    @pytest.mark.parametrize("shape", [(16, 3), (30, 5), (10, 4)])
    def test_training_spectra_equal_the_complex_arithmetic(self, shape, family, batched):
        # path(16) x path(3) and knn30 x path(5) take the row factor first,
        # path(10) x path(4) last; their spatial bases have 3, 1 and 3 rows at phase pi
        n1, n2 = shape
        spatial = knn_graph(random_planar_points(30, seed=7), 4) if n1 == 30 else path_graph(n1)
        ctx = TransformContext(spatial, path_graph(n2))
        pairs = self.pairs(ctx, False, count=3 if batched else 1)
        alpha, beta, lam = np.array([0.3, 0.55, 0.8]), np.array([0.45, 0.6, 0.35]), np.array([0.2, 0.5, 0.9])
        if not batched:
            alpha, beta, lam = alpha[1], beta[1], lam[1]
        plan = ctx.plan(family, (alpha,) if family == "gfrft2d" else (alpha, beta),
                        lam=lam if family == "gcgfrft" else None)
        coords = np.stack([ctx._stacked_coordinates(y, x) for y, x in pairs])
        coords = coords if batched else coords[0]
        assert plan._row_factor_first(coords) == (n1 != 10)
        _, yhat, xhat, _ = plan._factored_spectra(coords, alpha_rates=True)
        for i, (y, x) in enumerate(pairs):
            for got, sig in ((yhat, y), (xhat, x)):
                want = complex_forward(plan, sig.data.astype(np.complex128))
                got, want = (got[i], want[i]) if batched else (got, want)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("complex_signals", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("family", ["gbfrft2d", "jfrft", "gcgfrft"])
    def test_grad_orders_matches_fd(self, row_ctx, family, complex_signals):
        (y, x), = self.pairs(row_ctx, complex_signals, count=1)
        h = 0.3 + np.random.default_rng(11).uniform(size=row_ctx.shape)
        params = FilterParams(0.45, 0.6, h, 0.4 if family == "gcgfrft" else 0.0)
        ga = np.array(grad_orders(y, x, params, row_ctx, family=family))
        gf = fd_order_gradient(y, x, params, row_ctx, family=family)
        assert np.linalg.norm(ga - gf) <= 1e-5 * np.linalg.norm(gf)

    @pytest.mark.parametrize("complex_signals", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("family", ["gfrft2d", "gbfrft2d", "jfrft", "gcgfrft"])
    def test_order_step_of_each_lane_follows_fd(self, row_ctx, family, complex_signals):
        # GD moves the orders first in epoch 1, against the filter of epoch 0's step
        pairs = self.pairs(row_ctx, complex_signals, count=2)
        lam = 0.4 if family == "gcgfrft" else None
        cfg = TrainConfig(lr_orders=0.1, lr_filter=0.1, epochs=2)
        lanes = _train_lanes(pairs, [lam, lam], cfg, row_ctx, family)
        for (y, x), (params, _, _) in zip(pairs, lanes):
            start = FilterParams(0.5, 0.5, np.ones(row_ctx.shape), lam or 0.0)
            start.h = start.h - cfg.lr_filter * grad_h(y, x, start, row_ctx, family=family)
            g = fd_order_gradient(y, x, start, row_ctx, family=family)
            # the shared order of gfrft2d moves by its total derivative
            want = -cfg.lr_orders * (np.full(2, g[0]) if family == "gfrft2d" else g)
            step = np.array([params.alpha - 0.5, params.beta - 0.5])
            assert np.linalg.norm(step - want) <= 1e-5 * np.linalg.norm(want)

    @pytest.mark.parametrize("shape, passes", [((16, 3), 1), ((30, 10), 2)],
                             ids=["row_heavy", "column_heavy"])
    @pytest.mark.parametrize("family", ["gbfrft2d", "gcgfrft"])
    def test_passes_over_the_spatial_factor(self, monkeypatch, shape, passes, family):
        # every evaluation after epoch 0 also takes the order gradient: one
        # product with Q where the row factor goes first, two where it goes last
        n1, n2 = shape
        spatial = path_graph(n1) if n1 == 16 else knn_graph(random_planar_points(n1, seed=7), 4)
        ctx = TransformContext(spatial, path_graph(n2))
        q = ctx.spatial.fourier_phase_decomposition.q
        lmul, calls = transforms._lmul, []

        def counting_lmul(f, x):
            calls.append(f is q)
            return lmul(f, x)

        # the row-first pass multiplies inside FractionalOperator.real_row_pass
        monkeypatch.setattr(transforms, "_lmul", counting_lmul)
        monkeypatch.setattr(operators, "_lmul", counting_lmul)
        x = synth_signal(ctx.spatial, n2, bandwidth=0.4, seed=1)
        y = add_awgn(x, 0.6, seed=2)
        epochs = 4
        train(y, x, 0.5 if family == "gcgfrft" else None, TrainConfig.adam(epochs=epochs), ctx,
              family=family)
        # epoch 0 and the final evaluation take no order gradient
        assert sum(calls) == 2 + (epochs - 1) * passes
