import dataclasses
import functools
import math

import numpy as np
import pytest

from fracspec import (
    FAMILIES,
    BenchmarkConfig,
    GraphSpec,
    TimeVertexSignal,
    TrainConfig,
    TransformContext,
    add_awgn,
    denoise,
    eigendecompose,
    lambda_grid_search,
    metrics,
    path_graph,
    random_planar_points,
    run_benchmark,
    synth_signal,
    train,
    verify_properties,
)
from fracspec import harness, operators, properties, transforms
from fracspec.harness import BASELINE_FAMILIES
from fracspec.io import _matrix_from_csv


class TestSynthSignal:
    def test_full_band_unit_power(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=1.0, seed=4)
        assert x.norm**2 == pytest.approx(300.0, abs=1e-9)

    def test_minimal_band_is_rank_one(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=1e-9, seed=4)
        assert np.linalg.matrix_rank(x.as_real(), tol=1e-10) == 1

    def test_deterministic(self, bench_ctx):
        a = synth_signal(bench_ctx.spatial, 10, seed=5)
        b = synth_signal(bench_ctx.spatial, 10, seed=5)
        assert np.array_equal(a.data, b.data)

    def test_band_limited_spectrum(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, bandwidth=0.3, seed=1)
        v1 = bench_ctx.spatial.v
        v2 = eigendecompose(path_graph(10)).v
        coef = v1.T @ x.as_real() @ v2
        assert np.abs(coef[9:, :]).max() <= 1e-10  # ceil(0.3*30) = 9 live rows
        assert np.abs(coef[:, 3:]).max() <= 1e-10  # ceil(0.3*10) = 3 live cols

    def test_bandwidth_validation(self, bench_ctx):
        for bad in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                synth_signal(bench_ctx.spatial, 10, bandwidth=bad, seed=0)


class TestAddAwgn:
    def test_sigma_zero_is_identity(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, seed=0)
        assert np.array_equal(add_awgn(x, 0.0, seed=1).data, x.data)

    def test_real_signals_stay_float64(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, seed=0)
        y = add_awgn(x, 0.5, seed=1)
        assert x.data.dtype == y.data.dtype == np.float64 and x.real_flag and y.real_flag

    def test_noise_power_concentration(self):
        # chi-square concentration at 10^4 samples; direct-simulation oracle
        x = synth_signal(path_graph(100), 100, bandwidth=0.5, seed=2)
        y = add_awgn(x, 1.0, seed=3)
        sample = float(np.mean(np.abs(y.data - x.data) ** 2))
        assert 0.94 <= sample <= 1.06

    def test_different_seeds_differ(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, seed=0)
        a = add_awgn(x, 0.5, seed=1)
        b = add_awgn(x, 0.5, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_negative_sigma_rejected(self, bench_ctx):
        x = synth_signal(bench_ctx.spatial, 10, seed=0)
        with pytest.raises(ValueError):
            add_awgn(x, -0.1, seed=0)


class TestMetrics:
    def test_perfect_reconstruction(self, rng):
        a = rng.standard_normal((5, 4))
        m = metrics(a, a.copy())
        assert m.mse == 0.0
        assert math.isinf(m.psnr)
        assert m.ssim == pytest.approx(1.0)

    def test_psnr_zero_db(self):
        a = np.zeros((3, 3))
        a[0, 0] = 255.0
        b = a + 255.0  # mse = 255^2
        m = metrics(a, b, max_value=255.0)
        assert m.psnr == pytest.approx(0.0, abs=1e-12)

    def test_psnr_48db(self, rng):
        # 10*log10(255^2 / 1) computed independently
        a = rng.uniform(0, 255, size=(50, 40))
        noise = rng.standard_normal((50, 40))
        noise *= 1.0 / np.sqrt(np.mean(noise**2))  # unit mse exactly
        m = metrics(a, a + noise, max_value=255.0)
        assert m.psnr == pytest.approx(10 * math.log10(65025.0), abs=0.01)

    def test_mse_matches_definition(self, rng):
        a = rng.standard_normal((6, 7))
        b = rng.standard_normal((6, 7))
        assert metrics(a, b, max_value=1.0).mse == pytest.approx(np.mean((a - b) ** 2))

    def test_ssim_range_and_symmetry(self, rng):
        a = rng.uniform(size=(8, 8))
        b = rng.uniform(size=(8, 8))
        m1 = metrics(a, b, max_value=1.0)
        m2 = metrics(b, a, max_value=1.0)
        assert -1.0 <= m1.ssim <= 1.0
        assert m1.ssim == pytest.approx(m2.ssim)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_complex_input_with_zero_imaginary_part_scores_as_real(self, rng):
        a = rng.standard_normal((9, 7))
        b = a + 0.3 * rng.standard_normal((9, 7))
        want = metrics(a, b)
        for got in (metrics(a.astype(np.complex128), b.astype(np.complex128)),
                    metrics(TimeVertexSignal(a.astype(np.complex128), real_flag=False),
                            TimeVertexSignal(b))):
            for name in ("mse", "psnr", "ssim"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-14, abs=0)


def tiny_config(**overrides):
    base = dict(
        spatial=GraphSpec(kind="knn_random", n=12, k=3, seed=7),
        temporal=GraphSpec(kind="path", n=6),
        sigma_list=(0.0, 0.8),
        lambda_grid=(0.0, 0.5, 1.0),
        families=("gbfrft2d", "gcgfrft"),
        train=TrainConfig(epochs=25),
        seeds=(0, 1),
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


@pytest.fixture(scope="module")
def report():
    return run_benchmark(tiny_config())


class TestRunBenchmark:
    def test_row_count(self, report):
        cfg = report.config
        want = (len(cfg.families) + len(BASELINE_FAMILIES)) * len(cfg.sigma_list) * len(cfg.seeds)
        assert len(report.rows) == want

    def test_noiseless_rows_are_exact(self, report):
        for seed in (0, 1):
            for family in ("gbfrft2d", "gcgfrft"):
                row = report.row(family, 0.0, seed)
                assert row.status == "ok"
                assert row.mse <= 1e-6

    def test_trained_beats_noisy(self, report):
        for seed in (0, 1):
            noisy = report.row("noisy", 0.8, seed)
            trained = report.row("gcgfrft", 0.8, seed)
            assert trained.mse < noisy.mse

    def test_oracle_baseline_present(self, report):
        row = report.row("closed_form_gft", 0.8, 0)
        assert row.status == "ok" and row.mse >= 0.0

    def test_gcgfrft_learned_lambda_in_grid(self, report):
        row = report.row("gcgfrft", 0.8, 0)
        assert row.lam in (0.0, 0.5, 1.0)

    def test_deterministic_reports(self, report):
        again = run_benchmark(tiny_config())
        for r1, r2 in zip(report.rows, again.rows):
            assert (r1.family, r1.sigma, r1.seed) == (r2.family, r2.sigma, r2.seed)
            assert r1.mse == r2.mse and r1.psnr == r2.psnr and r1.ssim == r2.ssim
            assert r1.alpha == r2.alpha and r1.beta == r2.beta and r1.lam == r2.lam

    def test_config_validation(self):
        with pytest.raises(Exception):
            tiny_config(families=("nope",))
        with pytest.raises(Exception):
            tiny_config(seeds=())
        with pytest.raises(Exception):
            tiny_config(sigma_list=(-1.0,))


def cell_alone(ctx, cfg, x, y, family):
    """One (sigma, seed) cell trained and scored on its own, through
    ``lambda_grid_search`` or ``train`` and ``denoise``: its metrics, the
    reported parameters, the per-coupling MSE table and the real estimate."""
    if family != "gcgfrft":
        params, _ = train(y, x, None, cfg.train, ctx, family=family)
        est = denoise(y, params, ctx, family=family).as_real()
        return metrics(x.as_real(), est), params, None, est
    _, _, table = lambda_grid_search(y, x, cfg.lambda_grid, cfg.train, ctx)
    ests = [(row.params, denoise(y, row.params, ctx).as_real())
            for row in table if row.params is not None]
    scored = [(metrics(x.as_real(), est), params, est) for params, est in ests]
    m, params, est = min(scored, key=lambda t: (t[0].mse, t[1].lam))
    return m, params, tuple((p.lam, sc.mse) for sc, p, _ in scored), est


class TestBatchedCells:
    """Every (sigma, seed) cell of a family, and every coupling value of a
    gcgfrft cell, is one lane of the family's batched state."""

    def test_rows_equal_each_cell_alone(self, tmp_path):
        cfg = BenchmarkConfig(spatial=GraphSpec(kind="knn_random", n=30, k=4, seed=7),
                              temporal=GraphSpec(kind="path", n=10), sigma_list=(0.6, 1.2),
                              lambda_grid=(0.0, 0.5, 1.0), families=FAMILIES,
                              train=TrainConfig(epochs=20), seeds=(0, 3),
                              output_dir=str(tmp_path), persist_estimates=True)
        report = run_benchmark(cfg)
        ctx = TransformContext(cfg.spatial.build(), cfg.temporal.build())
        for sigma_idx, sigma in enumerate(cfg.sigma_list):
            for seed in cfg.seeds:
                x = synth_signal(ctx.spatial, 10, bandwidth=cfg.bandwidth, seed=seed)
                y = add_awgn(x, sigma, seed=harness._noise_seed(seed, sigma_idx))
                for family in cfg.families:
                    row = report.row(family, sigma, seed)
                    m, params, lambda_mse, est = cell_alone(ctx, cfg, x, y, family)
                    assert row.status == "ok"
                    assert (row.mse, row.psnr, row.ssim) == tuple(m)
                    assert (row.alpha, row.beta) == (params.alpha, params.beta)
                    assert row.lam == (params.lam if family == "gcgfrft" else None)
                    assert row.lambda_mse == lambda_mse
                    persisted = _matrix_from_csv(str(tmp_path / "estimates" / f"{row.row_id}.csv"))
                    assert np.array_equal(persisted, est)

    def test_one_training_state_for_every_family(self, monkeypatch):
        train_lanes, lanes = harness._train_lanes, []

        def counting_train_lanes(pairs, lams, *args, **kwargs):
            lanes.append(len(lams))
            return train_lanes(pairs, lams, *args, **kwargs)

        monkeypatch.setattr(harness, "_train_lanes", counting_train_lanes)
        run_benchmark(tiny_config(families=FAMILIES))
        # 2 sigmas x 2 seeds, times the lanes (tie, lam) of a cell: gfrft2d
        # (tied, 0), gbfrft2d (0) and jfrft (1), which gcgfrft shares at its
        # endpoints, and gcgfrft at 0.5
        assert lanes == [16]

    def test_endpoint_lanes_never_decompose(self, monkeypatch):
        # every family of every cell decomposes only the orders of the
        # interior coupling values: those of a gcgfrft-only run of them
        decompose, matrices = transforms.phase_decompose, []

        def counting_decompose(w, **kwargs):
            matrices.append(len(w))
            return decompose(w, **kwargs)

        monkeypatch.setattr(transforms, "phase_decompose", counting_decompose)
        cfg = BenchmarkConfig(train=TrainConfig(epochs=30))
        run_benchmark(cfg)
        every_family = sum(matrices)
        matrices.clear()
        run_benchmark(dataclasses.replace(cfg, families=("gcgfrft",), lambda_grid=tuple(
            lam for lam in cfg.lambda_grid if 0.0 < lam < 1.0)))
        assert every_family == sum(matrices) > 0
        matrices.clear()
        run_benchmark(dataclasses.replace(cfg, lambda_grid=(0.0, 1.0)))
        assert matrices == []

    def test_closed_form_baseline_transforms_each_observation_once(self, monkeypatch):
        # closed_form_h and denoise share Y's spectrum at gbfrft2d (1, 1):
        # per cell the plan transforms Y once and X once
        apply, seen = transforms.TransformPlan.apply, []

        def counting_apply(plan, x):
            if plan.family == "gbfrft2d" and plan.orders == (1.0, 1.0):
                seen.append(np.array(x))
            return apply(plan, x)

        monkeypatch.setattr(transforms.TransformPlan, "apply", counting_apply)
        cfg = tiny_config(sigma_list=(0.5, 0.8))
        run_benchmark(cfg)
        ctx = TransformContext(cfg.spatial.build(), cfg.temporal.build())
        for sigma_idx, sigma in enumerate(cfg.sigma_list):
            for seed in cfg.seeds:
                x = synth_signal(ctx.spatial, ctx.temporal.n, bandwidth=cfg.bandwidth, seed=seed)
                y = add_awgn(x, sigma, seed=harness._noise_seed(seed, sigma_idx))
                assert sum(np.array_equal(a, y.data) for a in seen) == 1
                # the cells of one seed share X
                assert sum(np.array_equal(a, x.data) for a in seen) == len(cfg.sigma_list)
        assert len(seen) == 2 * len(cfg.sigma_list) * len(cfg.seeds)

    def test_every_refused_coupling_gives_margin_rows(self, monkeypatch):
        # a margin tolerance of pi refuses every coupling at epoch 0; the
        # endpoint lanes of gcgfrft never build one, so they train
        monkeypatch.setattr(harness, "TransformContext",
                            functools.partial(TransformContext, margin_tol=np.pi))
        report = run_benchmark(tiny_config())
        for row in report.rows:
            assert row.status == "ok" and row.mse is not None
            if row.family == "gcgfrft":
                assert [lam for lam, _ in row.lambda_mse] == [0.0, 1.0]
        for row in run_benchmark(tiny_config(lambda_grid=(0.3, 0.7))).rows:
            if row.family == "gcgfrft":
                assert row.status == ("margin: every coupling grid point violated the margin: "
                                      "lam=0.3; lam=0.7")
                assert row.mse is None and row.alpha is None and row.lam is None
            else:
                assert row.status == "ok" and row.mse is not None


class TestVerifyProperties:
    def test_default_suite_passes(self):
        report = verify_properties()
        failed = [r.name for r in report.results if not r.passed]
        assert report.all_passed, f"failed checks: {failed}"

    def test_fault_injection_trips_unitarity(self):
        report = verify_properties(fault_injection=True)
        assert not report.all_passed
        bad = {r.name for r in report.results if not r.passed}
        assert "operator.unitarity_sweep" in bad

    @staticmethod
    def remix_check(report):
        (check,) = [r for r in report.results if r.name == "operator.eigenspace_remix_invariance"]
        return check

    def test_remix_check_remixes_repeated_eigenvalues(self):
        check = self.remix_check(verify_properties())
        assert check.passed
        assert int(check.detail.split(", ")[1].split()[0]) >= 1

    def test_remix_check_fails_without_cluster_unification(self, monkeypatch):
        # with no snap to +pi and no cluster unification, the branch of the
        # eigenvalue -1 follows rounding and the remixed power moves
        def faulty(fn):
            def call(*args, **kwargs):
                with monkeypatch.context() as m:
                    m.setattr(operators, "PHASE_CLUSTER_TOL", 0.0)
                    return fn(*args, **kwargs)
            return call

        for name in ("_unitary_eigendecomposition", "unitary_fractional_power"):
            monkeypatch.setattr(properties, name, faulty(getattr(operators, name)))
        check = self.remix_check(verify_properties())
        assert not check.passed

    def test_report_formatting(self):
        report = verify_properties()
        text = report.format()
        assert "PASS" in text and "checks passed" in text


class TestRandomPlanarPoints:
    def test_deterministic_and_in_unit_square(self):
        a = random_planar_points(20, seed=3)
        b = random_planar_points(20, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (20, 2)
        assert np.all((a >= 0) & (a < 1))
