"""Benchmark harness: seeded synthetic signals, noise injection, metrics, and
the family-comparison sweep.

Synthetic signals are band-limited Gaussian fields on the product of graph
modes, normalized to unit mean power (||X||_F^2 = n1 n2), standing in for the
real spatiotemporal datasets the comparison protocol was designed around.
Everything is seeded; two runs of the same configuration produce byte-equal
reports (wall-clock timings go to a separate sidecar, outside the determinism
contract).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, dataclass_table, read_config
from .graphs import MATERIALIZE_CAP, Graph, knn_graph, path_graph
from .operators import SpectralBasis, eigendecompose
from .transforms import CONSTRAINTS, FAMILIES, TimeVertexSignal, TransformContext, _column_groups
from .wiener import (DEFAULT_LAMBDA_GRID, LAMBDA_GRID, TRAIN, FilterParams, TrainConfig,
                     _grid_failure, _train_lanes, closed_form_h, denoise)

__all__ = [
    "Metrics",
    "BenchmarkConfig",
    "MetricRow",
    "MetricReport",
    "random_planar_points",
    "synth_signal",
    "add_awgn",
    "metrics",
    "run_benchmark",
]

BASELINE_FAMILIES = ("noisy", "closed_form_gft")


class Metrics(NamedTuple):
    mse: float
    psnr: float
    ssim: float


def random_planar_points(n: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform points in the unit square, for k-NN spatial graphs."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(int(n), 2))


def synth_signal(g1, n2: int, bandwidth: float = 0.3, seed: int = 0) -> TimeVertexSignal:
    """Band-limited Gaussian field on the product of graph modes.

    Draws i.i.d. standard-normal coefficients on the lowest-frequency
    ``ceil(bandwidth * n1)`` spatial modes (descending adjacency eigenvalues)
    and ``ceil(bandwidth * n2)`` temporal path-graph modes, zero elsewhere,
    maps back to the vertex-time domain, and normalizes to
    ``||X||_F^2 = n1 * n2``.
    """
    if not 0.0 < bandwidth <= 1.0:
        raise ValueError(f"bandwidth must lie in (0, 1], got {bandwidth}")
    basis1 = g1 if isinstance(g1, SpectralBasis) else eigendecompose(g1)
    basis2 = eigendecompose(path_graph(n2))
    n1 = basis1.n
    m1 = math.ceil(bandwidth * n1)
    m2 = math.ceil(bandwidth * n2)
    rng = np.random.default_rng(seed)
    coef = np.zeros((n1, n2))
    coef[:m1, :m2] = rng.standard_normal((m1, m2))
    x = basis1.v @ coef @ basis2.v.T
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise ValueError("degenerate all-zero draw; use a different seed")
    x *= math.sqrt(n1 * n2) / norm
    return TimeVertexSignal(x, real_flag=True)


def add_awgn(x: TimeVertexSignal, sigma: float, seed: int = 0) -> TimeVertexSignal:
    """Additive white Gaussian noise with standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(x.shape)
    return TimeVertexSignal(x.data + noise, real_flag=x.real_flag)


def metrics(x_true, x_est, max_value: float | None = None) -> Metrics:
    """MSE, PSNR (dB), and global single-window SSIM.

    MSE averages squared deviations over all entries; PSNR is
    ``10 log10(MAX^2 / MSE)`` (infinite when MSE is zero, serialized as
    "inf"); SSIM uses global moments over the whole matrix with
    ``C1 = (0.01 MAX)^2`` and ``C2 = (0.03 MAX)^2``. ``max_value`` defaults to
    the empirical peak magnitude of the reference.
    """
    a = x_true.data if isinstance(x_true, TimeVertexSignal) else np.asarray(x_true)
    b = x_est.data if isinstance(x_est, TimeVertexSignal) else np.asarray(x_est)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    mse = float(np.mean(diff.real**2 + diff.imag**2)) if np.iscomplexobj(diff) \
        else float(np.mean(diff**2))
    if max_value is None:
        max_value = float(np.abs(a).max())
    if max_value <= 0:
        raise ValueError(f"max_value must be positive, got {max_value}")
    psnr = math.inf if mse == 0.0 else 10.0 * math.log10(max_value**2 / mse)

    mu_a, mu_b = float(np.mean(a.real)), float(np.mean(b.real))
    var_a = float(np.mean((a.real - mu_a) ** 2))
    var_b = float(np.mean((b.real - mu_b) ** 2))
    cov = float(np.mean((a.real - mu_a) * (b.real - mu_b)))
    c1 = (0.01 * max_value) ** 2
    c2 = (0.03 * max_value) ** 2
    ssim = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / \
        ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
    return Metrics(mse=mse, psnr=psnr, ssim=float(ssim))


# ---------------------------------------------------------------------------
# benchmark sweep


@dataclass(frozen=True)
class GraphSpec:
    """Declarative factor-graph description for configs and the CLI.

    kinds: path(n) | knn(file or points, k) | knn_random(n, k, seed) |
    edge_list(file).
    """

    kind: str
    n: int | None = None
    k: int | None = None
    seed: int = 0
    file: str | None = None
    points: tuple | None = None

    def __post_init__(self):
        read_config(GRAPH_SPEC, self, "graph spec")

    def build(self) -> Graph:
        """The graph; construction has checked that the fields its kind
        needs (``GRAPH_SPEC``) are given."""
        if self.kind == "path":
            return path_graph(self.n)
        if self.kind == "knn_random":
            pts = random_planar_points(self.n, seed=self.seed)
            return knn_graph(pts, self.k, label=f"knn_random(n={self.n},k={self.k},seed={self.seed})")
        if self.kind == "knn":
            from .io import read_points_csv
            pts = self.points if self.points is not None else read_points_csv(self.file)
            if len(pts) > MATERIALIZE_CAP:
                raise ConfigError(f"graph spec {'points' if self.points is not None else self.file}: "
                                  f"{len(pts)} points exceed the cap of {MATERIALIZE_CAP} nodes")
            return knn_graph(np.asarray(pts), self.k)
        from .io import read_edge_list_csv
        return read_edge_list_csv(self.file)

    @classmethod
    def from_dict(cls, d: dict) -> "GraphSpec":
        """Build from a JSON mapping checked against ``GRAPH_SPEC``."""
        return cls(**read_config(GRAPH_SPEC, d, "graph spec"))


#: the config table of ``GraphSpec`` (see ``errors.read_config``)
GRAPH_SPEC = dataclass_table(GraphSpec, kind=(str, ..., {"path": ("n",), "knn_random": ("n", "k"),
                                                         "knn": ("k", ("file", "points")),
                                                         "edge_list": ("file",)}),
                             n=(int, ..., "[2, inf)", (MATERIALIZE_CAP, "nodes")),
                             k=(int, ..., "[1, inf)"), seed=(int, ..., "[0, inf)"),
                             file=(str, ...), points=([[float]], ...))


@dataclass(frozen=True)
class BenchmarkConfig:
    spatial: GraphSpec = GraphSpec(kind="knn_random", n=30, k=4, seed=7)
    temporal: GraphSpec = GraphSpec(kind="path", n=10)
    sigma_list: tuple = (0.6, 0.9, 1.2)
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    families: tuple = FAMILIES
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple = (0, 1, 2, 3, 4)
    bandwidth: float = 0.3
    output_dir: str | None = None
    persist_estimates: bool = False

    def __post_init__(self):
        read_config(BENCHMARK, self, "benchmark config")


#: the config table of ``BenchmarkConfig`` (see ``errors.read_config``)
BENCHMARK = dataclass_table(BenchmarkConfig, spatial=(GraphSpec, ..., GRAPH_SPEC),
                            temporal=(GraphSpec, ..., GRAPH_SPEC),
                            sigma_list=({float}, ..., "[0, inf)"), lambda_grid=LAMBDA_GRID,
                            families=({str}, ..., FAMILIES), train=(TrainConfig, ..., TRAIN),
                            seeds=({int}, ..., "[0, inf)"), bandwidth=(float, ..., "(0, 1]"),
                            output_dir=(str, ...), persist_estimates=(bool, ...))


@dataclass(frozen=True)
class MetricRow:
    family: str
    sigma: float
    seed: int
    mse: float | None
    psnr: float | None
    ssim: float | None
    alpha: float | None
    beta: float | None
    lam: float | None
    epochs: int | None
    wall_time: float
    status: str = "ok"
    # per-coupling-value MSE diagnostic for a family with a free coupling
    # value (in-memory only; not part of the serialized report)
    lambda_mse: tuple | None = None

    @property
    def row_id(self) -> str:
        return f"{self.family}_sigma{self.sigma:g}_seed{self.seed}"


@dataclass
class MetricReport:
    rows: list
    config: BenchmarkConfig

    def row(self, family: str, sigma: float, seed: int) -> MetricRow:
        for r in self.rows:
            if r.family == family and r.sigma == sigma and r.seed == seed:
                return r
        raise KeyError(f"no row for ({family}, {sigma}, {seed})")


def _noise_seed(seed: int, sigma_index: int) -> int:
    # stable derived stream per (seed, noise level)
    return int(np.random.SeedSequence(entropy=(seed, 104729 + sigma_index)).generate_state(1)[0])


def _trained_rows(ctx, cfg, cells):
    """Train every family of every (sigma, seed) cell as one batched state,
    one lane per (cell, tie, lam) of the families' constraints, so a lane
    two families share (gcgfrft at lam 0 and gbfrft2d) trains once; score
    the lanes from one plan per column operator and yield each row and its
    real estimate. A row reports its lane with the lowest error on the
    reported metric, so endpoint membership makes the grid's dominance
    claim exact; lanes that fail the coupling margin are skipped, and a row
    with none left gets a margin status."""
    t0 = time.perf_counter()
    lanes, rows = {}, []
    for c, family in itertools.product(range(len(cells)), cfg.families):
        tie, fixed = CONSTRAINTS[family]
        grid = [float(lam) for lam in cfg.lambda_grid] if fixed is None else [fixed]
        rows.append((c, family, fixed is None,
                     [(lam, lanes.setdefault((c, tie, lam), (len(lanes), family))[0]) for lam in grid]))
    (lane_cell, _, lams), families = zip(*lanes), [family for _, family in lanes.values()]
    results = _train_lanes([(cells[c][3], cells[c][2]) for c in lane_cell], list(lams), cfg.train,
                           ctx, families)
    ok, lams = np.flatnonzero([isinstance(final, float) for *_, final in results]), np.array(lams)
    estimates = {}
    for group in _column_groups(lams[ok]):
        params = [results[i][0] for i in ok[group]]
        plan = ctx._plan(None, (np.array([p.alpha for p in params]), np.array([p.beta for p in params])),
                         lams[ok[group]])
        y = np.stack([cells[lane_cell[i]][3].data for i in ok[group]])
        h = np.stack([p.h for p in params])
        estimates.update(zip(ok[group].tolist(), plan.apply_inverse(h * plan.apply(y), real=True)))
    share = (time.perf_counter() - t0) / len(rows)

    for c, family, free, members in rows:
        t1 = time.perf_counter()
        sigma, seed, x, _ = cells[c]
        scored = [(metrics(x.as_real(), estimates[i]), lam, results[i][0], estimates[i])
                  for lam, i in members if i in estimates]
        if not scored:
            yield MetricRow(family, sigma, seed, None, None, None, None, None, None, None,
                            share + time.perf_counter() - t1,
                            status=f"margin: {_grid_failure([lam for lam, _ in members])}"), None
            continue
        m, lam, p, est = min(scored, key=lambda t: (t[0].mse, t[1]))
        lambda_mse = tuple((q, sc.mse) for sc, q, _, _ in scored) if free else None
        yield MetricRow(family, sigma, seed, m.mse, m.psnr, m.ssim, p.alpha, p.beta,
                        lam if free else None, cfg.train.epochs,
                        share + time.perf_counter() - t1, lambda_mse=lambda_mse), est


def run_benchmark(cfg: BenchmarkConfig) -> MetricReport:
    """Full sweep over (family, sigma, seed) plus the trivial baselines.

    Baselines: the noisy observation itself, and the closed-form filter in the
    plain (order-1, decoupled) spectral domain. Rows are deterministic
    functions of the configuration; estimates are optionally persisted for
    score recomputation. A trained row's wall time is its share of the one
    batched training and its estimates plus its own scoring.
    """
    g1 = cfg.spatial.build()
    g2 = cfg.temporal.build()
    ctx = TransformContext(g1, g2)

    cells = []
    for sigma_idx, sigma in enumerate(cfg.sigma_list):
        for seed in cfg.seeds:
            x = synth_signal(ctx.spatial, ctx.temporal.n, bandwidth=cfg.bandwidth, seed=seed)
            cells.append((sigma, seed, x, add_awgn(x, sigma, seed=_noise_seed(seed, sigma_idx))))

    outcomes = list(_trained_rows(ctx, cfg, cells))
    for sigma, seed, x, y in cells:
        t0 = time.perf_counter()
        m = metrics(x.as_real(), y.as_real())
        outcomes.append((MetricRow("noisy", sigma, seed, m.mse, m.psnr, m.ssim, None, None, None,
                                   None, time.perf_counter() - t0), y.as_real()))
        t0 = time.perf_counter()
        params = FilterParams(alpha=1.0, beta=1.0, h=np.ones(x.shape), lam=0.0)
        params.h = closed_form_h(y, x, params, ctx, family="gbfrft2d")
        est = denoise(y, params, ctx, family="gbfrft2d").as_real()
        m = metrics(x.as_real(), est)
        outcomes.append((MetricRow("closed_form_gft", sigma, seed, m.mse, m.psnr, m.ssim,
                                   1.0, 1.0, 0.0, 0, time.perf_counter() - t0), est))

    rows = [row for row, _ in outcomes]
    estimates = {row.row_id: est for row, est in outcomes if est is not None}
    order = {f: i for i, f in enumerate(tuple(cfg.families) + BASELINE_FAMILIES)}
    rows.sort(key=lambda r: (r.sigma, r.seed, order[r.family]))
    report = MetricReport(rows=rows, config=cfg)

    if cfg.output_dir:
        from .io import write_benchmark_report
        write_benchmark_report(report, cfg.output_dir,
                               estimates=estimates if cfg.persist_estimates else None)
    return report
