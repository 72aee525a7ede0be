"""Learnable Wiener-type spectral filtering on time-vertex signals.

The estimator transforms the observation into a fractional spectral domain,
applies an element-wise (diagonal) filter, and transforms back:

    estimate = inverse(plan, h o forward(plan, Y))

The fractional orders and the filter are learned by gradient descent against
a clean reference; the coupling parameter of the geodesic family is a fixed
structural hyperparameter chosen by grid search, never updated by gradients.

The training objective is the empirical mean squared error over matrix
entries, ``mean |h o Yhat - Xhat|^2`` (equal to ``mean |estimate - X|^2`` by
unitarity). Averaging rather than summing keeps the per-bin curvature of the
quadratic filter subproblem of order ``|Yhat_ij|^2 / (n1 n2)``, so the
standard 0.1 learning rate is stable on unit-mean-power signals.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .coupling import _coupling_parameter
from .errors import ConfigError, MarginViolationError, dataclass_table, read_config
from .operators import _lmul
from .transforms import FAMILIES, TimeVertexSignal, TransformContext, TransformPlan

__all__ = [
    "FilterParams",
    "TrainConfig",
    "TrainStep",
    "GridRow",
    "denoise",
    "denoise_complex",
    "loss",
    "grad_h",
    "grad_orders",
    "closed_form_h",
    "train",
    "lambda_grid_search",
]

DEAD_BIN_REL_TOL = 1e-14
#: coupling values a grid search tries when none are given
DEFAULT_LAMBDA_GRID = tuple(round(0.1 * i, 1) for i in range(11))
#: the config entry of a grid of coupling values (see ``errors.read_config``)
LAMBDA_GRID = ({float}, DEFAULT_LAMBDA_GRID, "[0, 1]")


@dataclass
class FilterParams:
    """Learnable state: fractional orders, diagonal spectral filter, and the
    fixed coupling parameter.

    ``h`` is real-valued and lives in the matrix spectral layout (one
    coefficient per spectral bin); ``lam`` is structural and never moved by a
    training step.
    """

    alpha: float
    beta: float
    h: np.ndarray
    lam: float = 0.0

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=np.float64)
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError(f"fractional orders must be finite, got ({self.alpha}, {self.beta})")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("filter coefficients must be finite")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"coupling parameter must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent hyperparameters.

    Defaults follow the plain-GD protocol (rate 0.1, 200 epochs, orders
    initialized at 0.5, filter at all-ones); ``TrainConfig.adam()`` gives the
    Adam variant (rate 2e-2, 100 epochs). Zero learning rates are allowed and
    freeze the corresponding parameter group.
    """

    lr_orders: float = 0.1
    lr_filter: float = 0.1
    epochs: int = 200
    optimizer: str = "gd"

    def __post_init__(self):
        read_config(TRAIN, self, "train config")

    @classmethod
    def adam(cls, **overrides) -> "TrainConfig":
        base = dict(lr_orders=2e-2, lr_filter=2e-2, epochs=100, optimizer="adam")
        base.update(overrides)
        return cls(**base)


#: the most epochs a train config may ask for: a recorded trace holds
#: (3, epochs, lanes) floats, 25 MiB for an 11-lane grid at the cap
EPOCH_CAP = 100_000
#: the config table of ``TrainConfig`` (see ``errors.read_config``)
TRAIN = dataclass_table(TrainConfig, lr_orders=(float, ..., "[0, inf)"),
                        lr_filter=(float, ..., "[0, inf)"),
                        epochs=(int, ..., "[1, inf)", (EPOCH_CAP, "epochs")),
                        optimizer=(str, ..., ("gd", "adam")))


@dataclass(frozen=True)
class TrainStep:
    epoch: int
    loss: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class GridRow:
    """One entry of a coupling-parameter grid search, with the training trace
    of a feasible point."""

    lam: float
    loss: float | None
    params: FilterParams | None
    error: str | None = None
    trace: list[TrainStep] | None = None


def _spectra(ctx: TransformContext, family: str, alpha: float, beta: float,
             lam: float | None, *signals: TimeVertexSignal):
    """The plan at these parameters, then each signal's raw spectrum. Only the
    geodesic family reads the coupling parameter."""
    plan = ctx.plan(family, (alpha,) if family == "gfrft2d" else (alpha, beta),
                    lam=lam if family == "gcgfrft" else None)
    for sig in signals:
        if sig.shape != plan.shape:
            raise ValueError(f"signal shape {sig.shape} does not match plan {plan.shape}")
    return (plan, *(plan.apply(sig.data) for sig in signals))


def denoise_complex(y: TimeVertexSignal, params: FilterParams, ctx: TransformContext,
                    family: str = "gcgfrft") -> TimeVertexSignal:
    """Filtered estimate without the final real projection."""
    plan, yhat = _spectra(ctx, family, params.alpha, params.beta, params.lam, y)
    return TimeVertexSignal(plan.apply_inverse(params.h * yhat), real_flag=y.real_flag)


def denoise(y: TimeVertexSignal, params: FilterParams, ctx: TransformContext,
            family: str = "gcgfrft") -> TimeVertexSignal:
    """Filtered estimate; real-sourced observations are projected back to the
    real field (the complex estimate remains the optimization variable),
    through ``TransformPlan.apply_inverse_real``, which takes the real part
    before the real outer factors."""
    if not y.real_flag:
        return denoise_complex(y, params, ctx, family=family)
    plan, yhat = _spectra(ctx, family, params.alpha, params.beta, params.lam, y)
    return TimeVertexSignal(plan.apply_inverse_real(params.h * yhat), real_flag=True)


def loss(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
         ctx: TransformContext, family: str = "gcgfrft") -> float:
    """Empirical risk: mean squared error of the complex estimate.

    Evaluated in the spectral domain, ``mean |h o Yhat - Xhat|^2``, which by
    unitarity equals the vertex-domain mean squared error of the estimate.
    """
    if y.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {x_true.shape}")
    _, yhat, xhat = _spectra(ctx, family, params.alpha, params.beta, params.lam, y, x_true)
    e = params.h * yhat - xhat
    return float(np.mean(e.real**2 + e.imag**2))


def grad_h(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
           ctx: TransformContext, family: str = "gcgfrft") -> np.ndarray:
    """Exact gradient of the risk with respect to the diagonal filter.

    Unitarity collapses the inverse transform out of the quadratic, giving
    ``(2 / (n1 n2)) Re((h o Yhat - Xhat) o conj(Yhat))``.
    """
    _, yhat, xhat = _spectra(ctx, family, params.alpha, params.beta, params.lam, y, x_true)
    resid = params.h * yhat - xhat
    return (2.0 / resid.size) * (resid * yhat.conj()).real


def closed_form_h(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
                  ctx: TransformContext, family: str = "gcgfrft") -> np.ndarray:
    """Exact minimizer of the convex per-bin filter subproblem.

    ``h_ij = Re(Xhat_ij conj(Yhat_ij)) / |Yhat_ij|^2`` on live bins; bins with
    negligible observed energy get the minimum-norm choice 0.
    """
    _, yhat, xhat = _spectra(ctx, family, params.alpha, params.beta, params.lam, y, x_true)
    power = yhat.real**2 + yhat.imag**2
    floor = DEAD_BIN_REL_TOL * power.sum() / power.size
    h = np.zeros_like(power)
    live = power >= max(floor, np.finfo(np.float64).tiny)
    h[live] = (xhat * yhat.conj()).real[live] / power[live]
    return h


def _row_factor_first(plan: TransformPlan, r: np.ndarray) -> bool:
    """Whether an epoch of ``plan`` costs fewer real multiply-adds with the
    row factor ``Q`` applied before the column operator ``C`` than after it
    (``_factored_spectra``); a property of the plan's shape and of the dtype
    of the coordinates ``r``, not a setting.

    Each product with ``C`` is counted as a complex one, 4 real
    multiply-adds per complex multiply-add: a complex factor needs them, and
    a real factor's product with a complex block goes through two transposed
    copies of the block (``operators._rmul``), which cost about as much as
    the halved arithmetic saves. Per lane, with the order gradient,
    column-first multiplies ``Q`` by two complex n1 x 2 n2 blocks,
    ``8 n1^2 n2``, and ``C^T`` by 2 n1 rows, ``16 n1 n2^2``. Row-first
    multiplies ``Q`` by one n1 x 4 n2 block, which for real ``r`` is real but
    for the k rows at phase pi (``pi_lines``), ``4 n1^2 n2 + 4 k n1 n2``,
    and ``C^T`` by 4 n1 rows, ``32 n1 n2^2``. So it is cheaper when
    ``n1 > 4 n2 + k``. For complex ``r`` the block is complex throughout,
    ``Q`` costs the same either way and column-first wins."""
    n1, n2 = plan.shape
    return r.dtype == np.float64 and n1 > 4 * n2 + plan.row_op.pi_lines


def _factored_spectra(plan: TransformPlan, r: np.ndarray, alpha_rates: bool = False):
    """Spectra of Y and X side by side, ``[Yhat | Xhat]``, from
    ``r = Q^T [Y | X]`` (``_stacked_coordinates``), batched like the plan,
    where ``Q`` is the row operator's real factor (its right factor is
    ``Q^T`` at every order), and, with ``alpha_rates``, their derivatives in
    the spatial order, ``Q G Z``, ``G`` the row generator in factor
    coordinates. With the row rotation ``R``, ``[Yhat | Xhat] = Q Z`` and
    ``Z = R r (I_2 kron C^T)``.

    Returns ``([Yhat | Xhat], Yhat, Xhat, alpha_rate)``, batched like the
    plan, the first ``(..., n1, 2 n2)``; ``alpha_rate()`` gives ``Q G Z``
    when asked for. The order of the products follows
    ``_row_factor_first``. Column-first forms ``Z``, then ``Q Z``, and
    ``Q (G Z)`` only when ``alpha_rate`` is called: two passes over ``Q``.
    Row-first multiplies ``[R r | G R r]`` by ``Q`` in one pass
    (``FractionalOperator.real_row_pass``) and then both halves by ``C^T``.
    """
    row, col, (n1, n2) = plan.row_op, plan.col_op, plan.shape
    if not _row_factor_first(plan, r):
        # R r is left unnamed, so the column operator frees it early
        z = col.apply_right_transpose(row.mix(r, row.rotation).reshape(
            *r.shape[:-2], 2 * n1, n2)).reshape(r.shape)
        yx = _lmul(row.left, z)
        return yx, yx[..., :n2], yx[..., n2:], lambda: _lmul(row.left, row.mix(z, row.generator_coefficients))
    # Q [R r | G R r] is left unnamed, so the column operator frees it early
    out = col.apply_right_transpose(row.real_row_pass(r, alpha_rates).reshape(
        *r.shape[:-2], -1, n2)).reshape(*r.shape[:-1], -1)
    yx = out[..., :2 * n2]
    return yx, yx[..., :n2], yx[..., n2:], lambda: out[..., 2 * n2:]


def _order_gradient(ctx: TransformContext, plan: TransformPlan, h: np.ndarray,
                    spectra, resid: np.ndarray) -> np.ndarray:
    """Gradient of the risk with respect to the plan's fractional orders,
    shape (..., 2), or (..., 1) for the shared order of gfrft2d (the sum).

    Every factor moves along a unitary one-parameter family, so an order
    derivative is a generator times the spectra already computed. The alpha
    derivatives ``Q G Z`` come from ``_factored_spectra`` (asked for with
    ``alpha_rates``), and ``dYhat/dbeta = Yhat D^T`` with the dense n2 x n2
    ``D`` of ``TransformContext.temporal_generator``.
    """
    yx, alpha_rate = spectra[0], spectra[3]
    n1, n2 = plan.shape
    scale = 2.0 / (n1 * n2)

    def rate(d_yx):
        d = h * d_yx[..., :n2]
        d -= d_yx[..., n2:]
        d *= resid.conj()
        return scale * np.sum(d.real, axis=(-2, -1))

    g_alpha = rate(alpha_rate())
    d_t = ctx.temporal_generator(plan).swapaxes(-1, -2)
    g_beta = rate((yx.reshape(*yx.shape[:-2], 2 * n1, n2) @ d_t).reshape(yx.shape))
    if plan.family == "gfrft2d":
        return (g_alpha + g_beta)[..., None]
    return np.stack([g_alpha, g_beta], axis=-1)


def _stacked_coordinates(ctx: TransformContext, y: TimeVertexSignal, x: TimeVertexSignal):
    """``r = Q^T [Y | X]`` for the spatial factor ``Q``: the same at every
    spatial order, and real for real signals."""
    yx = np.concatenate([y.data, x.data], axis=-1)
    return _lmul(ctx.spatial.fourier_phase_decomposition.q.T, yx)


def grad_orders(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
                ctx: TransformContext, family: str = "gcgfrft") -> tuple[float, float]:
    """Analytic gradient of the risk with respect to the two fractional
    orders."""
    if family == "gfrft2d":
        raise ConfigError("gfrft2d has a single shared order; train() handles it directly")
    (plan,) = _spectra(ctx, family, params.alpha, params.beta, params.lam)
    spectra = _factored_spectra(plan, _stacked_coordinates(ctx, y, x_true), alpha_rates=True)
    g = _order_gradient(ctx, plan, params.h, spectra, params.h * spectra[1] - spectra[2])
    return float(g[0]), float(g[1])


def _adam_step(x, g, m, s, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update of ``x`` at step ``t``; returns ``(x, m, s)``."""
    m = b1 * m + (1 - b1) * g
    s = b2 * s + (1 - b2) * g**2
    return x - lr * (m / (1 - b1**t)) / (np.sqrt(s / (1 - b2**t)) + eps), m, s


def _train_lanes(pairs: list, lams: list, config: TrainConfig, ctx: TransformContext,
                 family: str, record: bool = False):
    """Train one lane per pair ``(y, x_true)`` in ``pairs`` and coupling value
    in ``lams`` as one batched state, its arguments checked once, here.

    Orders ``v`` (B, 2) (one column for gfrft2d), filters ``h`` (B, n1, n2),
    the Adam moments and each lane's ``Q^T [Y | X]`` (B, n1, 2 n2) share the
    lane axis; each epoch is one array pass over it, with one batched
    coupling build for its new temporal orders. After the last update the
    loop evaluates the risk once more, at the final parameters. Returns
    ``(params, trace, final)`` per lane, the trace (``TrainStep`` per epoch,
    kept in preallocated (epochs, lanes) arrays) only with ``record``. A
    lane whose coupling margin fails in training leaves the batch, with
    ``params`` None and its error as ``final``; one whose final orders fail
    keeps its parameters, with the error ``loss()`` would raise as
    ``final``; otherwise ``final`` is the final risk. A non-finite risk in
    any lane raises ``ValueError``.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    for y, x_true in pairs:
        if y.shape != x_true.shape:
            raise ValueError(f"shape mismatch: {y.shape} vs {x_true.shape}")
        if y.shape != ctx.shape:
            raise ValueError(f"signal shape {y.shape} does not match plan {ctx.shape}")
    geodesic = family == "gcgfrft"
    if geodesic and any(lam is None for lam in lams):
        raise ConfigError("gcgfrft training needs a fixed coupling parameter")
    if not all(isinstance(lam, numbers.Real) for lam in lams if lam is not None):
        raise ConfigError(f"coupling parameters must be numbers, got {lams}")

    lanes = np.arange(len(lams))
    lam = _coupling_parameter(np.array(lams, dtype=np.float64)) if geodesic else None
    v = np.full((len(lams), 1 if family == "gfrft2d" else 2), 0.5)
    h = np.ones((len(lams), *ctx.shape), dtype=np.float64)
    m_v, s_v, m_h, s_h = np.zeros_like(v), np.zeros_like(v), np.zeros_like(h), np.zeros_like(h)
    coords = np.stack([_stacked_coordinates(ctx, y, x_true) for y, x_true in pairs])
    # (loss, alpha, beta) per epoch and lane, and the epochs each lane recorded
    steps = np.empty((3, config.epochs, len(lams))) if record else None
    recorded = np.full(len(lams), config.epochs)

    def lane_params(i, lane):
        return FilterParams(alpha=float(v[i, 0]), beta=float(v[i, -1]), h=h[i],
                            lam=lams[lane] if lams[lane] is not None else 0.0)

    results: list = [None] * len(lams)
    for epoch in range(config.epochs + 1):
        last = epoch == config.epochs
        try:
            plan = ctx._plan(family, tuple(v.T), lam)
        except MarginViolationError:
            # the failed plan left every order's result in the coupling cache
            found = ctx._couplings(v[:, -1].tolist())
            keep = np.array([not isinstance(d, MarginViolationError) for d in found])
            for i in np.flatnonzero(~keep):
                recorded[lanes[i]] = epoch
                if last:
                    results[lanes[i]] = (lane_params(i, lanes[i]), found[i])
                else:
                    results[lanes[i]] = (None, MarginViolationError(
                        f"coupling margin violated at epoch {epoch}, temporal order "
                        f"{v[i, -1]:.6g}: {found[i]}",
                        margin=found[i].margin, index=found[i].index))
            lanes, v, h, lam, coords = lanes[keep], v[keep], h[keep], lam[keep], coords[keep]
            m_v, s_v, m_h, s_h = m_v[keep], s_v[keep], m_h[keep], s_h[keep]
            if not lanes.size:
                break
            plan = ctx._plan(family, tuple(v.T), lam)
        # at epoch 0 the filter is all ones, where the risk ||Y - X||^2 does
        # not depend on the orders: their step is exactly zero, not rounding
        order_step = epoch > 0 and not last and config.lr_orders > 0
        spectra = _factored_spectra(plan, coords, alpha_rates=order_step)
        yhat, xhat = spectra[1], spectra[2]
        resid = h * yhat - xhat
        risk = np.mean(resid.real**2 + resid.imag**2, axis=(-2, -1))
        if not np.all(np.isfinite(risk)):
            raise ValueError(f"training diverged at epoch {epoch}: the risk is "
                             f"{risk[~np.isfinite(risk)][0]}")
        if last:
            for i, (lane, r) in enumerate(zip(lanes.tolist(), risk.tolist())):
                results[lane] = (lane_params(i, lane), r)
            break
        if record:
            steps[:, epoch, lanes] = risk, v[:, 0], v[:, -1]

        g_v = _order_gradient(ctx, plan, h, spectra, resid) if order_step else None
        g_h = (2.0 / resid[0].size) * (resid * yhat.conj()).real if config.lr_filter > 0 else None
        if config.optimizer == "gd":
            if g_v is not None:
                v = v - config.lr_orders * g_v
            if g_h is not None:
                h = h - config.lr_filter * g_h
        else:
            if g_v is not None:
                v, m_v, s_v = _adam_step(v, g_v, m_v, s_v, config.lr_orders, epoch + 1)
            if g_h is not None:
                h, m_h, s_h = _adam_step(h, g_h, m_h, s_h, config.lr_filter, epoch + 1)

    traces = [[TrainStep(epoch, *step) for epoch, step in enumerate(steps[:, :n, lane].T.tolist())]
              for lane, n in enumerate(recorded)] if record else [None] * len(lams)
    return [(params, trace, final) for (params, final), trace in zip(results, traces)]


def train(y: TimeVertexSignal, x_true: TimeVertexSignal, lam: float | None,
          config: TrainConfig, ctx: TransformContext,
          family: str = "gcgfrft") -> tuple[FilterParams, list[TrainStep]]:
    """Learn the fractional orders and the diagonal filter by gradient descent.

    Orders start at 0.5 and the filter at all-ones; each epoch evaluates the
    loss at the current parameters (the trace records these pre-update values)
    and applies one simultaneous update. The first update leaves the orders
    at 0.5 exactly, since at the all-ones filter the risk does not depend on
    them. The coupling parameter is fixed for the whole run. The arguments
    are checked once, before the first epoch, and spectral decompositions
    are cached on the context, so only the temporal coupling factorization
    is redone, in one array pass, when the temporal order moves. A
    non-finite epoch risk (a diverged run) raises ``ValueError``. This is the
    one-lane case of the batched state that ``lambda_grid_search`` trains,
    with the trace recorded.
    """
    ((params, trace, final),) = _train_lanes([(y, x_true)], [lam], config, ctx, family,
                                             record=True)
    if params is None:
        raise final
    return params, trace


def _grid_failure(grid) -> MarginViolationError:
    """The error of a coupling grid whose every point violated the margin."""
    return MarginViolationError("every coupling grid point violated the margin: "
                                + "; ".join(f"lam={lam:g}" for lam in grid))


def lambda_grid_search(y: TimeVertexSignal, x_true: TimeVertexSignal, grid,
                       config: TrainConfig, ctx: TransformContext,
                       family: str = "gcgfrft"):
    """Train every coupling value as one lane of a batched state and keep the
    best final loss.

    Returns ``(best_lam, best_params, table)``; ties in the final loss break
    toward the smaller coupling value. A table loss is the training loop's
    last evaluation, at the final parameters. Grid points whose coupling
    margin fails, in training or at the final orders, are recorded in the
    table and skipped; if every point fails, the margin error is re-raised as
    an aggregate failure. The grid must meet ``LAMBDA_GRID``.
    """
    grid = [float(lam) for lam in read_config(
        {"grid": LAMBDA_GRID}, {"grid": list(grid) if np.iterable(grid) else grid})["grid"]]

    table = []
    for lam, (params, trace, final) in zip(
            grid, _train_lanes([(y, x_true)] * len(grid), grid, config, ctx, family, record=True)):
        if isinstance(final, float):
            table.append(GridRow(lam=lam, loss=final, params=params, trace=trace))
        else:
            table.append(GridRow(lam=lam, loss=None, params=None, error=str(final)))
    feasible = [row for row in table if row.loss is not None]
    if not feasible:
        raise _grid_failure(grid)
    best = min(feasible, key=lambda row: (row.loss, row.lam))
    return best.lam, best.params, table
