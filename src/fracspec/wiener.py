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
from .transforms import (TimeVertexSignal, TransformContext, TransformPlan, _column_groups,
                         constraint)

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


def _checked_plan(ctx: TransformContext, family: str, params: FilterParams,
                  *signals: TimeVertexSignal) -> TransformPlan:
    """The plan at these parameters, checked against each signal's shape. A
    tied family takes ``alpha`` as its one order, and only a family that
    leaves the coupling parameter free reads ``lam``."""
    plan = ctx.plan(family, (params.alpha,) if constraint(family).tie else
                    (params.alpha, params.beta), lam=params.lam)
    for sig in signals:
        if sig.shape != plan.shape:
            raise ValueError(f"signal shape {sig.shape} does not match plan {plan.shape}")
    return plan


def denoise_complex(y: TimeVertexSignal, params: FilterParams, ctx: TransformContext,
                    family: str = "gcgfrft") -> TimeVertexSignal:
    """Filtered estimate without the final real projection."""
    plan = _checked_plan(ctx, family, params, y)
    return TimeVertexSignal(plan.apply_inverse(params.h * ctx._observation_spectrum(plan, y)),
                            real_flag=y.real_flag)


def denoise(y: TimeVertexSignal, params: FilterParams, ctx: TransformContext,
            family: str = "gcgfrft") -> TimeVertexSignal:
    """Filtered estimate; real-sourced observations are projected back to the
    real field (the complex estimate remains the optimization variable),
    through ``TransformPlan.apply_inverse`` with ``real``, which takes the
    real part before the real outer factors."""
    plan = _checked_plan(ctx, family, params, y)
    yhat = ctx._observation_spectrum(plan, y)
    return TimeVertexSignal(plan.apply_inverse(params.h * yhat, real=y.real_flag),
                            real_flag=y.real_flag)


def _risk(ctx: TransformContext, plan: TransformPlan, coords: np.ndarray, h: np.ndarray,
          tie=None):
    """The risk of the plan and filter ``h`` on ``coords = Q^T [Y | X]``
    (``TransformContext._stacked_coordinates``), batched like the plan:
    ``(risk, grad_h, grad_orders)``, one risk per lane.

    The risk is ``mean |h o Yhat - Xhat|^2``, which by unitarity equals the
    vertex-domain mean squared error of the complex estimate. Unitarity also
    collapses the inverse transform out of the quadratic, so the filter
    gradient is ``(2 / (n1 n2)) Re((h o Yhat - Xhat) o conj(Yhat))``. With
    ``tie`` (a bool, or one per lane; see ``_order_gradient``) the order
    gradient is formed too, from the spatial-order rates of the same
    spectra; without, it is None.
    """
    spectra = plan._factored_spectra(coords, alpha_rates=tie is not None)
    yhat, xhat = spectra[1], spectra[2]
    resid = h * yhat - xhat
    risk = np.mean(resid.real**2 + resid.imag**2, axis=(-2, -1))
    g_h = (2.0 / (plan.shape[0] * plan.shape[1])) * (resid * yhat.conj()).real
    g_v = None if tie is None else _order_gradient(ctx, plan, h, spectra, resid, tie)
    return risk, g_h, g_v


def _point_risk(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
                ctx: TransformContext, family: str, orders: bool = False):
    """``_risk`` at one parameter point, its signals checked."""
    if y.shape != x_true.shape:
        raise ValueError(f"shape mismatch: {y.shape} vs {x_true.shape}")
    plan = _checked_plan(ctx, family, params, y)
    return _risk(ctx, plan, ctx._stacked_coordinates(y, x_true), params.h,
                 constraint(family).tie if orders else None)


def loss(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
         ctx: TransformContext, family: str = "gcgfrft") -> float:
    """Empirical risk: mean squared error of the complex estimate, evaluated
    in the spectral domain, ``mean |h o Yhat - Xhat|^2`` (``_risk``, as in
    training)."""
    return float(_point_risk(y, x_true, params, ctx, family)[0])


def grad_h(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
           ctx: TransformContext, family: str = "gcgfrft") -> np.ndarray:
    """Exact gradient of the risk with respect to the diagonal filter,
    ``(2 / (n1 n2)) Re((h o Yhat - Xhat) o conj(Yhat))`` (``_risk``)."""
    return _point_risk(y, x_true, params, ctx, family)[1]


def closed_form_h(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
                  ctx: TransformContext, family: str = "gcgfrft") -> np.ndarray:
    """Exact minimizer of the convex per-bin filter subproblem.

    ``h_ij = Re(Xhat_ij conj(Yhat_ij)) / |Yhat_ij|^2`` on live bins; bins with
    negligible observed energy get the minimum-norm choice 0. ``Yhat`` is the
    context's observation entry (``TransformContext._observation_spectrum``),
    so ``denoise`` of the same ``y`` at the same plan reuses it.
    """
    plan = _checked_plan(ctx, family, params, y, x_true)
    yhat, xhat = ctx._observation_spectrum(plan, y), plan.apply(x_true.data)
    power = yhat.real**2 + yhat.imag**2
    floor = DEAD_BIN_REL_TOL * power.sum() / power.size
    live = power >= max(floor, np.finfo(np.float64).tiny)
    cross = xhat.real * yhat.real
    cross += xhat.imag * yhat.imag
    return np.divide(cross, power, out=np.zeros_like(power), where=live)


def _order_gradient(ctx: TransformContext, plan: TransformPlan, h: np.ndarray,
                    spectra, resid: np.ndarray, tie) -> np.ndarray:
    """Gradient of the risk with respect to the plan's fractional orders,
    shape (..., 2). Where ``tie`` (a bool, or one per lane) holds, both
    entries are the derivative along alpha = beta, the sum of the two.

    Every factor moves along a unitary one-parameter family, so an order
    derivative is a generator times the spectra already computed. The alpha
    derivatives ``Q G Z`` come from ``TransformPlan._factored_spectra``
    (asked for with ``alpha_rates``), and ``dYhat/dbeta = Yhat D^T`` with
    the dense n2 x n2 ``D`` of ``TransformContext.temporal_generator``.
    """
    yx = spectra[0]
    n1, n2 = plan.shape
    scale = 2.0 / (n1 * n2)

    def rate(d_yx):
        d = h * d_yx[..., :n2]
        d -= d_yx[..., n2:]
        d *= resid.conj()
        return scale * np.sum(d.real, axis=(-2, -1))

    g_alpha = rate(spectra[3])
    d_t = ctx.temporal_generator(plan).swapaxes(-1, -2)
    g_beta = rate((yx.reshape(*yx.shape[:-2], 2 * n1, n2) @ d_t).reshape(yx.shape))
    g = np.stack([g_alpha, g_beta], axis=-1)
    if not np.any(tie):
        return g
    return np.where(np.asarray(tie)[..., None], (g_alpha + g_beta)[..., None], g)


def grad_orders(y: TimeVertexSignal, x_true: TimeVertexSignal, params: FilterParams,
                ctx: TransformContext, family: str = "gcgfrft") -> tuple[float, float]:
    """Analytic gradient of the risk with respect to the two fractional
    orders (``_risk``); for a tied family both are the derivative along the
    tie."""
    g = _point_risk(y, x_true, params, ctx, family, orders=True)[2]
    return float(g[0]), float(g[1])


def _adam_step(x, g, m, s, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update of ``x`` at step ``t``; returns ``(x, m, s)``."""
    m = b1 * m + (1 - b1) * g
    s = b2 * s + (1 - b2) * g**2
    return x - lr * (m / (1 - b1**t)) / (np.sqrt(s / (1 - b2**t)) + eps), m, s


def _train_lanes(pairs: list, lams: list, config: TrainConfig, ctx: TransformContext,
                 family, record: bool = False):
    """Train one lane per pair ``(y, x_true)`` in ``pairs``, coupling value
    in ``lams`` and family (one name, or one per lane) as one batched state,
    its arguments checked once, here.

    A lane's family constrains its point (``transforms.CONSTRAINTS``): a
    fixed lam replaces the lane's, and a tied lane steps both orders by
    their summed rate. Orders ``v`` (B, 2), filters ``h`` (B, n1, n2), the
    Adam moments and each lane's ``Q^T [Y | X]`` (B, n1, 2 n2) share the
    lane axis. The lanes split once by column operator
    (``transforms._column_groups``); each epoch of a group is one array
    pass over it, and only the group off the endpoints builds couplings, in
    one batch of its new temporal orders. Each epoch's risk and gradients
    come from ``_risk``, as ``loss``, ``grad_h`` and ``grad_orders`` do.
    After the last update the risk is evaluated once more, at the final
    parameters, so a final risk is ``loss()`` there. Returns ``(params,
    trace, final)`` per lane, the trace (``TrainStep`` per epoch, kept in
    preallocated (epochs, lanes) arrays) only with ``record``. A lane whose
    coupling margin fails in training leaves the batch, with ``params``
    None and its error as ``final``; one whose final orders fail keeps its
    parameters, with the error ``loss()`` would raise as ``final``;
    otherwise ``final`` is the final risk. A non-finite risk in any lane
    raises ``ValueError``.
    """
    rules = [constraint(f) for f in ([family] * len(lams) if isinstance(family, str) else family)]
    for y, x_true in pairs:
        if y.shape != x_true.shape:
            raise ValueError(f"shape mismatch: {y.shape} vs {x_true.shape}")
        if y.shape != ctx.shape:
            raise ValueError(f"signal shape {y.shape} does not match plan {ctx.shape}")
    if any(rule.lam is None and lam is None for rule, lam in zip(rules, lams)):
        raise ConfigError("a family that leaves lam free needs a coupling value to train at")
    if not all(isinstance(lam, numbers.Real) for lam in lams if lam is not None):
        raise ConfigError(f"coupling parameters must be numbers, got {lams}")

    point_lam = _coupling_parameter(np.array([lam if rule.lam is None else rule.lam
                                              for rule, lam in zip(rules, lams)], dtype=np.float64))
    ties = np.array([rule.tie for rule in rules])
    all_coords = np.stack([ctx._stacked_coordinates(y, x_true) for y, x_true in pairs])
    # (loss, alpha, beta) per epoch and lane, and the epochs each lane recorded
    steps = np.empty((3, config.epochs, len(lams))) if record else None
    recorded = np.full(len(lams), config.epochs)

    def lane_params(i, lane):
        return FilterParams(alpha=float(v[i, 0]), beta=float(v[i, -1]), h=h[i],
                            lam=lams[lane] if lams[lane] is not None else 0.0)

    results: list = [None] * len(lams)
    for lanes in _column_groups(point_lam):
        lam, tie, coords = point_lam[lanes], ties[lanes], all_coords[lanes]
        v = np.full((len(lanes), 2), 0.5)
        h = np.ones((len(lanes), *ctx.shape), dtype=np.float64)
        m_v, s_v, m_h, s_h = np.zeros_like(v), np.zeros_like(v), np.zeros_like(h), np.zeros_like(h)
        for epoch in range(config.epochs + 1):
            last = epoch == config.epochs
            try:
                plan = ctx._plan(None, tuple(v.T), lam)
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
                lanes, v, h, lam, tie, coords = (a[keep] for a in (lanes, v, h, lam, tie, coords))
                m_v, s_v, m_h, s_h = m_v[keep], s_v[keep], m_h[keep], s_h[keep]
                if not lanes.size:
                    break
                plan = ctx._plan(None, tuple(v.T), lam)
            # at epoch 0 the filter is all ones, where the risk ||Y - X||^2 does
            # not depend on the orders: their step is exactly zero, not rounding
            order_step = epoch > 0 and not last and config.lr_orders > 0
            risk, g_h, g_v = _risk(ctx, plan, coords, h, tie if order_step else None)
            if not np.all(np.isfinite(risk)):
                raise ValueError(f"training diverged at epoch {epoch}: the risk is "
                                 f"{risk[~np.isfinite(risk)][0]}")
            if last:
                for i, (lane, r) in enumerate(zip(lanes.tolist(), risk.tolist())):
                    results[lane] = (lane_params(i, lane), r)
                break
            if record:
                steps[:, epoch, lanes] = risk, v[:, 0], v[:, -1]

            if config.optimizer == "gd":
                if g_v is not None:
                    v = v - config.lr_orders * g_v
                if config.lr_filter > 0:
                    h = h - config.lr_filter * g_h
            else:
                if g_v is not None:
                    v, m_v, s_v = _adam_step(v, g_v, m_v, s_v, config.lr_orders, epoch + 1)
                if config.lr_filter > 0:
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
    is redone, in one array pass, when the temporal order moves at an
    interior lam; at lam 0 or 1 nothing is decomposed. A
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
