"""Separable transforms for time-vertex signals.

All four families act as ``Xhat = F_row X F_col^T`` (two dense factor
multiplies, inverse ``X = F_row^H Xhat F_col^*``); the Kronecker operator on
vec(X) is never materialized. Families differ only in where the column
(temporal) operator comes from:

- ``gfrft2d``   - one shared graph fractional order on both factors
- ``gbfrft2d``  - independent graph fractional orders per factor
- ``jfrft``     - graph order on the rows, DFRFT on the columns
- ``gcgfrft``   - graph order on the rows, geodesic-coupled temporal basis
                  interpolating the graph-induced and DFRFT endpoints

Order arguments are uniformly (spatial_order, temporal_order); note that some
joint time-vertex conventions write the temporal DFRFT order first, so the
plan API fixes one naming to prevent silent transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import (
    DEFAULT_MARGIN_TOL,
    CouplingDecomposition,
    _coupling_parameter,
    coupling_operator,
    geodesic_temporal_basis,
    phase_decompose,
)
from .errors import ConfigError, MarginViolationError
from .graphs import Graph
from .operators import (
    FractionalOperator,
    SpectralBasis,
    dfrft_matrix,
    eigendecompose,
    graph_frft,
)

__all__ = [
    "FAMILIES",
    "TimeVertexSignal",
    "TransformPlan",
    "TransformContext",
    "forward",
    "inverse",
]

FAMILIES = ("gfrft2d", "gbfrft2d", "jfrft", "gcgfrft")
#: temporal orders whose coupling decomposition and geodesic factors a context keeps
COUPLING_CACHE_SIZE = 16


@dataclass(frozen=True)
class TimeVertexSignal:
    """An n1 x n2 signal matrix (rows = vertices, columns = time instants).

    Data is stored complex; ``real_flag`` records whether the source values
    were real, which drives the final real projection of denoised estimates.
    """

    data: np.ndarray
    real_flag: bool = True

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise ValueError(f"signal must be a 2-D matrix, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("signal contains non-finite entries")
        object.__setattr__(self, "data", d.astype(np.complex128))
        self.data.setflags(write=False)

    @classmethod
    def from_array(cls, arr) -> "TimeVertexSignal":
        arr = np.asarray(arr)
        return cls(arr, real_flag=bool(np.isrealobj(arr)))

    @property
    def shape(self):
        return self.data.shape

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def as_real(self) -> np.ndarray:
        return np.ascontiguousarray(self.data.real)


@dataclass(frozen=True)
class TransformPlan:
    """A pair of unitary factor operators plus family metadata; the orders
    and ``lam`` of a batched plan are arrays over its leading axis."""

    family: str
    row_op: FractionalOperator
    col_op: FractionalOperator
    orders: tuple
    lam: float | np.ndarray | None = None

    @property
    def shape(self):
        return (self.row_op.n, self.col_op.n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``F_row X F_col^T`` on a raw n1 x n2 array, unchecked."""
        return self.col_op.apply_right_transpose(self.row_op.apply_left(x))

    def apply_inverse(self, xhat: np.ndarray) -> np.ndarray:
        """``F_row^H Xhat F_col^*`` on a raw n1 x n2 array, unchecked."""
        return self.col_op.apply_right_conj(self.row_op.apply_left_inverse(xhat))


def forward(plan: TransformPlan, x: TimeVertexSignal) -> TimeVertexSignal:
    """Spectral representation ``Xhat = F_row X F_col^T``."""
    if x.shape != plan.shape:
        raise ValueError(f"signal shape {x.shape} does not match plan {plan.shape}")
    return TimeVertexSignal(plan.apply(x.data), real_flag=x.real_flag)


def inverse(plan: TransformPlan, xhat: TimeVertexSignal) -> TimeVertexSignal:
    """Inverse transform ``X = F_row^H Xhat F_col^*`` (unitary closed form)."""
    if xhat.shape != plan.shape:
        raise ValueError(f"signal shape {xhat.shape} does not match plan {plan.shape}")
    return TimeVertexSignal(plan.apply_inverse(xhat.data), real_flag=xhat.real_flag)


def _as_basis(g) -> SpectralBasis:
    if isinstance(g, SpectralBasis):
        return g
    if isinstance(g, Graph):
        return eigendecompose(g)
    raise ConfigError(f"expected Graph or SpectralBasis, got {type(g).__name__}")


def _divided_difference_kernel(fvals: np.ndarray, points: np.ndarray,
                               fprime: np.ndarray) -> np.ndarray:
    """Matrix of divided differences (f(p_i) - f(p_j)) / (p_i - p_j), with the
    derivative value on (near-)coincident pairs; one matrix per row of a
    (B, n) batch of points."""
    den = points[..., :, None] - points[..., None, :]
    near = np.abs(den) < 1e-12
    den[near] = 1.0
    out = fvals[..., :, None] - fvals[..., None, :]
    out /= den
    out[near] = np.broadcast_to(fprime[..., :, None], out.shape)[near]
    return out


class TransformContext:
    """Caches the spectral machinery shared by every plan over one factor pair.

    The two graph eigenbases and the DFRFT eigenstructure are computed once;
    changing a fractional order only changes the middle factor of each
    operator (phases and 2x2 rotation angles). The context owns each plan's
    temporal (column) factor: how it is built, cached, refused at the branch
    cut and differentiated. The coupling decomposition used by the geodesic
    family depends on the temporal order, so it is cached per order value,
    next to the geodesic factors ``L = F_graph^beta S`` and ``S^H`` that
    every coupling value shares, or as the order's ``MarginViolationError``.
    """

    def __init__(self, spatial, temporal, margin_tol: float = DEFAULT_MARGIN_TOL):
        self.spatial = _as_basis(spatial)
        self.temporal = _as_basis(temporal)
        self.margin_tol = margin_tol
        self._coupling_cache: dict[float, tuple | MarginViolationError] = {}

    @property
    def shape(self):
        return (self.spatial.n, self.temporal.n)

    @cached_property
    def _temporal_graph_generator(self) -> np.ndarray:
        """``G_F = (dF/dbeta) F^H`` of the temporal graph FRFT; the same at
        every order."""
        return graph_frft(self.temporal, 0.0).generator()

    @cached_property
    def _dfrft_generator(self) -> np.ndarray:
        """``G_E = (dE/dbeta) E^H`` of the DFRFT; the same at every order."""
        return dfrft_matrix(self.temporal.n, 0.0).generator()

    def temporal_generator(self, plan: TransformPlan) -> np.ndarray:
        """``D = (dC/dbeta) C^H`` for the plan's column operator ``C``; one
        n2 x n2 matrix per member of a batched plan.

        For the plain families ``C`` is an eigenphase power, and ``D`` is the
        order-independent generator ``G_F`` of the temporal graph FRFT or
        ``G_E`` of the DFRFT, both cached on the context. The geodesic
        operator is ``C = F Q`` with ``F`` the temporal graph FRFT,
        ``Q = exp(lam log W)`` and ``W = F^H E`` (``E`` the DFRFT), so the
        product rule gives ``D = G_F + F (dQ Q^H) F^H`` with
        ``dW = F^H (G_E - G_F) E``. In the eigenbasis ``S`` of ``W`` the
        derivatives of the principal logarithm and of the exponential are
        Hadamard products with divided-difference kernels (Daleckii-Krein;
        Higham, *Functions of Matrices*, 2008, ch. 3). ``C``'s left factor is
        ``L = F S``, and ``E S = F W S = L diag(exp(j theta))``, so
        ``S^H dW S = (L^H (G_E - G_F) L) diag(exp(j theta))`` and
        ``D = G_F + L (S^H dQ Q^H S) L^H``.
        """
        if plan.family == "jfrft":
            return self._dfrft_generator
        g_f = self._temporal_graph_generator
        if plan.family != "gcgfrft":
            return g_f
        col = plan.col_op
        left, theta = col.left, col.phases
        left_h = left.conj().swapaxes(-1, -2)
        lam = np.expand_dims(col.order, -1)
        mu = np.exp(1j * theta)
        a = 1j * lam * theta
        # S^H dQ S = K_exp o (lam K_log o (S^H dW S)), right-multiplied by
        # S^H Q^H S = diag(exp(-a)); built in place on K_exp, which already has
        # one n2 x n2 matrix per lane
        dq_qh = _divided_difference_kernel(np.exp(a), a, np.exp(a))
        dq_qh *= lam[..., None]
        dq_qh *= _divided_difference_kernel(1j * theta, mu, 1.0 / mu)
        dq_qh *= left_h @ (self._dfrft_generator - g_f) @ left
        dq_qh *= mu[..., None, :] * np.exp(-a)[..., None, :]
        return g_f + left @ dq_qh @ left_h

    def coupling(self, temporal_order):
        """Decomposition of ``(F_graph^beta)^H F_dfrft^beta`` at this order,
        read from the order's cache entry.

        An array of orders gives a list in the same order, in which an order
        whose coupling violates the margin holds its ``MarginViolationError``
        instead of raising it.
        """
        entries = self._couplings(np.atleast_1d(temporal_order).astype(np.float64).tolist())[0]
        results = [e if isinstance(e, MarginViolationError) else e[0] for e in entries]
        if np.ndim(temporal_order) > 0:
            return results
        if isinstance(results[0], MarginViolationError):
            raise results[0].with_traceback(None)
        return results[0]

    def _couplings(self, orders: list):
        """The cache entries of the requested temporal orders, in request
        order, and the fresh geodesic factor stacks ``(theta, L, S^H)`` when
        the request was exactly this call's misses and none of them failed
        (else None).

        The cache misses among the distinct orders are built together: one
        ``W`` stack, one batched Cayley eigensolve (``phase_decompose``, which
        moves the cut of a matrix the cut at -1 cannot resolve into its widest
        eigenphase gap), and one ``geodesic_temporal_basis`` of the stack. An
        entry holds an order's decomposition and its rows of the stacks
        ``theta``, ``L`` and ``S^H``, all views of the one batched build, or
        the order's ``MarginViolationError``; so while an order is cached it
        is decomposed only once. The cache keeps the most recently requested
        orders, never fewer than one request's.
        """
        cache = self._coupling_cache
        distinct = list(dict.fromkeys(orders))
        misses = [k for k in distinct if k not in cache]
        fresh = None
        if misses:
            betas = np.array(misses)
            f_graph = graph_frft(self.temporal, betas)
            dec = phase_decompose(coupling_operator(f_graph, dfrft_matrix(self.temporal.n, betas)),
                                  margin_tol=self.margin_tol)
            basis = geodesic_temporal_basis(f_graph, dec, 0.0)
            theta, left, right = basis.phases, basis.left, basis.right
            for i, k in enumerate(misses):
                cache[k] = dec.failed.get(i) or (
                    CouplingDecomposition(s=dec.s[i], theta=theta[i], margin=float(dec.margin[i])),
                    theta[i], left[i], right[i])
            if misses == orders and not dec.failed:
                fresh = (theta, left, right)
        for k in distinct:
            cache[k] = cache.pop(k)
        while len(cache) > max(COUPLING_CACHE_SIZE, len(distinct)):
            cache.pop(next(iter(cache)))
        return [cache[k] for k in orders], fresh

    def plan(self, family: str, orders, lam=None) -> TransformPlan:
        """Build a transform plan; ``orders`` is (spatial, temporal) or a
        single shared order for the gfrft2d family.

        Each order, and ``lam``, may also be an array over a batch of B
        parameter settings; the plan's operators then carry that leading
        axis and ``apply`` maps one n1 x n2 signal to B spectra.
        """
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
        try:
            orders = (orders,) if np.ndim(orders) == 0 else tuple(orders)
            orders = tuple(float(o) if np.ndim(o) == 0 else np.asarray(o, dtype=np.float64)
                           for o in orders)
        except TypeError as err:
            raise ConfigError(f"orders must be numbers, got {orders!r}") from err
        if any(isinstance(o, np.ndarray) and o.size == 0 for o in orders):
            raise ConfigError("orders must be numbers, got an empty list")

        if family == "gfrft2d":
            if len(orders) not in (1, 2) or (len(orders) == 2 and np.any(orders[0] != orders[1])):
                raise ConfigError("gfrft2d uses one shared order")
            shared = orders[0]
            row = graph_frft(self.spatial, shared)
            col = graph_frft(self.temporal, shared)
            return TransformPlan("gfrft2d", row, col, (shared,))

        if len(orders) != 2:
            raise ConfigError(f"{family} needs (spatial_order, temporal_order), got {orders}")
        spatial_order, temporal_order = orders
        row = graph_frft(self.spatial, spatial_order)
        if family == "gbfrft2d":
            col = graph_frft(self.temporal, temporal_order)
            return TransformPlan(family, row, col, orders)
        if family == "jfrft":
            col = dfrft_matrix(self.temporal.n, temporal_order)
            return TransformPlan(family, row, col, orders)
        # gcgfrft: the geodesic factors theta, L and S^H of each temporal
        # order, shared by every coupling value
        if lam is None:
            raise ConfigError("gcgfrft needs the coupling parameter lam")
        lam = _coupling_parameter(lam)
        entries, fresh = self._couplings(np.atleast_1d(temporal_order).tolist())
        for entry in entries:
            if isinstance(entry, MarginViolationError):
                raise entry.with_traceback(None)
        if np.ndim(temporal_order) == 0:
            factors = entries[0][1:]
        elif fresh is not None:
            factors = fresh
        else:
            factors = [np.stack(f) for f in zip(*(entry[1:] for entry in entries))]
        col = FractionalOperator(lam, *factors)
        return TransformPlan(family, row, col, orders, lam=lam)
