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
    phase_decompose,
)
from .errors import ConfigError, MarginViolationError
from .graphs import Graph
from .operators import (
    FractionalOperator,
    SpectralBasis,
    _freeze,
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


class TransformContext:
    """Caches the spectral machinery shared by every plan over one factor pair.

    The two graph eigenbases and the DFRFT eigenstructure are computed once;
    changing a fractional order only changes the middle factor of each
    operator (phases and 2x2 rotation angles). The coupling
    decomposition used by the geodesic family depends on the temporal order,
    so it is cached per order value, next to the geodesic factors
    ``L = F_graph^beta S`` and ``S^H`` that every coupling value shares.
    """

    def __init__(self, spatial, temporal, margin_tol: float = DEFAULT_MARGIN_TOL):
        self.spatial = _as_basis(spatial)
        self.temporal = _as_basis(temporal)
        self.margin_tol = margin_tol
        self._coupling_cache: dict[float, tuple[CouplingDecomposition, np.ndarray, np.ndarray, np.ndarray]] = {}

    @property
    def shape(self):
        return (self.spatial.n, self.temporal.n)

    @cached_property
    def temporal_graph_generator(self) -> np.ndarray:
        """``G_F = (dF/dbeta) F^H`` of the temporal graph FRFT; the same at
        every order."""
        return graph_frft(self.temporal, 0.0).generator()

    @cached_property
    def dfrft_generator(self) -> np.ndarray:
        """``G_E = (dE/dbeta) E^H`` of the DFRFT; the same at every order."""
        return dfrft_matrix(self.temporal.n, 0.0).generator()

    def coupling(self, temporal_order):
        """Decomposition of ``(F_graph^beta)^H F_dfrft^beta`` at this order.

        An array of orders gives a list in the same order, in which an order
        whose coupling violates the margin holds its ``MarginViolationError``
        instead of raising it. The cache misses among the distinct orders are
        built together: one ``W`` stack, one batched Cayley eigensolve
        (``phase_decompose``, which moves the cut of a matrix the cut at -1
        cannot resolve into its widest eigenphase gap), and one ``L`` stack.
        The cache keeps the most recently requested orders, never fewer than
        one request's.
        """
        keys = np.atleast_1d(temporal_order).astype(np.float64).tolist()
        failed = self._couplings(list(dict.fromkeys(keys)))[0]
        results = [failed[k] if k in failed else self._coupling_cache[k][0] for k in keys]
        if np.ndim(temporal_order) > 0:
            return results
        if isinstance(results[0], MarginViolationError):
            raise results[0]
        return results[0]

    def _couplings(self, distinct: list):
        """Build the coupling decompositions of those distinct temporal orders
        that miss the cache. Returns the ``MarginViolationError`` of each
        order that fails the margin, by order, and the geodesic factor stacks
        ``(theta, L, S^H)`` of the orders when this call built every one of
        them (else None).

        A cache entry holds an order's decomposition and its rows of the
        stacks ``theta``, ``L = F_graph^beta S`` and ``S^H`` that every
        coupling value shares, all views of the misses' one batched
        decomposition; failed orders are not cached.
        """
        cache = self._coupling_cache
        misses = [k for k in distinct if k not in cache]
        failed, built = {}, None
        if misses:
            betas = np.array(misses)
            f_graph = graph_frft(self.temporal, betas)
            dec = phase_decompose(coupling_operator(f_graph, dfrft_matrix(self.temporal.n, betas)),
                                  margin_tol=self.margin_tol)
            failed = {misses[i]: e for i, e in dec.failed.items()}
            ok = [i for i in range(len(misses)) if i not in dec.failed]
            if ok:
                theta, s, f = dec.theta, dec.s, f_graph.matrix
                if dec.failed:
                    theta, s, f = _freeze(theta[ok]), _freeze(s[ok]), f[ok]
                left, right = _freeze(f @ s), _freeze(s.conj().swapaxes(-1, -2))
                for j, i in enumerate(ok):
                    decomp = CouplingDecomposition(s=s[j], theta=theta[j], margin=float(dec.margin[i]))
                    cache[misses[i]] = (decomp, theta[j], left[j], right[j])
                if len(ok) == len(distinct):
                    built = (theta, left, right)
        for k in distinct:
            if k in cache:
                cache[k] = cache.pop(k)
        while len(cache) > max(COUPLING_CACHE_SIZE, len(distinct)):
            cache.pop(next(iter(cache)))
        return failed, built

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
        betas = np.atleast_1d(temporal_order).tolist()
        distinct = list(dict.fromkeys(betas))
        failed, factors = self._couplings(distinct)
        if failed:
            raise next(iter(failed.values()))
        if len(distinct) == 1:
            factors = self._coupling_cache[distinct[0]][1:]
        else:
            if factors is None:
                factors = [np.stack(f) for f in zip(*(self._coupling_cache[b][1:] for b in distinct))]
            if len(betas) > len(distinct):
                position = {b: i for i, b in enumerate(distinct)}
                member = [position[b] for b in betas]
                factors = [f[member] for f in factors]
        col = FractionalOperator(lam, *factors)
        return TransformPlan(family, row, col, orders, lam=lam)

