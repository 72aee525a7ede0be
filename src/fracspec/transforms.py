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
    _margin_tolerance,
    coupling_operator,
    phase_decompose,
)
from .errors import ConfigError, MarginViolationError
from .graphs import Graph
from .operators import (
    FractionalOperator,
    SpectralBasis,
    _lmul,
    _rmul,
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

    Data is kept in a read-only copy of its own: float64 for a real-dtype
    input and complex128 for a complex one, so a real signal enters every
    transform as real data. ``real_flag`` records whether the source values
    were real, which drives the final real projection of denoised estimates;
    a spectrum is complex but keeps the flag of its source.
    """

    data: np.ndarray
    real_flag: bool = True

    def __post_init__(self):
        d = np.asarray(self.data)
        if d.ndim != 2:
            raise ValueError(f"signal must be a 2-D matrix, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("signal contains non-finite entries")
        dtype = np.float64 if np.isrealobj(d) else np.complex128
        object.__setattr__(self, "data", np.array(d, dtype=dtype, order="C"))
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
        """The real part of the data, read-only and uncopied."""
        return self.data.real


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
        """``F_row X F_col^T`` on a raw n1 x n2 array, unchecked.

        With ``F = left R right`` on both sides, the two inner factors go
        first (``right_row X right_col^T``), then the two rotations, then the
        two outer factors. A real inner factor is a real GEMM and a complex
        one a half-width real GEMM on the factor's float64 view (``_rmul``),
        so a real ``X`` leaves them real but for ``gcgfrft``, whose ``S^H``
        makes it complex. A real block stays real through the graph FRFT's
        rotations but on the k rows or columns at phase pi: for ``gfrft2d``
        and ``gbfrft2d`` it is ``Q1 M Q2^T`` in real GEMMs, for the real
        part ``M`` of both rotations, plus rank-k GEMMs for the imaginary
        parts on those rows and columns
        (``FractionalOperator.real_two_sided_pass``). For ``jfrft`` the
        DFRFT's diagonal phases make it complex, after ``Q1`` has met the
        rotated real block (``FractionalOperator.real_row_pass``). Every
        lane of a batched plan takes the arithmetic of a single plan."""
        row, col = self.row_op, self.col_op
        x = _rmul(_lmul(row.right, x), col.right.swapaxes(-1, -2))
        if np.iscomplexobj(x):
            x = col.mix(row.mix(x, row.rotation), col.rotation, axis=-1)
            return _rmul(_lmul(row.left, x), col.left.swapaxes(-1, -2))
        if col.partner is None:
            x = col.mix(row.real_row_pass(x), col.rotation, axis=-1)
            return _rmul(x, col.left.swapaxes(-1, -2))
        return row.real_two_sided_pass(x, col)

    def apply_inverse(self, xhat: np.ndarray) -> np.ndarray:
        """``F_row^H Xhat F_col^*`` on a raw n1 x n2 array, unchecked, as
        ``((F_row^T Xhat^*) F_col)^*``."""
        return self.col_op.apply_right(self.row_op.apply_left_transpose(xhat.conj())).conj()

    def apply_inverse_real(self, xhat: np.ndarray) -> np.ndarray:
        """``Re(F_row^H Xhat F_col^*)``, the real projection of the inverse,
        on a raw n1 x n2 array, unchecked.

        It is ``Re((F_row^T Xhat^*) F_col)``, with ``F_row^T = right^T R^T
        left^T`` and ``F_col = left R right``. The real part commutes with a
        real outer factor: every row factor ``Q1``, and the column factor
        ``Q2^T`` or the DFRFT's ``V^T``. So the inner factors and rotations
        are applied, then the real part is taken, before both outer factors
        for the real families and before ``Q1`` alone for ``gcgfrft``,
        whose ``S^H`` is complex; a real outer factor is then a real GEMM
        on half the data."""
        row, col = self.row_op, self.col_op
        x = row.mix(_lmul(row.left.swapaxes(-1, -2), xhat.conj()), row.rotation, transpose=True)
        x = col.mix(_rmul(x, col.left), col.rotation, axis=-1, transpose=True)
        if not np.iscomplexobj(col.right):
            x = np.ascontiguousarray(x.real)
        x = np.ascontiguousarray(_rmul(x, col.right).real)
        return _lmul(row.right.swapaxes(-1, -2), x)


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
    (B, n) batch of points, built in place."""
    den = points[..., :, None] - points[..., None, :]
    near = np.abs(den) < 1e-12
    den[near] = 1.0
    out = fvals[..., :, None] - fvals[..., None, :]
    out /= den
    np.copyto(out, fprime[..., :, None], where=near)
    return out


class _CouplingBatch:
    """One batched coupling build: the decomposition ``dec`` of a ``W`` stack
    and the factor stacks ``L = F S`` and ``S^H``. A row's
    ``CouplingDecomposition`` is built when first asked for, then kept."""

    def __init__(self, dec: CouplingDecomposition, left: np.ndarray, right: np.ndarray):
        self.dec, self.left, self.right = dec, left, right
        self._decompositions = {}

    def factors(self, row: int) -> tuple:
        """``(theta, L, S^H)`` of one row, as views of the stacks."""
        return self.dec.theta[row], self.left[row], self.right[row]

    def decomposition(self, row: int) -> CouplingDecomposition:
        if row not in self._decompositions:
            self._decompositions[row] = CouplingDecomposition(
                s=self.dec.s[row], theta=self.dec.theta[row], margin=float(self.dec.margin[row]))
        return self._decompositions[row]


class TransformContext:
    """Caches the spectral machinery shared by every plan over one factor pair.

    The two graph eigenbases and the DFRFT eigenstructure are computed once;
    changing a fractional order only changes the middle factor of each
    operator (phases and 2x2 rotation angles). The context owns each plan's
    temporal (column) factor: how it is built, cached per temporal order
    (``_couplings``), refused at the branch cut and differentiated.
    ``margin_tol`` (radians, in [0, pi]) is the least distance of a coupling
    eigenphase from that cut.
    """

    def __init__(self, spatial, temporal, margin_tol: float = DEFAULT_MARGIN_TOL):
        self.margin_tol = _margin_tolerance(margin_tol)
        self.spatial = _as_basis(spatial)
        self.temporal = _as_basis(temporal)
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

    @cached_property
    def _generator_gap(self) -> np.ndarray:
        """``G_E - G_F``, the generator of ``W`` in ``dW = F^H (G_E - G_F) E``."""
        return self._dfrft_generator - self._temporal_graph_generator

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
        lam = np.array(col.order)[..., None]
        mu = np.exp(1j * theta)
        a = 1j * lam * theta
        exp_a = np.exp(a)
        # S^H dQ S = K_exp o (lam K_log o (S^H dW S)), right-multiplied by
        # S^H Q^H S = diag(exp(-a)), exp(-a) = conj(exp(a)) for imaginary a;
        # built in place on K_exp, which already has one n2 x n2 matrix per lane
        dq_qh = _divided_difference_kernel(exp_a, a, exp_a)
        dq_qh *= lam[..., None]
        dq_qh *= _divided_difference_kernel(1j * theta, mu, 1.0 / mu)
        dq_qh *= left_h @ self._generator_gap @ left
        dq_qh *= mu[..., None, :] * exp_a.conj()[..., None, :]
        return g_f + left @ dq_qh @ left_h

    def coupling(self, temporal_order):
        """Decomposition of ``(F_graph^beta)^H F_dfrft^beta`` at this order,
        read from the order's cache entry.

        An array of orders gives a list in the same order, in which an order
        whose coupling violates the margin holds its ``MarginViolationError``
        instead of raising it.
        """
        entries = self._couplings(np.atleast_1d(temporal_order).astype(np.float64).tolist())
        results = [e if isinstance(e, MarginViolationError) else e[0].decomposition(e[1])
                   for e in entries]
        if np.ndim(temporal_order) > 0:
            return results
        if isinstance(results[0], MarginViolationError):
            raise results[0].with_traceback(None)
        return results[0]

    def _couplings(self, orders: list) -> list:
        """The cache entries of the requested temporal orders, in request
        order: ``(batch, row)``, the order's row of a ``_CouplingBatch``, or
        its ``MarginViolationError``; so while an order is cached it is
        decomposed only once. The cache keeps the most recently requested
        orders, never fewer than one request's.

        The misses are built together: one ``W = F^H E`` stack of the
        batched operators ``F`` (temporal graph FRFT) and ``E`` (DFRFT), its
        batched eigensolve (``phase_decompose``), ``L = F S`` and ``S^H``,
        the transpose of a C-contiguous ``S^*``, which ``TransformPlan.apply``
        multiplies a real signal by through its float64 view, uncopied.
        """
        cache = self._coupling_cache
        distinct = list(dict.fromkeys(orders))
        misses = [k for k in distinct if k not in cache]
        if misses:
            betas = np.array(misses)
            f = graph_frft(self.temporal, betas)
            dec = phase_decompose(coupling_operator(f, dfrft_matrix(self.temporal.n, betas)),
                                  margin_tol=self.margin_tol)
            s_conj = np.conjugate(dec.s, order="C")
            batch = _CouplingBatch(dec, f.matrix @ dec.s, s_conj.swapaxes(-1, -2))
            for i, k in enumerate(misses):
                cache[k] = dec.failed.get(i) or (batch, i)
        for k in distinct:
            cache[k] = cache.pop(k)
        while len(cache) > max(COUPLING_CACHE_SIZE, len(distinct)):
            cache.pop(next(iter(cache)))
        return [cache[k] for k in orders]

    def plan(self, family: str, orders, lam=None) -> TransformPlan:
        """Build a transform plan; ``orders`` is (spatial, temporal) or a
        single shared order for the gfrft2d family.

        Each order, and ``lam``, may also be an array over a batch of B
        parameter settings; the plan's operators then carry that leading
        axis and ``apply`` maps one n1 x n2 signal to B spectra. A scalar
        order beside an array one is broadcast to its length.
        """
        if family not in FAMILIES:
            raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
        try:
            orders = tuple(orders) if np.iterable(orders) else (orders,)
            orders = tuple(float(o) if np.ndim(o) == 0 else np.asarray(o, dtype=np.float64)
                           for o in orders)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"orders must be numbers, got {orders!r}") from err
        if any(isinstance(o, np.ndarray) for o in orders):
            try:
                orders = tuple(np.broadcast_arrays(*orders))
            except ValueError as err:
                raise ConfigError(f"batched orders must have one length, got {orders!r}") from err
        if any(isinstance(o, np.ndarray) and o.size == 0 for o in orders):
            raise ConfigError("orders must be numbers, got an empty list")
        if not all(np.all(np.isfinite(o)) for o in orders):
            raise ConfigError(f"orders must be finite, got {orders!r}")

        if family == "gfrft2d":
            if len(orders) not in (1, 2) or (len(orders) == 2 and np.any(orders[0] != orders[1])):
                raise ConfigError("gfrft2d uses one shared order")
            orders = orders[:1]
        elif len(orders) != 2:
            raise ConfigError(f"{family} needs (spatial_order, temporal_order), got {orders}")
        if family == "gcgfrft":
            if lam is None:
                raise ConfigError("gcgfrft needs the coupling parameter lam")
            lam = _coupling_parameter(lam)
        try:
            return self._plan(family, orders, lam)
        except MarginViolationError as err:
            # the order's cached error, raised afresh: its traceback does not grow
            raise err.with_traceback(None)

    def _plan(self, family: str, orders: tuple, lam=None) -> TransformPlan:
        """``plan`` for a known family, orders that are floats or float
        arrays (one shared order for gfrft2d) and a checked ``lam``; the
        training loop checks these once and calls this every epoch."""
        row_op = graph_frft(self.spatial, orders[0])
        if family in ("gfrft2d", "gbfrft2d"):
            return TransformPlan(family, row_op, graph_frft(self.temporal, orders[-1]), orders)
        if family == "jfrft":
            return TransformPlan(family, row_op, dfrft_matrix(self.temporal.n, orders[1]), orders)
        # gcgfrft: each temporal order's rows of theta, L and S^H, shared by
        # every coupling value; one batch requested in order is used uncopied
        entries = self._couplings(np.atleast_1d(orders[1]).tolist())
        for entry in entries:
            if isinstance(entry, MarginViolationError):
                raise entry.with_traceback(None)
        batch, rows = entries[0][0], [row for _, row in entries]
        if np.ndim(orders[1]) == 0:
            factors = batch.factors(rows[0])
        elif any(b is not batch for b, _ in entries):
            factors = [np.stack(f) for f in zip(*(b.factors(row) for b, row in entries))]
        else:
            rows = slice(None) if rows == list(range(len(batch.left))) else rows
            factors = batch.dec.theta[rows], batch.left[rows], batch.right[rows]
        return TransformPlan(family, row_op, FractionalOperator(lam, *factors), orders, lam=lam)
