"""Separable transforms for time-vertex signals.

A plan is a point (alpha, beta, lam) acting as ``Xhat = F_row X F_col^T``
(two dense factor multiplies, inverse ``X = F_row^H Xhat F_col^*``; the
Kronecker operator on vec(X) is never materialized): the graph FRFT of order
alpha on the rows, and on the columns the point at lam of the unitary
geodesic from the temporal graph FRFT to the DFRFT, both of order beta. A
family is a row of constraints on the point (``CONSTRAINTS``):

    family    orders        lam
    gfrft2d   alpha = beta  0
    gbfrft2d  free          0
    jfrft     free          1
    gcgfrft   free          free

lam alone picks the column operator: the factored temporal graph FRFT at 0,
the factored DFRFT at 1, the dense geodesic operator elsewhere. So a plan at
lam 0 or 1 never decomposes a coupling and cannot fail its margin.

Orders are uniformly (spatial_order, temporal_order), one shared order for
a tie; some joint time-vertex conventions write the temporal DFRFT order
first, so the plan API fixes one naming to prevent silent transposition.
"""

from __future__ import annotations

from collections import namedtuple
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
    "CONSTRAINTS",
    "FAMILIES",
    "TimeVertexSignal",
    "TransformPlan",
    "TransformContext",
    "forward",
    "inverse",
]

#: a family's row of ``CONSTRAINTS``: whether it ties alpha = beta (one shared
#: order), and the lam it fixes, None where lam is free
Constraint = namedtuple("Constraint", ["tie", "lam"])
#: every family as a row of constraints on the plan point (alpha, beta, lam)
CONSTRAINTS = {"gfrft2d": Constraint(True, 0.0), "gbfrft2d": Constraint(False, 0.0),
               "jfrft": Constraint(False, 1.0), "gcgfrft": Constraint(False, None)}
FAMILIES = tuple(CONSTRAINTS)


def constraint(family) -> Constraint:
    """The family's row of ``CONSTRAINTS``, or a ``ConfigError``."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return CONSTRAINTS[family]


def _column_groups(lam: np.ndarray) -> list:
    """The lanes of a batch by column operator (``TransformContext._plan``),
    as index arrays: lam 0, lam 1 and the rest, each group that has a lane.
    A batched plan takes the lanes of one group, each with its scalar plan's
    arithmetic; ``TransformContext.plan`` refuses a batch of more."""
    kind = np.where(lam == 0.0, 0, np.where(lam == 1.0, 1, 2))
    return [np.flatnonzero(kind == k) for k in np.unique(kind)]


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
    """A pair of unitary factor operators at (orders, ``lam``), with the
    family and orders as asked for; the orders and ``lam`` of a batched plan
    are arrays over its leading axis, or scalars shared by every lane."""

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
        two outer factors. A real inner factor is a real GEMM, so a real
        ``X`` stays real through them. A real block stays real through the
        graph FRFT's rotations but on the k rows or columns at phase pi: at
        lam 0 it is ``Q1 M Q2^T`` in real GEMMs, for the real part ``M`` of
        both rotations, plus rank-k GEMMs for the imaginary parts on those
        rows and columns (``FractionalOperator.real_two_sided_pass``). At
        lam 1 the DFRFT's diagonal phases make it complex, after ``Q1`` has
        met the rotated real block (``FractionalOperator.real_row_pass``).

        Elsewhere the geodesic column operator ``C`` is ``dense``: the
        row operator goes first, then ``C^T`` in one GEMM. For a real ``X``
        that is ``Q1 Re(R1 Q1^T X)`` times ``C^T`` in one real GEMM on the
        float64 view of ``C^T``, plus the imaginary part on the k1 rows at
        phase pi, those rows times ``C^T`` and then ``Q1``, of rank k1.
        Every lane of a batched plan takes the arithmetic of a single plan."""
        row, col = self.row_op, self.col_op
        if col.dense:
            x = _lmul(row.right, x)
            if np.iscomplexobj(x):
                return col.apply_right_transpose(_lmul(row.left, row.mix(x, row.rotation)))
            re, im = row.real_mix(x, row.rotation)
            out = col.apply_right_transpose(_lmul(row.left, re))
            out += _lmul(row.left[:, :row.pi_lines], 1j * col.apply_right_transpose(im))
            return out
        x = _rmul(_lmul(row.right, x), col.right.swapaxes(-1, -2))
        if np.iscomplexobj(x):
            x = col.mix(row.mix(x, row.rotation), col.rotation, axis=-1)
            return _rmul(_lmul(row.left, x), col.left.swapaxes(-1, -2))
        if col.partner is None:
            x = col.mix(row.real_row_pass(x), col.rotation, axis=-1)
            return _rmul(x, col.left.swapaxes(-1, -2))
        return row.real_two_sided_pass(x, col)

    def apply_inverse(self, xhat: np.ndarray, real: bool = False) -> np.ndarray:
        """``F_row^H Xhat F_col^*`` on a raw n1 x n2 array, unchecked, as
        ``(F_row^T Xhat^* F_col)^*``, or with ``real`` its real part.

        With ``F_row^T = right^T R^T left^T`` and ``F_col = left R right``,
        the row inner factor and rotation go first, then the column operator,
        then the row outer factor; a ``dense`` column operator is one GEMM
        with ``C``. ``real`` forms only the real part. At lam 0 that is real
        GEMMs on ``Re(Xhat)`` and rank-k ones on ``Im(Xhat)``
        (``FractionalOperator.real_two_sided_inverse``). At lam 1 it is taken
        before the DFRFT's ``V^T`` and ``Q1``, real GEMMs on half the data.
        Elsewhere it is ``Q1 Re(R1^H Q1^T Z)``
        with ``Z = Xhat C^*``: ``Re(Z)`` is one real GEMM
        (``FractionalOperator.real_conj_product``), and ``R1^H`` needs
        ``Im(Q1^T Z)`` only on the k1 rows at phase pi, of rank k1."""
        row, col = self.row_op, self.col_op
        if real and col.partner is not None:
            return row.real_two_sided_inverse(xhat, col)
        if real and col.dense:
            (a, b), k, q1t = row.rotation, row.pi_lines, row.left.swapaxes(-1, -2)
            x = row.mix(_lmul(q1t, col.real_conj_product(xhat)), (a, b.real), transpose=True)
            # Im(Q1^T Z) on the rows at phase pi, as Re(-j Q1^T Z)
            x[..., :k, :] += b.imag[..., :k, None] * col.real_conj_product(
                -1j * _lmul(q1t[:k], xhat))
            return _lmul(row.left, x)
        x = row.mix(_lmul(row.left.swapaxes(-1, -2), xhat.conj()), row.rotation, transpose=True)
        if col.dense:
            return _lmul(row.right.swapaxes(-1, -2), x @ col.matrix).conj()
        x = col.mix(_rmul(x, col.left), col.rotation, axis=-1, transpose=True)
        if real:
            x = np.ascontiguousarray(x.real)
        x = _lmul(row.right.swapaxes(-1, -2), _rmul(x, col.right))
        return x if real else x.conj()

    def _row_factor_first(self, r: np.ndarray) -> bool:
        """Whether an epoch of the plan costs fewer real multiply-adds with
        the row factor ``Q`` applied before the column operator ``C`` than
        after it (``_factored_spectra``); a property of the plan's shape and
        of the dtype of the coordinates ``r``, not a setting.

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
        ``Q`` costs the same either way and column-first wins. The count
        takes ``C`` as two factor products; the ``dense`` geodesic operator
        is one, which would move its crossover to ``n1 > 2 n2 + k``."""
        n1, n2 = self.shape
        return r.dtype == np.float64 and n1 > 4 * n2 + self.row_op.pi_lines

    def _factored_spectra(self, r: np.ndarray, alpha_rates: bool = False):
        """Spectra of Y and X side by side, ``[Yhat | Xhat]``, from
        ``r = Q^T [Y | X]`` (``TransformContext._stacked_coordinates``),
        batched like the plan, where ``Q`` is the row operator's real factor
        (its right factor is ``Q^T`` at every order), and, with
        ``alpha_rates``, their derivatives in the spatial order, ``Q G Z``,
        ``G`` the row generator in factor coordinates. With the row rotation
        ``R``, ``[Yhat | Xhat] = Q Z`` and ``Z = R r (I_2 kron C^T)``.

        Returns ``([Yhat | Xhat], Yhat, Xhat, alpha_rate)``, batched like the
        plan, the first ``(..., n1, 2 n2)``; ``alpha_rate`` is ``Q G Z`` with
        ``alpha_rates`` and None without. The order of the products follows
        ``_row_factor_first``. Column-first forms ``Z``, then ``Q Z``, and
        ``Q (G Z)`` with ``alpha_rates``: two passes over ``Q``. Row-first
        multiplies ``[R r | G R r]`` by ``Q`` in one pass
        (``FractionalOperator.real_row_pass``) and then both halves by ``C^T``.
        The geodesic ``C^T`` is one GEMM against the dense matrix of the
        plan's column operator, built at its first use.
        """
        row, col, (n1, n2) = self.row_op, self.col_op, self.shape
        if not self._row_factor_first(r):
            # R r is left unnamed, so the column operator frees it early
            z = col.apply_right_transpose(row.mix(r, row.rotation).reshape(
                *r.shape[:-2], 2 * n1, n2)).reshape(r.shape)
            yx = _lmul(row.left, z)
            rate = _lmul(row.left, row.mix(z, row.generator_coefficients)) if alpha_rates else None
            return yx, yx[..., :n2], yx[..., n2:], rate
        # Q [R r | G R r] is left unnamed, so the column operator frees it early
        out = col.apply_right_transpose(row.real_row_pass(r, alpha_rates).reshape(
            *r.shape[:-2], -1, n2)).reshape(*r.shape[:-1], -1)
        yx = out[..., :2 * n2]
        return yx, yx[..., :n2], yx[..., n2:], out[..., 2 * n2:] if alpha_rates else None


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
    """One batched coupling build: the phases ``theta`` and margins of a
    ``W`` stack, and the factor stacks ``L = F S`` and ``S^H``, the
    transpose of a C-contiguous ``S^*``, the build's one copy of ``S``. A
    row's ``CouplingDecomposition`` is built when first asked for, then
    kept; so is its column operator at the coupling value last asked for,
    whose dense matrix every scalar plan at that (order, coupling value)
    then shares. ``drop`` forgets both when the row's order leaves the
    cache."""

    def __init__(self, dec: CouplingDecomposition, left: np.ndarray):
        self.theta, self.margin, self.left = dec.theta, dec.margin, left
        self.right = np.conjugate(dec.s, order="C").swapaxes(-1, -2)
        self._decompositions, self._operators = {}, {}

    def factors(self, row: int) -> tuple:
        """``(theta, L, S^H)`` of one row, as views of the stacks."""
        return self.theta[row], self.left[row], self.right[row]

    def decomposition(self, row: int) -> CouplingDecomposition:
        if row not in self._decompositions:
            self._decompositions[row] = CouplingDecomposition(
                s=self.right[row].T.conj(), theta=self.theta[row], margin=float(self.margin[row]))
        return self._decompositions[row]

    def operator(self, row: int, lam: float) -> FractionalOperator:
        """The column operator of one row at the coupling value ``lam``: the
        row's last one when ``lam`` is its coupling value, else a new one,
        which replaces it."""
        op = self._operators.get(row)
        if op is None or op.order != lam:
            op = self._operators[row] = FractionalOperator(lam, *self.factors(row))
        return op

    def drop(self, row: int) -> None:
        self._decompositions.pop(row, None)
        self._operators.pop(row, None)


class TransformContext:
    """Caches the spectral machinery shared by every plan over one factor pair.

    The two graph eigenbases and the DFRFT eigenstructure are computed once;
    changing a fractional order only changes the middle factor of each
    operator (phases and 2x2 rotation angles). The context owns each plan's
    temporal (column) factor: how it is built, cached per temporal order
    (``_couplings``), refused at the branch cut and differentiated.
    ``margin_tol`` (radians, in [0, pi]) is the least distance of a coupling
    eigenphase from that cut. It also keeps one observation's spectrum at
    one scalar plan point (``_observation_spectrum``).
    """

    def __init__(self, spatial, temporal, margin_tol: float = DEFAULT_MARGIN_TOL):
        self.margin_tol = _margin_tolerance(margin_tol)
        self.spatial = _as_basis(spatial)
        self.temporal = _as_basis(temporal)
        self._coupling_cache: dict[float, tuple | MarginViolationError] = {}
        self._observation = None

    @property
    def shape(self):
        return (self.spatial.n, self.temporal.n)

    def _stacked_coordinates(self, y: TimeVertexSignal, x: TimeVertexSignal) -> np.ndarray:
        """``r = Q^T [Y | X]`` for the spatial factor ``Q``: the same at every
        spatial order, and real for real signals."""
        yx = np.concatenate([y.data, x.data], axis=-1)
        return _lmul(self.spatial.fourier_phase_decomposition.q.T, yx)

    def _observation_spectrum(self, plan: TransformPlan, y: TimeVertexSignal) -> np.ndarray:
        """``plan.apply(y.data)``, read-only, through the context's one entry:
        the spectrum of the last observation at the last scalar plan point,
        so a filter fitted on ``y`` and applied to it at one plan transforms
        ``y`` once. The entry hits on an equal point (orders and ``lam``
        after the family's constraint), dtype and shape, and values equal to
        its private copy of the observation: not on identity, since the
        array a signal owns can be made writable and changed in place. A
        batched plan bypasses it."""
        point = (plan.orders[0], plan.orders[-1], plan.lam)
        if any(np.ndim(p) for p in point):
            return plan.apply(y.data)
        key, entry = (np.array(point).tobytes(), y.data.dtype, y.shape), self._observation
        if entry is None or entry[0] != key or not np.array_equal(entry[1], y.data):
            yhat = plan.apply(y.data)
            yhat.setflags(write=False)
            self._observation = entry = (key, y.data.copy(), yhat)
        return entry[2]

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

        At lam 0 and lam 1 ``C`` is an eigenphase power, and ``D`` is the
        order-independent generator ``G_F`` of the temporal graph FRFT or
        ``G_E`` of the DFRFT, both cached on the context. Elsewhere the
        geodesic operator is ``C = F Q`` with ``F`` the temporal graph FRFT,
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
        g_f = self._temporal_graph_generator
        if not plan.col_op.dense:
            # an endpoint: the DFRFT holds no partner columns, a graph FRFT does
            return self._dfrft_generator if plan.col_op.partner is None else g_f
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
        orders, never fewer than one request's, and trims only when a
        request adds orders, so requests that hit it evict nothing.

        The misses are built together: one ``W = F^H E`` stack of the
        batched operators ``F`` (temporal graph FRFT) and ``E`` (DFRFT), its
        batched eigensolve (``phase_decompose``), ``L = F S`` and ``S^H``
        (``_CouplingBatch``). An order that leaves the cache drops its row's
        decomposition and column operator.
        """
        cache = self._coupling_cache
        distinct = list(dict.fromkeys(orders))
        misses = [k for k in distinct if k not in cache]
        if misses:
            betas = np.array(misses)
            f = graph_frft(self.temporal, betas)
            dec = phase_decompose(coupling_operator(f, dfrft_matrix(self.temporal.n, betas)),
                                  margin_tol=self.margin_tol)
            batch = _CouplingBatch(dec, f.matrix @ dec.s)
            for i, k in enumerate(misses):
                cache[k] = dec.failed.get(i) or (batch, i)
        for k in distinct:
            cache[k] = cache.pop(k)
        while misses and len(cache) > max(COUPLING_CACHE_SIZE, len(distinct)):
            entry = cache.pop(next(iter(cache)))
            if isinstance(entry, tuple):
                entry[0].drop(entry[1])
        return [cache[k] for k in orders]

    def plan(self, family: str, orders, lam=None) -> TransformPlan:
        """Build a transform plan; ``orders`` is (spatial, temporal) or one
        shared order for a tie, and ``lam`` is read only where it is free.

        Each order, and ``lam``, may also be an array over a batch of B
        parameter settings; the plan's operators then carry that leading
        axis and ``apply`` maps one n1 x n2 signal to B spectra. A scalar
        order beside an array one is broadcast to its length. A batch has
        one column operator: its lam values lie all at 0, all at 1 or all
        inside (0, 1) (``_column_groups``), or it is a ``ConfigError``.
        """
        rule = constraint(family)
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

        if rule.tie:
            if len(orders) not in (1, 2) or (len(orders) == 2 and np.any(orders[0] != orders[1])):
                raise ConfigError(f"{family} uses one shared order")
            orders = orders[:1]
        elif len(orders) != 2:
            raise ConfigError(f"{family} needs (spatial_order, temporal_order), got {orders}")
        if rule.lam is None and lam is None:
            raise ConfigError(f"{family} needs the coupling parameter lam")
        lam = rule.lam if rule.lam is not None else _coupling_parameter(lam)
        if np.ndim(lam) and len(_column_groups(lam)) > 1:
            raise ConfigError(f"a batched plan takes one column operator, so its lam values lie "
                              f"all at 0, all at 1 or all inside (0, 1); got {lam}")
        try:
            return self._plan(family, orders, lam)
        except MarginViolationError as err:
            # the order's cached error, raised afresh: its traceback does not grow
            raise err.with_traceback(None)

    def _plan(self, family: str | None, orders: tuple, lam) -> TransformPlan:
        """``plan`` at float or float-array orders and a checked ``lam`` of
        one column operator, ``family`` only recorded; the training loop
        checks these once and calls this every epoch. At lam 0 the column
        operator is the temporal graph FRFT, at lam 1 the DFRFT, else the
        geodesic operator, the one that requests couplings."""
        row_op, beta = graph_frft(self.spatial, orders[0]), orders[-1]
        end = lam if isinstance(lam, float) else lam[0]
        if end in (0.0, 1.0):
            col_op = graph_frft(self.temporal, beta) if end == 0.0 else \
                dfrft_matrix(self.temporal.n, beta)
            return TransformPlan(family, row_op, col_op, orders, lam=lam)
        # each temporal order's rows of theta, L and S^H, shared by every
        # coupling value; one batch requested in order is used uncopied, and
        # a scalar plan takes its row's operator at this coupling value
        entries = self._couplings(np.atleast_1d(beta).tolist())
        for entry in entries:
            if isinstance(entry, MarginViolationError):
                raise entry.with_traceback(None)
        batch, rows = entries[0][0], [row for _, row in entries]
        if np.ndim(beta) == 0:
            col_op = batch.operator(rows[0], lam) if np.ndim(lam) == 0 else \
                FractionalOperator(lam, *batch.factors(rows[0]))
            return TransformPlan(family, row_op, col_op, orders, lam=lam)
        if any(b is not batch for b, _ in entries):
            factors = [np.stack(f) for f in zip(*(b.factors(row) for b, row in entries))]
        else:
            rows = slice(None) if rows == list(range(len(batch.left))) else rows
            factors = batch.theta[rows], batch.left[rows], batch.right[rows]
        return TransformPlan(family, row_op, FractionalOperator(lam, *factors), orders, lam=lam)
