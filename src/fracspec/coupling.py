"""Geodesic coupling between the graph-induced temporal basis and the DFRFT.

Two unitary temporal bases of the same fractional order generally induce
different spectral coordinates. Their relative change-of-basis operator
``W = (F_graph)^H F_dfrft`` is unitary; as long as -1 is not among its
eigenvalues the principal logarithm is well defined and the curve
``F_graph exp(lam * log W)`` is the unitary geodesic between the two
endpoints. In phase form the curve just scales the eigenphases of W by lam,
so one decomposition serves every lam.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MarginViolationError, NotUnitaryError
from .operators import (
    INPUT_UNITARITY_TOL,
    FractionalOperator,
    _freeze,
    _unitary_eigendecomposition,
    unitarity_error,
)

__all__ = [
    "CouplingDecomposition",
    "coupling_operator",
    "phase_decompose",
    "geodesic_temporal_basis",
    "swapped_geodesic_temporal_basis",
]

DEFAULT_MARGIN_TOL = 1e-6


@dataclass(frozen=True)
class CouplingDecomposition:
    """Eigenphase decomposition ``W = S diag(exp(j theta)) S^H`` of a unitary
    coupling operator, with the margin of its phases from the -1 branch cut.

    ``margin = min_k (pi - |theta_k|)`` must stay positive for the geodesic
    construction to be well defined. A (B, n, n) stack has ``s`` (B, n, n),
    ``theta`` (B, n), ``margin`` (B,), and ``failed``, which maps the index of
    each matrix that fails the margin to its ``MarginViolationError``.
    """

    s: np.ndarray
    theta: np.ndarray
    margin: float | np.ndarray
    failed: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.s.shape[-1]


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, FractionalOperator) else np.asarray(op, dtype=np.complex128)


def coupling_operator(f_graph, f_dfrft) -> np.ndarray:
    """Relative change-of-basis operator ``W = (F_graph)^H F_dfrft``; a
    (B, n, n) stack for operators that carry a batch of orders.

    A ``FractionalOperator`` is unitary by construction; a raw array input is
    checked against the unitarity tolerance.
    """
    a = _as_matrix(f_graph)
    b = _as_matrix(f_dfrft)
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.shape} vs {b.shape}")
    n = a.shape[-1]
    for name, op, m in (("graph basis", f_graph, a), ("dfrft basis", f_dfrft, b)):
        if isinstance(op, FractionalOperator):
            continue
        err = unitarity_error(m)
        if not err <= INPUT_UNITARITY_TOL * n:  # also rejects a non-finite matrix
            raise NotUnitaryError(f"{name} is not unitary: ||U^H U - I|| = {err:.3e}")
    return _freeze(a.conj().swapaxes(-1, -2) @ b)


def _margin_tolerance(tol) -> float:
    """Validate a branch-cut margin tolerance: a number of radians in
    [0, pi], the range of an eigenphase's distance from the cut."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 <= tol <= np.pi:
        raise ConfigError(f"margin tolerance must be a number in [0, pi], got {tol!r}")
    return float(tol)


def phase_decompose(w: np.ndarray, margin_tol: float = DEFAULT_MARGIN_TOL) -> CouplingDecomposition:
    """Eigenphase decomposition of a unitary coupling operator.

    Fails hard (no silent perturbation) when any eigenphase comes within
    ``margin_tol`` radians of the -1 branch cut, reporting the margin and the
    offending phase index. ``margin_tol`` must lie in [0, pi].

    A (B, n, n) stack is checked and decomposed as a whole: one batched
    Cayley solve and one batched ``eigh``, cut at -1
    (``operators._cayley_eigenpairs``). A matrix whose ``I + W`` is singular
    or whose eigen-residual is too large is decomposed again alone, with the
    cut in its widest eigenphase gap. The stack gives one batched
    decomposition, in which a matrix that fails the margin is listed in
    ``failed`` instead of raising, so one bad matrix does not cost the others
    their decomposition.
    """
    margin_tol = _margin_tolerance(margin_tol)
    w = np.asarray(w, dtype=np.complex128)
    n = w.shape[-1]
    err = np.max(unitarity_error(w))
    if not err <= INPUT_UNITARITY_TOL * n:  # also rejects a non-finite matrix
        raise NotUnitaryError(f"coupling operator is not unitary: ||W^H W - I|| = {err:.3e}")
    theta, s = _unitary_eigendecomposition(w, gap_cut=False)
    distance = np.abs(theta)
    margin = np.pi - np.max(distance, axis=-1)
    worst, margins = np.argmax(distance, axis=-1).reshape(-1), margin.reshape(-1)
    failed = {
        int(k): MarginViolationError(
            f"coupling eigenphase {worst[k]} is {margins[k]:.3e} rad from the -1 branch cut "
            f"(tolerance {margin_tol:.3e}); the principal logarithm is ill-defined",
            margin=float(margins[k]),
            index=int(worst[k]),
        )
        for k in np.flatnonzero(~(margins > margin_tol))
    }
    if failed and w.ndim == 2:
        raise failed[0]
    return CouplingDecomposition(s, theta, margin if w.ndim > 2 else float(margin), failed)


def _coupling_parameter(lam):
    """Validate a coupling parameter, or an array of them: the geodesic is
    defined on [0, 1]."""
    try:
        value = np.asarray(lam, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise ValueError(f"coupling parameter must be a number, got {lam!r}") from err
    if not np.all((value >= 0.0) & (value <= 1.0)):
        raise ValueError(f"coupling parameter must lie in [0, 1], got {lam}")
    return float(value) if value.ndim == 0 else value


def geodesic_temporal_basis(f_graph_beta: FractionalOperator,
                            decomp: CouplingDecomposition,
                            lam: float) -> FractionalOperator:
    """Coupled temporal basis ``F_graph S diag(exp(j lam theta)) S^H``.

    The curve interpolates the graph-induced temporal basis (lam=0) and the
    DFRFT (lam=1) along the unitary geodesic. It is one two-sided factored
    operator with ``left = F_graph S`` and ``right = S^H``, so sweeping lam
    over a fixed decomposition only changes the diagonal phase factors. A
    basis and decomposition that carry a batch of orders give the stacked
    factors of every member.
    """
    lam = _coupling_parameter(lam)
    if f_graph_beta.n != decomp.n:
        raise ValueError(f"size mismatch: basis {f_graph_beta.n} vs decomposition {decomp.n}")
    return FractionalOperator(lam, decomp.theta, f_graph_beta.matrix @ decomp.s,
                              decomp.s.conj().swapaxes(-1, -2))


def swapped_geodesic_temporal_basis(f_dfrft_beta: FractionalOperator,
                                    swapped_decomp: CouplingDecomposition,
                                    lam: float) -> FractionalOperator:
    """Geodesic with the endpoints exchanged: starts at the DFRFT (lam=0) and
    reaches the graph-induced basis at lam=1. ``swapped_decomp`` must decompose
    the reversed coupling operator ``(F_dfrft)^H F_graph``. Equals the direct
    geodesic evaluated at ``1 - lam``."""
    return geodesic_temporal_basis(f_dfrft_beta, swapped_decomp, lam)
