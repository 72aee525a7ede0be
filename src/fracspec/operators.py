"""Unitary fractional operators: graph fractional Fourier transforms and the
discrete fractional Fourier transform.

A fractional operator is kept in one two-sided factored form,
``M = left diag(exp(j * order * theta)) right``, so that changing the order
only rescales diagonal phase factors and applying the operator to a signal
never requires re-running a spectral factorization. Eigenphase powers use
``left = P`` and ``right = P^H``; the geodesic temporal basis of
``coupling`` uses ``left = F_graph^beta S`` and ``right = S^H``. Graph
operators come from the orthonormal adjacency eigenbasis; the DFRFT comes
from the commuting-matrix eigenvector convention that reproduces the unitary
DFT exactly at order 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DecompositionError, NotUnitaryError
from .graphs import Graph

__all__ = [
    "SpectralBasis",
    "FractionalOperator",
    "eigendecompose",
    "gft_matrix",
    "unitary_fractional_power",
    "graph_frft",
    "dfrft_matrix",
    "unitarity_error",
]

#: unitarity tolerance accepted on *inputs* (per matrix dimension)
INPUT_UNITARITY_TOL = 1e-8
#: unitarity guaranteed on *outputs* (per matrix dimension)
OUTPUT_UNITARITY_TOL = 1e-9
#: eigenvalues whose phases differ by less than this are treated as one eigenspace
PHASE_CLUSTER_TOL = 1e-8
#: Cayley eigen-residual (per matrix dimension) above which a matrix cut at -1
#: is decomposed again with the cut in its widest eigenphase gap, and above
#: which that decomposition fails; a basis far from the cut reaches about 5e-16
CAYLEY_RESIDUAL_TOL = 1e-13


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def unitarity_error(m: np.ndarray):
    """Frobenius norm of M^H M - I; one norm per matrix for a (B, n, n) stack."""
    m = np.asarray(m)
    err = np.linalg.norm(m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1]), axis=(-2, -1))
    return float(err) if m.ndim == 2 else err


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal eigendecomposition of a symmetric adjacency matrix.

    ``v`` holds eigenvectors in columns, ordered by descending eigenvalue
    (stable ties); each eigenvector's largest-magnitude component (first such
    index on ties) is made positive so the basis is deterministic.
    """

    v: np.ndarray
    lam: np.ndarray

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @cached_property
    def fourier_phase_decomposition(self):
        """Eigenphase decomposition ``(theta, P, P^H)`` of the graph Fourier
        matrix V^T, computed once per basis; every fractional order reuses it.
        """
        theta, p = _unitary_eigendecomposition(self.v.T)
        return theta, p, _freeze(p.conj().T.copy())


class FractionalOperator:
    """Unitary operator held as ``left diag(exp(j*order*phases)) right``.

    ``left`` and ``right`` are unitary and ``phases`` are the generator phases
    of the one-parameter family in ``order``: principal arguments in
    (-pi, pi] for graph and geodesic operators, and fixed-branch multiples of
    pi/2 (possibly outside the principal range) for the DFRFT, whose
    eigenvalue assignment intentionally unwraps the branch. Graph and DFRFT
    operators are eigenphase powers, ``left = P`` and ``right = P^H``. A
    geodesic temporal basis ``F S diag(exp(j*lam*theta)) S^H`` has
    ``left = F S`` and ``right = S^H``, with ``order`` the coupling parameter.
    The dense ``matrix`` is materialized lazily; transforms apply the factors
    directly.

    A batch of B operators shares the leading axis: ``order`` of shape (B,),
    and ``left``/``right`` (B, n, n) and ``phases`` (B, n) either stacked or
    shared by every member. The ``apply_*`` methods then broadcast over it.
    """

    def __init__(self, order, phases, left, right, matrix=None):
        self.phases = _freeze(np.asarray(phases))
        self.left = _freeze(np.asarray(left))
        self.right = _freeze(np.asarray(right))
        order = np.array(order, dtype=np.float64)
        self.order = float(order) if order.ndim == 0 else _freeze(order)
        self._diag = None
        self._matrix = matrix

    @property
    def n(self) -> int:
        return self.left.shape[-1]

    @property
    def diag(self) -> np.ndarray:
        if self._diag is None:
            order = self.order if isinstance(self.order, float) else self.order[:, None]
            self._diag = _freeze(np.exp(1j * order * self.phases))
        return self._diag

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _freeze((self.left * self.diag[..., None, :]) @ self.right)
        return self._matrix

    # -- factored application (never forms the dense operator) ---------------
    # A^H x is evaluated as (A^T x^*)^*: the signal is conjugated, no factor is.

    def apply_left(self, x: np.ndarray) -> np.ndarray:
        """M @ x."""
        return self.left @ (self.diag[..., :, None] * (self.right @ x))

    def apply_left_inverse(self, x: np.ndarray) -> np.ndarray:
        """M^H @ x (closed-form inverse: the operator is unitary)."""
        return (self.right.swapaxes(-1, -2)
                @ (self.diag[..., :, None] * (self.left.swapaxes(-1, -2) @ x.conj()))).conj()

    def apply_right_transpose(self, x: np.ndarray) -> np.ndarray:
        """x @ M^T."""
        return ((x @ self.right.swapaxes(-1, -2)) * self.diag[..., None, :]) @ self.left.swapaxes(-1, -2)

    def apply_right_conj(self, x: np.ndarray) -> np.ndarray:
        """x @ M^* (right factor of the inverse transform)."""
        return (((x.conj() @ self.left) * self.diag[..., None, :]) @ self.right).conj()

    # -- order derivative: d(matrix)/d(order) = G @ matrix -------------------

    def generator(self) -> np.ndarray:
        """Dense generator ``G = left diag(j*phases) left^H = (dM/dorder) M^H``."""
        return (self.left * (1j * self.phases)[..., None, :]) @ self.left.conj().swapaxes(-1, -2)


def eigendecompose(g: Graph) -> SpectralBasis:
    """Symmetric eigendecomposition of a graph adjacency.

    Eigenvalues are sorted descending (stable), eigenvector signs fixed by
    making the first largest-magnitude component positive, and the
    reconstruction ``V diag(lam) V^T = A`` is verified.
    """
    a = np.asarray(g.adjacency, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency contains non-finite entries")
    lam, v = np.linalg.eigh(a)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = v[:, order].copy()
    # deterministic signs
    for k in range(v.shape[1]):
        col = v[:, k]
        i0 = int(np.argmax(np.abs(col)))
        if col[i0] < 0:
            v[:, k] = -col
    norm_a = np.linalg.norm(a)
    resid = np.linalg.norm((v * lam) @ v.T - a)
    if resid > 1e-9 * max(norm_a, 1.0):
        raise DecompositionError(
            f"eigendecomposition residual {resid:.3e} exceeds 1e-9 * ||A||"
        )
    return SpectralBasis(v=_freeze(v), lam=_freeze(lam))


def gft_matrix(basis: SpectralBasis) -> FractionalOperator:
    """Graph Fourier matrix F = V^T as an order-1 fractional operator."""
    theta, p, p_h = basis.fourier_phase_decomposition
    return FractionalOperator(1.0, theta, p, p_h, matrix=_freeze(basis.v.T.astype(np.complex128)))


def _widest_gap_cut(stack: np.ndarray) -> np.ndarray:
    """The middle of the widest gap between consecutive eigenphases of each
    matrix of a (B, n, n) unitary stack: the point of the unit circle
    farthest from its spectrum, at least pi/n from every eigenphase. A real
    stack is solved as real: LAPACK's real eigensolver is about 2.5 times
    faster than the complex one at n = 512."""
    phases = np.sort(np.angle(np.linalg.eigvals(stack)), axis=-1)
    gaps = np.diff(phases, axis=-1, append=phases[:, :1] + 2 * np.pi)
    rows, widest = np.arange(len(stack)), np.argmax(gaps, axis=-1)
    return phases[rows, widest] + gaps[rows, widest] / 2


def _cayley_eigenvectors(u: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors of each matrix of a (B, n, n) unitary stack
    without the eigenvalue -1: one batched solve and one batched ``eigh``.

    The Cayley transform ``H = i (I + U)^{-1} (I - U)`` is then Hermitian,
    with ``U``'s eigenvectors and the eigenvalues ``tan(theta/2)`` (Higham,
    *Functions of Matrices*, 2008), and ``eigh`` gives an orthonormal basis
    even inside an eigenvalue cluster. Raises ``LinAlgError`` when some
    ``I + U`` is exactly singular.
    """
    eye = np.eye(u.shape[-1])
    x = np.linalg.solve(eye + u, eye - u)
    # H = i X with X skew-Hermitian; its Hermitian part is i (X - X^H) / 2,
    # formed in place to keep the stack's temporaries few
    x -= x.conj().swapaxes(-1, -2)
    x *= 0.5j
    return np.linalg.eigh(x)[1]


def _rayleigh_eigenvalues(stack: np.ndarray, z: np.ndarray):
    """Rayleigh quotients ``diag(Z^H W Z)`` of a unitary stack, normalized
    onto the unit circle, and each matrix's residual ``||W Z - Z diag(w)||``."""
    wz = stack @ z
    w = np.sum(z.conj() * wz, axis=-2)
    w /= np.abs(w)
    wz -= z * w[..., None, :]
    return w, np.linalg.norm(wz, axis=(-2, -1))


def _cayley_eigenpairs(stack: np.ndarray, cut: np.ndarray | None = None):
    """Eigenvalues ``(B, n)`` and orthonormal eigenvectors ``(B, n, n)`` of a
    complex (B, n, n) stack of unitary matrices, from the Cayley transform.

    ``cut`` holds one phase per matrix at which its transform is singular:
    the transform is taken of ``-exp(-j cut) U``, whose eigenvalue -1 sits
    where ``U`` has ``exp(j cut)``. None is the cut at -1 itself, with no
    rotation. The eigenvalues are the Rayleigh quotients of the unrotated
    ``U``, not ``exp(2j arctan(.))``: their error is quadratic in the
    eigenvector error. The Cayley basis loses accuracy as ``eps / d``, with
    ``d`` the distance of the nearest eigenphase from the cut. So at the cut
    -1, a matrix whose residual exceeds ``CAYLEY_RESIDUAL_TOL * n``, or whose
    ``I + U`` is singular, is decomposed again alone, with its cut in its
    widest eigenphase gap. There, a residual above the tolerance raises
    ``DecompositionError``.
    """
    n = stack.shape[-1]
    rotated = stack if cut is None else -np.exp(-1j * cut)[:, None, None] * stack
    try:
        z = _cayley_eigenvectors(rotated)
    except np.linalg.LinAlgError:
        if cut is not None:
            raise DecompositionError("Cayley transform singular at the widest eigenphase gap") from None
        # an eigenvalue of exactly -1 fails the whole batched solve: take the
        # matrices one at a time, so that only the singular one moves its cut
        if len(stack) == 1:
            return _cayley_eigenpairs(stack, _widest_gap_cut(stack))
        w, z = zip(*(_cayley_eigenpairs(m[None]) for m in stack))
        return np.concatenate(w), np.concatenate(z)
    w, resid = _rayleigh_eigenvalues(stack, z)
    bad = np.flatnonzero(~(resid <= CAYLEY_RESIDUAL_TOL * n))
    if len(bad):
        if cut is not None:
            raise DecompositionError(
                f"Cayley eigen-residual {np.max(resid[bad]):.3e} exceeds "
                f"{CAYLEY_RESIDUAL_TOL * n:.3e} at the widest eigenphase gap"
            )
        w[bad], z[bad] = _cayley_eigenpairs(stack[bad], _widest_gap_cut(stack[bad]))
    return w, z


def _unitary_eigendecomposition(u: np.ndarray, gap_cut: bool = True):
    """Orthonormal eigendecomposition of a (numerically) unitary matrix, or of
    a (B, n, n) stack of them, by the batched Cayley transform
    (``_cayley_eigenpairs``).

    With ``gap_cut`` each matrix is cut in its widest eigenphase gap, found
    by one eigenvalue solve of ``u`` as given (real stays real). This serves
    any unitary input, including one with the eigenvalue -1, as the one-off
    graph-Fourier bases may have. Without it the cut is -1, for the coupling
    path (``coupling.phase_decompose``), whose margin check excludes -1; the
    rare matrix the cut at -1 cannot resolve moves its cut alone.

    Phases are principal arguments in (-pi, pi]: every phase within
    ``PHASE_CLUSTER_TOL`` of +-pi is +pi, so the branch of an eigenvalue at
    -1 does not depend on rounding. The phase inside each eigenvalue cluster
    is then unified, which keeps fractional powers invariant under re-mixing
    of eigenvectors inside a degenerate eigenspace.

    Returns (theta, P) with phases sorted descending (stable ties) and each
    column's largest-magnitude component rotated onto the positive real axis.
    A (B, n, n) stack gives (B, n) phases and (B, n, n) bases; everything
    but the cluster unification runs over the whole stack.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    stack = u.reshape(-1, n, n)
    w, z = _cayley_eigenpairs(stack.astype(np.complex128, copy=False),
                              _widest_gap_cut(stack) if gap_cut else None)
    theta = np.angle(w)
    theta[np.pi - np.abs(theta) < PHASE_CLUSTER_TOL] = np.pi
    rows = np.arange(len(w))[:, None]
    order = np.argsort(-theta, axis=-1, kind="stable")
    theta, w = theta[rows, order], w[rows, order]
    z = z.swapaxes(-1, -2)[rows, order].swapaxes(-1, -2)

    # only matrices with a phase cluster (consecutive sorted phases closer
    # than the tolerance) need the per-matrix unification
    for k in np.flatnonzero((theta[:, :-1] - theta[:, 1:] < PHASE_CLUSTER_TOL).any(axis=-1)):
        theta[k], z[k] = _unify_phase_clusters(theta[k], w[k], z[k])

    # canonical column phase: the first largest-magnitude entry is real positive
    pivot = z[rows, np.argmax(np.abs(z), axis=-2), np.arange(n)]
    z = z / (pivot / np.abs(pivot))[:, None, :]

    ortho = np.max(unitarity_error(z))
    if ortho > OUTPUT_UNITARITY_TOL * n:
        raise DecompositionError(
            f"eigenvector re-orthonormalization failed: ||P^H P - I|| = {ortho:.3e}"
        )
    return _freeze(theta.reshape(u.shape[:-1])), _freeze(z.reshape(u.shape))


def _unify_phase_clusters(theta, w, z):
    """Give every eigenvalue cluster of one sorted decomposition a single
    phase, the angle of its mean eigenvalue (+pi within the tolerance of the
    cut), and re-sort."""
    n = theta.size
    bounds = [0, *(i for i in range(1, n) if theta[i - 1] - theta[i] >= PHASE_CLUSTER_TOL), n]
    theta = theta.copy()
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b - a > 1:
            rep = float(np.angle(np.mean(w[a:b])))
            theta[a:b] = np.pi if np.pi - abs(rep) < PHASE_CLUSTER_TOL else rep
    order = np.lexsort((np.arange(n), -theta))
    return theta[order], z[:, order]


def unitary_fractional_power(u, order: float) -> FractionalOperator:
    """Fractional power of a unitary matrix via per-eigenvalue principal phases.

    ``u`` is decomposed as ``P diag(exp(j theta_k)) P^H`` with theta_k the
    principal argument in (-pi, pi]; the result is
    ``P diag(exp(j * order * theta_k)) P^H``. At order 1 this reproduces ``u``,
    at order 0 the identity, and powers within the family are additive.
    """
    mat = u.matrix if isinstance(u, FractionalOperator) else np.asarray(u, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotUnitaryError(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    err = unitarity_error(mat)
    if not err <= INPUT_UNITARITY_TOL * n:  # also rejects a non-finite matrix
        raise NotUnitaryError(
            f"input is not unitary: ||U^H U - I|| = {err:.3e} > {INPUT_UNITARITY_TOL * n:.3e}"
        )
    theta, p = _unitary_eigendecomposition(mat)
    return FractionalOperator(order, theta, p, p.conj().T)


def graph_frft(basis: SpectralBasis, order: float) -> FractionalOperator:
    """Graph fractional Fourier transform of a given order.

    Fractional power of the unitary graph Fourier matrix; the eigenphase
    decomposition is cached on the basis, so sweeping orders only updates the
    diagonal phase factors.
    """
    return FractionalOperator(order, *basis.fourier_phase_decomposition)


@lru_cache(maxsize=64)
def _dfrft_eigenstructure(n: int):
    """Commuting-matrix eigenvectors and their spectral index assignment.

    The circulant-plus-cosine commuting matrix ``S`` shares eigenvectors with
    the unitary DFT. S commutes with the reflection k -> -k (mod n), so its
    spectrum splits into an even and an odd symmetry class; diagonalizing the
    two classes separately (which also resolves the degenerate pairs S has for
    some n) and ordering each by descending eigenvalue yields the classical
    Hermite-like sequence. Even-class vectors get spectral indices 0,2,4,...
    and odd-class vectors 1,3,5,..., producing exactly the index set
    {0,...,n-2} plus n-1 (n odd) or n (n even).
    """
    k = np.arange(n)
    s = np.zeros((n, n))
    s[k, k] = 2.0 * np.cos(2.0 * np.pi * k / n) - 4.0
    np.add.at(s, (k, (k + 1) % n), 1.0)
    np.add.at(s, (k, (k - 1) % n), 1.0)

    n_even = n // 2 + 1
    e = np.zeros((n, n_even))
    e[0, 0] = 1.0
    c = 1
    for i in range(1, (n + 1) // 2):
        e[i, c] = e[n - i, c] = 1.0 / np.sqrt(2.0)
        c += 1
    if n % 2 == 0:
        e[n // 2, c] = 1.0
    n_odd = n - n_even
    o = np.zeros((n, n_odd))
    c = 0
    for i in range(1, (n + 1) // 2):
        o[i, c] = 1.0 / np.sqrt(2.0)
        o[n - i, c] = -1.0 / np.sqrt(2.0)
        c += 1

    we, ve = np.linalg.eigh(e.T @ s @ e)
    ve = e @ ve[:, np.argsort(-we, kind="stable")]
    if n_odd:
        wo, vo = np.linalg.eigh(o.T @ s @ o)
        vo = o @ vo[:, np.argsort(-wo, kind="stable")]
    else:
        vo = np.zeros((n, 0))

    cols = [ve[:, i] for i in range(ve.shape[1])] + [vo[:, i] for i in range(vo.shape[1])]
    khat = [2 * i for i in range(ve.shape[1])] + [2 * i + 1 for i in range(vo.shape[1])]
    order = np.argsort(khat, kind="stable")
    v = np.column_stack([cols[i] for i in order]).astype(np.complex128)
    khat = np.asarray(khat, dtype=np.float64)[order]
    phases = -0.5 * np.pi * khat

    # order-1 must reproduce the unitary DFT; guard against ordering drift
    m = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(m, m) / n) / np.sqrt(n)
    dev = np.abs((v * np.exp(1j * phases)) @ v.T - dft)
    if dev.max() > INPUT_UNITARITY_TOL * n:
        bad = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise DecompositionError(
            f"order-1 DFRFT deviates from the DFT by {dev.max():.3e} at entry {bad}; "
            "eigenvector ordering is unstable for this size"
        )
    return _freeze(phases), _freeze(v), _freeze(v.conj().T.copy())


def dfrft_matrix(n: int, order: float) -> FractionalOperator:
    """Discrete fractional Fourier transform matrix of size ``n``: the
    commuting-matrix DFRFT, whose order-1 matrix equals the unitary DFT
    ``F[m, k] = exp(-2j pi m k / n)/sqrt(n)``; this identity is verified at
    construction.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"dfrft needs n >= 2, got {n}")
    return FractionalOperator(order, *_dfrft_eigenstructure(int(n)))
