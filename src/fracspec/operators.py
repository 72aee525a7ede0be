"""Unitary fractional operators: graph fractional Fourier transforms and the
discrete fractional Fourier transform.

Every operator is held in one two-sided factored form ``left R(order)
right`` (``FractionalOperator``), so changing the order only changes the
middle factor and applying it never re-runs a spectral factorization. Graph
operators come from the orthonormal adjacency eigenbasis; the DFRFT comes
from the commuting-matrix eigenvector convention that reproduces the unitary
DFT exactly at order 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
#: which that decomposition fails; a basis far from the cut reaches about 5e-16.
#: A graph-Fourier basis whose real-path residual exceeds it falls back to the
#: gap-cut eigensolve (the k-NN graph of 512 points reaches about 3e-15)
CAYLEY_RESIDUAL_TOL = 1e-13


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def unitarity_error(m: np.ndarray):
    """Frobenius norm of M^H M - I; one norm per matrix for a (B, n, n) stack."""
    m = np.asarray(m)
    d = m.conj().swapaxes(-1, -2) @ m - np.eye(m.shape[-1])
    d = d.view(d.real.dtype) if np.iscomplexobj(d) else d
    err = np.sqrt(np.sum(d * d, axis=(-2, -1)))
    return float(err) if m.ndim == 2 else err


def _check_unitary(m: np.ndarray, what: str) -> None:
    """Raise ``NotUnitaryError`` unless ``m``, a matrix or a (B, n, n) stack
    given to a public function, is unitary to ``INPUT_UNITARITY_TOL`` per
    dimension; a non-finite matrix fails too."""
    tol = INPUT_UNITARITY_TOL * m.shape[-1]
    err = np.max(unitarity_error(m))
    if not err <= tol:  # also rejects a non-finite matrix
        raise NotUnitaryError(f"{what} is not unitary: ||U^H U - I|| = {err:.3e} > {tol:.3e}")


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
    def fourier_phase_decomposition(self) -> "RealPhaseFactors":
        """Real eigenphase decomposition of the graph Fourier matrix,
        ``V^T = Q R(1) Q^T`` (``RealPhaseFactors``), computed once per basis;
        every fractional order reuses it.

        It comes from one real ``eigh`` of the symmetric part
        (``_symmetric_part_factors``). A basis that path cannot resolve, one
        whose symmetric part has an eigenvalue cluster other than a rotation
        plane or the eigenvalues +-1, goes whole to the gap-cut Cayley
        eigensolve (``_sorted_eigenpairs``, then ``_real_phase_factors``).
        No fixture basis does: for the k-NN graph of 512 random points the
        real path takes 63 ms, where the Cayley eigensolve took 353 ms
        (medians on one core, ``BENCH_real_schur.json``).
        """
        factors = _symmetric_part_factors(self.v.T)
        if factors is None:
            theta, p = _sorted_eigenpairs(self.v.T[None])
            factors = _real_phase_factors(theta[0], p[0])
        return factors


class RealPhaseFactors(NamedTuple):
    """``(theta, Q, partner)`` of a real orthogonal matrix ``Q R(1) Q^T``
    (``FractionalOperator`` with ``partner``), with what the column pairing
    implies, derived once: ``unit``, 1 on a paired column and j on a
    self-partnered one, and ``pi_lines``, the number k of columns at phase
    pi, which are the first k. Those are the only columns on which
    ``R(order)`` is complex."""

    theta: np.ndarray
    q: np.ndarray
    partner: np.ndarray
    unit: np.ndarray
    pi_lines: int


def _lmul(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``f @ x``. A real factor times a complex ``x`` is one real GEMM on the
    float64 view of ``x``, ``(..., n, k)`` as ``(..., n, 2k)``; an ``x`` that
    is not C-contiguous is copied first, since a view of a strided last axis
    would be wrong or impossible."""
    if f.dtype == np.float64 and x.dtype == np.complex128:
        return (f @ np.ascontiguousarray(x).view(np.float64)).view(np.complex128)
    return f @ x


def _rmul(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``x @ f``; a real factor and a complex ``x`` go through ``_lmul`` as
    ``(f^T x^T)^T``, and the result is a transposed view. A real ``x`` times
    a complex factor is one real GEMM on the factor's float64 view,
    ``(..., n, k)`` as ``(..., n, 2k)``, half the arithmetic of numpy's
    promoted complex GEMM; a factor that is not C-contiguous is copied first."""
    if f.dtype == np.float64 and x.dtype == np.complex128:
        return _lmul(f.swapaxes(-1, -2), x.swapaxes(-1, -2)).swapaxes(-1, -2)
    if x.dtype == np.float64 and f.dtype == np.complex128:
        return (x @ np.ascontiguousarray(f).view(np.float64)).view(np.complex128)
    return x @ f


class FractionalOperator:
    """Unitary operator held as ``left R(order) right``.

    ``left`` and ``right`` are unitary and ``phases`` are the generator phases
    of the one-parameter family in ``order``: principal arguments in
    (-pi, pi] for graph and geodesic operators, and fixed-branch multiples of
    pi/2 (possibly outside the principal range) for the DFRFT, whose
    eigenvalue assignment intentionally unwraps the branch.

    Without ``partner`` the middle factor is ``R = diag(exp(j*order*phases))``.
    With it, ``left = Q`` is real orthogonal and ``right = Q^T``, and
    ``partner`` pairs the columns of ``Q`` that span a conjugate eigenvector
    pair, with phases ``theta`` and ``-theta``: ``R`` rotates each pair by
    ``order * theta`` (the real Schur form of an orthogonal matrix; Golub
    and Van Loan, *Matrix Computations*, section 7.4). An unpaired column is
    its own partner (phase 0 or pi) and keeps ``exp(j*order*phase)``. Both
    are ``R w = a o w + b o w[partner]`` with ``a = cos(order*phases)`` and
    ``b = unit * sin(order*phases)``, ``unit`` 1 on a pair and j elsewhere
    (``rotation``), given with ``partner`` (``RealPhaseFactors``). So ``b``
    is real but on the first k = ``pi_lines`` columns, those at phase pi,
    where it is ``j sin(order*pi)``, and ``R`` maps a real block to a real
    one plus an imaginary part on those k lines alone, which ``real_mix``
    computes in real arithmetic. Graph FRFTs are held that way, so a
    complex signal meets only real GEMMs on its float64 view, half the
    arithmetic of complex ones, and a real one real GEMMs plus rank-k
    corrections (``real_row_pass``); the DFRFT has a real ``left = V`` and
    no partner. A geodesic temporal basis ``F S diag(exp(j*lam*theta)) S^H``
    has ``left = F S`` and ``right = S^H``, with ``order`` the coupling
    parameter, and a general unitary power ``left = P`` and ``right = P^H``.
    The dense ``matrix`` is materialized lazily. An operator with real
    outer factors is applied through its factors; one with complex outer
    factors (``dense``) through its ``matrix``, one GEMM in place of the two
    complex factor multiplies.

    A batch of B operators shares the leading axis: ``order`` of shape (B,),
    and ``left``/``right`` (B, n, n) and ``phases`` (B, n) either stacked or
    shared by every member. Its methods then broadcast over it.
    """

    def __init__(self, order, phases, left, right, partner=None, unit=None, pi_lines=0):
        self.phases = _freeze(np.asarray(phases))
        self.left = _freeze(np.asarray(left))
        self.right = _freeze(np.asarray(right))
        self.partner = None if partner is None else _freeze(np.asarray(partner))
        self.unit = None if unit is None else _freeze(np.asarray(unit))
        self.pi_lines = pi_lines
        order = np.array(order, dtype=np.float64)
        self.order = float(order) if order.ndim == 0 else _freeze(order)

    @property
    def n(self) -> int:
        return self.left.shape[-1]

    @cached_property
    def rotation(self):
        """``(a, b)`` of ``R w = a o w + b o w[partner]``, batched like
        ``order``; ``a = exp(j*order*phases)`` and ``b`` None when ``R`` is
        diagonal."""
        order = self.order if isinstance(self.order, float) else self.order[:, None]
        if self.partner is None:
            return np.exp(1j * order * self.phases), None
        angle = order * self.phases
        return np.cos(angle), np.sin(angle) * self.unit

    @property
    def generator_coefficients(self):
        """``(a, b)`` of the generator ``dR/dorder R^H`` in factor
        coordinates, for ``mix``; the same at every order. On a pair it is
        ``theta`` times the quarter turn, ``(G w)_i = theta_i w_partner(i)``."""
        if self.partner is None:
            return 1j * self.phases, None
        return None, self.phases * self.unit

    def mix(self, w: np.ndarray, coefficients, axis: int = -2, transpose: bool = False):
        """``a o w + b o w[partner]`` along ``axis``, for ``coefficients``
        ``(a, b)`` (either may be None: zero): ``R w`` at -2, where the
        columns of ``w`` are the vectors, and ``w R^T`` at -1. With
        ``transpose`` it applies ``R^T``, whose ``b`` is ``b[partner]``."""
        a, b = coefficients
        index = (..., slice(None), None) if axis == -2 else (..., None, slice(None))
        if b is None:
            return a[index] * w
        if transpose:
            b = b[..., self.partner]
        out = b[index] * np.take(w, self.partner, axis=axis)
        if a is not None:
            out += a[index] * w
        return out

    def real_mix(self, w: np.ndarray, coefficients, axis: int = -2):
        """``mix`` of a real ``w`` in real arithmetic, for coefficients whose
        ``b`` is imaginary only on the first k = ``pi_lines`` lines
        (``rotation`` and ``generator_coefficients`` of a partnered
        operator): ``(re, im)``, ``re = a o w + Re(b) o w[partner]``, the
        real part, and ``im = Im(b) o w`` on those lines, ``(..., k, m)`` at
        -2 and ``(..., m, k)`` at -1. ``re`` has the bits of
        ``mix(...).real``: on every other line ``b`` is real, and a
        self-partnered line has ``Re(b) = 0``."""
        a, b = coefficients
        k = self.pi_lines
        if axis == -2:
            return self.mix(w, (a, b.real), axis), b.imag[..., :k, None] * w[..., :k, :]
        return self.mix(w, (a, b.real), axis), b.imag[..., None, :k] * w[..., :k]

    def real_row_pass(self, w: np.ndarray, rates: bool = False) -> np.ndarray:
        """``left R w`` of a real block ``w`` in factor coordinates, or with
        ``rates`` ``left [R w | G R w]`` (``G`` the generator in factor
        coordinates), for a partnered operator. Both blocks are real but on
        their first k = ``pi_lines`` rows (``real_mix``; ``G`` is ``j pi``
        there and turns the imaginary part of ``R w`` real), so ``left``
        meets them in one real GEMM and one of rank k. Each entry is the one
        the complex arithmetic of ``mix`` gives, up to the sign of a zero."""
        k = self.pi_lines
        re, im = self.real_mix(w, self.rotation)
        if rates:
            g = self.generator_coefficients
            re_g, im_g = self.real_mix(re, g)
            re_g[..., :k, :] -= g[1].imag[..., :k, None] * im
            re, im = np.concatenate([re, re_g], axis=-1), np.concatenate([im, im_g], axis=-1)
        out = np.empty(re.shape, dtype=np.complex128)
        out.imag = _lmul(self.left[:, :k], im)
        out.real = _lmul(self.left, re)
        return out

    def real_two_sided_pass(self, w: np.ndarray, col: "FractionalOperator") -> np.ndarray:
        """``left R w R_col^T left_col^T`` of a real block ``w`` in factor
        coordinates, for the partnered column operator ``col``. The
        imaginary part is on the first k1 rows and k2 columns alone, so
        ``left`` and ``left_col^T`` meet the real part in real GEMMs and the
        imaginary part in one GEMM of inner size k1 + k2."""
        # R w = re + j im, im on the first k1 rows; with im below re as k1
        # more rows, col's real_mix gives the real parts of both rotations,
        # less their product on the first k1 rows and k2 columns
        re, im = self.real_mix(w, self.rotation)
        (n1, n2), k1, k2 = re.shape[-2:], self.pi_lines, col.pi_lines
        q1, q2t = self.left, col.left.swapaxes(-1, -2)
        re, re_pi = col.real_mix(np.concatenate([re, im], axis=-2), col.rotation, axis=-1)
        re[..., :k1, :k2] -= re_pi[..., n1:, :]
        out = np.empty((*re.shape[:-2], n1, n2), dtype=np.complex128)
        out.real = _rmul(_lmul(q1, re[..., :n1, :]), q2t)
        left = np.empty((*re.shape[:-2], n1, k1 + k2))
        left[..., :k1], left[..., k1:] = q1[:, :k1], _lmul(q1, re_pi[..., :n1, :])
        right = np.empty((*re.shape[:-2], k1 + k2, n2))
        right[..., :k1, :], right[..., k1:, :] = _rmul(re[..., n1:, :], q2t), q2t[:k2]
        out.imag = left @ right
        return out

    def real_two_sided_inverse(self, z: np.ndarray, col: "FractionalOperator") -> np.ndarray:
        """``Re(M^H z M_col^*)`` of a complex block ``z``, for this operator
        ``M = left R left^T`` and the partnered column operator ``col``.

        It is ``left Re(R^T B R_col) left_col^T`` with ``B`` the conjugate of
        ``left^T z left_col``. ``R^T`` and ``R_col`` are real but for ``j``
        times a diagonal on their first k1 rows and k2 columns, so the real
        part needs ``Re(B)``, two real GEMMs on ``Re(z)``, and ``Im(B)`` on
        those rows and columns alone, GEMMs of rank k1 and k2 on ``Im(z)``."""
        (a1, b1), (a2, b2) = self.rotation, col.rotation
        (k1, k2), q1, q2 = (self.pi_lines, col.pi_lines), self.left, col.left
        zi = np.ascontiguousarray(z.imag)
        re = _rmul(_lmul(q1.swapaxes(-1, -2), np.ascontiguousarray(z.real)), q2)
        # with R^T = D + jE, E on the first k1 rows, and Im(B) = -Im(A) for
        # A = left^T z left_col: Re(R^T B) = D Re(B) + E Im(A)
        rows = self.mix(re, (a1, b1.real), transpose=True)
        rows[..., :k1, :] += b1.imag[..., :k1, None] * _rmul(_lmul(q1[:, :k1].T, zi), q2)
        # -Im(R^T B) = D Im(A) - E Re(B), on the first k2 columns alone
        cols = self.mix(_lmul(q1.swapaxes(-1, -2), _rmul(zi, q2[:, :k2])), (a1, b1.real),
                        transpose=True)
        cols[..., :k1, :] -= b1.imag[..., :k1, None] * re[..., :k1, :k2]
        out = col.mix(rows, (a2, b2.real), axis=-1, transpose=True)
        out[..., :k2] += b2.imag[..., None, :k2] * cols
        return _rmul(_lmul(q1, out), q2.swapaxes(-1, -2))

    @property
    def dense(self) -> bool:
        """Whether the operator is applied through its dense ``matrix``: its
        outer factors are complex (a geodesic temporal basis, a general
        unitary power), so one GEMM against ``M`` costs half the two complex
        factor multiplies. Real factors are applied as they are."""
        return np.iscomplexobj(self.left)

    @cached_property
    def matrix(self) -> np.ndarray:
        """``left R right``, built once. A ``dense`` operator keeps it in
        column-major layout: ``M^T`` is C-contiguous, so a real block meets
        ``M^T`` in one real GEMM on its float64 view (``_rmul``), and
        ``real_conj_product`` takes ``[Re M; Im M]`` as the transposed view."""
        w = self.mix(self.right, self.rotation)
        if self.dense:
            # formed as the C-contiguous M^T = w^T left^T
            return _freeze((w.swapaxes(-1, -2) @ self.left.swapaxes(-1, -2)).swapaxes(-1, -2))
        return _freeze(_lmul(self.left, w))

    def real_conj_product(self, z: np.ndarray) -> np.ndarray:
        """``Re(z M^*)`` of a complex block ``z``, for a ``dense`` operator:
        ``Re(z) Re(M) + Im(z) Im(M)``, one real GEMM of the float64 view of
        ``z``, whose columns interleave ``Re z`` and ``Im z``, against that
        of ``M^T`` transposed, whose rows interleave ``Re M`` and ``Im M``."""
        m = self.matrix.swapaxes(-1, -2).view(np.float64).swapaxes(-1, -2)
        return np.ascontiguousarray(z).view(np.float64) @ m

    def apply_right_transpose(self, x: np.ndarray) -> np.ndarray:
        """x @ M^T: one GEMM against ``M^T`` for a ``dense`` operator, else
        through the factors. There a temporary ``x`` is freed once the first
        factor is applied, before the other two make their own temporaries."""
        if self.dense:
            return _rmul(x, self.matrix.swapaxes(-1, -2))
        inner = _rmul(x, self.right.swapaxes(-1, -2))
        del x
        inner = self.mix(inner, self.rotation, axis=-1)
        return _rmul(inner, self.left.swapaxes(-1, -2))

    # -- order derivative: d(matrix)/d(order) = G @ matrix -------------------

    def generator(self) -> np.ndarray:
        """Dense generator ``G = left (dR/dorder R^H) left^H = (dM/dorder) M^H``."""
        left_h = self.left.conj().swapaxes(-1, -2)
        return _lmul(self.left, self.mix(left_h, self.generator_coefficients))


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
    v[:, v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0] *= -1.0
    norm_a = np.linalg.norm(a)
    resid = np.linalg.norm((v * lam) @ v.T - a)
    if resid > 1e-9 * max(norm_a, 1.0):
        raise DecompositionError(
            f"eigendecomposition residual {resid:.3e} exceeds 1e-9 * ||A||"
        )
    return SpectralBasis(v=_freeze(v), lam=_freeze(lam))


def gft_matrix(basis: SpectralBasis) -> FractionalOperator:
    """Graph Fourier matrix F = V^T as an order-1 fractional operator."""
    return graph_frft(basis, 1.0)


def _widest_gap_cut(stack: np.ndarray) -> np.ndarray:
    """A cut phase far from every eigenphase of each matrix of a (B, n, n)
    unitary stack, from one Hermitian eigenvalues-only solve.

    A normal matrix shares its eigenvectors with its Hermitian part
    ``(U + U^H) / 2``, whose eigenvalues are ``cos(theta)`` (Golub and Van
    Loan, *Matrix Computations*, section 8.1). So ``t = arccos(cos(theta))``
    gives every ``|theta|``, and the cut is the middle of the widest gap of
    the sorted set ``{-t, +t}``. The spectrum of a real orthogonal matrix is
    conjugate-symmetric, so there the set is exactly its eigenphases: the cut
    is the middle of its widest eigenphase gap, at least ``pi/n`` from every
    eigenphase. For a complex unitary the set holds at most ``2n`` points and
    contains the eigenphases, so its widest gap lies inside an eigenphase gap
    and the cut is at least ``pi/(2n)`` from every eigenphase. ``cos(theta)``
    may round past +-1 (a path graph's eigenvalues 1 and -1), hence the clip.

    It cuts a complex unitary (``unitary_fractional_power``), a coupling
    matrix that the cut at -1 cannot resolve (17 of the 2,190 of a desk-scale
    grid search) and a graph-Fourier basis that falls back from the real
    ``eigh`` of its symmetric part (``SpectralBasis.fourier_phase_decomposition``;
    none of the fixture bases does).
    """
    hermitian = stack + stack.conj().swapaxes(-1, -2)
    hermitian *= 0.5
    t = np.arccos(np.clip(np.linalg.eigvalsh(hermitian), -1.0, 1.0))
    phases = np.sort(np.concatenate([-t, t], axis=-1), axis=-1)
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
    onto the unit circle, and each matrix's residual ``||W Z - Z diag(w)||``.
    A real stack multiplies ``Z`` as one real GEMM (``_lmul``)."""
    wz = _lmul(stack, z)
    w = np.sum(z.conj() * wz, axis=-2)
    w /= np.abs(w)
    wz -= z * w[..., None, :]
    return w, np.sqrt(np.sum(wz.real**2 + wz.imag**2, axis=(-2, -1)))


def _cayley_eigenpairs(stack: np.ndarray, cut: np.ndarray | None = None):
    """Eigenvalues ``(B, n)`` and orthonormal eigenvectors ``(B, n, n)`` of a
    (B, n, n) stack of unitary matrices, from the Cayley transform. The stack
    may be real when ``cut`` is given: the rotation makes it complex.

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


def _sorted_eigenpairs(stack: np.ndarray, gap_cut: bool = True):
    """Eigenphases (B, n) and orthonormal eigenvectors (B, n, n) of a
    (B, n, n) stack of (numerically) unitary matrices, by the batched Cayley
    transform (``_cayley_eigenpairs``).

    With ``gap_cut`` each matrix is cut in an eigenphase gap found from the
    eigenvalues of its Hermitian part (``_widest_gap_cut``; the widest gap of
    a real stack), and a real stack stays real until the cut rotates it.
    This serves any unitary input, including one with the eigenvalue -1: a
    complex unitary (``unitary_fractional_power``), and a graph-Fourier
    basis whose symmetric part has an eigenvalue cluster that its real
    ``eigh`` cannot resolve (``SpectralBasis.fourier_phase_decomposition``),
    which no fixture basis has. Without it the cut is -1, for the coupling
    path (``coupling.phase_decompose``), whose margin check excludes -1; the
    rare matrix the cut at -1 cannot resolve moves its cut alone.

    Phases are principal arguments in (-pi, pi], sorted descending (stable
    ties): every phase within ``PHASE_CLUSTER_TOL`` of +-pi is +pi, so the
    branch of an eigenvalue at -1 does not depend on rounding. The phase
    inside each eigenvalue cluster is then unified, which keeps fractional
    powers invariant under re-mixing of eigenvectors inside a degenerate
    eigenspace. Everything but the cluster unification runs over the whole
    stack.
    """
    if gap_cut:
        w, z = _cayley_eigenpairs(stack, _widest_gap_cut(stack))
    else:
        w, z = _cayley_eigenpairs(stack.astype(np.complex128, copy=False))
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
    return theta, z


def _unitary_eigendecomposition(u: np.ndarray, gap_cut: bool = True):
    """Orthonormal eigendecomposition ``(theta, P)`` of a (numerically)
    unitary matrix, or of a (B, n, n) stack of them (``_sorted_eigenpairs``),
    with each column's largest-magnitude component rotated onto the positive
    real axis and ``P`` checked for unitarity. A (B, n, n) stack gives (B, n)
    phases and (B, n, n) bases.
    """
    u = np.asarray(u)
    n = u.shape[-1]
    theta, z = _sorted_eigenpairs(u.reshape(-1, n, n), gap_cut)

    # canonical column phase: the first largest-magnitude entry is real positive
    pivot = z[np.arange(len(z))[:, None], np.argmax(np.abs(z), axis=-2), np.arange(n)]
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


def _real_phase_factors(theta, p):
    """Real orthogonal factor ``Q`` of the eigendecomposition ``(theta, P)``
    of a real orthogonal matrix (``_sorted_eigenpairs``), so that
    ``P diag(exp(j*order*theta)) P^H = Q R(order) Q^T`` (``FractionalOperator``
    with ``partner``).

    The phases are sorted descending: ``k`` phases at +pi, ``m`` in (0, pi),
    those within ``PHASE_CLUSTER_TOL`` of 0 (set to 0), and the ``m``
    negative ones, whose order mirrors the positive ones. An eigenvector
    ``p`` of a positive phase gives the column ``sqrt(2) Re p`` at its own
    position and ``sqrt(2) Im p`` at its mirror, whose phase becomes exactly
    ``-theta``; ``p`` and ``conj(p)`` lie in different eigenspaces, so the
    columns are orthonormal. The eigenspaces at -1 and 1 are real: one
    eigenvector is real once its largest entry is rotated onto the positive
    real axis, and several get a real orthonormal basis from an SVD of their
    real and imaginary parts. ``Q`` is checked for orthogonality.

    Returns its ``RealPhaseFactors``, with ``partner[i] = i`` on the real
    eigenspaces.
    """
    n = theta.size
    theta = theta.copy()
    theta[np.abs(theta) < PHASE_CLUSTER_TOL] = 0.0
    k, m = int(np.count_nonzero(theta == np.pi)), int(np.count_nonzero(theta < 0))
    mirrored = theta[k:]
    if np.any(np.abs(mirrored + mirrored[::-1]) > PHASE_CLUSTER_TOL):
        raise DecompositionError("the eigenphases of a real orthogonal matrix are not in conjugate pairs")
    pos, neg = slice(k, k + m), slice(n - m, n)
    theta[neg] = -theta[pos][::-1]
    q = np.empty((n, n))
    q[:, pos] = np.sqrt(2.0) * p[:, pos].real
    q[:, neg] = np.sqrt(2.0) * p[:, pos][:, ::-1].imag
    for real in (slice(0, k), slice(k + m, n - m)):
        sub = p[:, real]
        if sub.shape[1] == 1:
            pivot = sub[np.argmax(np.abs(sub))]
            q[:, real] = (sub * (pivot.conj() / np.abs(pivot))).real
        elif sub.shape[1] > 1:
            q[:, real] = np.linalg.svd(np.hstack([sub.real, sub.imag]), full_matrices=False)[0][:, :sub.shape[1]]
    return _checked_factors(theta, q, _column_pairing(n, k, m), k)


def _checked_factors(theta, q, pairing, k: int) -> RealPhaseFactors:
    """The frozen ``RealPhaseFactors`` of ``theta``, ``Q``, the column
    ``pairing`` (``_column_pairing``) and the number ``k`` of columns at
    phase pi, once ``Q`` passes the orthogonality check."""
    ortho = unitarity_error(q)
    if ortho > OUTPUT_UNITARITY_TOL * len(q):
        raise DecompositionError(f"real eigenvector basis is not orthonormal: ||Q^T Q - I|| = {ortho:.3e}")
    return RealPhaseFactors(*map(_freeze, (theta, q, *pairing)), k)


def _column_pairing(n: int, k: int, m: int) -> tuple:
    """``(partner, unit)`` of the ``_real_phase_factors`` layout: the ``m``
    columns after the first ``k`` pair with the last ``m``, mirrored; every
    other column is its own partner, and the first ``k`` are those at phase
    pi. ``unit`` is 1 on a pair and j elsewhere."""
    partner = np.arange(n)
    partner[k:k + m], partner[n - m:] = np.arange(n - 1, n - m - 1, -1), np.arange(k + m - 1, k - 1, -1)
    unit = np.full(n, 1j)
    unit[k:k + m] = unit[n - m:] = 1.0
    return partner, unit


def _symmetric_part_factors(o: np.ndarray):
    """The ``RealPhaseFactors`` of a real orthogonal matrix ``O``, laid out as
    by ``_real_phase_factors``, from one real ``eigh`` of its symmetric part
    ``(O + O^T) / 2``; None when that cannot resolve them.

    ``O`` is normal, so its symmetric part has its invariant subspaces, with
    the eigenvalues ``cos(theta)`` (Golub and Van Loan, *Matrix
    Computations*, sections 7.4 and 8.1): each rotation plane of ``O`` is a
    2-D eigenspace, and an eigenvector at +-1 is one of ``O``. ``eigh``
    sorts them by ascending ``cos(theta)``: the -1 space, the planes by
    descending ``theta``, then the +1 space. A vector ``u`` is in a +-1 space
    when ``||O u - cos(theta) u||``, which is ``|sin(theta)|`` on a plane, is
    below ``PHASE_CLUSTER_TOL``. The others are taken in consecutive pairs
    ``(u1, u2)``, ``u2`` oriented so that ``s = u2^T O u1 > 0``; the plane's
    2x2 block gives ``theta = atan2(s, c)`` and the columns are ``u1`` and
    ``-u2``. An eigenvalue cluster of the symmetric part other than one
    plane or one +-1 space (two planes, or a plane and a +-1 space, whose
    ``cos(theta)`` nearly agree) mixes their vectors; the result is then
    None, because the +-1 vectors are not at the two ends with an even
    number between them, or because the residual ``||O Q - Q R(1)||``
    exceeds ``CAYLEY_RESIDUAL_TOL * n``. ``Q`` is checked for orthogonality.
    """
    n = len(o)
    c, u = np.linalg.eigh((o + o.T) * 0.5)
    ou = o @ u
    real = np.sqrt(np.sum((ou - u * c) ** 2, axis=0)) < PHASE_CLUSTER_TOL
    minus, plus = int(np.count_nonzero(real & (c < 0))), int(np.count_nonzero(real & (c > 0)))
    m, odd = divmod(n - minus - plus, 2)
    if odd or not (real[:minus].all() and real[n - plus:].all()):
        return None
    first, second = slice(minus, n - plus, 2), slice(minus + 1, n - plus, 2)
    s = 0.5 * (np.sum(u[:, second] * ou[:, first], axis=0) - np.sum(u[:, first] * ou[:, second], axis=0))
    cos = 0.5 * (np.sum(u[:, first] * ou[:, first], axis=0) + np.sum(u[:, second] * ou[:, second], axis=0))
    phi = np.arctan2(np.abs(s), cos)
    theta = np.concatenate([np.full(minus, np.pi), phi, np.zeros(plus), -phi[::-1]])
    index = np.arange(n)
    columns = np.concatenate([index[:minus], index[first], index[n - plus:], index[second][::-1]])
    signs = np.concatenate([np.ones(n - m), np.where(s < 0, 1.0, -1.0)[::-1]])
    q, oq = np.take(u, columns, axis=1), np.take(ou, columns, axis=1)
    q *= signs
    oq *= signs
    # the residual O Q - Q R(1), formed in place
    pairing = _column_pairing(n, minus, m)
    oq -= q * np.cos(theta)
    oq += np.take(q, pairing[0], axis=1) * np.sin(theta)
    if not np.linalg.norm(oq) <= CAYLEY_RESIDUAL_TOL * n:
        return None
    return _checked_factors(theta, q, pairing, minus)


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
    _check_unitary(mat, "input")
    theta, p = _unitary_eigendecomposition(mat)
    return FractionalOperator(order, theta, p, p.conj().T)


def graph_frft(basis: SpectralBasis, order: float) -> FractionalOperator:
    """Graph fractional Fourier transform of a given order.

    Fractional power of the real orthogonal graph Fourier matrix, held as
    ``Q R(order) Q^T``; the real eigenphase decomposition is cached on the
    basis, so sweeping orders only updates the rotation angles and phases of
    ``R``.
    """
    f = basis.fourier_phase_decomposition
    return FractionalOperator(order, f.theta, f.q, f.q.T, f.partner, f.unit, f.pi_lines)


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

    half = np.arange(1, (n + 1) // 2)
    e = np.zeros((n, n // 2 + 1))
    e[0, 0] = 1.0
    e[half, half] = e[n - half, half] = 1.0 / np.sqrt(2.0)
    if n % 2 == 0:
        e[n // 2, -1] = 1.0
    o = np.zeros((n, half.size))
    o[half, half - 1] = 1.0 / np.sqrt(2.0)
    o[n - half, half - 1] = -1.0 / np.sqrt(2.0)

    we, ve = np.linalg.eigh(e.T @ s @ e)
    wo, vo = np.linalg.eigh(o.T @ s @ o)
    v = np.hstack([e @ ve[:, np.argsort(-we, kind="stable")], o @ vo[:, np.argsort(-wo, kind="stable")]])
    khat = np.concatenate([2.0 * np.arange(e.shape[1]), 2.0 * np.arange(o.shape[1]) + 1.0])
    order = np.argsort(khat, kind="stable")
    v, khat = v[:, order], khat[order]
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
    return _freeze(phases), _freeze(v)


def dfrft_matrix(n: int, order: float) -> FractionalOperator:
    """Discrete fractional Fourier transform matrix of size ``n``: the
    commuting-matrix DFRFT, whose order-1 matrix equals the unitary DFT
    ``F[m, k] = exp(-2j pi m k / n)/sqrt(n)``; this identity is verified at
    construction.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"dfrft needs n >= 2, got {n}")
    phases, v = _dfrft_eigenstructure(int(n))
    return FractionalOperator(order, phases, v, v.T)
