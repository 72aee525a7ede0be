"""Correctness checks on the program's outputs.

Every check compares against an independent computation (plain numpy, the
FFT, the closed-form path-graph eigenvectors) or a property the method must
have (an estimate beats the observation, the closed-form filter is the
convex optimum, the best grid point dominates the endpoints). None compares
against a stored copy of earlier output. ``selftest.py`` shows that each one
trips under a targeted fault.
"""

from __future__ import annotations

import math

import numpy as np

#: relative agreement of two computations of one float64 quantity
REL_TOL = 1e-9
#: round trip and Parseval of a unitary transform
UNITARY_TOL = 1e-10


class CheckFailed(AssertionError):
    pass


def _fail(msg):
    raise CheckFailed(msg)


def mse(estimate, clean) -> float:
    d = np.asarray(estimate) - np.asarray(clean)
    return float(np.mean(d.real**2 + d.imag**2))


def psnr(estimate, clean) -> float:
    peak = float(np.max(np.abs(clean)))
    return 10.0 * math.log10(peak**2 / mse(estimate, clean))


def check_mse(estimate, clean, reported, what="estimate"):
    """The MSE recomputed from the returned estimate matches the report."""
    ours = mse(estimate, clean)
    if not abs(ours - reported) <= REL_TOL * max(abs(ours), abs(reported)):
        _fail(f"{what}: reported MSE {reported!r} but the estimate gives {ours!r}")
    return ours


def check_beats_noisy(estimate, noisy, clean, what="estimate"):
    e, n = mse(estimate, clean), mse(noisy, clean)
    if not e < n:
        _fail(f"{what}: MSE {e:.6g} does not beat the noisy observation {n:.6g}")


def check_grid_endpoints(best_mse, lambda_mse):
    """The reported grid point is the grid minimum, so it is no worse than
    either coupling endpoint. ``lambda_mse`` lists the grid points that
    trained; a point whose training crossed the branch cut is reported by the
    program as skipped and has no entry."""
    table = dict(lambda_mse)
    lo = min(table.values())
    ends = [table[lam] for lam in (0.0, 1.0) if lam in table]
    if not (all(best_mse <= e for e in ends) and abs(best_mse - lo) <= REL_TOL * lo):
        _fail(f"grid: best {best_mse!r}, minimum {lo!r}, endpoints {ends!r}")


def check_convexity(risk_closed_form, risk_trained):
    """The closed-form filter solves the convex filter subproblem at fixed
    orders, so no trained filter at those orders has lower risk."""
    if not risk_closed_form <= risk_trained * (1.0 + REL_TOL):
        _fail(f"closed-form risk {risk_closed_form!r} exceeds trained risk {risk_trained!r}")


def check_exit_code(code):
    if code != 0:
        _fail(f"fracspec denoise exited with {code}")


def check_same(produced, recomputed, what):
    produced, recomputed = np.asarray(produced), np.asarray(recomputed)
    if produced.shape != recomputed.shape:
        _fail(f"{what}: shape {produced.shape} vs {recomputed.shape}")
    dev = float(np.max(np.abs(produced - recomputed)))
    if not dev <= REL_TOL * max(float(np.max(np.abs(recomputed))), 1e-300):
        _fail(f"{what}: deviates by {dev:.3e}")


def check_unitary(x, xhat, back, what):
    """Parseval (``||Xhat|| = ||X||``) and round trip (``inverse(forward(X)) =
    X``), both relative to ``||X||``."""
    nx = float(np.linalg.norm(x))
    parseval = abs(float(np.linalg.norm(xhat)) - nx) / nx
    roundtrip = float(np.linalg.norm(np.asarray(back) - x)) / nx
    if not (parseval <= UNITARY_TOL and roundtrip <= UNITARY_TOL):
        _fail(f"{what}: Parseval {parseval:.3e}, round trip {roundtrip:.3e} (tolerance {UNITARY_TOL})")


def check_jfrft_is_dft(x, xhat):
    """jfrft at orders (0, 1) is the unitary DFT along time."""
    ref = np.fft.fft(x, axis=1, norm="ortho")
    dev = float(np.linalg.norm(xhat - ref)) / float(np.linalg.norm(ref))
    if not dev <= UNITARY_TOL:
        _fail(f"jfrft(0, 1) deviates from the unitary DFT by {dev:.3e}")


def path_sine_modes(n: int) -> np.ndarray:
    """Eigenvectors of the path-graph adjacency in columns, by descending
    eigenvalue ``2 cos(pi k / (n + 1))``: ``sqrt(2/(n+1)) sin(pi j k / (n+1))``."""
    j = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


def check_gbfrft_is_sine_transform(x, xhat):
    """gbfrft2d at orders (0, 1) on a path temporal graph is the sine
    transform along time, each mode up to its sign."""
    s = path_sine_modes(x.shape[1])
    ref = x @ s
    signs = np.sign(np.sum((xhat.conj() * ref).real, axis=0))
    signs[signs == 0] = 1.0
    dev = float(np.linalg.norm(xhat - ref * signs)) / float(np.linalg.norm(ref))
    if not dev <= UNITARY_TOL:
        _fail(f"gbfrft2d(0, 1) deviates from the path sine transform by {dev:.3e}")
