"""Reference implementations that the tests compare the library against."""

import dataclasses

import numpy as np

from fracspec import FilterParams, geodesic_temporal_basis, graph_frft, loss
from fracspec.operators import _lmul, _rmul

#: central-difference step for the fractional orders
ORDER_FD_STEP = 1e-4


def fd_order_gradient(y, x, params, ctx, family="gcgfrft", step=ORDER_FD_STEP):
    """Central-difference gradient of the risk in (alpha, beta), each order
    probed at +-step with the filter and coupling held fixed."""
    grad = []
    for i in range(2):
        probes = []
        for sign in (1.0, -1.0):
            orders = [params.alpha, params.beta]
            orders[i] += sign * step
            probe = FilterParams(orders[0], orders[1], params.h, params.lam)
            probes.append(loss(y, x, probe, ctx, family=family))
        grad.append((probes[0] - probes[1]) / (2.0 * step))
    return np.array(grad)


def with_geodesic_columns(ctx, plan, lam):
    """``plan`` with its column operator replaced by the geodesic operator
    at ``lam``, built from the coupling at the plan's temporal order: what
    a plan at lam 0 or 1 computes in factored form."""
    beta = plan.orders[-1]
    geodesic = geodesic_temporal_basis(graph_frft(ctx.temporal, beta), ctx.coupling(beta), lam)
    return dataclasses.replace(plan, col_op=geodesic, lam=lam)


def real_schur_eigenpairs(o):
    """Eigenphases in (-pi, pi] and orthonormal complex eigenvectors of a
    real orthogonal matrix, from its real Schur form ``O = Z T Z^T`` (scipy).
    ``O`` is normal, so ``T`` is block diagonal: the eigenvalues 1 and -1
    (phase +pi), and 2x2 rotations ``[[c, -s], [s, c]]`` by ``phi``, with the
    eigenvectors ``(1, -j)/sqrt(2)`` at ``exp(j phi)`` and ``(1, j)/sqrt(2)``
    at ``exp(-j phi)``. A rotation by +-pi (two eigenvalues -1) gets the
    phase +pi twice."""
    import scipy.linalg

    t, z = scipy.linalg.schur(np.asarray(o, dtype=np.float64), output="real")
    theta, p, i = [], [], 0
    while i < len(t):
        if i + 1 < len(t) and t[i + 1, i] != 0.0:
            phi = np.arctan2(t[i + 1, i], t[i, i])
            theta.extend([np.pi, np.pi] if np.pi - abs(phi) < 1e-8 else [phi, -phi])
            p.extend([(z[:, i] - 1j * z[:, i + 1]) / np.sqrt(2), (z[:, i] + 1j * z[:, i + 1]) / np.sqrt(2)])
            i += 2
        else:
            theta.append(np.pi if t[i, i] < 0 else 0.0)
            p.append(z[:, i].astype(complex))
            i += 1
    return np.array(theta), np.column_stack(p)


def eigenphase_power(theta, p, order):
    """``P diag(exp(j order theta)) P^H``; a (B, n, n) stack for an array of
    orders."""
    order = np.asarray(order, dtype=np.float64)
    return (p * np.exp(1j * order[..., None, None] * theta[None, :])) @ p.conj().T


def complex_forward(plan, x):
    """``F_row X F_col^T`` of a complex ``X`` in complex arithmetic: both
    inner factors, both rotations, both outer factors, the order of
    ``TransformPlan.apply``."""
    row, col = plan.row_op, plan.col_op
    x = _rmul(_lmul(row.right, x), col.right.swapaxes(-1, -2))
    x = col.mix(row.mix(x, row.rotation), col.rotation, axis=-1)
    return _rmul(_lmul(row.left, x), col.left.swapaxes(-1, -2))


def conjugated_inverse(plan, xhat):
    """``F_row^H Xhat F_col^*`` of a complex ``Xhat`` in complex arithmetic,
    as ``(F_row^T Xhat^* F_col)^*``: the row inner factor and rotation, the
    column inner factor and rotation, then the column and row outer factors,
    the order of ``TransformPlan.apply_inverse``."""
    row, col = plan.row_op, plan.col_op
    x = row.mix(_lmul(row.left.swapaxes(-1, -2), xhat.conj()), row.rotation, transpose=True)
    x = col.mix(_rmul(x, col.left), col.rotation, axis=-1, transpose=True)
    return _lmul(row.right.swapaxes(-1, -2), _rmul(x, col.right)).conj()


def dense_forward(plan, x):
    """``F_row X C^T`` of a complex ``X`` in complex arithmetic, with the
    row operator's factors and the column operator's dense matrix ``C``:
    the order of ``TransformPlan.apply`` for a ``dense`` column operator."""
    row = plan.row_op
    x = row.mix(_lmul(row.right, x), row.rotation)
    return _lmul(row.left, x) @ plan.col_op.matrix.swapaxes(-1, -2)


def dense_conjugated_inverse(plan, xhat):
    """``(F_row^T Xhat^* C)^*`` of a complex ``Xhat`` in complex arithmetic,
    with the column operator's dense matrix ``C``: the order of
    ``TransformPlan.apply_inverse`` for a ``dense`` column operator."""
    row = plan.row_op
    x = row.mix(_lmul(row.left.swapaxes(-1, -2), xhat.conj()), row.rotation, transpose=True)
    return _lmul(row.right.swapaxes(-1, -2), x @ plan.col_op.matrix).conj()
