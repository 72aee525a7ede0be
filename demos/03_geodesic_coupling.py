#!/usr/bin/env python3
"""The geodesic coupling between the two temporal fractional bases.

At a fixed temporal order there are two natural unitary bases: the one
induced by the temporal graph's eigenstructure and the classical DFRFT. Their
relative change-of-basis operator W is unitary; as long as -1 is not among
its eigenvalues, scaling its eigenphases by lam in [0, 1] walks the unitary
geodesic from one basis (lam=0) to the other (lam=1) while staying unitary at
every point, with the Hermitian transpose as a closed-form inverse.
"""

import numpy as np

from fracspec import (
    MarginViolationError,
    TransformContext,
    coupling_operator,
    dfrft_matrix,
    eigendecompose,
    geodesic_temporal_basis,
    graph_frft,
    path_graph,
    phase_decompose,
    swapped_geodesic_temporal_basis,
    unitarity_error,
)

n2, beta = 10, 0.5
tbasis = eigendecompose(path_graph(n2))
fg = graph_frft(tbasis, beta)   # graph-induced temporal basis
fd = dfrft_matrix(n2, beta)     # classical DFRFT

w = coupling_operator(fg, fd)
decomp = phase_decompose(w)
print(f"coupling eigenphases at order {beta} (radians):")
print(np.array2string(np.sort(decomp.theta)[::-1], precision=3))
print(f"branch-cut margin: {decomp.margin:.4f} rad "
      f"(> 0, so the principal logarithm exists)\n")

print("lam   unitarity     |F(lam) - graph|   |F(lam) - dfrft|")
for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
    ft = geodesic_temporal_basis(fg, decomp, lam)
    print(f"{lam:.2f}  {unitarity_error(ft.matrix):.2e}     "
          f"{np.abs(ft.matrix - fg.matrix).max():10.3e}       "
          f"{np.abs(ft.matrix - fd.matrix).max():10.3e}")

# walking the geodesic from the other endpoint retraces the same curve
swapped = phase_decompose(coupling_operator(fd, fg))
worst = max(
    np.abs(swapped_geodesic_temporal_basis(fd, swapped, lam).matrix
           - geodesic_temporal_basis(fg, decomp, 1.0 - lam).matrix).max()
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
)
print(f"\nendpoint symmetry (swapped at lam vs direct at 1-lam): {worst:.2e}")

# one decomposition serves every lam: each F(lam) is L diag(exp(j lam theta)) S^H
# with L = F_graph S, so a context forms L and S^H once per temporal order and
# the plans of a coupling sweep only change the diagonal phases
ctx = TransformContext(path_graph(6), tbasis)
a = ctx.plan("gcgfrft", (0.0, beta), lam=0.3).col_op
b = ctx.plan("gcgfrft", (0.0, beta), lam=0.9).col_op
print(f"factors L and S^H shared across lam values: "
      f"{a.left is b.left and a.right is b.right}")

# some (size, order) pairings put -1 in the coupling spectrum; there the
# geodesic is genuinely undefined and the construction refuses loudly
try:
    bad = coupling_operator(graph_frft(eigendecompose(path_graph(4)), 2.0),
                            dfrft_matrix(4, 2.0))
    phase_decompose(bad)
except MarginViolationError as err:
    print(f"\npath(4) at order 2.0 is outside the framework's domain:\n  {err}")
