"""Reference implementations that the tests compare the library against."""

import numpy as np

from fracspec import FilterParams, loss

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
