"""Implicit differentiation of the StableSwap invariant: the oracle the
seed table's density is held to.

``StableSwap`` reads its slopes off the density columns of its seed table.
This module differentiates the invariant itself instead, at the pool's
solved holdings.  In centered units u = c*x/D, v = y/D the unit pool's level
set gives the price as

    q/c = -v'(u) = N1(u, v) / N2(u, v),   N1 = 4A + k/(u**2 v),   N2 = 4A + k/(u v**2),

with k = 1/4; differentiating that quotient along the level set gives v'',
v''' and so q' = -c v'', q'' = -c v''' in u, and the chain rule turns them
into slopes in q.
"""

import numpy as np


def implicit_derivs(curve, q):
    """(x'(q), y'(q), x''(q), y''(q)) of a StableSwap pool at a price inside
    its ``q_bounds``, differentiated implicitly at ``curve.holdings(q)``."""
    A, D, c = curve.amplification, curve.invariant_scale, curve.price_center
    x, _ = curve.holdings(q)
    u = c * x / D
    v = float(curve._grid_v(np.array([u]))[0])  # the invariant's positive root at u
    k = 0.25
    n1 = 4.0 * A + k / (u * u * v)
    n2 = 4.0 * A + k / (u * v * v)
    vp = -n1 / n2
    n1p = k * (-2.0 / (u**3 * v) - vp / (u**2 * v**2))
    n2p = k * (-1.0 / (u**2 * v**2) - 2.0 * vp / (u * v**3))
    vpp = (n1 * n2p - n1p * n2) / (n2 * n2)
    n1pp = k * (
        6.0 / (u**4 * v)
        + 4.0 * vp / (u**3 * v**2)
        + 2.0 * vp * vp / (u**2 * v**3)
        - vpp / (u**2 * v**2)
    )
    n2pp = k * (
        2.0 / (u**3 * v**2)
        + 4.0 * vp / (u**2 * v**3)
        + 6.0 * vp * vp / (u * v**4)
        - 2.0 * vpp / (u * v**3)
    )
    vppp = ((n1 * n2pp - n1pp * n2) * n2 - 2.0 * n2p * (n1 * n2p - n1p * n2)) / n2**3
    qp, qpp = -c * vpp, -c * vppp
    # x = D*u/c and y = D*v, so dx/dq = (D/c) / q' and dy/dq = D*v' / q'
    return (
        D * ((1.0 / c) / qp),
        D * (vp / qp),
        D * (-qpp / (c * qp**3)),
        D * (vpp / qp**2 - vp * qpp / qp**3),
    )
