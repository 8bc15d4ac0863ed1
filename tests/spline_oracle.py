"""Reference implementations the tests check the package against."""

import numpy as np

from kan_ausculta.splines import KnotVector


def cox_de_boor_basis(x, kv: KnotVector, with_derivative: bool = False):
    """Full-grid Cox-de Boor recursion over every knot interval.

    The reference ``bspline_basis`` is tested against: same contract, but
    it carries all ``n_basis`` bases through every degree.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bspline_basis requires finite inputs")

    t = kv.knots
    k = kv.order
    xe = x[..., None]

    # Degree-0 indicators on every interval of the extended grid.
    b = ((xe >= t[:-1]) & (xe < t[1:])).astype(float)

    # Raise the degree up to k-1; uniform knots guarantee nonzero denominators.
    for d in range(1, k):
        left = (xe - t[: -(d + 1)]) / (t[d:-1] - t[: -(d + 1)])
        right = (t[d + 1 :] - xe) / (t[d + 1 :] - t[1:-d])
        b = left * b[..., :-1] + right * b[..., 1:]

    lower = b  # degree k-1 bases, needed for the derivative formula
    left = (xe - t[: -(k + 1)]) / (t[k:-1] - t[: -(k + 1)])
    right = (t[k + 1 :] - xe) / (t[k + 1 :] - t[1 : -k])
    values = left * lower[..., :-1] + right * lower[..., 1:]

    if not with_derivative:
        return values

    denom_left = t[k:-1] - t[: -(k + 1)]
    denom_right = t[k + 1 :] - t[1:-k]
    derivatives = k * (lower[..., :-1] / denom_left - lower[..., 1:] / denom_right)
    return values, derivatives
