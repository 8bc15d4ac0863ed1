"""Uniform B-spline knot grids and basis evaluation.

Every KAN edge function in this package is a linear combination of the
B-spline basis produced here. The basis is evaluated with the Cox-de Boor
recursion on only the ``order + 1`` bases that are nonzero at each input,
vectorized over arbitrary input shapes, and supports analytic first
derivatives via the standard order-reduction formula.

Conventions:
- ``order`` is the polynomial degree (cubic splines => order 3).
- A grid with ``grid_size`` interior intervals on [t_min, t_max] carries
  ``order`` extra uniformly spaced knots beyond each end, so evaluation
  degrades gracefully (values decay to zero) instead of failing when an
  input strays outside the nominal domain.
- The basis count is ``grid_size + order``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KnotVector", "make_uniform_grid", "bspline_basis"]


@dataclass(frozen=True)
class KnotVector:
    """An extended uniform knot grid for B-splines of a fixed order."""

    knots: np.ndarray  # shape (grid_size + 2*order + 1,), non-decreasing
    order: int
    grid_size: int
    t_min: float
    t_max: float

    @property
    def n_basis(self) -> int:
        """Number of basis functions supported by this grid."""
        return self.grid_size + self.order

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / self.grid_size


def make_uniform_grid(t_min: float, t_max: float, grid_size: int, order: int) -> KnotVector:
    """Build a uniform knot grid on [t_min, t_max] with extension knots.

    The interior is split into ``grid_size`` equal intervals and ``order``
    extra knots are mirrored at the same spacing beyond each endpoint
    (uniform extension, not clamped repetition), giving
    ``grid_size + 2*order + 1`` knots and ``grid_size + order`` basis
    functions.
    """
    if not np.isfinite(t_min) or not np.isfinite(t_max) or t_min >= t_max:
        raise ValueError(f"degenerate domain [{t_min}, {t_max}]")
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h = (t_max - t_min) / grid_size
    knots = t_min + h * np.arange(-order, grid_size + order + 1, dtype=float)
    return KnotVector(
        knots=knots,
        order=int(order),
        grid_size=int(grid_size),
        t_min=float(t_min),
        t_max=float(t_max),
    )


def bspline_basis(x, kv: KnotVector, with_derivative: bool = False):
    """Evaluate all basis functions (and optionally derivatives) at ``x``.

    ``x`` may be a scalar or an array of any shape; the result appends one
    axis of length ``kv.n_basis``. Each input's knot interval s (half-open,
    ``t[s] <= x < t[s+1]``) is found by binary search, and only the
    ``order + 1`` bases that can be nonzero there, s-order..s, are
    evaluated: by the Cox-de Boor recursion in the local coordinate
    ``u = (x - t[s]) / h``, and for derivatives by the degree-(k-1)
    difference formula. Inputs outside the extended knot span evaluate to
    zero.

    Returns ``values`` or ``(values, derivatives)``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("bspline_basis requires finite inputs")

    t = kv.knots
    k = kv.order
    h = kv.spacing
    n_intervals = t.size - 1
    flat = x.reshape(-1)

    s = np.searchsorted(t, flat, side="right") - 1
    inside = (s >= 0) & (s < n_intervals)
    s = np.where(inside, s, 0)
    u = (flat - t[s]) / h

    lower = [inside.astype(float)]  # degree 0: the indicator of interval s
    for d in range(1, k):
        lower = _raise_degree(lower, u, d)
    local = _raise_degree(lower, u, k)  # lower stays at degree k-1

    # Basis s-k+r goes to column s+r of a row k columns wider on each side
    # than n_basis; the outer columns catch the partial end bases the grid
    # does not carry and are cut off.
    width = n_intervals + k
    starts = np.arange(0, flat.size * width, width) + s
    shape = x.shape + (kv.n_basis,)

    def scatter(columns):
        wide = np.zeros(flat.size * width)
        for r, column in enumerate(columns):
            wide[starts + r] = column
        kept = wide.reshape(-1, width)[:, k : k + kv.n_basis]
        return np.ascontiguousarray(kept).reshape(shape)

    values = scatter(local)
    if not with_derivative:
        return values
    # d/dx B_{j,k} = (B_{j,k-1} - B_{j+1,k-1}) / h on a uniform grid
    padded = [0.0] + lower + [0.0]
    derivatives = scatter([(a - b) / h for a, b in zip(padded[:-1], padded[1:])])
    return values, derivatives


def _raise_degree(lower, u, d):
    """One uniform Cox-de Boor step from the d nonzero bases of degree d-1.

    ``lower[r]`` is basis s-(d-1)+r; the result's entry r is basis s-d+r,
    with ``x - t[s-d+r] = (u + d - r) h`` and ``t[s+r+1] - x = (r + 1 - u) h``.
    """
    out = []
    for r in range(d + 1):
        if r == 0:
            term = (1 - u) * lower[0]
        elif r == d:
            term = u * lower[d - 1]
        else:
            term = (u + (d - r)) * lower[r - 1] + ((r + 1) - u) * lower[r]
        term /= d
        out.append(term)
    return out
