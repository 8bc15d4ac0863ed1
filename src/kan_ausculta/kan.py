"""KAN layers: matrices of learnable univariate spline edge functions.

A layer maps x in R^n_in to y in R^n_out through one spline per (output,
input) edge; node outputs are bare sums of edge outputs (no bias, no fixed
activation). Each edge spline is a linear combination of the shared
B-spline basis from :mod:`kan_ausculta.splines`, so the layer's learnable
state is a single coefficient tensor of shape (n_out, n_in, n_basis). The
layer is pure-spline: there is no residual "base branch" (a linear map of
silu(x)) as in some public KAN variants.

Forward/backward are vectorized: ``x`` may be a single vector (n_in,) or a
batch (B, n_in). Each pass is a matmul against the coefficients flattened to
(n_out, n_in * n_basis); the forward pass evaluates the basis and its
derivatives once and caches both, so the backward pass evaluates none.
Gradients are exact, returned as plain arrays; see ``kan_backward``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .splines import KnotVector, bspline_basis

__all__ = [
    "KanLayer",
    "KanNetwork",
    "KanCache",
    "kan_init",
    "kan_forward",
    "kan_backward",
    "kan_network_init",
    "network_forward",
    "network_backward",
    "export_splines",
]


@dataclass
class KanLayer:
    """One KAN layer: coefficient tensor (n_out, n_in, n_basis) over a shared grid."""

    coeffs: np.ndarray
    grid: KnotVector

    @property
    def n_out(self) -> int:
        return self.coeffs.shape[0]

    @property
    def n_in(self) -> int:
        return self.coeffs.shape[1]


@dataclass
class KanNetwork:
    """A chain of KAN layers with matching inner dimensions."""

    layers: list[KanLayer]

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ShapeError(
                    f"layer dims do not chain: {a.n_out} -> {b.n_in}"
                )

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out


@dataclass
class KanCache:
    """Per-edge basis values and derivatives kept by a forward pass for the backward pass."""

    x: np.ndarray
    basis: np.ndarray  # x.shape + (n_basis,)
    dbasis: np.ndarray  # d basis / dx, same shape


def kan_init(n_in: int, n_out: int, grid: KnotVector, rng: np.random.Generator) -> KanLayer:
    """Create a layer with coefficients i.i.d. uniform in [-scale, scale].

    ``scale`` is 0.1/sqrt(n_in), which keeps node outputs inside the spline
    domain for standardized inputs. Deterministic given the rng.
    """
    if n_in < 1 or n_out < 1:
        raise ValueError(f"dimensions must be positive, got ({n_in}, {n_out})")
    scale = 0.1 / np.sqrt(n_in)
    coeffs = rng.uniform(-scale, scale, size=(n_out, n_in, grid.n_basis))
    return KanLayer(coeffs=coeffs, grid=grid)


def kan_forward(layer: KanLayer, x) -> tuple[np.ndarray, KanCache]:
    """y_i = sum_j sum_k c[i,j,k] * B_k(x_j), for single vectors or batches."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != layer.n_in:
        raise ShapeError(f"expected input width {layer.n_in}, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("kan_forward requires finite inputs")
    basis, dbasis = bspline_basis(x, layer.grid, with_derivative=True)  # (..., n_in, n_basis)
    flat_basis = basis.reshape(*x.shape[:-1], layer.n_in * layer.grid.n_basis)
    y = flat_basis @ layer.coeffs.reshape(layer.n_out, -1).T
    return y, KanCache(x=x, basis=basis, dbasis=dbasis)


def kan_backward(layer: KanLayer, cache: KanCache, upstream) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of the layer output.

    Returns ``(grad_x, grad_coeffs)`` where ``grad_coeffs[i, j, k]`` is the
    derivative of ``sum(upstream * y)`` w.r.t. coefficient (i, j, k)
    (summed over the batch when batched) and ``grad_x`` matches ``cache.x``.
    """
    x = cache.x
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape[:-1] != x.shape[:-1] or upstream.shape[-1] != layer.n_out:
        raise ShapeError(
            f"upstream shape {upstream.shape} inconsistent with ({x.shape}, n_out={layer.n_out})"
        )
    # collapse any leading batch axes so the parameter reductions sum over them
    up2 = upstream.reshape(-1, layer.n_out)
    basis2 = cache.basis.reshape(up2.shape[0], -1)
    grad_coeffs = (up2.T @ basis2).reshape(layer.coeffs.shape)
    # d(upstream . y)/d basis, weighted by each basis's derivative, summed per input
    grad_basis = (up2 @ layer.coeffs.reshape(layer.n_out, -1)).reshape(cache.dbasis.shape)
    grad_x = (grad_basis * cache.dbasis).sum(-1)
    return grad_x, grad_coeffs


def kan_network_init(
    dims: list[int],
    grid: KnotVector,
    rng: np.random.Generator,
) -> KanNetwork:
    """Initialize a chain of layers with widths ``dims[0] -> ... -> dims[-1]``."""
    if len(dims) < 2:
        raise ValueError("need at least input and output widths")
    layers = [
        kan_init(dims[i], dims[i + 1], grid, rng=rng)
        for i in range(len(dims) - 1)
    ]
    return KanNetwork(layers=layers)


def network_forward(net: KanNetwork, x) -> tuple[np.ndarray, list[KanCache]]:
    caches = []
    for layer in net.layers:
        x, cache = kan_forward(layer, x)
        caches.append(cache)
    return x, caches


def network_backward(
    net: KanNetwork, caches: list[KanCache], upstream
) -> tuple[np.ndarray, list[np.ndarray]]:
    if len(caches) != len(net.layers):
        raise ShapeError("cache list does not match the network depth")
    grads: list[np.ndarray] = [None] * len(net.layers)  # type: ignore[list-item]
    for idx in range(len(net.layers) - 1, -1, -1):
        upstream, grads[idx] = kan_backward(net.layers[idx], caches[idx], upstream)
    return upstream, grads


def export_splines(network: KanNetwork, samples_per_curve: int) -> list[tuple]:
    """Sample every edge function over its grid domain for inspection/plotting.

    Returns one ``(x, phi)`` pair per layer, ``phi[i, j]`` the (output i,
    input j) edge at the points ``x``: shape (n_out, n_in, samples_per_curve).
    """
    if samples_per_curve < 2:
        raise ValueError(f"samples_per_curve must be >= 2, got {samples_per_curve}")
    out = []
    for layer in network.layers:
        grid = layer.grid
        xs = np.linspace(grid.t_min, grid.t_max, samples_per_curve)
        basis = bspline_basis(xs, grid)  # (samples, n_basis)
        out.append((xs, np.einsum("ijk,sk->ijs", layer.coeffs, basis)))
    return out
