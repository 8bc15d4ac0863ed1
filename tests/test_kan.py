import numpy as np
import pytest

from kan_ausculta import kan
from kan_ausculta.errors import ShapeError
from kan_ausculta.kan import (
    KanNetwork,
    export_splines,
    kan_backward,
    kan_forward,
    kan_init,
    kan_network_init,
    network_backward,
    network_forward,
)
from kan_ausculta.splines import bspline_basis, make_uniform_grid
from spline_oracle import cox_de_boor_basis

GRID = make_uniform_grid(-1, 1, 3, 3)


def make_layer(n_in, n_out, seed=0):
    return kan_init(n_in, n_out, GRID, rng=np.random.default_rng(seed))


class TestInit:
    def test_zero_coefficients_give_zero_forward(self):
        layer = make_layer(4, 3)
        layer.coeffs[...] = 0.0
        y, _ = kan_forward(layer, np.random.default_rng(1).normal(size=4))
        np.testing.assert_array_equal(y, np.zeros(3))

    def test_draw_is_uniform_within_the_default_scale(self):
        layer = make_layer(64, 32, seed=3)
        scale = 0.1 / np.sqrt(64)
        assert np.abs(layer.coeffs).max() <= scale
        assert np.abs(layer.coeffs).max() > 0.99 * scale

    def test_same_seed_bit_identical(self):
        a = make_layer(5, 4, seed=42)
        b = make_layer(5, 4, seed=42)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_coefficient_count(self):
        layer = make_layer(128, 32)
        assert layer.coeffs.size == 128 * 32 * 6  # 24 576

    def test_default_network_parameter_count(self):
        net = kan_network_init([128, 32, 6], GRID, np.random.default_rng(0))
        assert sum(layer.coeffs.size for layer in net.layers) == 128 * 32 * 6 + 32 * 6 * 6  # 25 728

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            kan_init(0, 3, GRID, rng=np.random.default_rng(0))

    def test_mismatched_chain_rejected(self):
        with pytest.raises(ShapeError):
            KanNetwork(layers=[make_layer(4, 3), make_layer(5, 2)])


class TestForward:
    def test_constant_spline_returns_coefficient(self):
        # all coefficients equal c: partition of unity makes phi(x) = c inside
        layer = make_layer(1, 1)
        layer.coeffs[...] = 0.7
        for x in (-0.9, -0.2, 0.5, 0.99):
            y, _ = kan_forward(layer, np.array([x]))
            assert abs(y[0] - 0.7) < 1e-12

    def test_single_basis_center_value(self):
        layer = make_layer(1, 1)
        layer.coeffs[0, 0] = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
        center = GRID.knots[4]  # center knot of basis 2
        y, _ = kan_forward(layer, np.array([center]))
        assert abs(y[0] - 2.0 / 3.0) < 1e-12

    def test_length_mismatch_raises(self):
        layer = make_layer(4, 3)
        with pytest.raises(ShapeError):
            kan_forward(layer, np.zeros(5))

    def test_batched_matches_loop(self):
        layer = make_layer(6, 4, seed=3)
        xs = np.random.default_rng(5).uniform(-1, 1, size=(8, 6))
        batched, _ = kan_forward(layer, xs)
        singles = np.stack([kan_forward(layer, x)[0] for x in xs])
        np.testing.assert_allclose(batched, singles, atol=1e-14)

    def test_linearity_in_coefficients(self):
        a = make_layer(5, 3, seed=1)
        b = make_layer(5, 3, seed=2)
        alpha, beta = 0.3, -1.7
        mixed = make_layer(5, 3)
        mixed.coeffs[...] = alpha * a.coeffs + beta * b.coeffs
        x = np.random.default_rng(7).uniform(-1, 1, size=5)
        ya, _ = kan_forward(a, x)
        yb, _ = kan_forward(b, x)
        ym, _ = kan_forward(mixed, x)
        np.testing.assert_allclose(ym, alpha * ya + beta * yb, atol=1e-12)

    def test_additivity_across_inputs(self):
        # y_i decomposes into per-input edge contributions
        layer = make_layer(4, 3, seed=9)
        x = np.random.default_rng(11).uniform(-1, 1, size=4)
        y, _ = kan_forward(layer, x)
        contributions = np.zeros((3,))
        basis = bspline_basis(x, GRID)
        for j in range(4):
            contributions += layer.coeffs[:, j, :] @ basis[j]
        np.testing.assert_allclose(y, contributions, atol=1e-12)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        layer = make_layer(4, 3, seed=1)
        x = np.random.default_rng(2).uniform(-1, 1, size=4)
        y, cache = kan_forward(layer, x)
        grad_x, grad_coeffs = kan_backward(layer, cache, np.zeros(3))
        assert np.all(grad_x == 0)
        assert np.all(grad_coeffs == 0)

    def test_constant_edge_has_zero_input_gradient(self):
        layer = make_layer(1, 1)
        layer.coeffs[...] = 1.3
        x = np.array([0.4])
        _, cache = kan_forward(layer, x)
        grad_x, _ = kan_backward(layer, cache, np.ones(1))
        assert abs(grad_x[0]) < 1e-12

    def test_finite_difference_gradients(self):
        rng = np.random.default_rng(13)
        layer = make_layer(5, 4, seed=13)
        x = rng.uniform(-0.9, 0.9, size=5)
        upstream = rng.normal(size=4)
        _, cache = kan_forward(layer, x)
        grad_x, grad_coeffs = kan_backward(layer, cache, upstream)
        h = 1e-5

        def loss():
            y, _ = kan_forward(layer, x)
            return float(upstream @ y)

        # a handful of random coefficients
        for _ in range(10):
            idx = tuple(rng.integers(s) for s in layer.coeffs.shape)
            orig = layer.coeffs[idx]
            layer.coeffs[idx] = orig + h
            up = loss()
            layer.coeffs[idx] = orig - h
            down = loss()
            layer.coeffs[idx] = orig
            numeric = (up - down) / (2 * h)
            assert abs(grad_coeffs[idx] - numeric) <= 1e-8 + 1e-5 * abs(numeric)

        # every input coordinate
        for j in range(5):
            xp = x.copy()
            xp[j] += h
            up = float(upstream @ kan_forward(layer, xp)[0])
            xp[j] -= 2 * h
            down = float(upstream @ kan_forward(layer, xp)[0])
            numeric = (up - down) / (2 * h)
            assert abs(grad_x[j] - numeric) <= 1e-8 + 1e-5 * abs(numeric)

    def test_batched_grads_sum_over_batch(self):
        layer = make_layer(3, 2, seed=21)
        xs = np.random.default_rng(22).uniform(-1, 1, size=(6, 3))
        ups = np.random.default_rng(23).normal(size=(6, 2))
        _, cache = kan_forward(layer, xs)
        grad_x, grad_coeffs = kan_backward(layer, cache, ups)
        accumulated = np.zeros_like(layer.coeffs)
        for x, u in zip(xs, ups):
            _, c = kan_forward(layer, x)
            _, g = kan_backward(layer, c, u)
            accumulated += g
        np.testing.assert_allclose(grad_coeffs, accumulated, atol=1e-12)
        assert grad_x.shape == xs.shape

    def test_shape_mismatch_raises(self):
        layer = make_layer(4, 3)
        x = np.zeros(4)
        _, cache = kan_forward(layer, x)
        with pytest.raises(ShapeError):
            kan_backward(layer, cache, np.zeros(5))


class TestNetwork:
    def test_forward_backward_chain(self):
        rng = np.random.default_rng(31)
        net = kan_network_init([6, 5, 3], GRID, rng)
        x = rng.uniform(-0.9, 0.9, size=6)
        y, caches = network_forward(net, x)
        assert y.shape == (3,)
        upstream = rng.normal(size=3)
        grad_x, grads = network_backward(net, caches, upstream)
        assert grad_x.shape == (6,)
        assert len(grads) == 2

        h = 1e-5
        for j in range(6):
            xp = x.copy()
            xp[j] += h
            up = float(upstream @ network_forward(net, xp)[0])
            xp[j] -= 2 * h
            down = float(upstream @ network_forward(net, xp)[0])
            numeric = (up - down) / (2 * h)
            assert abs(grad_x[j] - numeric) <= 1e-8 + 1e-4 * abs(numeric)


class TestExportSplines:
    def test_zero_network_all_curves_zero(self):
        net = kan_network_init([3, 2], GRID, np.random.default_rng(0))
        net.layers[0].coeffs[...] = 0.0
        [(_, phi)] = export_splines(net, 17)
        assert phi.shape[:2] == (2, 3)  # 6 curves
        assert np.all(phi == 0)

    def test_two_samples_are_the_domain_endpoints(self):
        net = kan_network_init([2, 2], GRID, np.random.default_rng(1))
        for x, _ in export_splines(net, 2):
            np.testing.assert_allclose(x, [GRID.t_min, GRID.t_max])

    def test_identity_edge_least_squares_fit(self):
        # fit a single edge to phi(x) = x by least squares on the basis,
        # then check the exported polyline stays within 1e-2 of the line
        xs = np.linspace(-1, 1, 201)
        design = bspline_basis(xs, GRID)
        coeffs, *_ = np.linalg.lstsq(design, xs, rcond=None)
        layer = make_layer(1, 1)
        layer.coeffs[0, 0] = coeffs
        [(x, phi)] = export_splines(KanNetwork(layers=[layer]), 101)
        assert np.max(np.abs(phi[0, 0] - x)) < 1e-2

    def test_samples_below_two_rejected(self):
        net = kan_network_init([2, 2], GRID, np.random.default_rng(1))
        with pytest.raises(ValueError):
            export_splines(net, 1)


class TestMatmulForm:
    """The matmul layer against the per-edge einsum formulas over the full recursion."""

    @staticmethod
    def reference(layer, x, upstream):
        basis, dbasis = cox_de_boor_basis(x, layer.grid, with_derivative=True)
        y = np.einsum("...jk,ijk->...i", basis, layer.coeffs)
        up2 = upstream.reshape(-1, layer.n_out)
        basis2 = basis.reshape(-1, layer.n_in, layer.grid.n_basis)
        dbasis2 = dbasis.reshape(-1, layer.n_in, layer.grid.n_basis)
        grad_coeffs = np.einsum("bi,bjk->ijk", up2, basis2)
        grad_x = np.einsum("bi,ijk,bjk->bj", up2, layer.coeffs, dbasis2).reshape(x.shape)
        return y, grad_x, grad_coeffs

    @pytest.mark.parametrize("batch", [None, 9])
    def test_forward_and_backward_match_einsum(self, batch):
        rng = np.random.default_rng(41)
        layer = make_layer(7, 5)
        # a wider draw than the default, so the spline values are far from zero
        layer.coeffs[...] = np.random.default_rng(42).uniform(-0.8, 0.8, size=layer.coeffs.shape)
        lead = () if batch is None else (batch,)
        # spread past the extended grid so dead and edge intervals are covered
        x = rng.uniform(-3.5, 3.5, size=lead + (7,))
        upstream = rng.normal(size=lead + (5,))
        y, cache = kan_forward(layer, x)
        grad_x, grad_coeffs = kan_backward(layer, cache, upstream)
        ref_y, ref_grad_x, ref_coeffs = self.reference(layer, x, upstream)
        assert y.shape == ref_y.shape and grad_x.shape == x.shape
        np.testing.assert_allclose(y, ref_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_x, ref_grad_x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_coeffs, ref_coeffs, rtol=0, atol=1e-12)

    def test_backward_reuses_the_cached_basis(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("with_derivative", False))
            return bspline_basis(*args, **kwargs)

        monkeypatch.setattr(kan, "bspline_basis", counting)
        rng = np.random.default_rng(43)
        net = kan_network_init([6, 5, 3], GRID, rng)
        x = rng.uniform(-1, 1, size=(4, 6))
        _, caches = network_forward(net, x)
        assert calls == [True, True]  # one call per layer, derivatives included
        network_backward(net, caches, rng.normal(size=(4, 3)))
        assert len(calls) == 2
