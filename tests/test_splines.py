import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kan_ausculta.splines import bspline_basis, make_uniform_grid
from spline_oracle import cox_de_boor_basis


def naive_bspline(x, degree, i, knots):
    """Independent Cox-de Boor recursion (textbook form) for one basis function."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + degree] != knots[i]:
        left = (x - knots[i]) / (knots[i + degree] - knots[i]) * naive_bspline(x, degree - 1, i, knots)
    right = 0.0
    if knots[i + degree + 1] != knots[i + 1]:
        right = (
            (knots[i + degree + 1] - x)
            / (knots[i + degree + 1] - knots[i + 1])
            * naive_bspline(x, degree - 1, i + 1, knots)
        )
    return left + right


class TestMakeUniformGrid:
    def test_default_cubic_grid(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        assert kv.n_basis == 6
        assert len(kv.knots) == 10
        assert kv.knots[0] == pytest.approx(-3.0)
        assert kv.knots[-1] == pytest.approx(3.0)
        assert np.allclose(np.diff(kv.knots), 2.0 / 3.0)

    def test_smallest_legal_grid(self):
        kv = make_uniform_grid(0, 1, 1, 1)
        assert kv.n_basis == 2
        assert kv.knots[0] == pytest.approx(-1.0)
        assert kv.knots[-1] == pytest.approx(2.0)

    def test_basis_count_follows_grid_and_order(self):
        assert make_uniform_grid(-1, 1, 5, 3).n_basis == 8

    @pytest.mark.parametrize("bad", [(1, 1, 3, 3), (0, 0, 3, 3), (-1, 1, 0, 3), (-1, 1, 3, 0)])
    def test_invalid_arguments(self, bad):
        with pytest.raises(ValueError):
            make_uniform_grid(*bad)


class TestBasisEvaluation:
    def test_matches_naive_recursion(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, size=50)
        values = bspline_basis(xs, kv)
        for x, row in zip(xs, values):
            expected = [naive_bspline(x, 3, i, kv.knots) for i in range(kv.n_basis)]
            np.testing.assert_allclose(row, expected, atol=1e-13)

    def test_cardinal_cubic_values_at_basis_center(self):
        # at the center knot of a cubic basis function: value 2/3, neighbors 1/6
        kv = make_uniform_grid(-1, 1, 3, 3)
        center = kv.knots[4]  # center of basis index 2, inside the domain
        row = bspline_basis(center, kv)
        oracle = [naive_bspline(center, 3, i, kv.knots) for i in range(kv.n_basis)]
        np.testing.assert_allclose(row, oracle, atol=1e-12)
        assert abs(row[2] - 2.0 / 3.0) < 1e-12
        assert abs(row[1] - 1.0 / 6.0) < 1e-12
        assert abs(row[3] - 1.0 / 6.0) < 1e-12

    def test_partition_of_unity_bulk(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        xs = np.random.default_rng(1).uniform(-1, 1, size=10_000)
        sums = bspline_basis(xs, kv).sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=-0.999, max_value=0.999),
        grid=st.integers(min_value=1, max_value=8),
        order=st.integers(min_value=1, max_value=4),
    )
    def test_partition_of_unity_property(self, x, grid, order):
        kv = make_uniform_grid(-1, 1, grid, order)
        assert abs(bspline_basis(x, kv).sum() - 1.0) < 1e-12

    def test_local_support(self):
        kv = make_uniform_grid(-1, 1, 5, 3)
        xs = np.random.default_rng(2).uniform(-1, 1, size=200)
        nonzero = (np.abs(bspline_basis(xs, kv)) > 0).sum(axis=-1)
        assert np.all(nonzero <= kv.order + 1)

    def test_outside_domain_evaluates_instead_of_failing(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        vals = bspline_basis(np.array([-2.5, 2.5, 5.0]), kv)
        assert np.all(np.isfinite(vals))
        assert np.all(vals.sum(axis=-1) <= 1.0 + 1e-12)
        assert vals[2].sum() == 0.0  # beyond the extended span

    def test_nonfinite_input_rejected(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        with pytest.raises(ValueError):
            bspline_basis(np.nan, kv)
        with pytest.raises(ValueError):
            bspline_basis(np.inf, kv)


class TestDerivatives:
    def test_derivative_sums_to_zero_inside_domain(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        xs = np.random.default_rng(3).uniform(-0.99, 0.99, size=500)
        _, derivs = bspline_basis(xs, kv, with_derivative=True)
        assert np.max(np.abs(derivs.sum(axis=-1))) < 1e-12

    def test_matches_central_differences(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        rng = np.random.default_rng(4)
        h = 1e-5
        for x in rng.uniform(-0.9, 0.9, size=30):
            _, analytic = bspline_basis(x, kv, with_derivative=True)
            numeric = (bspline_basis(x + h, kv) - bspline_basis(x - h, kv)) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_cubic_second_derivative_continuity_at_knots(self):
        # C2: finite-difference second derivatives (one-sided differences of
        # the first derivative) agree across each interior knot boundary
        kv = make_uniform_grid(-1, 1, 3, 3)
        h = 1e-6

        def d1(x):
            _, derivs = bspline_basis(np.asarray(x), kv, with_derivative=True)
            return derivs

        for knot in kv.knots[kv.order + 1 : -(kv.order + 1)]:  # interior knots
            left = (d1(knot) - d1(knot - 2 * h)) / (2 * h)
            right = (d1(knot + 2 * h) - d1(knot)) / (2 * h)
            np.testing.assert_allclose(left, right, atol=1e-4)


class TestLocalBasisMatchesFullRecursion:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("grid_size", [1, 2, 3, 4, 5])
    def test_values_and_derivatives(self, order, grid_size):
        kv = make_uniform_grid(-0.7, 1.3, grid_size, order)
        t = kv.knots
        width = t[-1] - t[0]
        xs = np.concatenate([
            t,                                  # exactly on every knot
            np.nextafter(t, -np.inf),           # just below every knot
            np.nextafter(t, np.inf),
            np.random.default_rng(order * 10 + grid_size).uniform(t[0], t[-1], 400),
            [t[0] - 0.5 * width, t[-1] + 0.5 * width, -1e6, 1e6],  # beyond the extension
        ])
        values, derivs = bspline_basis(xs, kv, with_derivative=True)
        ref_values, ref_derivs = cox_de_boor_basis(xs, kv, with_derivative=True)
        assert values.shape == ref_values.shape == (xs.size, kv.n_basis)
        assert np.max(np.abs(values - ref_values)) <= 1e-12
        assert np.max(np.abs(derivs - ref_derivs)) <= 1e-12
        assert np.all(values[-4:] == 0) and np.all(derivs[-4:] == 0)

    def test_keeps_input_shape(self):
        kv = make_uniform_grid(-1, 1, 3, 3)
        xs = np.random.default_rng(5).uniform(-3.5, 3.5, size=(4, 7, 2))
        values, derivs = bspline_basis(xs, kv, with_derivative=True)
        ref_values, ref_derivs = cox_de_boor_basis(xs, kv, with_derivative=True)
        assert values.shape == derivs.shape == (4, 7, 2, kv.n_basis)
        np.testing.assert_allclose(values, ref_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(derivs, ref_derivs, rtol=0, atol=1e-12)
        assert bspline_basis(0.25, kv).shape == (kv.n_basis,)
