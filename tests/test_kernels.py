"""Heat semigroup, curl inversion, and fractional-integral operators."""

import math

import numpy as np
import pytest

from mhdlab.fields import (
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    lp_norm,
    make_grid,
)
from mhdlab.kernels import (
    biot_savart,
    gaussian_bump,
    heat_grad_propagate,
    heat_propagate,
    heat_time_derivative,
    riesz_potential,
)

from .conftest import band_limited_scalar, rel_max_err, solenoidal_vector
from .oracles import gaussian_bump_direct

# measured once: sqrt(t) * sup|T2 f| / sup|T1 f| for the sigma=0.3 unit bump
T2_DECAY_TABLE = {
    0.25: 0.39461945471738824,
    0.5: 0.4107253261158458,
    1.0: 0.41707857017737315,
    2.0: 0.35507287893254275,
}


class TestHeatPropagate:
    def test_eigenfunction_decay(self, grid32):
        x1 = grid32.meshgrid()[0]
        f = ScalarField(grid32, np.sin(x1))
        out = heat_propagate(f, 1.0)
        assert np.abs(out.values - math.exp(-1) * np.sin(x1)).max() <= 1e-12

    def test_semigroup(self, grid32):
        f = band_limited_scalar(grid32, 11, cutoff=grid32.n)
        two_step = heat_propagate(heat_propagate(f, 0.3), 0.7)
        one_step = heat_propagate(f, 1.0)
        assert rel_max_err(two_step.values, one_step.values) <= 1e-12

    def test_identity_at_zero(self, grid32):
        f = band_limited_scalar(grid32, 1)
        assert heat_propagate(f, 0.0) is f

    def test_rejects_negative_time(self, grid32):
        with pytest.raises(ValueError):
            heat_propagate(band_limited_scalar(grid32, 1), -0.1)

    def test_gaussian_width_closed_form(self):
        # convolving width-sigma data with the kernel gives width sqrt(sigma^2 + 2t)
        g = make_grid(64, 2 * math.pi)
        sigma, t = 0.3, 0.105
        f = gaussian_bump(g, sigma)
        out = heat_propagate(f, t)
        expected = gaussian_bump(g, math.sqrt(sigma**2 + 2 * t))
        assert np.abs(out.values - expected.values).max() <= 1e-8

    def test_l2_contraction(self, grid32):
        for seed in range(5):
            f = band_limited_scalar(grid32, 20 + seed)
            norm_f = lp_norm(f, 2)
            assert lp_norm(heat_propagate(f, 0.4), 2) <= norm_f * (1 + 1e-14)
            assert lp_norm(heat_propagate(f, 0.0), 2) == norm_f
            zero_mean = ScalarField(grid32, f.values - f.values.mean())
            assert lp_norm(heat_propagate(zero_mean, 0.4), 2) < lp_norm(zero_mean, 2)


class TestHeatGradPropagate:
    def test_analytic(self, grid32):
        x1 = grid32.meshgrid()[0]
        out = heat_grad_propagate(ScalarField(grid32, np.sin(x1)), 1.0)
        assert np.abs(out.values[0] - math.exp(-1) * np.cos(x1)).max() <= 1e-12
        assert np.abs(out.values[1:]).max() <= 1e-12

    def test_is_gradient_of_heat_flow(self, grid32):
        f = band_limited_scalar(grid32, 7)
        direct = heat_grad_propagate(f, 0.6)
        composed = gradient(heat_propagate(f, 0.6))
        assert rel_max_err(direct.values, composed.values) <= 1e-12

    def test_curl_free(self, grid32):
        f = band_limited_scalar(grid32, 8)
        out = heat_grad_propagate(f, 0.5)
        assert np.abs(curl(out).values).max() <= 1e-12 * np.abs(out.values).max()

    def test_rejects_nonpositive_time(self, grid32):
        with pytest.raises(ValueError):
            heat_grad_propagate(band_limited_scalar(grid32, 1), 0.0)

    def test_decay_table_regression(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        for t, golden in T2_DECAY_TABLE.items():
            ratio = math.sqrt(t) * lp_norm(heat_grad_propagate(bump, t), math.inf) / lp_norm(
                heat_propagate(bump, t), math.inf
            )
            assert abs(ratio - golden) <= 1e-6 * golden


class TestHeatTimeDerivative:
    def test_analytic(self, grid32):
        x1 = grid32.meshgrid()[0]
        out = heat_time_derivative(ScalarField(grid32, np.sin(x1)), 1.0)
        assert np.abs(out.values + math.exp(-1) * np.sin(x1)).max() <= 1e-12

    def test_finite_difference_oracle(self, grid32):
        f = band_limited_scalar(grid32, 9, cutoff=3)
        t, dt = 1.0, 1e-5
        fd = (heat_propagate(f, t + dt).values - heat_propagate(f, t - dt).values) / (2 * dt)
        exact = heat_time_derivative(f, t).values
        assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()

    def test_constant_maps_to_zero(self, grid32):
        const = ScalarField(grid32, np.full((32,) * 3, 2.5))
        assert np.abs(heat_time_derivative(const, 0.7).values).max() <= 1e-12

    def test_rejects_nonpositive_time(self, grid32):
        with pytest.raises(ValueError):
            heat_time_derivative(band_limited_scalar(grid32, 1), -1.0)


def test_multipliers_commute(grid32):
    # diagonal operators: composition order cannot matter
    f = band_limited_scalar(grid32, 4)
    zf = ScalarField(grid32, f.values - f.values.mean())
    a = riesz_potential(heat_propagate(zf, 0.3), 1.5)
    b = heat_propagate(riesz_potential(zf, 1.5), 0.3)
    assert rel_max_err(a.values, b.values) <= 1e-12
    w = solenoidal_vector(grid32, 5)
    c = curl(heat_propagate(w, 0.2))
    d = heat_propagate(curl(w), 0.2)
    assert rel_max_err(c.values, d.values) <= 1e-12


class TestBiotSavart:
    def test_single_mode(self, grid32):
        x1 = grid32.meshgrid()[0]
        w = VectorField(grid32, np.stack([0 * x1, 0 * x1, np.cos(x1)]))
        u = biot_savart(w)
        assert np.abs(u.values[1] - np.sin(x1)).max() <= 1e-12
        assert np.abs(u.values[[0, 2]]).max() <= 1e-12
        assert rel_max_err(curl(u).values, w.values) <= 1e-12

    def test_zero(self, grid32):
        z = VectorField(grid32, np.zeros((3, 32, 32, 32)))
        assert np.abs(biot_savart(z).values).max() == 0.0

    def test_inversion_property(self, grid32):
        for seed in range(10):
            w = solenoidal_vector(grid32, 60 + seed)
            u = biot_savart(w)
            err = lp_norm(VectorField(grid32, curl(u).values - w.values), 2) / lp_norm(w, 2)
            assert err <= 1e-10
            assert np.abs(divergence(u).values).max() <= 1e-10 * np.abs(u.values).max()

    def test_right_inverse_of_curl(self, grid32):
        w = solenoidal_vector(grid32, 77)
        again = biot_savart(curl(biot_savart(w)))
        ref = biot_savart(w)
        err = lp_norm(VectorField(grid32, again.values - ref.values), 2) / lp_norm(ref, 2)
        assert err <= 1e-10

    def test_rejects_non_solenoidal(self, grid32):
        x1 = grid32.meshgrid()[0]
        bad = VectorField(grid32, np.stack([np.sin(x1), 0 * x1, 0 * x1]))
        with pytest.raises(ValueError, match="divergence-free"):
            biot_savart(bad)

    def test_rejects_nonzero_mean(self, grid32):
        x1 = grid32.meshgrid()[0]
        bad = VectorField(grid32, np.stack([0 * x1, np.sin(x1) + 0.5, 0 * x1]))
        with pytest.raises(ValueError, match="zero mean"):
            biot_savart(bad)


class TestRieszPotential:
    def test_unit_mode(self, grid32):
        x1 = grid32.meshgrid()[0]
        f = ScalarField(grid32, np.sin(x1))
        assert np.abs(riesz_potential(f, 2.0).values - np.sin(x1)).max() <= 1e-12

    def test_inverse_laplacian(self, grid32):
        f = band_limited_scalar(grid32, 13)
        zf = ScalarField(grid32, f.values - f.values.mean())
        lifted = riesz_potential(zf, 2.0)
        lap = divergence(gradient(lifted))
        assert rel_max_err(lap.values, -zf.values) <= 1e-10

    def test_zero(self, grid32):
        z = ScalarField(grid32, np.zeros((32,) * 3))
        assert np.abs(riesz_potential(z, 1.0).values).max() == 0.0

    @pytest.mark.parametrize("delta", [0.0, 3.0, -1.0, 3.5])
    def test_rejects_bad_order(self, grid32, delta):
        f = band_limited_scalar(grid32, 1)
        zf = ScalarField(grid32, f.values - f.values.mean())
        with pytest.raises(ValueError):
            riesz_potential(zf, delta)

    def test_rejects_nonzero_mean(self, grid32):
        f = ScalarField(grid32, np.abs(band_limited_scalar(grid32, 2).values) + 0.1)
        with pytest.raises(ValueError, match="zero-mean"):
            riesz_potential(f, 1.0)


class TestGaussianBump:
    @pytest.mark.parametrize("images", [0, 1, 3])
    @pytest.mark.parametrize("center", [None, (0.3, 1.1, 5.9)])
    @pytest.mark.parametrize("sigma", [0.1, 0.3, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_image_by_image_sum(self, n, sigma, center, images):
        g = make_grid(n, 2 * math.pi)
        fast = gaussian_bump(g, sigma, center, images)
        direct = gaussian_bump_direct(g, sigma, center, images)
        assert rel_max_err(fast.values, direct.values) <= 1e-14

    def test_unit_mass(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        assert abs(bump.values.sum() * grid32.spacing**3 - 1.0) <= 1e-12

    @pytest.mark.parametrize("sigma, images", [(0.0, 3), (-0.3, 3), (0.3, -1)])
    def test_rejects_bad_arguments(self, grid16, sigma, images):
        with pytest.raises(ValueError):
            gaussian_bump(grid16, sigma, images=images)
