"""Morrey-norm estimator, weighted seminorms, and the inequality-ratio checks."""

import math
import warnings

import numpy as np
import pytest

from scipy import fft as sfft

from mhdlab.fields import ScalarField, VectorField, lp_norm, make_grid
from mhdlab.kernels import gaussian_bump
from mhdlab.mild import TimeMesh, heat_flow_trace
from mhdlab.morrey import (
    BallSampling,
    MorreyParams,
    _ball_kernel,
    _ball_sums,
    _sup_weighted,
    _time_lp,
    ball_cell_count,
    holder_check,
    interpolation_check,
    morrey_norm,
    morrey_norm_detail,
    smoothing_ratio_scan,
    weighted_seminorms,
)
from mhdlab.verify import GOLDEN

from .conftest import band_limited_scalar
from .oracles import ball_count_direct, ball_sums_full, constant_field_norm, fine_radii, morrey_direct


class TestParams:
    def test_validation(self):
        MorreyParams(1.0, 0.0)
        MorreyParams(2.5, 2.9)
        for p, lam in [(0.5, 1.0), (math.inf, 0.0), (1.0, 3.0), (1.0, -0.1)]:
            with pytest.raises(ValueError):
                MorreyParams(p, lam)

    def test_sampling_validation(self):
        with pytest.raises(ValueError):
            BallSampling(stride=0)
        with pytest.raises(ValueError):
            BallSampling(radii_per_octave=0)


class TestRadii:
    def test_dyadic_ladder(self, grid32):
        radii = BallSampling().radii(grid32)
        assert radii[0] == grid32.spacing
        assert radii[-1] == grid32.l / 2
        assert all(b == 2 * a for a, b in zip(radii, radii[1:]))

    def test_refined_ladder_contains_coarse(self, grid32):
        coarse = set(BallSampling().radii(grid32))
        fine = set(BallSampling(radii_per_octave=4).radii(grid32))
        assert coarse <= fine


class TestConstantFields:
    def test_total_mass_at_zero_scaling(self, grid32):
        c = 0.7
        f = ScalarField(grid32, np.full((32,) * 3, c))
        expected = c * grid32.volume
        assert abs(morrey_norm(f, MorreyParams(1, 0)) - expected) <= 1e-9 * expected

    def test_counted_closed_form(self, grid32):
        c = 0.7
        f = ScalarField(grid32, np.full((32,) * 3, c))
        sampling = BallSampling()
        value, _, radius = morrey_norm_detail(f, MorreyParams(1, 1), sampling)
        oracle = constant_field_norm(grid32, c, MorreyParams(1, 1), sampling.radii(grid32))
        assert abs(value - oracle) <= 1e-9 * oracle
        assert radius == grid32.l / 2
        # the continuum ball volume is approached to first order in the spacing
        continuum = c * (4 * math.pi / 3) * (grid32.l / 2) ** 2
        assert abs(value - continuum) <= 0.05 * continuum

    @pytest.mark.parametrize("p,lam", [(1.0, 0.5), (2.0, 1.0), (1.5, 2.0)])
    def test_counted_closed_form_general(self, grid32, p, lam):
        c = 1.3
        f = ScalarField(grid32, np.full((32,) * 3, c))
        sampling = BallSampling()
        oracle = constant_field_norm(grid32, c, MorreyParams(p, lam), sampling.radii(grid32))
        assert abs(morrey_norm(f, MorreyParams(p, lam), sampling) - oracle) <= 1e-9 * oracle

    def test_cell_count_matches_direct(self, grid32):
        for r in BallSampling().radii(grid32):
            assert ball_cell_count(grid32, r) == ball_count_direct(grid32, r)


def _ball_sums_at(g, grid, r, stride):
    ghat = sfft.rfftn(g, axes=(-3, -2, -1))
    return _ball_sums(g, ghat, _ball_kernel(grid.n, grid.l, r), stride)


class TestBallSums:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("stack", [1, 2])
    def test_fold_matches_the_full_inverse(self, n, stack):
        grid = make_grid(n, 2 * math.pi)
        g = np.random.default_rng(n + stack).random((stack, n, n, n))
        strides = (2, 1) if n <= 32 else (2,)
        for r in BallSampling(radii_per_octave=2 if n <= 32 else 1).radii(grid):
            for st in strides:
                got = _ball_sums_at(g, grid, r, st)
                want = ball_sums_full(g, grid, r, st)
                assert got.shape == want.shape
                for a, b in zip(got, want):
                    assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_strides_agree_bitwise_at_shared_centres(self, grid32):
        n = grid32.n
        g = np.random.default_rng(7).random((2, n, n, n))
        for r in BallSampling(radii_per_octave=2).radii(grid32):
            full = np.full((2, n, n, n), np.nan)
            for st in (1, 2, 3, 4, 6):
                sums = _ball_sums_at(g, grid32, r, st)
                view = full[:, ::st, ::st, ::st]
                seen = ~np.isnan(view)
                assert np.array_equal(view[seen], sums[seen]), (r, st)
                view[~seen] = sums[~seen]

    def test_block_balls_are_direct_sums(self, grid16):
        # radius h holds the centre cell, radius 2h the 3x3x3 block
        n = grid16.n
        g = np.random.default_rng(8).random((2, n, n, n))
        radii = BallSampling().radii(grid16)
        assert [ball_count_direct(grid16, r) for r in radii[:2]] == [1, 27]
        assert [_ball_kernel(n, grid16.l, r)[2] for r in radii] == [0, 1] + [None] * (len(radii) - 2)
        o = np.minimum(np.arange(n), n - np.arange(n))
        for r in radii[:2]:
            direct = np.zeros_like(g)
            for d in np.argwhere(o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
                                 < (r / grid16.spacing) ** 2):
                direct += np.roll(g, tuple(-np.where(d > n // 2, d - n, d)), axis=(1, 2, 3))
            for st in (1, 2, 3):
                got = _ball_sums_at(g, grid16, r, st)
                want = direct[:, ::st, ::st, ::st]
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert np.array_equal(_ball_sums_at(g, grid16, radii[0], 2), g[:, ::2, ::2, ::2])


class TestAgainstBruteForce:
    def test_narrow_bump_oracle(self):
        # needle data puts the sup between rungs of a coarse radius ladder, so
        # the 4-per-octave ladder is validated against a 4x finer direct scan
        from mhdlab.fields import make_grid

        g = make_grid(64, 2 * math.pi)
        bump = gaussian_bump(g, 0.1)
        mp = MorreyParams(1, 1)
        value = morrey_norm(bump, mp, BallSampling(stride=2, radii_per_octave=4))
        oracle = morrey_direct(
            bump, mp, fine_radii(g, 16), stride=2, window_center=(32, 32, 32)
        )
        assert abs(value - oracle) <= 0.05 * oracle

    def test_bump_corpus_oracle(self, grid32):
        for sigma in (0.2, 0.3):
            bump = gaussian_bump(grid32, sigma)
            mp = MorreyParams(1, 1)
            value = morrey_norm(bump, mp, BallSampling(stride=2, radii_per_octave=4))
            oracle = morrey_direct(
                bump, mp, fine_radii(grid32, 16), stride=2, window_center=(16, 16, 16)
            )
            assert abs(value - oracle) <= 0.05 * oracle

    def test_zero_scaling_equals_lp(self, grid32):
        f = band_limited_scalar(grid32, 2, cutoff=4)
        for p in (1.0, 2.0, 3.0):
            assert abs(morrey_norm(f, MorreyParams(p, 0)) - lp_norm(f, p)) <= 0.02 * lp_norm(f, p)


class TestStructuralProperties:
    def test_homogeneity_bitwise_integer_p(self, grid32):
        f = band_limited_scalar(grid32, 3)
        for p, lam in [(1.0, 1.0), (2.0, 0.5)]:
            doubled = morrey_norm(ScalarField(grid32, 2 * f.values), MorreyParams(p, lam))
            assert doubled == 2 * morrey_norm(f, MorreyParams(p, lam))

    def test_homogeneity_fractional_p(self, grid32):
        f = band_limited_scalar(grid32, 4)
        mp = MorreyParams(1.5, 1.0)
        scaled = morrey_norm(ScalarField(grid32, 3.7 * f.values), mp)
        assert abs(scaled - 3.7 * morrey_norm(f, mp)) <= 1e-12 * scaled

    def test_huge_finite_field_has_finite_norms(self, grid16):
        # a norm is non-finite only when a magnitude is.  At p = 1 the power
        # sums of 1e303 to 1e305 times a unit-order field stay finite, but
        # the ball sums' transforms would overflow (reading inf, or 5e304
        # for 3.4e306 at 1e305 and lam = 1); at 1e306 the whole-box norm
        # (lam = 0) is 2e308 itself
        f = np.random.default_rng(3).standard_normal(grid16.n**3).reshape((grid16.n,) * 3)
        unit = ScalarField(grid16, f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e303, 1e305, 1e306):
                for mp in (MorreyParams(1.0, 0.0), MorreyParams(1.0, 1.0), MorreyParams(2.0, 1.0)):
                    want = scale * morrey_norm(unit, mp)
                    got, centre, r = morrey_norm_detail(ScalarField(grid16, scale * f), mp)
                    if math.isinf(want):
                        assert got == math.inf
                        continue
                    assert got == pytest.approx(want, rel=1e-15)
                    assert (centre, r) == morrey_norm_detail(unit, mp)[1:]

    def test_sampling_monotonicity(self, grid32):
        for seed in range(4):
            f = band_limited_scalar(grid32, 30 + seed)
            base = morrey_norm(f, MorreyParams(1.5, 1.0), BallSampling(stride=4))
            finer_centers = morrey_norm(f, MorreyParams(1.5, 1.0), BallSampling(stride=2))
            finer_both = morrey_norm(
                f, MorreyParams(1.5, 1.0), BallSampling(stride=1, radii_per_octave=2)
            )
            assert base <= finer_centers <= finer_both

    def test_triangle_inequality(self, grid32):
        f = band_limited_scalar(grid32, 40)
        g = band_limited_scalar(grid32, 41)
        mp = MorreyParams(2.0, 1.0)
        total = morrey_norm(ScalarField(grid32, f.values + g.values), mp)
        assert total <= morrey_norm(f, mp) + morrey_norm(g, mp) + 1e-10

    def test_vector_uses_euclidean_magnitude(self, grid32):
        x1 = grid32.meshgrid()[0]
        v = VectorField(grid32, np.stack([np.sin(x1), np.cos(x1), 0 * x1]))
        mag = ScalarField(grid32, np.sqrt(np.sum(v.values**2, axis=0)))
        mp = MorreyParams(1.5, 1.0)
        assert morrey_norm(v, mp) == pytest.approx(morrey_norm(mag, mp), rel=1e-14)


@pytest.fixture(scope="module")
def heat_trace(grid32):
    x1 = grid32.meshgrid()[0]
    w0 = VectorField(grid32, np.stack([0 * x1, 0 * x1, np.cos(x1)]))
    j0 = VectorField(grid32, np.zeros((3, 32, 32, 32)))
    nodes = tuple(np.concatenate([[0.0], np.geomspace(0.1, 10.0, 24)]))
    return heat_flow_trace(w0, j0, TimeMesh(nodes)), w0


class TestWeightedSeminorms:
    def test_pure_heat_oracle(self, grid32, heat_trace):
        # single-mode data decays like exp(-t), so the weighted sup has the
        # scalar closed form max_t t**(1/3) exp(-t), peaking near t = 1/3
        trace, w0 = heat_trace
        sem = weighted_seminorms(trace, 1.5, 1.0)
        m0 = morrey_norm(w0, MorreyParams(1.5, 1.0))
        nodes = trace.mesh.nodes
        oracle = max(t ** (1 / 3) * math.exp(-t) for t in nodes[1:]) * m0
        assert sem.w0 == pytest.approx(oracle, rel=1e-12)
        assert sem.j0 == 0.0
        best = max(nodes[1:], key=lambda t: t ** (1 / 3) * math.exp(-t))
        assert abs(best - 1 / 3) <= 0.15

    def test_zero_trace(self, grid32):
        z = VectorField(grid32, np.zeros((3, 32, 32, 32)))
        trace = heat_flow_trace(z, z, TimeMesh.uniform(1.0, 5))
        sem = weighted_seminorms(trace, 1.5, 1.0)
        assert all(v == 0.0 for v in sem.as_dict().values())

    def test_amplitude_doubling(self, grid32, heat_trace):
        trace, w0 = heat_trace
        doubled = heat_flow_trace(
            VectorField(grid32, 2 * w0.values),
            VectorField(grid32, np.zeros((3, 32, 32, 32))),
            trace.mesh,
        )
        a = weighted_seminorms(trace, 1.5, 1.0)
        b = weighted_seminorms(doubled, 1.5, 1.0)
        assert b.w0 == pytest.approx(2 * a.w0, rel=1e-13)
        assert b.w1 == pytest.approx(2 * a.w1, rel=1e-13)

    def test_rejects_nonintegrable_weights(self, grid32, heat_trace):
        trace, _ = heat_trace
        with pytest.raises(ValueError):
            weighted_seminorms(trace, 1.0, 1.0)  # 2p + q = 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gradient_overflow_gives_nonfinite_seminorm(self, grid16):
        # finite iterates whose gradients overflow: (p, q) = (1.9, 2) keeps the
        # undifferentiated norms finite, so only the gradient variants overflow
        x1, x2, x3 = grid16.meshgrid()
        shape = np.stack([np.sin(3 * x2), np.sin(3 * x3), np.sin(3 * x1)])
        mesh = TimeMesh.uniform(1.0, 5)
        for amp, finite in ((1e150, True), (3.2e153, False)):
            w = VectorField(grid16, amp * shape)
            sem = weighted_seminorms(heat_flow_trace(w, w, mesh), 1.9, 2.0)
            assert math.isfinite(sem.w0_bar) and math.isfinite(sem.j0_bar)
            assert all(math.isfinite(v) for v in sem.as_dict().values()) == finite

    def test_time_lp_does_not_overflow_before_the_norms(self):
        assert _time_lp((0.0, 0.5, 1.0), [1e150] * 3, 3.0) == pytest.approx(1e150, rel=1e-15)

    def test_time_lp_matches_unscaled_formula(self):
        rng = np.random.default_rng(5)
        nodes = (0.0, 0.1, 0.25, 0.5, 1.0)
        for p, q in ((1.5, 1.0), (1.9, 2.0), (3.0, 1.0)):
            for a in (2 * p / (2 * p - 3 + q), 2 * p / (3 * p - 3 + q)):
                for _ in range(20):
                    v = rng.uniform(0.1, 10.0, len(nodes))
                    plain = np.trapezoid(v**a, nodes) ** (1.0 / a)
                    assert _time_lp(nodes, v, a) == pytest.approx(plain, rel=1e-15)
        assert _time_lp(nodes, [0.0] * 5, 3.0) == 0.0
        assert _time_lp(nodes, [1.0, math.inf, 1.0, 1.0, 1.0], 3.0) == math.inf
        assert math.isnan(_time_lp(nodes, [1.0, math.nan, 1.0, 1.0, 1.0], 3.0))

    def test_barred_norm_finite_at_large_amplitude(self, grid16):
        # (p, q) = (1.5, 1) raises node norms to the power 3: unscaled, 1e150 overflows
        x1, x2, x3 = grid16.meshgrid()
        w = VectorField(grid16, 1e150 * np.stack([np.sin(x2), np.sin(x3), np.sin(x1)]))
        sem = weighted_seminorms(heat_flow_trace(w, w, TimeMesh.uniform(1.0, 5)), 1.5, 1.0)
        assert math.isfinite(sem.w0_bar) and math.isfinite(sem.j0_bar)
        assert 0.1 * sem.w0 <= sem.w0_bar <= 10 * sem.w0

    def test_sup_weighted_propagates_nan(self):
        assert math.isnan(_sup_weighted((0, 0.5, 1), [1, math.nan, 2], 0.5))
        assert _sup_weighted((0, 0.5, 1), [1, 4, 2], 0.5) == pytest.approx(4 * 0.5**0.5)
        assert _sup_weighted((0, 0.5, 1), [7, 4, 2], 0.0) == 7.0


class TestSmoothingScan:
    def test_same_exponent_bounded(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        scan = smoothing_ratio_scan(
            bump, MorreyParams(1.5, 1), MorreyParams(1.5, 1), (0.01, 0.1, 1.0, 10.0), "heat"
        )
        assert max(scan.ratios) <= 1.02

    def test_golden_sup_reproduced(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        scan = smoothing_ratio_scan(
            bump,
            MorreyParams(1, 0),
            MorreyParams(2, 0),
            tuple(np.geomspace(1e-2, 1e2, 13)),
            "heat",
        )
        assert abs(scan.sup - GOLDEN["t1_gauss_10_to_20"]) <= 0.01 * GOLDEN["t1_gauss_10_to_20"]

    def test_zero_field(self, grid32):
        z = ScalarField(grid32, np.zeros((32,) * 3))
        scan = smoothing_ratio_scan(z, MorreyParams(1, 0), MorreyParams(2, 0), (0.1, 1.0))
        assert scan.ratios == (0.0, 0.0)

    def test_rejects_bad_exponents(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        with pytest.raises(ValueError):
            smoothing_ratio_scan(bump, MorreyParams(2, 0), MorreyParams(1, 0), (1.0,))
        with pytest.raises(ValueError):
            smoothing_ratio_scan(bump, MorreyParams(1, 0), MorreyParams(2, 0), (0.0, 1.0))
        with pytest.raises(ValueError):
            smoothing_ratio_scan(bump, MorreyParams(1, 0), MorreyParams(2, 0), (1.0,), "bogus")


class TestInterpolationCheck:
    def test_lp_case(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        assert interpolation_check(bump, 1.0, 0.0, 3.0, 0.0, 0.5) <= 1.02

    def test_constant_closed_form(self, grid32):
        c = 0.7
        f = ScalarField(grid32, np.full((32,) * 3, c))
        sampling = BallSampling()
        radii = sampling.radii(grid32)
        p1, mu1, p2, mu2, k = 1.0, 1.0, 3.0, 1.5, 0.5
        p3 = 1.0 / (k / p1 + (1 - k) / p2)
        mu3 = p3 * ((mu1 / p1) * k + (mu2 / p2) * (1 - k))
        predicted = constant_field_norm(grid32, c, MorreyParams(p3, mu3), radii) / (
            constant_field_norm(grid32, c, MorreyParams(p1, mu1), radii) ** k
            * constant_field_norm(grid32, c, MorreyParams(p2, mu2), radii) ** (1 - k)
        )
        measured = interpolation_check(f, p1, mu1, p2, mu2, k, sampling)
        assert measured == pytest.approx(predicted, abs=1e-6)

    def test_zero_field(self, grid32):
        z = ScalarField(grid32, np.zeros((32,) * 3))
        assert interpolation_check(z, 1.0, 0.0, 3.0, 0.0, 0.5) == 0.0

    def test_rejects_bad_exponents(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        with pytest.raises(ValueError):
            interpolation_check(bump, 3.0, 0.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            interpolation_check(bump, 1.0, 0.0, 3.0, 0.0, 1.5)


class TestHolderCheck:
    def test_cauchy_schwarz_case(self, grid32):
        x1, x2, _ = grid32.meshgrid()
        f = ScalarField(grid32, np.abs(np.sin(x1)) + 0.2)
        g = ScalarField(grid32, np.abs(np.cos(x2)) + 0.1)
        assert holder_check(f, g, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0) <= 1.02

    def test_bump_squared(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        assert holder_check(bump, bump, 1.0, 0.5, 2.0, 0.5, 2.0, 0.5) <= 1.02

    def test_zero_field(self, grid32):
        z = ScalarField(grid32, np.zeros((32,) * 3))
        bump = gaussian_bump(grid32, 0.3)
        assert holder_check(z, bump, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0) == 0.0

    def test_rejects_exponent_mismatch(self, grid32):
        bump = gaussian_bump(grid32, 0.3)
        with pytest.raises(ValueError, match="1/r"):
            holder_check(bump, bump, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0)
        with pytest.raises(ValueError, match="theta"):
            holder_check(bump, bump, 1.0, 1.0, 2.0, 2.0, 2.0, 1.0)


def test_whole_box_candidate_only_at_zero_scaling(grid32):
    # at positive scaling exponents the sup must come from a real ball
    f = gaussian_bump(grid32, 0.3)
    _, _, radius = morrey_norm_detail(f, MorreyParams(1, 1))
    assert radius <= grid32.l / 2
    _, _, radius0 = morrey_norm_detail(
        ScalarField(grid32, np.full((32,) * 3, 1.0)), MorreyParams(1, 0)
    )
    assert radius0 == math.inf


def test_norm_increases_with_heat_time_weighting(grid32):
    # smoke check that the scan uses the requested operator: at tiny t the
    # heat flow is near the identity, so the same-exponent ratio is near 1
    bump = gaussian_bump(grid32, 0.3)
    scan = smoothing_ratio_scan(
        bump, MorreyParams(1, 1), MorreyParams(1, 1), (1e-6,), "heat"
    )
    assert scan.ratios[0] == pytest.approx(1.0, abs=1e-3)
