"""Grid, field containers, spectral operators, norms, and the MHF1 format."""

import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from mhdlab.fields import (
    ScalarField,
    VectorField,
    curl,
    dealias,
    dealias_field,
    divergence,
    gradient,
    lp_norm,
    make_grid,
    node_map,
    project_div_free,
    to_physical,
    to_spectral,
)
from mhdlab.field_io import read_field, write_field
from mhdlab.morrey import MorreyParams, morrey_norm

from .conftest import band_limited_scalar, band_limited_vector, rel_max_err, solenoidal_vector
from .oracles import fwd_full, inv_full, tables_full


class TestGrid:
    def test_basic(self):
        g = make_grid(32, 2 * math.pi)
        assert g.n == 32 and g.l == 2 * math.pi
        assert g.spacing == 2 * math.pi / 32

    def test_small_grid(self):
        g = make_grid(8, 1.0)
        assert g.spacing == 0.125

    @pytest.mark.parametrize("n", [12, 6, 0, 33])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            make_grid(16, 0.0)
        with pytest.raises(ValueError):
            make_grid(16, -2.0)


class TestContainers:
    def test_shape_validation(self, grid32):
        with pytest.raises(ValueError):
            ScalarField(grid32, np.zeros((8, 8, 8)))
        with pytest.raises(ValueError):
            VectorField(grid32, np.zeros((2, 32, 32, 32)))

    def test_rejects_non_finite(self, grid32):
        bad = np.zeros((32, 32, 32))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            ScalarField(grid32, bad)

    def test_values_immutable(self, grid32):
        f = band_limited_scalar(grid32, 0)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestTransforms:
    def test_round_trip(self, grid32):
        for seed in range(20):
            f = band_limited_scalar(grid32, seed, cutoff=grid32.n)
            back = to_physical(to_spectral(f))
            assert rel_max_err(back.values, f.values) <= 1e-12

    def test_hermitian_symmetry(self, grid32):
        # the half spectrum is the last-axis half 0..n/2 of the full one
        f = band_limited_scalar(grid32, 3)
        c = to_spectral(f).coefficients
        assert c.shape == (32, 32, 17)
        assert np.abs(c - fwd_full(f.values)[..., : 32 // 2 + 1]).max() <= 1e-15

    def test_parseval(self, grid32):
        f = band_limited_scalar(grid32, 5, cutoff=grid32.n)
        c = to_spectral(f).coefficients
        # interior planes stand for their conjugate twins too; planes 0 and n/2 count once
        weights = np.full(c.shape[-1], 2.0)
        weights[[0, -1]] = 1.0
        spectral = math.sqrt(grid32.volume * float(np.sum(weights * np.abs(c) ** 2)))
        assert abs(lp_norm(f, 2) - spectral) <= 1e-10 * spectral


class TestNodeMap:
    @pytest.mark.parametrize("threads", ["1", "2", "3", "0", "abc"])
    def test_results_in_order_for_any_setting(self, threads, monkeypatch):
        # 0 and non-integers fall back to one thread and the CPU count
        monkeypatch.setenv("MHDLAB_THREADS", threads)
        assert list(node_map(lambda i: i * i, 12)) == [i * i for i in range(12)]
        assert list(node_map(lambda i: i, 0)) == []

    def test_order_holds_under_fast_thread_switching(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter allows
        monkeypatch.setenv("MHDLAB_THREADS", "3")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert list(node_map(lambda i: np.full(64, i).sum(), 200)) == [64 * i for i in range(200)]
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("threads", ["2", "3"])
    def test_failed_task_cancels_or_drains_the_lookahead(self, threads, monkeypatch):
        monkeypatch.setenv("MHDLAB_THREADS", threads)
        lock = threading.Lock()
        started, finished = set(), set()

        def task(i):
            with lock:
                started.add(i)
            time.sleep(0.02)
            with lock:
                finished.add(i)
            if i == 1:
                raise KeyError(i)
            return i

        with pytest.raises(KeyError):
            list(node_map(task, 50))
        # nothing runs on after the error, and at most T calls were ever in flight
        assert started == finished
        assert max(started) <= int(threads)

        started.clear()
        finished.clear()
        results = node_map(task, 50)
        assert next(results) == 0
        results.close()  # a consumer that stops early
        assert started == finished and max(started) <= int(threads)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tasks_run_under_the_callers_error_state(self, threads, monkeypatch):
        monkeypatch.setenv("MHDLAB_THREADS", threads)
        big = np.full(4, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert all(np.isinf(x).all() for x in node_map(lambda i: big * (i + 10), 3))
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                list(node_map(lambda i: big * (i + 10), 3))


class TestDifferentialOperators:
    def test_curl_single_mode(self, grid32):
        x1 = grid32.meshgrid()[0]
        u = VectorField(grid32, np.stack([0 * x1, np.sin(x1), 0 * x1]))
        c = curl(u)
        assert np.abs(c.values[2] - np.cos(x1)).max() <= 1e-12
        assert np.abs(c.values[:2]).max() <= 1e-12

    def test_curl_other_slot(self, grid32):
        x1 = grid32.meshgrid()[0]
        v = VectorField(grid32, np.stack([0 * x1, 0 * x1, np.sin(x1)]))
        c = curl(v)
        assert np.abs(c.values[1] + np.cos(x1)).max() <= 1e-12
        assert np.abs(c.values[[0, 2]]).max() <= 1e-12

    def test_curl_of_gradient_vanishes(self, grid32):
        x1, x2, _ = grid32.meshgrid()
        phi = ScalarField(grid32, np.sin(x1) * np.sin(x2))
        assert np.abs(curl(gradient(phi)).values).max() <= 1e-12
        for seed in range(5):
            phi = band_limited_scalar(grid32, seed)
            assert np.abs(curl(gradient(phi)).values).max() <= 1e-12

    def test_divergence_single_mode(self, grid32):
        x1 = grid32.meshgrid()[0]
        v = VectorField(grid32, np.stack([np.sin(x1), 0 * x1, 0 * x1]))
        assert np.abs(divergence(v).values - np.cos(x1)).max() <= 1e-12
        w = VectorField(grid32, np.stack([0 * x1, np.sin(x1), 0 * x1]))
        assert np.abs(divergence(w).values).max() <= 1e-12

    def test_divergence_of_curl_vanishes(self, grid32):
        for seed in range(5):
            v = band_limited_vector(grid32, seed)
            assert np.abs(divergence(curl(v)).values).max() <= 1e-12 * np.abs(v.values).max()


class TestLerayProjection:
    def test_fixes_solenoidal(self, grid32):
        x1 = grid32.meshgrid()[0]
        v = VectorField(grid32, np.stack([0 * x1, np.sin(x1), 0 * x1]))
        assert rel_max_err(project_div_free(v).values, v.values) <= 1e-12

    def test_annihilates_gradients(self, grid32):
        x1 = grid32.meshgrid()[0]
        g = gradient(ScalarField(grid32, np.sin(x1)))
        assert np.abs(project_div_free(g).values).max() <= 1e-12

    def test_projects_and_idempotent(self, grid32):
        for seed in range(10):
            v = band_limited_vector(grid32, 50 + seed)
            pv = project_div_free(v)
            scale = np.abs(pv.values).max()
            assert np.abs(divergence(pv).values).max() <= 1e-12 * scale
            assert rel_max_err(project_div_free(pv).values, pv.values) <= 1e-12


class TestDealias:
    def test_low_mode_untouched(self, grid32):
        x1 = grid32.meshgrid()[0]
        s = to_spectral(ScalarField(grid32, np.cos(x1)))
        assert rel_max_err(dealias(s).coefficients.real, s.coefficients.real) <= 1e-14

    def test_high_mode_zeroed(self, grid32):
        x1 = grid32.meshgrid()[0]
        s = to_spectral(ScalarField(grid32, np.cos(12 * x1)))
        assert np.abs(dealias(s).coefficients).max() <= 1e-14

    def test_idempotent(self, grid32):
        for seed in range(5):
            s = to_spectral(band_limited_scalar(grid32, seed, cutoff=grid32.n))
            once = dealias(s)
            twice = dealias(once)
            assert np.array_equal(once.coefficients, twice.coefficients)


class TestLpNorm:
    def test_constant(self, grid32):
        c = 0.37
        f = ScalarField(grid32, np.full((32,) * 3, c))
        assert abs(lp_norm(f, 1) - c * grid32.volume) <= 1e-12 * c * grid32.volume

    def test_sine_l2(self, grid32):
        x1 = grid32.meshgrid()[0]
        f = ScalarField(grid32, np.sin(x1))
        expected = math.sqrt(0.5 * (2 * math.pi) ** 3)
        assert abs(lp_norm(f, 2) - expected) <= 1e-12 * expected

    def test_sup_norm(self, grid32):
        x1 = grid32.meshgrid()[0]
        assert abs(lp_norm(ScalarField(grid32, np.sin(x1)), math.inf) - 1.0) <= 1e-12

    def test_vector_magnitude(self, grid32):
        x1 = grid32.meshgrid()[0]
        v = VectorField(grid32, np.stack([np.sin(x1), np.cos(x1), 0 * x1]))
        assert abs(lp_norm(v, math.inf) - 1.0) <= 1e-12

    def test_rejects_bad_exponent(self, grid32):
        f = band_limited_scalar(grid32, 0)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_huge_vector_field_norms_are_finite(self, grid16):
        # unscaled, the squared components and the p-th powers (p >= 2) of a
        # 1e160 field overflow to inf. At p = 1.5 and 3 the rounded root 1/p
        # costs up to about log(sum) ulps of the result (measured 2e-14 at
        # p = 1.5), so only the exponents with an exact root are held to 1e-15.
        # The Morrey norms' power sums of the 1e160 field overflow at p >= 2 too.
        # Unscaled, the p-th powers (p >= 2) of a 1e-170 field underflow to 0
        unit = solenoidal_vector(grid16, 0)
        lp_cases = ((1.0, 1e-15), (math.inf, 1e-15), (1.5, 1e-13), (2.0, 1e-15), (3.0, 1e-13))
        morrey_cases = {
            1e160: (
                (1.0, 0.0, 1e-15), (1.0, 1.0, 1e-15), (1.5, 1.0, 1e-13), (2.0, 0.0, 1e-15), (2.0, 1.0, 1e-15),
                (3.0, 2.0, 1e-13),
            ),
            1e-170: (
                (1.0, 0.0, 1e-15), (1.5, 1.0, 1e-13), (2.0, 0.0, 1e-15), (2.0, 1.0, 1e-15), (3.0, 2.0, 1e-13),
            ),
        }
        for scale, cases in morrey_cases.items():
            huge = VectorField(grid16, scale * unit.values)
            for p, tol in lp_cases:
                big = lp_norm(huge, p)
                assert math.isfinite(big) and abs(big - scale * lp_norm(unit, p)) <= tol * big
            for p, lam, tol in cases:
                big = morrey_norm(huge, MorreyParams(p, lam))
                want = scale * morrey_norm(unit, MorreyParams(p, lam))
                assert math.isfinite(big) and abs(big - want) <= tol * big


class TestFieldFile:
    def test_scalar_round_trip(self, grid32, tmp_path):
        f = band_limited_scalar(grid32, 1)
        path = tmp_path / "s.mhf"
        write_field(path, f)
        back = read_field(path)
        assert isinstance(back, ScalarField)
        assert back.grid == grid32
        assert np.array_equal(back.values, f.values)

    def test_vector_round_trip(self, grid32, tmp_path):
        v = solenoidal_vector(grid32, 2)
        path = tmp_path / "v.mhf"
        write_field(path, v)
        back = read_field(path)
        assert isinstance(back, VectorField)
        assert np.array_equal(back.values, v.values)

    def test_x1_fastest_in_file(self, tmp_path):
        # f depends on x1 only: consecutive payload doubles must vary
        g = make_grid(8, 1.0)
        x1 = g.meshgrid()[0]
        write_field(tmp_path / "f.mhf", ScalarField(g, x1))
        raw = (tmp_path / "f.mhf").read_bytes()
        first = np.frombuffer(raw, dtype="<f8", offset=32, count=8)
        assert np.array_equal(first, np.arange(8) * g.spacing)

    def test_rejects_bad_magic(self, grid32, tmp_path):
        path = tmp_path / "bad.mhf"
        write_field(path, band_limited_scalar(grid32, 0))
        raw = bytearray(path.read_bytes())
        raw[0] = 0x58
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_field(path)

    def test_rejects_mismatched_length(self, grid32, tmp_path):
        path = tmp_path / "short.mhf"
        write_field(path, band_limited_scalar(grid32, 0))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError, match="length mismatch"):
            read_field(path)

    def test_rejects_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.mhf"
        path.write_bytes(b"MHF1")
        with pytest.raises(ValueError, match="truncated"):
            read_field(path)


def test_dealias_field_matches_spectral_path(grid32):
    f = band_limited_scalar(grid32, 9, cutoff=grid32.n)
    via_full = inv_full(np.where(tables_full(grid32)["keep"], fwd_full(f.values), 0.0))
    assert rel_max_err(dealias_field(f).values, via_full) <= 1e-13
