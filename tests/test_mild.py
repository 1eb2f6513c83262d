"""Nonlinear terms, Duhamel quadrature, fixed-point sweeps, and the time stepper."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mhdlab.fields import (
    ScalarField,
    VectorField,
    _cube_inv,
    _cube_tables,
    _fwd,
    _to_cube,
    curl,
    divergence,
    lp_norm,
    make_grid,
)
from mhdlab.initial_data import generate_initial_data
from mhdlab.kernels import _biot_savart_hat, biot_savart, heat_propagate
from mhdlab.mild import (
    DivergenceError,
    MhdTrace,
    TimeMesh,
    _flux_hat,
    _forcing_hats,
    _source_hat,
    current_source,
    duhamel_integral,
    heat_flow_trace,
    max_retained_k2,
    mild_residual,
    picard_sweep,
    reference_timestepper,
    run_picard,
    stretching_form,
    trace_distance,
    vorticity_flux,
    weak_star_check,
)
from mhdlab.morrey import BallSampling, weighted_seminorms

from .conftest import rel_max_err, solenoidal_vector
from .oracles import duhamel_direct


def _zero(grid):
    return VectorField(grid, np.zeros((3,) + (grid.n,) * 3))


def _canonical_data(grid):
    return generate_initial_data(
        {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3, "amplitude": 1e-3},
        grid,
    )


def _coupled_data(grid, amplitude=1e-3):
    return generate_initial_data(
        {
            "omega": {
                "family": "single_mode",
                "wavevector": [1, 0, 0],
                "component": 3,
                "amplitude": amplitude,
            },
            "j": {
                "family": "single_mode",
                "wavevector": [0, 0, 1],
                "component": 2,
                "amplitude": amplitude,
            },
        },
        grid,
    )


class TestTimeMesh:
    def test_uniform(self):
        mesh = TimeMesh.uniform(1.0, 17)
        assert len(mesh.nodes) == 17
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0

    def test_graded_concentrates_early(self):
        mesh = TimeMesh.graded(1.0, 9, ratio=1.5)
        steps = np.diff(mesh.nodes)
        assert np.all(np.diff(steps) > 0)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == pytest.approx(1.0, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeMesh((0.0, 1.0))  # too few nodes
        with pytest.raises(ValueError):
            TimeMesh((0.1, 0.2, 0.3))  # must start at zero
        with pytest.raises(ValueError):
            TimeMesh((0.0, 0.2, 0.2))  # strictly increasing

    def test_node_lookup(self):
        mesh = TimeMesh.uniform(1.0, 5)
        assert mesh.node_index(0.5) == 2
        with pytest.raises(ValueError, match="not a mesh node"):
            mesh.node_index(0.37)


class TestNonlinearTerms:
    def test_hydrodynamic_reduction_matches_gradient_form(self, grid32):
        # with no magnetic part the divergence form is the transport-stretching
        # difference, evaluated here through the independent gradient-form path
        x1 = grid32.meshgrid()[0]
        u = VectorField(grid32, np.stack([0 * x1, np.sin(x1), 0 * x1]))
        from mhdlab.fields import curl

        w = curl(u)
        z = _zero(grid32)
        flux = vorticity_flux(u, w, z, z)
        grad_form = stretching_form(u, w, z, z)
        scale = max(np.abs(flux.values).max(), 1e-300)
        assert np.abs(flux.values - grad_form.values).max() <= 1e-10 * scale

    def test_zero_inputs(self, grid32):
        z = _zero(grid32)
        assert np.abs(vorticity_flux(z, z, z, z).values).max() == 0.0
        assert np.abs(stretching_form(z, z, z, z).values).max() == 0.0

    def test_flux_is_divergence_free(self, grid32):
        for seed in range(5):
            u, w, b, j = (solenoidal_vector(grid32, 400 + 10 * seed + i) for i in range(4))
            flux = vorticity_flux(u, w, b, j)
            assert np.abs(divergence(flux).values).max() <= 1e-10 * np.abs(flux.values).max()

    def test_flux_equals_stretching_on_solenoidal(self, grid32):
        for seed in range(5):
            u, w, b, j = (solenoidal_vector(grid32, 500 + 10 * seed + i) for i in range(4))
            flux = vorticity_flux(u, w, b, j)
            st = stretching_form(u, w, b, j)
            assert rel_max_err(flux.values, st.values) <= 1e-10

    def test_grid_mismatch(self, grid32, grid16):
        z32, z16 = _zero(grid32), _zero(grid16)
        with pytest.raises(ValueError, match="different grids"):
            vorticity_flux(z32, z16, z32, z32)
        with pytest.raises(ValueError, match="different grids"):
            current_source(z32, z16)


class TestCurrentSource:
    def test_equal_fields_cancel(self, grid32):
        u = solenoidal_vector(grid32, 7)
        assert np.abs(current_source(u, u).values).max() == 0.0

    def test_zero_magnetic(self, grid32):
        u = solenoidal_vector(grid32, 8)
        assert np.abs(current_source(u, _zero(grid32)).values).max() == 0.0

    def test_double_curl_identity(self, grid32):
        # (u.grad)b - (b.grad)u = -curl(u x b) for solenoidal pairs: the
        # double-curl source must match the curl of the gradient form
        z = _zero(grid32)
        for seed in range(3):
            u = solenoidal_vector(grid32, 600 + seed)
            b = solenoidal_vector(grid32, 700 + seed)
            src = current_source(u, b)
            grad_form = curl(stretching_form(u, b, z, z))
            assert rel_max_err(src.values, grad_form.values) <= 1e-10

    def test_stretching_self_cancellation(self, grid32):
        u = solenoidal_vector(grid32, 9)
        z = _zero(grid32)
        out = stretching_form(u, u, z, z)
        assert np.abs(out.values).max() <= 1e-14 * np.abs(u.values).max()


class TestElsasserForcing:
    """The sweep's kernel ``_forcing_hats`` (Elsasser form) against the ``u, w, b, j`` form."""

    @staticmethod
    def _cubes(grid, seeds=(21, 22), amplitude=0.5):
        # cutoff n fills the whole 2/3-rule cube
        spec = {
            key: {"family": "random_divfree", "seed": seed, "cutoff": grid.n, "amplitude": amplitude}
            for key, seed in zip(("omega", "j"), seeds)
        }
        return [_to_cube(_fwd(v.values)) for v in generate_initial_data(spec, grid)]

    @staticmethod
    def _uwbj_form(wh, jh, grid):
        tab = _cube_tables(grid)
        cubes = (_biot_savart_hat(wh, tab), wh, _biot_savart_hat(jh, tab), jh)
        u, w, b, j = (_cube_inv(h, grid.n) for h in cubes)
        return _flux_hat(u, w, b, j, grid), _source_hat(u, b, grid)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_the_uwbj_form(self, n):
        # the round-off of the products' spectra is multiplied by |k| (flux)
        # and |k|^2 (source), so the difference grows like n^2: measured
        # 5.7e-16, 1.3e-15, 4.5e-15 and 2.4e-14 of the largest coefficient at
        # n = 8, 16, 32 and 64, and at most 1.1e-17 n^2 over four seed pairs
        grid = make_grid(n, 2 * math.pi)
        wh, jh = self._cubes(grid)
        for want, got in zip(self._uwbj_form(wh, jh, grid), _forcing_hats(wh, jh, grid)):
            assert rel_max_err(got, want) <= 3e-17 * n**2

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_alfvenic_data_have_zero_forcing(self, grid16, sign):
        # omega_0 = +-j_0 makes one Elsasser field zero, so every product
        # z-_r z+_k is zero and the forcing vanishes exactly: the first sweep
        # returns the heat flow bit for bit, even for large data
        spec = {"family": "random_divfree", "seed": 1, "cutoff": 4, "amplitude": 20.0}
        w0, _ = generate_initial_data(spec, grid16)
        j0 = VectorField(grid16, sign * w0.values)
        wh, jh = _to_cube(_fwd(w0.values)), _to_cube(_fwd(j0.values))
        for hat in _forcing_hats(wh, jh, grid16):
            assert not np.any(hat)
        _, report = run_picard(w0, j0, TimeMesh.uniform(1.0, 17), report_seminorms=False)
        assert report.stop == "converged" and report.deltas == (0.0,)

    def test_working_set_is_under_16_physical_arrays(self, grid32):
        # z+- (six arrays), one row of products (three) and its transforms:
        # 15.75 arrays of n^3 doubles measured; the u, w, b, j form took 21.8
        wh, jh = self._cubes(grid32)
        _forcing_hats(wh, jh, grid32)  # transform plans and tables are made once
        tracemalloc.start()
        try:
            _forcing_hats(wh, jh, grid32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * grid32.n**3 * 8


class TestDuhamel:
    def test_constant_forcing_closed_form(self):
        g = make_grid(8, 2 * math.pi)
        x1 = g.meshgrid()[0]
        mesh = TimeMesh.uniform(1.0, 17)
        forcing = [VectorField(g, np.stack([0 * x1, 0 * x1, np.sin(x1)]))] * 17
        out = duhamel_integral(forcing, mesh, 1.0)
        expected = (1 - math.exp(-1)) * np.sin(x1)
        assert np.abs(out.values[2] - expected).max() <= 1e-6
        assert np.abs(out.values[:2]).max() <= 1e-12

    def test_zero_forcing(self):
        g = make_grid(8, 2 * math.pi)
        mesh = TimeMesh.uniform(1.0, 5)
        out = duhamel_integral([_zero(g)] * 5, mesh, 1.0)
        assert np.abs(out.values).max() == 0.0

    def test_resonant_decay_closed_form(self):
        # forcing exp(-s) on the |k| = 1 mode accumulates to t exp(-t)
        g = make_grid(8, 2 * math.pi)
        x1 = g.meshgrid()[0]
        mesh = TimeMesh.uniform(1.0, 401)
        forcing = [
            VectorField(g, np.stack([0 * x1, 0 * x1, math.exp(-s) * np.sin(x1)]))
            for s in mesh.nodes
        ]
        out = duhamel_integral(forcing, mesh, 1.0)
        expected = 1.0 * math.exp(-1) * np.sin(x1)
        assert np.abs(out.values[2] - expected).max() <= 1e-6

    @pytest.mark.parametrize(
        "mesh", [TimeMesh.uniform(0.5, 9), TimeMesh.graded(1.0, 9)], ids=["uniform", "graded"]
    )
    def test_recursion_matches_direct_sum(self, grid16, mesh):
        # time-varying solenoidal forcing, every node of the mesh
        forcing = [solenoidal_vector(grid16, 800 + m) for m in range(len(mesh.nodes))]
        for t in mesh.nodes[1:]:
            fast = duhamel_integral(forcing, mesh, t).values
            assert rel_max_err(fast, duhamel_direct(forcing, mesh, t)) <= 1e-13

    def test_rejects_non_node_time(self):
        g = make_grid(8, 2 * math.pi)
        mesh = TimeMesh.uniform(1.0, 5)
        with pytest.raises(ValueError, match="not a mesh node"):
            duhamel_integral([_zero(g)] * 5, mesh, 0.42)

    def test_rejects_missing_forcing(self):
        g = make_grid(8, 2 * math.pi)
        mesh = TimeMesh.uniform(1.0, 5)
        assert np.abs(duhamel_integral([_zero(g)] * 3, mesh, 0.5).values).max() == 0.0
        with pytest.raises(ValueError, match="need a forcing at every node"):
            duhamel_integral([_zero(g)] * 3, mesh, 0.75)


class TestPicardSweep:
    def test_distance_is_the_physical_l2_distance(self, grid16):
        spec = {
            "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 0.5},
            "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": 0.5},
        }
        w0, j0 = generate_initial_data(spec, grid16)
        a = heat_flow_trace(w0, j0, TimeMesh.uniform(0.2, 5))
        b = picard_sweep(a)
        riemann = max(
            lp_norm(VectorField(grid16, wa.values - wb.values), 2)
            + lp_norm(VectorField(grid16, ja.values - jb.values), 2)
            for wa, wb, ja, jb in zip(a.omega, b.omega, a.current, b.current)
        )
        assert riemann > 0
        assert trace_distance(b, a) == pytest.approx(riemann, rel=1e-13)

    def test_zero_data_fixed_point(self, grid32):
        z = _zero(grid32)
        mesh = TimeMesh.uniform(1.0, 5)
        trace = heat_flow_trace(z, z, mesh)
        new = picard_sweep(trace)
        assert trace_distance(new, trace) == 0.0

    def test_hydrodynamic_reduction_is_exact(self, grid32):
        # zero initial current: magnetic fields stay bitwise zero
        w0, j0 = _canonical_data(grid32)
        mesh = TimeMesh.uniform(1.0, 9)
        trace = heat_flow_trace(w0, j0, mesh)
        for _ in range(2):
            trace = picard_sweep(trace)
            assert all(np.abs(j.values).max() == 0.0 for j in trace.current)
            assert not np.any(trace.spectra[1])  # so b = biot_savart(j) is zero too

    def test_node_zero_holds_the_datum_spectra(self, grid32):
        # a sweep reads its initial data from node 0, so every trace must hold them there exactly
        w0, j0 = _coupled_data(grid32, amplitude=1e-2)
        mesh = TimeMesh.uniform(0.02, 3)
        heat = heat_flow_trace(w0, j0, mesh)
        oracle = reference_timestepper(w0, j0, mesh, dt=1.0 / max_retained_k2(grid32))
        for trace in (heat, picard_sweep(heat), oracle):
            assert np.array_equal(trace.spectra[0, 0], _to_cube(_fwd(w0.values)))
            assert np.array_equal(trace.spectra[1, 0], _to_cube(_fwd(j0.values)))

    @staticmethod
    def _check_first_sweep(grid, mesh):
        w0, j0 = _coupled_data(grid, amplitude=1e-2)
        trace0 = heat_flow_trace(w0, j0, mesh)
        swept = picard_sweep(trace0)
        z = _zero(grid)
        omega0, current0 = trace0.omega, trace0.current
        velocity0 = [biot_savart(w) for w in omega0]
        magnetic0 = [biot_savart(j) for j in current0]
        flux = [vorticity_flux(u, w, b, j) for u, w, b, j in zip(velocity0, omega0, magnetic0, current0)]
        # gradient-form source and the direct quadrature: independent of the sweep's paths
        src = [curl(stretching_form(u, b, z, z)) for u, b in zip(velocity0, magnetic0)]
        omega, current = swept.omega, swept.current
        for m, t in enumerate(mesh.nodes):
            expected_w = heat_propagate(w0, t).values
            expected_j = heat_propagate(j0, t).values
            if m > 0:
                expected_w = expected_w - duhamel_direct(flux, mesh, t)
                expected_j = expected_j - duhamel_direct(src, mesh, t)
            assert rel_max_err(omega[m].values, expected_w) <= 1e-12
            assert rel_max_err(current[m].values, expected_j) <= 1e-12
            assert rel_max_err(curl(biot_savart(omega[m])).values, omega[m].values) <= 1e-12

    def test_first_sweep_matches_hand_assembly(self, grid32):
        self._check_first_sweep(grid32, TimeMesh.uniform(0.5, 9))

    def test_first_sweep_matches_hand_assembly_graded(self, grid32):
        self._check_first_sweep(grid32, TimeMesh.graded(0.5, 9))

    def test_magnetic_only_first_sweep(self, grid32):
        # zero vorticity start: no velocity, so the current evolves by pure
        # heat flow on the first sweep while the vorticity picks up forcing
        _, j0 = generate_initial_data(
            {
                "omega": {"family": "zero"},
                "j": {"family": "random_divfree", "seed": 21, "cutoff": 4, "amplitude": 1e-2},
            },
            grid32,
        )
        w0 = _zero(grid32)
        mesh = TimeMesh.uniform(0.5, 9)
        trace0 = heat_flow_trace(w0, j0, mesh)
        assert not np.any(trace0.spectra[0])  # so u = biot_savart(w) is zero too
        swept = picard_sweep(trace0)
        for t, j in zip(mesh.nodes, swept.current):
            expected = heat_propagate(j0, t).values
            assert rel_max_err(j.values, expected) <= 1e-12
        assert any(np.abs(w.values).max() > 0 for w in swept.omega[1:])


class TestRunPicard:
    def test_canonical_small_datum(self, grid32):
        w0, j0 = _canonical_data(grid32)
        trace, report = run_picard(
            w0, j0, TimeMesh.uniform(1.0, 17), tol=1e-8, max_sweeps=50, report_seminorms=False
        )
        assert report.converged
        assert report.sweep_count <= 10
        deltas = report.deltas
        for a, b in zip(deltas[1:], deltas[2:]):
            if a > 0:
                assert b / a <= 0.1
        assert all(np.abs(j.values).max() == 0.0 for j in trace.current)

    def test_zero_data_converges_immediately(self, grid32):
        z = _zero(grid32)
        trace, report = run_picard(
            z, z, TimeMesh.uniform(1.0, 5), tol=1e-8, report_seminorms=False
        )
        assert report.converged and report.sweep_count == 1
        assert all(np.abs(w.values).max() == 0.0 for w in trace.omega)

    def test_converged_trace_has_small_residual(self, grid32):
        w0, j0 = _coupled_data(grid32)
        mesh = TimeMesh.uniform(1.0, 17)
        trace, report = run_picard(w0, j0, mesh, tol=1e-10, report_seminorms=False)
        assert report.converged
        assert mild_residual(trace) <= 2e-10

    def test_report_carries_seminorms(self, grid32):
        w0, j0 = _canonical_data(grid32)
        _, report = run_picard(w0, j0, TimeMesh.uniform(1.0, 5), tol=1e-8)
        assert report.sweeps[0].seminorms is not None
        assert report.sweeps[0].seminorms.w0 > 0

    def test_rejects_bad_tolerance(self, grid32):
        z = _zero(grid32)
        with pytest.raises(ValueError):
            run_picard(z, z, TimeMesh.uniform(1.0, 5), tol=0.0)

    def test_schedule_independence(self, grid32):
        # uniform and graded meshes must converge to the same trajectory;
        # the gap at the shared final node is the quadrature error of the
        # coarser schedule (the graded mesh's last step spans ~1/3 of the
        # horizon), measured at 6.1e-6 relative on the current
        w0, j0 = _coupled_data(grid32)
        final = {}
        for mesh in (TimeMesh.uniform(1.0, 17), TimeMesh.graded(1.0, 17)):
            trace, report = run_picard(w0, j0, mesh, tol=1e-12, report_seminorms=False)
            assert report.converged
            final[mesh.nodes[1]] = trace
        a, b = final.values()
        for field in ("omega", "current"):
            fa = getattr(a, field)[-1]
            fb = getattr(b, field)[-1]
            rel = lp_norm(VectorField(grid32, fa.values - fb.values), 2) / lp_norm(fa, 2)
            assert rel <= 2e-5

    @staticmethod
    def _amplitude_data(amplitude, seeds=(11, 12)):
        spec = {
            key: {"family": "random_divfree", "seed": seed, "cutoff": 4, "amplitude": amplitude}
            for key, seed in zip(("omega", "j"), seeds)
        }
        return generate_initial_data(spec, make_grid(16, 2 * math.pi))

    def test_divergence_keeps_last_finite_trace(self):
        # at amplitude 30 the deltas grow from the first sweep on (ratios 4.3,
        # 14.4, 155, ...; unchecked, the iterates overflow in sweep 10), so the
        # run stops at the second growing sweep with sweep 3's trace
        w0, j0 = self._amplitude_data(30.0)
        mesh = TimeMesh.uniform(1.0, 9)
        trace, report = run_picard(w0, j0, mesh, tol=1e-14, max_sweeps=20)
        assert report.stop == "not_contracting" and not report.converged
        assert report.sweep_count == 3
        assert all(math.isfinite(d) for d in report.deltas)
        ratios = [s.ratio for s in report.sweeps]
        assert ratios[0] is None
        assert ratios[1:] == pytest.approx([4.32, 14.4], rel=2e-3)
        assert ratios[1:] == [b / a for a, b in zip(report.deltas, report.deltas[1:])]
        assert all(s.error_bound is None for s in report.sweeps)
        assert report.reason == "stopped contracting in sweep 3 (delta ratios 4.32, 14.4)"
        expected = heat_flow_trace(w0, j0, mesh)
        for _ in range(3):
            expected = picard_sweep(expected)
        assert np.array_equal(trace.spectra, expected.spectra)

    def test_overflow_keeps_first_sweep_trace(self):
        # at amplitude 1e50 the first sweep's delta is about 7e99 and the
        # second sweep's distance overflows
        w0, j0 = self._amplitude_data(1e50)
        mesh = TimeMesh.uniform(1.0, 9)
        trace, report = run_picard(w0, j0, mesh, tol=1e-14, max_sweeps=20)
        assert report.stop == "overflow" and not report.converged
        assert report.sweep_count == 2 and math.isfinite(report.deltas[0]) and report.deltas[1] == math.inf
        last = report.sweeps[-1]
        assert last.ratio == math.inf and last.error_bound is None and last.seminorms is None
        assert report.reason == "iterates overflowed in sweep 2"
        assert np.array_equal(trace.spectra, picard_sweep(heat_flow_trace(w0, j0, mesh)).spectra)

    @pytest.mark.parametrize("seeds", [(1002, 1003), (1010, 1011)])
    def test_slow_contraction_runs_the_whole_budget(self, seeds):
        # amplitude 7 contracts with ratios 0.56-0.78: too slowly for 1e-14 in
        # 20 sweeps, but never twice growing, so the budget ends the run
        w0, j0 = self._amplitude_data(7.0, seeds)
        _, report = run_picard(
            w0, j0, TimeMesh.uniform(1.0, 9), tol=1e-14, max_sweeps=20, report_seminorms=False
        )
        assert report.stop == "budget" and report.sweep_count == 20
        ratios = [s.ratio for s in report.sweeps[1:]]
        assert all(0.5 < r < 0.8 for r in ratios)
        for s in report.sweeps[1:]:
            assert s.error_bound == s.delta * s.ratio / (1.0 - s.ratio)
        assert report.reason.startswith("did not contract to 1e-14 within 20 sweeps")

    def test_round_off_floor_stops_the_run(self):
        # a tolerance below round-off: the deltas fall to about 1e-18, then
        # wander, and the run stops once they grow twice in a row
        w0, j0 = self._amplitude_data(0.05, (1, 2))
        _, report = run_picard(
            w0, j0, TimeMesh.uniform(1.0, 9), tol=1e-300, max_sweeps=50, report_seminorms=False
        )
        assert report.stop == "not_contracting" and report.sweep_count < 50
        assert max(report.deltas[-3:]) < 1e-16
        assert report.sweeps[-2].ratio >= 1.0 and report.sweeps[-1].ratio >= 1.0
        assert all(a.ratio < 1.0 or b.ratio < 1.0 for a, b in zip(report.sweeps[1:-2], report.sweeps[2:-1]))

    def test_seminorm_overflow_is_divergence(self, grid16):
        # a shear flow: the nonlinear terms vanish, so the sweep and the
        # distance stay finite while the gradient seminorms overflow
        x1 = grid16.meshgrid()[0]
        zero = np.zeros_like(x1)
        w0 = VectorField(grid16, 6e152 * np.stack([zero, -5 * np.cos(5 * x1), zero]))
        j0 = VectorField(grid16, np.zeros((3, 16, 16, 16)))
        trace, report = run_picard(w0, j0, TimeMesh.uniform(0.5, 3), p=1.9, q=2.0)
        assert report.stop == "overflow" and not report.converged
        assert report.deltas == (math.inf,) and report.sweeps[0].seminorms is None
        assert all(np.isfinite(w.values).all() for w in trace.omega)

    def test_sweep_errors_are_not_divergence(self, grid32, monkeypatch):
        import mhdlab.mild as mild

        w0, j0 = _coupled_data(grid32)
        mesh = TimeMesh.uniform(0.5, 3)

        def broken(*_args):
            raise ValueError("a bug, not a divergence")

        # the functions run_picard calls: node 0's forcing and norms, once, and every sweep
        for name in ("_forcing_hats", "_sweep", "_datum_norms", "_weighted_seminorms"):
            with monkeypatch.context() as patch:
                patch.setattr(mild, name, broken)
                with pytest.raises(ValueError, match="a bug"):
                    run_picard(w0, j0, mesh)

    @pytest.mark.parametrize("graded", [False, True])
    def test_node_zero_is_computed_once_per_run(self, grid16, monkeypatch, graded):
        # node 0 of every iterate is the datum, so a run forms its forcing and
        # its two seminorm node norms in the first sweep only, and the public
        # sweep and seminorms, which form them each time, give the same bits
        import mhdlab.mild as mild
        import mhdlab.morrey as morrey

        spec = {
            "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 0.5},
            "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": 0.5},
        }
        w0, j0 = generate_initial_data(spec, grid16)
        mesh = TimeMesh.graded(0.2, 6) if graded else TimeMesh.uniform(0.2, 6)
        calls = {"_forcing_hats": [], "_node_norms": []}
        for module, name in ((mild, "_forcing_hats"), (morrey, "_node_norms")):
            def counted(*args, _fn=getattr(module, name), _log=calls[name]):
                _log.append(1)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        runs = []
        for sweeps in (1, 2, 3):
            for log in calls.values():
                log.clear()
            runs.append(run_picard(w0, j0, mesh, tol=1e-14, max_sweeps=sweeps))
            assert runs[-1][1].stop == "budget"
            assert len(calls["_forcing_hats"]) == 1 + sweeps * (6 - 1)
            assert len(calls["_node_norms"]) == 2 + 2 * sweeps * (6 - 1)
        traces = [heat_flow_trace(w0, j0, mesh)] + [trace for trace, _ in runs]
        for before, after, (_, report) in zip(traces, traces[1:], runs):
            assert np.array_equal(picard_sweep(before).spectra, after.spectra)
            assert weighted_seminorms(after, 1.5, 1.0) == report.sweeps[-1].seminorms

    def test_grid_mismatch_propagates(self, grid32, grid16):
        w0, _ = _coupled_data(grid32)
        _, j0 = _coupled_data(grid16)
        with pytest.raises(ValueError, match="different grids"):
            run_picard(w0, j0, TimeMesh.uniform(0.5, 3))

    def test_large_data_reports_nonconvergence(self, grid32):
        spec = {
            "omega": {"family": "random_divfree", "seed": 5, "cutoff": 6, "amplitude": 1.0},
            "j": {"family": "random_divfree", "seed": 6, "cutoff": 6, "amplitude": 1.0},
        }
        w0, j0 = generate_initial_data(spec, grid32)
        _, report = run_picard(
            w0, j0, TimeMesh.uniform(1.0, 9), tol=1e-12, max_sweeps=3, report_seminorms=False
        )
        assert report.stop == "budget" and not report.converged
        assert report.sweep_count == 3


class TestReferenceTimestepper:
    def test_linear_regime_matches_heat_flow(self, grid16):
        # the shear datum's nonlinear terms vanish; n = 16 holds it exactly
        w0, j0 = _canonical_data(grid16)
        mesh = TimeMesh.uniform(1.0, 5)
        dt = 1.0 / max_retained_k2(grid16)
        trace = reference_timestepper(w0, j0, mesh, dt=dt)
        for t, w in zip(mesh.nodes, trace.omega):
            expected = heat_propagate(w0, t)
            assert rel_max_err(w.values, expected.values) <= 1e-10

    def test_rejects_unresolved_dt(self, grid32):
        w0, j0 = _canonical_data(grid32)
        with pytest.raises(ValueError, match="fastest retained mode"):
            reference_timestepper(w0, j0, TimeMesh.uniform(1.0, 5), dt=1.0)

    def test_agrees_with_picard_on_coupled_data(self, grid32):
        w0, j0 = _coupled_data(grid32)
        mesh = TimeMesh.uniform(0.5, 17)
        trace, report = run_picard(w0, j0, mesh, tol=1e-12, report_seminorms=False)
        assert report.converged
        stepped = reference_timestepper(w0, j0, mesh, dt=1.0 / max_retained_k2(grid32))
        for field in ("omega", "current"):
            a = getattr(trace, field)[-1]
            b = getattr(stepped, field)[-1]
            rel = lp_norm(VectorField(grid32, a.values - b.values), 2) / lp_norm(a, 2)
            assert rel <= 1e-4

    def test_second_order_convergence(self, grid32):
        spec = {
            "omega": {"family": "random_divfree", "seed": 11, "cutoff": 4, "amplitude": 0.5},
            "j": {"family": "random_divfree", "seed": 12, "cutoff": 4, "amplitude": 0.5},
        }
        w0, j0 = generate_initial_data(spec, grid32)
        mesh = TimeMesh.uniform(0.1, 3)
        dt = 1.0 / max_retained_k2(grid32)
        ref = reference_timestepper(w0, j0, mesh, dt=dt / 8)
        errs = []
        for factor in (1.0, 0.5):
            ts = reference_timestepper(w0, j0, mesh, dt=dt * factor)
            errs.append(
                lp_norm(VectorField(grid32, ts.omega[-1].values - ref.omega[-1].values), 2)
            )
        assert 3.0 <= errs[0] / errs[1] <= 5.5

    def test_unstable_step_aborts(self, grid32):
        spec = {"family": "random_divfree", "seed": 11, "cutoff": 4, "amplitude": 1000.0}
        w0, _ = generate_initial_data(spec, grid32)
        j0 = _zero(grid32)
        with pytest.raises(RuntimeError, match="unstable"):
            reference_timestepper(
                w0, j0, TimeMesh.uniform(0.5, 3), dt=1.0 / max_retained_k2(grid32)
            )


class TestThreadInvariance:
    """Results must not depend on the thread count of the node map (``MHDLAB_THREADS``)."""

    THREADS = ("1", "2", "3")

    @staticmethod
    def _arrays(trace):
        return [trace.spectra] + [f.values for f in trace.omega + trace.current]

    def test_picard_and_stepper_bitwise_equal_for_1_2_and_3_threads(self, grid16, monkeypatch):
        spec = {
            "omega": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 0.5},
            "j": {"family": "random_divfree", "seed": 4, "cutoff": 4, "amplitude": 0.5},
        }
        w0, j0 = generate_initial_data(spec, grid16)
        mesh = TimeMesh.uniform(0.2, 5)
        # a zero scaling exponent adds the whole-box candidate; stride 1 and two
        # radii per octave take every center and more radii
        fine = BallSampling(stride=1, radii_per_octave=2)
        runs = []
        for threads in self.THREADS:
            monkeypatch.setenv("MHDLAB_THREADS", threads)
            trace, report = run_picard(w0, j0, mesh, tol=1e-12)
            stepped = reference_timestepper(w0, j0, TimeMesh.uniform(0.02, 3), dt=0.01)
            extra = weighted_seminorms(trace, 1.6, 0.0, fine)
            # the views are formed here, under this thread count
            runs.append((report, extra, self._arrays(trace) + self._arrays(stepped)))
        ra, ea, xa = runs[0]
        assert ra.sweep_count > 1 and all(math.isfinite(v) and v > 0 for v in ea.as_dict().values())
        assert len(xa) == 2 + 2 * (5 + 3)
        for rb, eb, xb in runs[1:]:
            assert ra.deltas == rb.deltas
            assert [s.seminorms for s in ra.sweeps] == [s.seminorms for s in rb.sweeps]
            assert ea == eb
            assert len(xb) == len(xa)
            for x, y in zip(xa, xb):
                assert np.array_equal(x, y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude", [30.0, 1e100])
    def test_diverging_run_bitwise_equal_for_1_2_and_3_threads(self, grid16, monkeypatch, amplitude):
        # amplitude 30 grows in every sweep and stops after the third; at 1e100
        # the first sweep's seminorms overflow on the pool threads, which must
        # run under run_picard's error state, or the overflow raises here as a
        # RuntimeWarning instead of ending the run with delta = inf
        spec = {
            "omega": {"family": "random_divfree", "seed": 11, "cutoff": 4, "amplitude": amplitude},
            "j": {"family": "random_divfree", "seed": 12, "cutoff": 4, "amplitude": amplitude},
        }
        w0, j0 = generate_initial_data(spec, grid16)
        runs = []
        for threads in self.THREADS:
            monkeypatch.setenv("MHDLAB_THREADS", threads)
            runs.append(run_picard(w0, j0, TimeMesh.uniform(1.0, 9), tol=1e-14, max_sweeps=20))
        trace_a, report_a = runs[0]
        stop, sweeps = {30.0: ("not_contracting", 3), 1e100: ("overflow", 1)}[amplitude]
        assert report_a.stop == stop and report_a.sweep_count == sweeps
        assert all(math.isfinite(d) for d in report_a.deltas) == (stop == "not_contracting")
        for trace_b, report_b in runs[1:]:
            assert report_b == report_a
            assert np.array_equal(trace_b.spectra, trace_a.spectra)


class TestWeakStar:
    def test_pure_heat_closed_form(self, grid32):
        w0, j0 = _canonical_data(grid32)
        mesh = TimeMesh.graded(1.0, 9)
        trace = heat_flow_trace(w0, j0, mesh)
        x1 = grid32.meshgrid()[0]
        phi = ScalarField(grid32, np.cos(x1))
        table = weak_star_check(trace, phi, component=2)
        g0 = table.values[0]
        for t, gt in zip(table.times, table.values):
            assert abs(gt - math.exp(-t) * g0) <= 1e-10 * abs(g0)

    def test_orthogonal_test_function(self, grid32):
        w0, j0 = _canonical_data(grid32)
        trace = heat_flow_trace(w0, j0, TimeMesh.uniform(1.0, 5))
        x2 = grid32.meshgrid()[1]
        phi = ScalarField(grid32, np.sin(x2))
        table = weak_star_check(trace, phi, component=2)
        assert max(abs(v) for v in table.values) <= 1e-14

    def test_converged_trace_deviation_bound(self, grid32):
        # measured once on the coupled small datum: |g(t1) - g(0)| / t1 is about
        # 0.123 for the aligned test function; pinned with headroom
        w0, j0 = _coupled_data(grid32)
        x1 = grid32.meshgrid()[0]
        phi = ScalarField(grid32, np.cos(x1))
        t1 = 0.02
        trace, report = run_picard(
            w0, j0, TimeMesh((0.0, t1, 0.1, 0.4, 1.0)), tol=1e-10, report_seminorms=False
        )
        assert report.converged
        dev = weak_star_check(trace, phi, component=2).deviations[1]
        assert dev <= 0.13 * t1

    def test_deviation_shrinks_with_first_node(self, grid32):
        w0, j0 = _coupled_data(grid32)
        x1 = grid32.meshgrid()[0]
        phi = ScalarField(grid32, np.cos(x1))
        devs = []
        for first in (0.02, 0.01):
            nodes = (0.0, first, 0.1, 0.4, 1.0)
            trace, report = run_picard(
                w0, j0, TimeMesh(nodes), tol=1e-10, report_seminorms=False
            )
            assert report.converged
            devs.append(weak_star_check(trace, phi, component=2).deviations[1])
        assert devs[1] < devs[0]

    def test_peak_memory_does_not_grow_with_the_node_count(self, grid32):
        # the pairings are formed one node at a time: at n = 32 a node's
        # vorticity takes 0.75 MB.  A table built from every node's at once
        # peaked at 2.9 MB for M = 3 and 7.6 MB for M = 9; this one peaks at
        # 1.33 MB for both, under a margin of 64 kB
        x1 = grid32.meshgrid()[0]
        phi = ScalarField(grid32, np.cos(x1))
        h3 = grid32.spacing**3
        peaks = []
        for num_nodes in (3, 9):
            trace = heat_flow_trace(*_coupled_data(grid32, amplitude=0.5), TimeMesh.uniform(0.5, num_nodes))
            tracemalloc.start()
            try:
                table = weak_star_check(trace, phi, component=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            assert table.values == tuple(h3 * float(np.sum(w.values[1] * phi.values)) for w in trace.omega)
        assert peaks[1] <= peaks[0] + 64 * 2**10


class TestTraceValidation:
    def test_validate_passes_on_built_trace(self, grid32):
        w0, j0 = _coupled_data(grid32)
        trace = heat_flow_trace(w0, j0, TimeMesh.uniform(0.5, 5))
        trace.validate()

    def test_validate_rejects_non_solenoidal_node(self, grid32):
        w0, j0 = _coupled_data(grid32)
        trace = heat_flow_trace(w0, j0, TimeMesh.uniform(0.5, 3))
        x1 = grid32.meshgrid()[0]
        spectra = trace.spectra.copy()
        spectra[1, 2] = _to_cube(_fwd(np.stack([np.sin(x1), 0 * x1, 0 * x1])))
        with pytest.raises(ValueError, match="node 2: current is not divergence-free"):
            MhdTrace(trace.mesh, grid32, spectra).validate()

    def test_non_solenoidal_datum_is_rejected(self, grid32):
        x1 = grid32.meshgrid()[0]
        bad = VectorField(grid32, np.stack([np.sin(x1), 0 * x1, 0 * x1]))
        z = _zero(grid32)
        mesh = TimeMesh.uniform(1.0, 3)
        for w0, j0 in ((bad, z), (z, bad)):
            with pytest.raises(ValueError, match="divergence-free"):
                run_picard(w0, j0, mesh)
            with pytest.raises(ValueError, match="divergence-free"):
                reference_timestepper(w0, j0, mesh, dt=1.0 / max_retained_k2(grid32))

    def test_huge_non_solenoidal_datum_is_rejected(self, grid16):
        # the check's scale must not overflow: 1e160**2 is inf, which would pass anything
        x1 = grid16.meshgrid()[0]
        bad = VectorField(grid16, np.stack([1e160 * np.sin(x1), 0 * x1, 0 * x1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="initial vorticity is not divergence-free"):
                heat_flow_trace(bad, _zero(grid16), TimeMesh.uniform(1.0, 3))

    def test_huge_generated_datum_raises_no_overflow_warning(self, grid16):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w0, _ = generate_initial_data({"family": "random_divfree", "seed": 3, "amplitude": 1e160}, grid16)
            trace = heat_flow_trace(w0, _zero(grid16), TimeMesh.uniform(1.0, 3))
        assert rel_max_err(trace.omega[0].values, w0.values) <= 1e-14

    def test_datum_off_the_cube_is_rejected(self, grid32):
        # sin(12 x1) e3 is solenoidal and mean-free, but |k1| = 12 > 32 // 3:
        # the dealiased system does not resolve it
        x1 = grid32.meshgrid()[0]
        z = _zero(grid32)
        mesh = TimeMesh.uniform(1.0, 3)
        dt = 1.0 / max_retained_k2(grid32)
        for scale in (1.0, 1e160):  # max-abs ratios: a huge datum warns of no overflow
            off = VectorField(grid32, np.stack([0 * x1, 0 * x1, scale * np.sin(12 * x1)]))
            for w0, j0, what in ((off, z, "initial vorticity"), (z, off, "initial current")):
                match = f"{what} is not resolved on n = 32: a mode with some \\|k_i\\| > 10"
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=match):
                        run_picard(w0, j0, mesh)
                    with pytest.raises(ValueError, match=match):
                        heat_flow_trace(w0, j0, mesh)
                    with pytest.raises(ValueError, match=match):
                        reference_timestepper(w0, j0, mesh, dt=dt)
        on = VectorField(grid32, np.stack([0 * x1, 0 * x1, np.sin(10 * x1)]))
        trace = heat_flow_trace(on, z, mesh)
        assert rel_max_err(trace.omega[0].values, on.values) <= 1e-14

    def test_trace_does_not_freeze_the_callers_array(self, grid32):
        block = heat_flow_trace(*_coupled_data(grid32), TimeMesh.uniform(0.5, 3)).spectra.copy()
        trace = MhdTrace(TimeMesh.uniform(0.5, 3), grid32, block)
        assert block.flags.writeable
        assert not trace.spectra.flags.writeable
        assert np.shares_memory(trace.spectra, block)  # a complex128 block is not copied

    def test_node_count_mismatch(self, grid32):
        mesh = TimeMesh.uniform(1.0, 3)
        # the cube of n = 32 keeps |k_i| <= 10
        match = r"shape \(2, 3, 3, 21, 21, 11\): one vorticity and current per mesh node"
        with pytest.raises(ValueError, match=match):
            MhdTrace(mesh, grid32, np.zeros((2, 1, 3, 21, 21, 11), dtype=complex))

    @staticmethod
    def _cosine_node(amplitude):
        # omega(t = 0.5) = amplitude * sum over the four k1 != 0 of the cube
        # (|k1| <= 2 at n = 8) of exp(i k1 x1) e3, that is
        # 2 * amplitude * (cos x1 + cos 2 x1): solenoidal, peak 4 * amplitude at x1 = 0
        spectra = np.zeros((2, 3, 3, 5, 5, 3), dtype=complex)
        spectra[0, 1, 2, 1:, 0, 0] = amplitude
        return MhdTrace(TimeMesh.uniform(1.0, 3), make_grid(8, 2 * math.pi), spectra)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_view_is_divergence(self):
        # a finite spectrum whose values peak at 4e308, past the largest float
        trace = self._cosine_node(1e308)
        assert np.isfinite(trace.spectra).all()
        with pytest.raises(DivergenceError, match="omega at t = 0.5 is not finite"):
            trace.omega
        assert not np.any(trace.current[1].values)

    def test_large_finite_view_is_finite(self):
        # peak 4e305: the inverse transform does not scale, so nothing on the
        # way to a finite value overflows
        trace = self._cosine_node(1e305)
        x1 = trace.grid.axis()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            omega = trace.omega[1].values
        want = 2e305 * (np.cos(x1) + np.cos(2 * x1))
        assert rel_max_err(omega[2], np.broadcast_to(want[:, None, None], omega[2].shape)) <= 1e-15
        assert omega[2].max() == 4e305 and not np.any(omega[:2])


class TestCubeLayout:
    """A trace stores only the 2/3-rule cube ``|k_i| <= c = n // 3`` of its spectra."""

    @staticmethod
    def _data(grid, seeds=(5, 6)):
        # cutoff n fills the whole cube, its corners and its last plane k3 = c included
        spec = {
            key: {"family": "random_divfree", "seed": seed, "cutoff": grid.n, "amplitude": 0.5}
            for key, seed in zip(("omega", "j"), seeds)
        }
        return generate_initial_data(spec, grid)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_trace_size(self, n):
        grid, c = make_grid(n, 2 * math.pi), n // 3
        trace = heat_flow_trace(*self._data(grid), TimeMesh.uniform(0.1, 4))
        assert trace.spectra.nbytes == 2 * 4 * 3 * (2 * c + 1) ** 2 * (c + 1) * 16

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_distance_is_the_physical_l2_distance(self, n):
        # the cube's last plane k3 = c < n/2 is no Nyquist plane: it stands for
        # its conjugate twin too, so Parseval counts it twice
        grid = make_grid(n, 2 * math.pi)
        mesh = TimeMesh.uniform(0.1, 4)
        a = heat_flow_trace(*self._data(grid), mesh)
        b = heat_flow_trace(*self._data(grid, seeds=(7, 8)), mesh)
        assert np.any(a.spectra[..., -1] != b.spectra[..., -1])
        riemann = max(
            lp_norm(VectorField(grid, wa.values - wb.values), 2)
            + lp_norm(VectorField(grid, ja.values - jb.values), 2)
            for wa, wb, ja, jb in zip(a.omega, b.omega, a.current, b.current)
        )
        assert trace_distance(a, b) == pytest.approx(riemann, rel=1e-14)

    def test_sweep_allocates_no_full_spectrum_trace(self, grid32, monkeypatch):
        # one sweep allocates its new trace (4.0 MB at n = 32, M = 9) and, node by
        # node, the forcing's working set (the two Elsasser fields, one row of
        # their products and its transforms; 5.2 MB measured, 6.7 MB in the
        # u, w, b, j form), so the bound of two traces plus 6 MB is 14 MB.
        # A trace of half spectra would take 15 MB alone.
        monkeypatch.setenv("MHDLAB_THREADS", "1")
        trace = heat_flow_trace(*self._data(grid32), TimeMesh.uniform(0.5, 9))
        tracemalloc.start()
        try:
            picard_sweep(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * trace.spectra.nbytes + 6 * 2**20
