"""Initial-data families: construction, determinism, decay contracts."""

import numpy as np
import pytest

from mhdlab.cli import Experiment
from mhdlab.fields import Grid, divergence, lp_norm, make_grid
from mhdlab.initial_data import (
    generate_initial_data,
    initial_size_report,
    read_data_spec,
)
from mhdlab.morrey import MorreyParams, morrey_norm

from .conftest import rel_max_err
from .oracles import solenoidal_noise_direct


class TestSingleMode:
    def test_worked_example(self, grid32):
        w0, j0 = generate_initial_data(
            {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3, "amplitude": 1e-3},
            grid32,
        )
        x1 = grid32.meshgrid()[0]
        assert np.abs(w0.values[2] - 1e-3 * np.cos(x1)).max() <= 1e-15
        assert np.abs(w0.values[:2]).max() <= 1e-15
        assert np.abs(j0.values).max() == 0.0

    def test_rejects_parallel_component(self, grid32):
        with pytest.raises(ValueError, match="orthogonal"):
            generate_initial_data(
                {"family": "single_mode", "wavevector": [1, 0, 0], "component": 1}, grid32
            )

    def test_rejects_zero_wavevector(self, grid32):
        with pytest.raises(ValueError, match="nonzero"):
            generate_initial_data(
                {"family": "single_mode", "wavevector": [0, 0, 0], "component": 1}, grid32
            )


class TestRandomDivfree:
    def test_deterministic_per_seed(self, grid32):
        spec = {"family": "random_divfree", "seed": 9, "cutoff": 6, "amplitude": 0.5}
        a, _ = generate_initial_data(spec, grid32)
        b, _ = generate_initial_data(spec, grid32)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, grid32):
        a, _ = generate_initial_data({"family": "random_divfree", "seed": 1}, grid32)
        b, _ = generate_initial_data({"family": "random_divfree", "seed": 2}, grid32)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize(
        "seed, cutoff, slope", [(0, None, -2.0), (7, 2.5, -1.5), (1001, 6.0, 0.0), (42, 3.0, -3.0)]
    )
    def test_matches_full_spectrum_reference(self, n, seed, cutoff, slope):
        grid = make_grid(n, 2 * np.pi)
        spec = {"family": "random_divfree", "seed": seed, "slope": slope, "amplitude": 0.05}
        if cutoff is not None:
            spec["cutoff"] = cutoff
        w0, _ = generate_initial_data(spec, grid)
        ref = solenoidal_noise_direct(grid, seed, n / 4 if cutoff is None else cutoff, slope, 0.05)
        assert rel_max_err(w0.values, ref) <= 1e-14

    def test_solenoidal_and_mean_free(self, grid32):
        w0, _ = generate_initial_data({"family": "random_divfree", "seed": 4}, grid32)
        assert np.abs(divergence(w0).values).max() <= 1e-10 * np.abs(w0.values).max()
        assert np.abs(w0.values.mean(axis=(1, 2, 3))).max() <= 1e-14


@pytest.fixture(scope="module")
def grid64():
    return make_grid(64, 2 * np.pi)


class TestVortexRing:
    # a tube at least 4 spacings wide that decays to 1e-8 inside the half-box
    # needs the finer grid

    def test_solenoidal_after_projection(self, grid64):
        spec = {"family": "gaussian_vortex_ring", "radius": 0.6, "core_width": 0.4, "amplitude": 1e-3}
        w0, _ = generate_initial_data(spec, grid64)
        assert np.abs(divergence(w0).values).max() <= 1e-10 * np.abs(w0.values).max()
        assert lp_norm(w0, np.inf) == pytest.approx(1e-3, rel=1e-12)

    def test_norm_scales_linearly_in_amplitude(self, grid64):
        values = []
        for eps in (1e-3, 2e-3):
            spec = {
                "family": "gaussian_vortex_ring",
                "radius": 0.6,
                "core_width": 0.4,
                "amplitude": eps,
            }
            w0, _ = generate_initial_data(spec, grid64)
            values.append(morrey_norm(w0, MorreyParams(1.0, 1.0)))
        assert values[1] / values[0] == pytest.approx(2.0, rel=0.01)

    def test_rejects_unresolved_core(self, grid32):
        spec = {"family": "gaussian_vortex_ring", "radius": 1.0, "core_width": 0.1}
        with pytest.raises(ValueError, match="4 grid spacings"):
            generate_initial_data(spec, grid32)

    @pytest.mark.parametrize("radius", [-0.3, 0.0, -1.0])
    def test_rejects_nonpositive_radius(self, grid64, radius):
        spec = {"family": "gaussian_vortex_ring", "radius": radius, "core_width": 0.4}
        with pytest.raises(ValueError, match=r"^data\.radius must be positive"):
            read_data_spec(spec, grid64)
        with pytest.raises(ValueError, match=r"^data\.omega\.radius must be positive"):
            generate_initial_data({"omega": spec}, grid64)

    def test_rejects_boundary_contact(self, grid32):
        spec = {"family": "gaussian_vortex_ring", "radius": 2.8, "core_width": 0.9}
        with pytest.raises(ValueError, match="decay"):
            generate_initial_data(spec, grid32)


@pytest.fixture
def no_full_fft(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("full complex FFT called")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "single_mode", "wavevector": [1, 2, 0], "component": 3},
        {"family": "gaussian_vortex_ring", "radius": 0.6, "core_width": 0.4},
        {"family": "random_divfree", "seed": 5},
        {"family": "zero"},
    ],
    ids=lambda spec: spec["family"],
)
def test_families_run_on_the_half_spectrum(no_full_fft, grid64, spec):
    w0, _ = generate_initial_data(spec, grid64)
    assert np.all(np.isfinite(w0.values))


@pytest.mark.parametrize("family", ["single_mode", "gaussian_vortex_ring", "random_divfree", "zero"])
def test_defaults_are_pinned(grid64, family):
    # the values that unset keys take: those the builders read before the specs were resolved
    l, n = grid64.l, grid64.n
    defaults = {
        "single_mode": {"amplitude": 1.0, "wavevector": [1, 0, 0], "component": 3},
        "gaussian_vortex_ring": {"amplitude": 1.0, "radius": l / 10, "core_width": l / 16},
        "random_divfree": {"amplitude": 1.0, "cutoff": n / 4, "slope": -2.0, "seed": 0},
        "zero": {},
    }[family]
    partial = {"family": family}
    resolved = read_data_spec(partial, grid64)
    assert resolved == {"omega": {**partial, **defaults}, "j": {"family": "zero"}}
    for a, b in zip(generate_initial_data(partial, grid64), generate_initial_data(resolved, grid64)):
        assert np.array_equal(a.values, b.values)


class TestSpecHandling:
    def test_unknown_family(self, grid32):
        with pytest.raises(ValueError, match="unknown data family"):
            generate_initial_data({"family": "wavelet"}, grid32)

    def test_rejects_nonpositive_amplitude(self, grid32):
        with pytest.raises(ValueError, match="amplitude"):
            generate_initial_data({"family": "single_mode", "amplitude": 0.0}, grid32)

    def test_missing_keys(self, grid32):
        with pytest.raises(ValueError, match="omega"):
            generate_initial_data({"j": {"family": "zero"}}, grid32)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"family": "single_mode", "amplitud": 1e-3}, "'amplitud' in data"),
            ({"family": "zero", "amplitude": 1.0}, "'amplitude' in data"),
            ({"family": "random_divfree", "wavevector": [1, 0, 0]}, "'wavevector' in data"),
            ({"omega": {"family": "zero"}, "current": {"family": "zero"}}, "'current' in data"),
            ({"omega": {"family": "random_divfree", "sead": 3}}, "'sead' in data.omega"),
            ({"omega": {"family": "zero"}, "j": {"family": "zero", "seed": 1}}, "'seed' in data.j"),
            ({"omega": [1]}, "data.omega must be an object"),
        ],
    )
    def test_rejects_unknown_keys(self, grid32, spec, message):
        with pytest.raises(ValueError, match=message):
            generate_initial_data(spec, grid32)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("amplitude", None),
            ("amplitude", "1e-3"),
            ("wavevector", [1, 0]),
            ("wavevector", [1, 0.5, 0]),
            ("component", 2.5),
            ("component", True),
        ],
    )
    def test_rejects_values_of_the_wrong_kind(self, grid32, key, value):
        spec = {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3, key: value}
        with pytest.raises(ValueError, match=f"data.{key} must be"):
            read_data_spec(spec, grid32)

    def test_seed_goes_to_the_seeded_families(self, grid32):
        random = {"family": "random_divfree", "seed": 0}
        mode = {"family": "single_mode"}
        read = read_data_spec(random, grid32)["omega"]
        assert read_data_spec(random, grid32, 7)["omega"] == {**read, "seed": 7}
        coupled = read_data_spec({"omega": random, "j": random}, grid32, 7)
        assert (coupled["omega"]["seed"], coupled["j"]["seed"]) == (7, 8)
        assert read_data_spec({"omega": mode, "j": random}, grid32, 7) == {
            "omega": read_data_spec(mode, grid32)["omega"],
            "j": {**read, "seed": 8},
        }
        for spec in (mode, {"omega": mode}, {"omega": mode, "j": {"family": "zero"}}):
            with pytest.raises(ValueError, match="no family of this data spec takes one"):
                read_data_spec(spec, grid32, 7)

    def test_coupled_spec(self, grid32):
        w0, j0 = generate_initial_data(
            {
                "omega": {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3},
                "j": {"family": "random_divfree", "seed": 3, "amplitude": 0.5},
            },
            grid32,
        )
        assert np.abs(w0.values).max() > 0
        assert np.abs(j0.values).max() > 0

    def test_size_report(self, grid32):
        w0, j0 = generate_initial_data(
            {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3, "amplitude": 1e-3},
            grid32,
        )
        report = initial_size_report(w0, j0, p0=1.5, q0=1.0)
        assert set(report) == {"omega_m11", "j_m11", "omega_mp0q0", "j_mp0q0"}
        assert report["omega_m11"] > 0
        assert report["j_m11"] == 0.0
        assert report["omega_mp0q0"] > 0

    def test_size_report_names_the_default_scale_once(self, grid32):
        # (p0, q0) = (1, 1) is the (1, 1) scale itself
        w0, j0 = generate_initial_data({"family": "single_mode", "amplitude": 1e-3}, grid32)
        report = initial_size_report(w0, j0)
        assert set(report) == {"omega_m11", "j_m11"}


class TestBoxStudy:
    """The box study: the data read on the base grid, generated on boxes enlarged at a fixed spacing."""

    @staticmethod
    def _sizes(data):
        exp = Experiment.from_config({"grid": {"n": 64, "l": 2 * np.pi}, "data": data})
        grids = [Grid(exp.grid.n * f, exp.grid.l * f) for f in (1, 2)]
        return [initial_size_report(*generate_initial_data(exp.data, g), exp.sampling) for g in grids]

    def test_ring_norms_stabilize(self):
        spec = {"family": "gaussian_vortex_ring", "radius": 0.6, "core_width": 0.4, "amplitude": 1e-3}
        base, doubled = self._sizes(spec)
        assert set(base) == {"omega_m11", "j_m11"}
        # same physical object: the localized-mass norm moves little as the box grows
        drift = abs(doubled["omega_m11"] - base["omega_m11"]) / base["omega_m11"]
        assert drift <= 0.2

    def test_default_ring_keeps_its_physical_size(self, grid64):
        # the default radius l/10 and core l/16 are those of the base box, not of the enlarged one
        written = {"family": "gaussian_vortex_ring", "radius": grid64.l / 10, "core_width": grid64.l / 16}
        rows = self._sizes({"family": "gaussian_vortex_ring"})
        assert rows == self._sizes(written)
        assert rows[1]["omega_m11"] == pytest.approx(rows[0]["omega_m11"], rel=0.01)
