"""The real-FFT half-spectrum operators against a full complex-spectrum evaluation.

The data are white noise, not band-limited, so the Nyquist planes carry
energy and every wavenumber takes part.  Each reference applies the same
multiplier as the package on the full (n, n, n) spectrum.
"""

import math

import numpy as np
import pytest

from mhdlab import fields
from mhdlab.fields import (
    ScalarField,
    VectorField,
    _cube_fwd,
    _cube_inv,
    _dealias_hat,
    _fwd,
    _inv,
    _tables,
    _to_cube,
    curl,
    divergence,
    gradient,
    lp_norm,
    make_grid,
    project_div_free,
)
from mhdlab.kernels import (
    biot_savart,
    heat_grad_propagate,
    heat_propagate,
    heat_time_derivative,
    riesz_potential,
)
from mhdlab.mild import _spectral_l2, current_source, vorticity_flux

from .conftest import rel_max_err
from .oracles import from_cube, fwd_full, inv_full, tables_full

TOL = 1e-13


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.cross(a, b, axis=0)


@pytest.fixture(params=[(n, l) for n in (8, 16, 32) for l in (1.0, 2 * math.pi, 10.0)],
                ids=lambda nl: f"n{nl[0]}-l{nl[1]:.3g}")
def case(request):
    n, l = request.param
    grid = make_grid(n, l)
    rng = np.random.default_rng(n + int(10 * l))
    noise = [rng.standard_normal((3, n, n, n)) for _ in range(4)]
    solenoidal = []
    for v in noise[1:]:
        p = project_div_free(VectorField(grid, v)).values
        solenoidal.append(VectorField(grid, p - p.mean(axis=(1, 2, 3), keepdims=True)))
    scalar = rng.standard_normal((n, n, n))
    return grid, tables_full(grid), scalar, VectorField(grid, noise[0]), solenoidal


def test_nyquist_planes_carry_energy(case):
    grid, _, scalar, v, _ = case
    n = grid.n
    h = fwd_full(scalar)
    assert np.abs(h[n // 2]).max() > 1e-3 * np.abs(h).max()
    assert np.abs(fwd_full(v.values)[..., n // 2]).max() > 1e-3 * np.abs(h).max()


def test_first_order_operators(case):
    grid, tab, scalar, v, _ = case
    kd = tab["kd"]
    fh, vh = fwd_full(scalar), fwd_full(v.values)
    kdotv = np.sum(kd * vh, axis=0)
    pairs = [
        (gradient(ScalarField(grid, scalar)), inv_full(1j * kd * fh[None])),
        (divergence(v), inv_full(1j * kdotv)),
        (curl(v), inv_full(1j * _cross(kd, vh))),
        (project_div_free(v), inv_full(vh - kd * (kdotv * tab["inv_k2d"])[None])),
    ]
    for got, want in pairs:
        assert rel_max_err(got.values, want) <= TOL


def test_integral_operators(case):
    grid, tab, scalar, v, (w, _, _) = case
    kd, k2 = tab["kd"], tab["k2"]
    t = 2e-3 * grid.l**2
    heat = np.exp(-t * k2)
    s = ScalarField(grid, scalar - scalar.mean())
    sh, vh, wh = fwd_full(s.values), fwd_full(v.values), fwd_full(w.values)
    riesz = np.zeros_like(k2)
    np.power(k2, -0.65, out=riesz, where=k2 > 0)
    pairs = [
        (heat_propagate(s, t), inv_full(heat * sh)),
        (heat_propagate(v, t), inv_full(heat * vh)),
        (heat_grad_propagate(s, t), inv_full(1j * kd * (heat * sh)[None])),
        (heat_time_derivative(s, t), inv_full(-k2 * heat * sh)),
        (biot_savart(w), inv_full(1j * _cross(kd, wh * tab["inv_k2d"][None]))),
        (riesz_potential(s, 1.3), inv_full(riesz * sh)),
    ]
    for got, want in pairs:
        assert rel_max_err(got.values, want) <= TOL


def test_nonlinear_terms(case):
    grid, tab, _, _, (w, j, u) = case
    kd, keep = tab["kd"], tab["keep"]
    b = biot_savart(j)

    def dealiased(t):
        return np.where(keep, fwd_full(t), 0.0)

    uw, bj = u.values, b.values
    t = {
        (i, m): uw[i] * w.values[m] - uw[m] * w.values[i] - bj[i] * j.values[m] + bj[m] * j.values[i]
        for i, m in ((0, 1), (0, 2), (1, 2))
    }
    h = {key: dealiased(val) for key, val in t.items()}
    flux = 1j * np.stack([
        -kd[1] * h[0, 1] - kd[2] * h[0, 2],
        kd[0] * h[0, 1] - kd[2] * h[1, 2],
        kd[0] * h[0, 2] + kd[1] * h[1, 2],
    ])
    cross_h = dealiased(_cross(uw, bj))
    source = -1j * _cross(kd, 1j * _cross(kd, cross_h))
    assert rel_max_err(vorticity_flux(u, w, b, j).values, inv_full(flux)) <= TOL
    assert rel_max_err(current_source(u, b).values, inv_full(source)) <= TOL


def test_stepper_l2_is_parseval(case):
    grid, _, scalar, v, (w, _, _) = case
    phys = math.sqrt((lp_norm(v, 2) ** 2 + lp_norm(w, 2) ** 2) / grid.volume)
    full = math.sqrt(np.sum(np.abs(fwd_full(v.values)) ** 2) + np.sum(np.abs(fwd_full(w.values)) ** 2))
    got = _spectral_l2(_fwd(v.values), _fwd(w.values))
    assert got == pytest.approx(phys, rel=TOL)
    assert got == pytest.approx(full, rel=TOL)
    s = ScalarField(grid, scalar)
    assert _spectral_l2(_fwd(scalar)) == pytest.approx(lp_norm(s, 2) / math.sqrt(grid.volume), rel=TOL)


def test_cube_holds_exactly_the_dealiased_modes(case):
    grid, _, _, v, _ = case
    h = _fwd(v.values)
    cube = _to_cube(h)
    assert cube.size == 3 * np.count_nonzero(_tables(grid)["keep"])
    assert np.array_equal(from_cube(cube, grid.n), _dealias_hat(h, grid))


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCubeTransforms:
    """The pair between the 2/3-rule cube and physical values is bitwise the expanded one, pruned or not."""

    @pytest.fixture(params=[True, False], ids=["pruned", "full"])
    def pruned(self, request, monkeypatch):
        # both pass plans at every n: PRUNED_FROM is read at each call
        monkeypatch.setattr(fields, "PRUNED_FROM", 8 if request.param else 2**30)
        return request.param

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_bitwise_the_expanded_transforms(self, n, lead, pruned):
        # white noise: every mode outside the cube is set, so the forward
        # transform must drop them exactly as _to_cube does
        values = np.random.default_rng(n).standard_normal(lead + (n, n, n))
        cube = _to_cube(_fwd(values))
        assert _bitwise(_cube_fwd(values), cube)
        band = _cube_inv(cube, n)
        assert _bitwise(band, _inv(from_cube(cube, n)))
        assert _bitwise(_cube_fwd(band), _to_cube(_fwd(band)))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_batched_equals_one_component_at_a_time(self, n, pruned):
        values = np.random.default_rng(n + 1).standard_normal((2, 3, n, n, n))
        cube = _cube_fwd(values)
        band = _cube_inv(cube, n)
        for i in range(2):
            for m in range(3):
                assert _bitwise(cube[i, m], _cube_fwd(values[i, m]))
                assert _bitwise(band[i, m], _cube_inv(cube[i, m], n))

    def test_forward_drops_the_modes_outside_the_cube(self, pruned):
        # at n = 16 the cube keeps |k_i| <= 5: the mean and k = (1, -2, 3) are
        # inside it, k = (6, 0, 0) and the Nyquist mode (0, 0, 8) outside
        grid = make_grid(16, 2 * math.pi)
        x1, x2, x3 = grid.meshgrid()
        values = 0.5 + np.cos(x1 - 2 * x2 + 3 * x3) + np.sin(6 * x1) + np.cos(8 * x3)
        cube = _cube_fwd(values)
        assert _bitwise(cube, _to_cube(_fwd(values)))
        kept = values - np.sin(6 * x1) - np.cos(8 * x3)
        assert rel_max_err(_cube_inv(cube, 16), kept) <= 1e-14
