"""The real-FFT half-spectrum operators against a full complex-spectrum evaluation.

The data are white noise, not band-limited, so the Nyquist planes carry
energy and every wavenumber takes part.  Each reference applies the same
multiplier as the package on the full (n, n, n) spectrum.
"""

import math

import numpy as np
import pytest

from mhdlab.fields import (
    ScalarField,
    VectorField,
    _fwd,
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
from .oracles import fwd_full, inv_full, tables_full

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
