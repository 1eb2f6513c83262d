"""Independent brute-force oracles used by the tests.

These recompute quantities by direct summation, away from the FFT-convolution
path of the package, so agreement is meaningful.
"""

import numpy as np

from mhdlab.fields import Field, Grid, _fwd, _inv, _magnitude_values, _tables
from mhdlab.morrey import MorreyParams


def ball_count_direct(grid: Grid, r: float) -> int:
    """Cell-center count in the torus-metric ball, by explicit lattice arithmetic."""
    o = np.minimum(np.arange(grid.n), grid.n - np.arange(grid.n))
    s2 = o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
    return int((s2 < (r / grid.spacing) ** 2).sum())


def constant_field_norm(grid: Grid, c: float, mp: MorreyParams, radii) -> float:
    """Closed form of the estimator for a constant field, from counted ball volumes."""
    h3 = grid.spacing**3
    best = max(
        r ** (-mp.lam / mp.p) * (c**mp.p * ball_count_direct(grid, r) * h3) ** (1.0 / mp.p)
        for r in radii
    )
    if mp.lam == 0.0:
        best = max(best, (c**mp.p * grid.n**3 * h3) ** (1.0 / mp.p))
    return best


def morrey_direct(
    f: Field,
    mp: MorreyParams,
    radii,
    stride: int = 2,
    window_center: tuple[int, int, int] | None = None,
    window_cells: int = 4,
) -> float:
    """Direct per-center ball sums (no FFT).

    Per center, the mass is accumulated into integer squared-lattice-distance
    shells, so every radius is a prefix sum.  Scans the stride sub-lattice
    coarsened by 4 everywhere, plus (optionally) the full stride sub-lattice
    inside a window of ``window_cells`` stride steps around ``window_center``.
    """
    grid = f.grid
    n = grid.n
    g = _magnitude_values(f) ** mp.p * grid.spacing**3
    o2 = np.minimum(np.arange(n), n - np.arange(n)) ** 2
    idx = np.arange(n)

    centers = {
        (i, j, k)
        for i in range(0, n, 4 * stride)
        for j in range(0, n, 4 * stride)
        for k in range(0, n, 4 * stride)
    }
    if window_center is not None:
        ci, cj, ck = window_center
        span = range(-window_cells * stride, (window_cells + 1) * stride, stride)
        centers |= {
            ((ci + di) % n, (cj + dj) % n, (ck + dk) % n)
            for di in span
            for dj in span
            for dk in span
        }

    nbins = 3 * (n // 2) ** 2 + 1
    # shell index s with s < (r/h)^2 contributes to the ball of radius r
    cut = [(r, int(np.searchsorted(np.arange(nbins), (r / grid.spacing) ** 2, "left"))) for r in radii]
    best = 0.0
    for ci, cj, ck in centers:
        s2 = (
            o2[(idx - ci) % n][:, None, None]
            + o2[(idx - cj) % n][None, :, None]
            + o2[(idx - ck) % n][None, None, :]
        )
        shells = np.bincount(s2.ravel(), weights=g.ravel(), minlength=nbins)
        cum = np.concatenate([[0.0], np.cumsum(shells)])
        for r, k in cut:
            mass = float(cum[k])
            best = max(best, r ** (-mp.lam / mp.p) * mass ** (1.0 / mp.p))
    if mp.lam == 0.0:
        best = max(best, float(g.sum() ** (1.0 / mp.p)))
    return best


def fine_radii(grid: Grid, per_octave: int = 4) -> list[float]:
    """Radius ladder with ``per_octave`` steps per doubling, capped at l/2."""
    out = []
    m = 0
    while True:
        r = grid.spacing * 2.0 ** (m / per_octave)
        if r > grid.l / 2:
            return out
        out.append(r)
        m += 1


def duhamel_direct(forcings, mesh, t: float) -> np.ndarray:
    """O(M^2) Duhamel quadrature up to mesh node ``t``, summed over every subinterval afresh.

    The forcing is linearly interpolated between nodes and the heat factor
    ``exp(-(t - s)|k|^2)`` is evaluated at the Gauss-Legendre abscissae ``s``
    of each subinterval; returns the physical values of the integral.
    """
    m = mesh.node_index(t)
    grid = forcings[0].grid
    k2 = _tables(grid)["k2"]
    hats = [_fwd(f.values) for f in forcings[: m + 1]]
    xi, wi = np.polynomial.legendre.leggauss(mesh.quad_order)
    acc = np.zeros_like(hats[0])
    for a in range(m):
        ta, tb = mesh.nodes[a], mesh.nodes[a + 1]
        half = 0.5 * (tb - ta)
        for x, wq in zip(xi, wi):
            s = 0.5 * (ta + tb) + half * x
            frac = (s - ta) / (tb - ta)
            heat = np.exp(-(t - s) * k2)
            acc += (wq * half) * heat * ((1.0 - frac) * hats[a] + frac * hats[a + 1])
    return _inv(acc)
