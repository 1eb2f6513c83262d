"""Independent brute-force oracles used by the tests.

These recompute quantities by direct summation, away from the FFT-convolution
path of the package, so agreement is meaningful.
"""

import math

import numpy as np
from scipy import fft as sfft

from mhdlab.fields import Field, Grid, ScalarField, _fwd, _inv, _magnitude_values, _tables
from mhdlab.morrey import MorreyParams


def fwd_full(values: np.ndarray) -> np.ndarray:
    """Full complex forward transform to per-mode coefficients of exp(i k.x)."""
    return sfft.fftn(values, axes=(-3, -2, -1)) / values.shape[-1] ** 3


def inv_full(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fwd_full`, discarding the round-off imaginary part."""
    return sfft.ifftn(coeffs * coeffs.shape[-1] ** 3, axes=(-3, -2, -1)).real


def tables_full(grid: Grid) -> dict:
    """The package's wavevector tables (``kd``, ``k2``, ``inv_k2d``, ``keep``) on the full (n, n, n) grid."""
    n = grid.n
    kint = np.fft.fftfreq(n, d=1.0 / n)
    k1 = 2.0 * math.pi / grid.l * kint
    kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
    k1d = k1.copy()
    k1d[n // 2] = 0.0  # the unpaired Nyquist mode has no odd derivative
    kd = np.stack(np.meshgrid(k1d, k1d, k1d, indexing="ij"))
    k2d = np.sum(kd**2, axis=0)
    inv_k2d = np.zeros_like(k2d)
    np.divide(1.0, k2d, out=inv_k2d, where=k2d > 0)
    ax = np.abs(kint) <= n / 3.0
    keep = ax[:, None, None] & ax[None, :, None] & ax[None, None, :]
    return {"kd": kd, "k2": kx**2 + ky**2 + kz**2, "inv_k2d": inv_k2d, "keep": keep}


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


def gaussian_bump_direct(grid, sigma: float, center: tuple[float, float, float] | None = None,
                         images: int = 3) -> ScalarField:
    """Periodized unit-mass Gaussian summed image by image over the full grid."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    c = center if center is not None else (grid.l / 2,) * 3
    x1, x2, x3 = grid.meshgrid()
    amp = (2.0 * math.pi * sigma**2) ** -1.5
    out = np.zeros((grid.n,) * 3)
    rng = range(-images, images + 1)
    for m1 in rng:
        d1 = (x1 - c[0] - m1 * grid.l) ** 2
        for m2 in rng:
            d2 = (x2 - c[1] - m2 * grid.l) ** 2
            for m3 in rng:
                d3 = (x3 - c[2] - m3 * grid.l) ** 2
                out += np.exp(-(d1 + d2 + d3) / (2.0 * sigma**2))
    return ScalarField(grid, amp * out)
