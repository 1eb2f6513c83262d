"""Independent brute-force oracles used by the tests.

These recompute quantities by direct summation, away from the FFT-convolution
path of the package, so agreement is meaningful.
"""

import math

import numpy as np
from scipy import fft as sfft

from mhdlab.fields import Field, Grid, ScalarField, _fwd, _inv, _magnitude_values, _tables
from mhdlab.morrey import MorreyParams
from mhdlab.theory import E2Witness, RegionQuery, _derive_from_q3, _witness_valid


def fwd_full(values: np.ndarray) -> np.ndarray:
    """Full complex forward transform to per-mode coefficients of exp(i k.x)."""
    return sfft.fftn(values, axes=(-3, -2, -1)) / values.shape[-1] ** 3


def inv_full(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fwd_full`, discarding the round-off imaginary part."""
    return sfft.ifftn(coeffs * coeffs.shape[-1] ** 3, axes=(-3, -2, -1)).real


def from_cube(cube: np.ndarray, n: int) -> np.ndarray:
    """The half spectrum on ``n`` points per axis that holds the 2/3-rule cube ``cube`` and is zero outside it.

    Axes 0 and 1 of the cube hold the wavenumbers ``0..c`` then ``-c..-1``
    (``c = n // 3``), the last axis ``0..c``.
    """
    c = n // 3
    rows = np.r_[0 : c + 1, n - c : n]  # half-spectrum index of each cube row
    hat = np.zeros(cube.shape[:-3] + (n, n, n // 2 + 1), dtype=cube.dtype)
    hat[..., rows[:, None], rows[None, :], : c + 1] = cube
    return hat


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


def solenoidal_noise_direct(grid: Grid, seed: int, cutoff: float, slope: float, amplitude: float,
                            window: np.ndarray | None = None) -> np.ndarray:
    """Seeded solenoidal noise built on the full complex spectrum, one component at a time.

    Each component is drawn in turn from ``default_rng(seed)``, multiplied by
    ``window``, filtered by ``|k|**slope`` on integer ``0 < |k| <= cutoff``,
    then 2/3-dealiased, Leray-projected and de-meaned on the full ``(n, n, n)``
    spectrum; the field is scaled to peak magnitude ``amplitude``.
    """
    n = grid.n
    rng = np.random.default_rng(seed)
    kint = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.sqrt(kint[:, None, None] ** 2 + kint[None, :, None] ** 2 + kint[None, None, :] ** 2)
    envelope = np.zeros_like(kmag)
    retained = (kmag > 0) & (kmag <= cutoff)
    envelope[retained] = kmag[retained] ** slope
    w = 1.0 if window is None else window
    tab = tables_full(grid)
    vh = np.stack([envelope * fwd_full(rng.standard_normal((n,) * 3) * w) for _ in range(3)]) * tab["keep"]
    kd = tab["kd"]
    vh = vh - kd * (np.sum(kd * vh, axis=0) * tab["inv_k2d"])
    vh[:, 0, 0, 0] = 0.0
    v = inv_full(vh)
    return v * (amplitude / np.sqrt(np.sum(v**2, axis=0)).max())


def ball_count_direct(grid: Grid, r: float) -> int:
    """Cell-center count in the torus-metric ball, by explicit lattice arithmetic."""
    o = np.minimum(np.arange(grid.n), grid.n - np.arange(grid.n))
    s2 = o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
    return int((s2 < (r / grid.spacing) ** 2).sum())


def ball_sums_full(g: np.ndarray, grid: Grid, r: float, stride: int) -> np.ndarray:
    """Sums of each of ``g`` (stacked on axis 0) over the ball of radius ``r`` around every stride-``stride`` centre.

    One full inverse transform of the ball sums on all ``n**3`` centres, of
    which the sub-lattice is kept: the reference for the estimator's folds
    and block sums.
    """
    o = np.minimum(np.arange(grid.n), grid.n - np.arange(grid.n))
    s2 = o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
    kern = sfft.rfftn((s2 < (r / grid.spacing) ** 2).astype(float))
    mass = sfft.irfftn(sfft.rfftn(g, axes=(-3, -2, -1)) * kern, s=g.shape[1:], axes=(-3, -2, -1))
    return mass[:, ::stride, ::stride, ::stride]


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


def e2_witness_scan(rq: RegionQuery) -> E2Witness | None:
    """Extended-region witness by a scan: the reference for the closed form of the search.

    Evaluates the q3 and weight identities, with ``p_tilde``, ``theta`` and
    ``q2`` eliminated, on 10 000 values of ``q3`` in [0, 3), bisects every sign
    change of either one with ``brentq`` and returns the smallest root that
    the package's residual and range checks accept (or None).
    """
    from scipy.optimize import brentq

    p, q, q1, q0t = rq.p, rq.q, rq.q1, rq.q0_tilde
    pp = p / (p - 1.0)

    def resid_pair(q3):  # a float or an array of them
        p_tilde = 1.0 / (1.0 / pp + 1.0 / (3.0 - q3))
        theta = (1.0 / p_tilde - 1.0 / p) / (1.0 - 1.0 / p)
        q2 = q3 / pp + q / p
        r_q3 = q3 / p_tilde - (q1 * theta + (q / p) * (1.0 - theta))
        r_weight = (q2 - q0t + 1.0) / 2.0 - (
            (q1 - q0t) / 2.0 * theta + (2.0 * p - 3.0 + q) / (2.0 * p) * (2.0 - theta)
        )
        return r_q3, r_weight

    grid = np.linspace(0.0, 3.0, 10_000, endpoint=False)
    pairs = np.stack(resid_pair(grid), axis=1)
    candidates = [float(g) for g in grid[np.all(np.abs(pairs) <= 1e-9, axis=1)]]
    for which in (0, 1):
        vals = pairs[:, which]
        candidates += [float(g) for g in grid[:-1][vals[:-1] == 0.0]]
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            root = brentq(lambda x: resid_pair(x)[which], grid[i], grid[i + 1], xtol=1e-14)
            candidates.append(float(root))
    for q3 in sorted(set(candidates)):
        w = _derive_from_q3(rq, q3)
        if _witness_valid(rq, w):
            return w
    return None
