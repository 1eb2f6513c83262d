"""Linear integral operators: heat semigroup, Biot-Savart inversion, Riesz potential.

Everything here is a diagonal Fourier multiplier, so the operators commute
with each other and with the differential operators in :mod:`mhdlab.fields`.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    Field,
    ScalarField,
    VectorField,
    _curl_hat,
    _fwd,
    _inv,
    _tables,
    mean_value,
)

#: divergence-free input tolerance, relative to the field's max magnitude
SOLENOIDAL_TOL = 1e-8


def heat_propagate(f: Field, t: float, nu: float = 1.0) -> Field:
    """Apply the heat semigroup, multiplier exp(-nu*t*|k|^2); t=0 is the identity."""
    if t < 0:
        raise ValueError(f"heat propagation requires t >= 0, got {t}")
    if t == 0:
        return f
    k2 = _tables(f.grid)["k2"]
    mult = np.exp(-nu * t * k2)
    return type(f)(f.grid, _inv(mult * _fwd(f.values)))


def heat_grad_propagate(f: ScalarField, t: float, nu: float = 1.0) -> VectorField:
    """Gradient of the heat-propagated field, multiplier i*k*exp(-nu*t*|k|^2); t > 0."""
    if t <= 0:
        raise ValueError(f"gradient propagation requires t > 0, got {t}")
    tab = _tables(f.grid)
    mult = np.exp(-nu * t * tab["k2"])
    fh = mult * _fwd(f.values)
    return VectorField(f.grid, _inv(1j * tab["kd"] * fh[None]))


def heat_time_derivative(f: ScalarField, t: float, nu: float = 1.0) -> ScalarField:
    """Time derivative of the heat flow, multiplier -nu*|k|^2*exp(-nu*t*|k|^2); t > 0."""
    if t <= 0:
        raise ValueError(f"time derivative requires t > 0, got {t}")
    k2 = _tables(f.grid)["k2"]
    return ScalarField(f.grid, _inv(-nu * k2 * np.exp(-nu * t * k2) * _fwd(f.values)))


def _require_solenoidal(values: np.ndarray, vh: np.ndarray, grid, what: str) -> None:
    """Reject a vector field (``values``, spectrum ``vh``) unless solenoidal and mean-free."""
    kd = _tables(grid)["kd"]
    scale = max(float(np.sqrt(np.sum(values**2, axis=0)).max()), np.finfo(float).tiny)
    dmax = float(np.abs(_inv(1j * (kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2]))).max())
    if dmax > SOLENOIDAL_TOL * scale:
        raise ValueError(
            f"{what} must be divergence-free: max |div| = {dmax:.3e} "
            f"exceeds {SOLENOIDAL_TOL:.0e} * {scale:.3e}"
        )
    means = [abs(float(vh[i, 0, 0, 0].real)) for i in range(3)]
    if max(means) > 1e-10 * max(scale, 1e-30):
        raise ValueError(f"{what} must have zero mean, got component means {means}")


def _biot_savart_hat(wh: np.ndarray, grid) -> np.ndarray:
    """Spectral curl inversion ``i k x w_hat / |k|^2`` with the mean mode pinned to zero."""
    tab = _tables(grid)
    return _curl_hat(wh * tab["inv_k2d"][None], tab["kd"])


def biot_savart(w: VectorField) -> VectorField:
    """Invert the curl: from vorticity to the divergence-free velocity.

    Spectrally ``u_hat = i k x w_hat / |k|^2`` with the mean mode pinned to
    zero.  The input must be solenoidal within :data:`SOLENOIDAL_TOL` (relative
    max-norm) and mean-free.
    """
    wh = _fwd(w.values)
    _require_solenoidal(w.values, wh, w.grid, "biot_savart input")
    return VectorField(w.grid, _inv(_biot_savart_hat(wh, w.grid)))


def riesz_potential(f: ScalarField, delta: float) -> ScalarField:
    """Fractional integral of order ``delta``: multiplier ``|k|**(-delta)``, zero mode dropped.

    Requires ``0 < delta < 3`` and (numerically) zero-mean input.
    """
    if not 0 < delta < 3:
        raise ValueError(f"order must lie in (0, 3), got {delta}")
    mean_abs = abs(mean_value(f))
    scale = float(np.abs(f.values).mean())  # = ||f||_1 / volume
    if mean_abs > 1e-10 * max(scale, np.finfo(float).tiny):
        raise ValueError(f"input must be zero-mean: |mean| = {mean_abs:.3e}")
    k2 = _tables(f.grid)["k2"]
    mult = np.zeros_like(k2)
    np.power(k2, -delta / 2.0, out=mult, where=k2 > 0)
    fh = mult * _fwd(f.values)
    return ScalarField(f.grid, _inv(fh))


def gaussian_bump(grid, sigma: float, center: tuple[float, float, float] | None = None,
                  images: int = 3) -> ScalarField:
    """Periodized unit-mass Gaussian of width ``sigma`` (image sum over ``images`` shells).

    The sum over the image shifts ``{-images, ..., images}**3`` factors into the
    product of one image sum per axis.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if images < 0:
        raise ValueError(f"images must be nonnegative, got {images}")
    c = center if center is not None else (grid.l / 2,) * 3
    x = grid.axis()[:, None]
    shifts = np.arange(-images, images + 1) * grid.l
    g1, g2, g3 = (np.exp(-((x - ci - shifts) ** 2) / (2.0 * sigma**2)).sum(axis=1) for ci in c)
    amp = (2.0 * math.pi * sigma**2) ** -1.5
    return ScalarField(grid, (amp * g1)[:, None, None] * g2[None, :, None] * g3[None, None, :])
