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
    _cube_inv,
    _cube_tables,
    _curl_hat,
    _fwd,
    _inv,
    _k_dot,
    _tables,
    mean_value,
)

#: divergence-free input tolerance, relative to the field's max magnitude
SOLENOIDAL_TOL = 1e-8


def _apply(f: Field, mult: np.ndarray) -> Field:
    """The field of the same kind with spectrum ``mult`` times that of ``f``."""
    return type(f)(f.grid, _inv(mult * _fwd(f.values)))


def heat_propagate(f: Field, t: float) -> Field:
    """Apply the heat semigroup, multiplier exp(-t*|k|^2); t=0 is the identity."""
    if t < 0:
        raise ValueError(f"heat propagation requires t >= 0, got {t}")
    if t == 0:
        return f
    return _apply(f, np.exp(-t * _tables(f.grid)["k2"]))


def heat_grad_propagate(f: ScalarField, t: float) -> VectorField:
    """Gradient of the heat-propagated field, multiplier i*k*exp(-t*|k|^2); t > 0."""
    if t <= 0:
        raise ValueError(f"gradient propagation requires t > 0, got {t}")
    tab = _tables(f.grid)
    fh = np.exp(-t * tab["k2"]) * _fwd(f.values)
    return VectorField(f.grid, _inv(1j * tab["kd"] * fh[None]))


def heat_time_derivative(f: ScalarField, t: float) -> ScalarField:
    """Time derivative of the heat flow, multiplier -|k|^2*exp(-t*|k|^2); t > 0."""
    if t <= 0:
        raise ValueError(f"time derivative requires t > 0, got {t}")
    k2 = _tables(f.grid)["k2"]
    return _apply(f, -k2 * np.exp(-t * k2))


def _require_solenoidal(values: np.ndarray, vh: np.ndarray, grid, what: str) -> None:
    """Reject a vector field unless solenoidal and mean-free.

    ``vh`` is the spectrum of ``values``: its half spectrum, or its 2/3-rule
    cube when the field is zero outside the cube.
    """
    # divide by the largest component before squaring, so large fields do not overflow
    top = max(float(np.abs(values).max()), np.finfo(float).tiny)
    scale = top * float(np.sqrt(np.sum((values / top) ** 2, axis=0)).max())
    if vh.shape[-1] == grid.n // 2 + 1:
        div = _inv(1j * _k_dot(vh, _tables(grid)["kd"]))
    else:
        div = _cube_inv(1j * _k_dot(vh, _cube_tables(grid)["kd"]), grid.n)
    dmax = float(np.abs(div).max())
    if dmax > SOLENOIDAL_TOL * scale:
        raise ValueError(
            f"{what} is not divergence-free: max |div| = {dmax:.3e} "
            f"exceeds {SOLENOIDAL_TOL:.0e} * {scale:.3e}"
        )
    means = [abs(float(vh[i, 0, 0, 0].real)) for i in range(3)]
    if max(means) > 1e-10 * max(scale, 1e-30):
        raise ValueError(f"{what} must have zero mean, got component means {means}")


def _biot_savart_hat(wh: np.ndarray, tab) -> np.ndarray:
    """Spectral curl inversion ``i k x w_hat / |k|^2`` with the mean mode pinned to zero.

    ``tab`` holds the wavevector tables (``kd``, ``inv_k2d``) of the layout ``wh`` is on.
    """
    return _curl_hat(wh * tab["inv_k2d"][None], tab["kd"])


def biot_savart(w: VectorField) -> VectorField:
    """Invert the curl: from vorticity to the divergence-free velocity.

    Spectrally ``u_hat = i k x w_hat / |k|^2`` with the mean mode pinned to
    zero.  The input must be solenoidal within :data:`SOLENOIDAL_TOL` (relative
    max-norm) and mean-free.
    """
    wh = _fwd(w.values)
    _require_solenoidal(w.values, wh, w.grid, "biot_savart input")
    return VectorField(w.grid, _inv(_biot_savart_hat(wh, _tables(w.grid))))


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
    return _apply(f, mult)


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
