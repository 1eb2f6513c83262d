"""Periodic-cube scalar/vector fields with spectral mirrors and exact operators.

All fields live on a cubic grid of ``n**3`` points spanning ``[0, l)**3`` with
periodic boundary conditions.  Differential operators are evaluated through the
discrete Fourier transform, which makes them exact (to round-off) for
band-limited data.  Physical arrays are float64 and indexed ``[i1, i2, i3]``
with axis 0 along the first coordinate.

The private spectral layer (``_fwd``, ``_inv``, ``_tables``) that every
operator of the package runs on uses the real-FFT half spectrum of shape
``(..., n, n, n//2 + 1)``: the last axis keeps the wavenumbers ``0..n/2``, and
the other half follows from ``c(-k) == conj(c(k))``.  The public
:class:`SpectralField` (``to_spectral``, ``to_physical``, ``dealias``) keeps
the full ``(n, n, n)`` spectrum.

Every transform runs on one FFT worker.  Work that is independent per time
node runs on :func:`node_map`, whose thread count ``MHDLAB_THREADS`` sets.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _sfft


def _threads() -> int:
    """Task count of :func:`node_map`: ``MHDLAB_THREADS``, by default the CPUs this process may use."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    try:
        return max(1, int(os.environ.get("MHDLAB_THREADS", cpus)))
    except ValueError:
        return cpus


@lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="mhdlab")


def node_map(fn, count: int):
    """Iterate ``fn(0), ..., fn(count - 1)`` in order, computed on up to T threads.

    T is ``MHDLAB_THREADS``, by default the CPUs this process may use (``0``
    counts as 1, a non-integer as the default).  At most T calls are in
    flight, so a consumer that streams the results holds at most T of them.
    The calls run under the caller's NumPy floating-point error state, which
    pool threads do not inherit.  When a call raises, or the consumer stops
    early, the calls not yet started are cancelled and the running ones are
    waited for.  ``fn`` must not itself call ``node_map``: the pool is fixed.
    """
    err = np.geterr()

    def task(i):
        with np.errstate(**err):
            return fn(i)

    threads = _threads()
    if threads == 1:
        return map(task, range(count))
    return _ordered(_pool(threads), task, count, threads)


def _ordered(pool: ThreadPoolExecutor, task, count: int, depth: int):
    """The results of ``task(0..count-1)`` in order, with at most ``depth`` of them submitted at a time."""
    pending = deque()
    try:
        for i in range(count):
            pending.append(pool.submit(task, i))
            if len(pending) == depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for f in pending:
            f.cancel()
        wait(pending)


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: ``n`` points per axis on a box of edge ``l``."""

    n: int
    l: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not self.l > 0:
            raise ValueError(f"box edge must be positive, got {self.l}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "l", float(self.l))

    @property
    def spacing(self) -> float:
        return self.l / self.n

    @property
    def volume(self) -> float:
        return self.l**3

    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis: 0, h, ..., l - h."""
        return np.arange(self.n) * self.spacing

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = self.axis()
        return np.meshgrid(x, x, x, indexing="ij")


def make_grid(n: int, l: float) -> Grid:
    """Create a grid, rejecting non-power-of-two ``n`` and non-positive ``l``."""
    return Grid(n, l)


def _retained(n: int) -> np.ndarray:
    """Per-axis 2/3-rule mask over the wavenumbers in numpy FFT order."""
    return np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0


@lru_cache(maxsize=32)
def _spectral_tables(n: int, l: float):
    """Precomputed wavevector arrays on the real-FFT half grid.

    The last axis holds the wavenumbers ``0..n/2`` only.  Returns a dict with:
      kd    -- (3, n, n, n//2+1) derivative wavevectors (Nyquist zeroed, odd operators)
      k2    -- (n, n, n//2+1) |k|**2 with the full Nyquist mode (even operators)
      k2d   -- |kd|**2 of the derivative wavevectors
      inv_k2d -- 1/k2d, zero where k2d vanishes (curl inversion)
      keep  -- boolean 2/3-rule mask (True where the mode is retained)
    """
    half = n // 2 + 1
    kint = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers as floats
    scale = 2.0 * math.pi / l
    k1 = scale * kint
    kx, ky, kz = np.meshgrid(k1, k1, k1[:half], indexing="ij")
    k2 = kx**2 + ky**2 + kz**2

    # Odd-order operators need a real spectrum: drop the unpaired Nyquist mode.
    k1d = k1.copy()
    k1d[n // 2] = 0.0
    kdx, kdy, kdz = np.meshgrid(k1d, k1d, k1d[:half], indexing="ij")
    kd = np.stack([kdx, kdy, kdz])
    k2d = kdx**2 + kdy**2 + kdz**2
    inv_k2d = np.zeros_like(k2d)
    np.divide(1.0, k2d, out=inv_k2d, where=k2d > 0)

    ax = _retained(n)
    keep = ax[:, None, None] & ax[None, :, None] & ax[None, None, :half]

    for arr in (kd, k2, k2d, inv_k2d, keep):
        arr.setflags(write=False)
    return {"kd": kd, "k2": k2, "k2d": k2d, "inv_k2d": inv_k2d, "keep": keep}


def _tables(grid: Grid):
    return _spectral_tables(grid.n, grid.l)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Sampled real scalar field on a grid; values are immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        n = self.grid.n
        if v.shape != (n, n, n):
            raise ValueError(f"scalar values must have shape {(n, n, n)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))


@dataclass(frozen=True)
class VectorField:
    """Three scalar components on one grid, stored as a (3, n, n, n) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        n = self.grid.n
        if v.shape != (3, n, n, n):
            raise ValueError(f"vector values must have shape {(3, n, n, n)}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))

    def component(self, i: int) -> ScalarField:
        return ScalarField(self.grid, self.values[i])

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return tuple(self.component(i) for i in range(3))


Field = ScalarField | VectorField


@dataclass(frozen=True)
class SpectralField:
    """Fourier mirror of a real scalar field.

    ``coefficients[k1, k2, k3]`` is the coefficient of ``exp(i k.x)`` in numpy
    FFT index order, with wavevectors ``2*pi/l`` times integer triples; real
    fields satisfy ``c(-k) == conj(c(k))``.
    """

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        n = self.grid.n
        if c.shape != (n, n, n):
            raise ValueError(f"coefficients must have shape {(n, n, n)}, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def _fwd(values: np.ndarray) -> np.ndarray:
    """Forward transform to the half spectrum of per-mode coefficients of exp(i k.x)."""
    return _sfft.rfftn(values, axes=(-3, -2, -1)) / values.shape[-1] ** 3


def _inv(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_fwd`: the real field of a half spectrum."""
    n = coeffs.shape[-2]  # the last axis holds only n//2 + 1 modes
    return _sfft.irfftn(coeffs * n**3, s=(n, n, n), axes=(-3, -2, -1))


def to_spectral(f: ScalarField) -> SpectralField:
    """Full ``(n, n, n)`` spectrum of a real scalar field."""
    return SpectralField(f.grid, _sfft.fftn(f.values) / f.grid.n**3)


def to_physical(s: SpectralField) -> ScalarField:
    """Inverse of :func:`to_spectral`, discarding the round-off imaginary part."""
    return ScalarField(s.grid, _sfft.ifftn(s.coefficients * s.grid.n**3).real)


def _same_grid(*fields: Field) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("fields are defined on different grids")
    return grid


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    kd = _tables(f.grid)["kd"]
    fh = _fwd(f.values)
    return VectorField(f.grid, _inv(1j * kd * fh[None]))


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence ``i k . v_hat``."""
    kd = _tables(v.grid)["kd"]
    vh = _fwd(v.values)
    return ScalarField(v.grid, _inv(1j * (kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2])))


def _curl_hat(vh: np.ndarray, kd: np.ndarray) -> np.ndarray:
    return 1j * np.stack(
        [
            kd[1] * vh[2] - kd[2] * vh[1],
            kd[2] * vh[0] - kd[0] * vh[2],
            kd[0] * vh[1] - kd[1] * vh[0],
        ]
    )


def curl(v: VectorField) -> VectorField:
    """Spectral curl ``i k x v_hat``; exact for band-limited fields."""
    kd = _tables(v.grid)["kd"]
    return VectorField(v.grid, _inv(_curl_hat(_fwd(v.values), kd)))


def project_div_free(v: VectorField) -> VectorField:
    """Leray projection onto divergence-free fields; mean mode untouched."""
    t = _tables(v.grid)
    kd = t["kd"]
    vh = _fwd(v.values)
    kdotv = kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2]
    return VectorField(v.grid, _inv(vh - kd * (kdotv * t["inv_k2d"])[None]))


def dealias(s: SpectralField) -> SpectralField:
    """Zero every mode with any ``|k_i| > n/3`` (2/3 rule); idempotent."""
    ax = _retained(s.grid.n)
    keep = ax[:, None, None] & ax[None, :, None] & ax[None, None, :]
    return SpectralField(s.grid, np.where(keep, s.coefficients, 0.0))


def dealias_field(f: Field) -> Field:
    """Physical-space convenience wrapper around :func:`dealias`."""
    keep = _tables(f.grid)["keep"]
    out = _inv(np.where(keep, _fwd(f.values), 0.0))
    return type(f)(f.grid, out)


def _magnitude_values(f: Field) -> np.ndarray:
    if isinstance(f, ScalarField):
        return np.abs(f.values)
    return np.sqrt(np.sum(f.values**2, axis=0))


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm over the box; vector fields use Euclidean magnitude.

    ``p = inf`` returns the max magnitude.  Values of ``p`` below 1 are
    rejected.
    """
    if p != math.inf and not p >= 1:
        raise ValueError(f"exponent p must satisfy p >= 1 or p = inf, got {p}")
    mag = _magnitude_values(f)
    if p == math.inf:
        return float(mag.max())
    h3 = f.grid.spacing**3
    return float((np.sum(mag**p) * h3) ** (1.0 / p))


def mean_value(f: ScalarField) -> float:
    return float(f.values.mean())


def max_norm(f: Field) -> float:
    return float(_magnitude_values(f).max())


def zero_vector(grid: Grid) -> VectorField:
    return VectorField(grid, np.zeros((3,) + (grid.n,) * 3))
