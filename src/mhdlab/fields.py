"""Periodic-cube scalar/vector fields with spectral mirrors and exact operators.

All fields live on a cubic grid of ``n**3`` points spanning ``[0, l)**3`` with
periodic boundary conditions.  Differential operators are evaluated through the
discrete Fourier transform, which makes them exact (to round-off) for
band-limited data.  Physical arrays are float64 and indexed ``[i1, i2, i3]``
with axis 0 along the first coordinate.

Every operator of the package runs on one spectral layer (``_fwd``, ``_inv``,
``_tables``), the real-FFT half spectrum of shape ``(..., n, n, n//2 + 1)``:
the last axis keeps the wavenumbers ``0..n/2``, and the other half follows
from ``c(-k) == conj(c(k))``.  Both transforms scale inside the FFT
(``norm="forward"``): the forward one divides by ``n**3``, the inverse does
not scale.  The public :class:`SpectralField` (``to_spectral``,
``to_physical``, ``dealias``) is a typed wrapper of the same half spectrum.

Every transform runs on ``numpy.fft``, one axis at a time, in the pass order
of scipy's multi-axis transforms: forward, the real pass along the last axis
and then the complex passes along axes -3 and -2; inverse, the complex passes
along -3 and -2 and then the real pass.  numpy (from 2.0) and scipy run the
same C++ pocketfft kernel on each line.  Each pass here scales by ``1/n``
where scipy scales by ``1/n**3`` once; ``n`` is a power of two, so every
scaling is exact and commutes with the passes' arithmetic, and the results
are bitwise scipy's unless a value passes through the subnormal range.  The
Morrey estimator uses the unscaled pair (``norm="backward"``).  scipy is not
imported: it was most of every command's start-up time and memory.

Band-limited state, such as a stored trace, is kept on the 2/3-rule cube
``|k_i| <= n // 3`` alone, of shape ``(..., 2c+1, 2c+1, c+1)`` with
``c = n // 3``: :func:`_to_cube` copies it out of a half spectrum, and
:func:`_cube_tables` holds the wavevector tables on it.  :func:`_cube_fwd` and
:func:`_cube_inv` transform between the cube and physical values without a
half spectrum: the real pass along the last axis runs on every line, but the
complex passes along the first two axes run only on the cube's ``c + 1``
planes of the last axis, the others being zero (inverse) or dropped
(forward).  They run the passes of :func:`_fwd` and :func:`_inv` in the same
order, so their results are bitwise those of ``_to_cube(_fwd(.))`` and of
``_inv`` on the cube padded with zeros to a half spectrum.  Below ``n =``
:data:`PRUNED_FROM` the forward one makes the full transform instead.

Work that is independent per time node runs on :func:`node_map`, on
``MHDLAB_THREADS`` threads: the calling thread computes every T-th task and a
pool of T - 1 threads the others.  Each transform runs on the thread that
calls it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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
def _pool(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="mhdlab")


def node_map(fn, count: int):
    """Iterate ``fn(0), ..., fn(count - 1)`` in order, computed on T threads, the calling one included.

    T is ``MHDLAB_THREADS``, by default the CPUs this process may use (``0``
    counts as 1, a non-integer as the default).  Every T-th call runs on the
    calling thread, when the consumer asks for its result; the others run on
    a pool of T - 1 threads, submitted at most T calls ahead of the consumer.
    So at most T calls are in flight, and a consumer that streams the results
    holds at most T of them.  The calls run under the caller's NumPy
    floating-point error state, which pool threads do not inherit.  When a
    call raises, or the consumer stops early, the pool's calls not yet
    started are cancelled and the running ones are waited for.  ``fn`` must
    not itself call ``node_map``: the pool is fixed.
    """
    err = np.geterr()

    def task(i):
        with np.errstate(**err):
            return fn(i)

    threads = _threads()
    if threads == 1:
        return map(task, range(count))
    return _ordered(_pool(threads - 1), task, count, threads)


def _ordered(pool: ThreadPoolExecutor, task, count: int, depth: int):
    """The results of ``task(0..count-1)`` in order, ``depth`` of them ahead of the consumer.

    Every ``depth``-th index is left to the calling thread, which computes it
    while the pool works on the indices submitted after it.
    """
    pending = deque()  # a future, or the index the calling thread computes
    try:
        for i in range(count):
            pending.append(i if i % depth == 0 else pool.submit(task, i))
            if len(pending) == depth:
                yield _result(pending.popleft(), task)
        while pending:
            yield _result(pending.popleft(), task)
    finally:
        futures = [f for f in pending if isinstance(f, Future)]
        for f in futures:
            f.cancel()
        wait(futures)


def _result(entry, task):
    return entry.result() if isinstance(entry, Future) else task(entry)


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

    ax = np.abs(kint) <= n / 3.0
    keep = ax[:, None, None] & ax[None, :, None] & ax[None, None, :half]

    for arr in (kd, k2, k2d, inv_k2d, keep):
        arr.setflags(write=False)
    return {"kd": kd, "k2": k2, "k2d": k2d, "inv_k2d": inv_k2d, "keep": keep}


def _tables(grid: Grid):
    return _spectral_tables(grid.n, grid.l)


def _cube_rows(n: int) -> tuple[slice, slice]:
    """The cube's rows of a full axis: the wavenumbers ``0..c``, then ``-c..-1`` (``c = n // 3``)."""
    c = n // 3
    return slice(0, c + 1), slice(n - c, n)


def _cube_slabs(n: int):
    """The four corner slabs of the 2/3-rule cube, as (cube index, half-spectrum index) pairs.

    A half-spectrum index also picks the same modes out of the first ``c + 1``
    planes of the last axis alone.

    Axes 0 and 1 of the cube hold the wavenumbers ``0..c`` then ``-c..-1``
    (``c = n // 3``), the last axis ``0..c``.
    """
    c = n // 3
    axes = tuple(zip((slice(0, c + 1), slice(c + 1, 2 * c + 1)), _cube_rows(n)))
    last = slice(0, c + 1)
    return [((..., q0, q1, last), (..., h0, h1, last)) for q0, h0 in axes for q1, h1 in axes]


def _to_cube(hat: np.ndarray) -> np.ndarray:
    """The modes inside the 2/3-rule cube of a half spectrum, of a table on the half grid, or of their first planes.

    The result has shape ``(..., 2c+1, 2c+1, c+1)`` with ``c = n // 3``.
    """
    n = hat.shape[-2]
    c = n // 3
    out = np.empty(hat.shape[:-3] + (2 * c + 1, 2 * c + 1, c + 1), dtype=hat.dtype)
    for q, h in _cube_slabs(n):
        out[q] = hat[h]
    return out


@lru_cache(maxsize=32)
def _spectral_cube_tables(n: int, l: float):
    """``kd``, ``k2`` and ``inv_k2d`` of :func:`_spectral_tables`, on the 2/3-rule cube.

    The cube holds no Nyquist mode, so ``kd`` there is the plain wavevector.
    """
    half = _spectral_tables(n, l)
    out = {key: _to_cube(half[key]) for key in ("kd", "k2", "inv_k2d")}
    for arr in out.values():
        arr.setflags(write=False)
    return out


def _cube_tables(grid: Grid):
    return _spectral_cube_tables(grid.n, grid.l)


def _dealias_hat(hat: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum ``hat`` with every mode outside the 2/3-rule cube zeroed."""
    return np.where(_tables(grid)["keep"], hat, 0.0)


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
    """Fourier mirror of a real scalar field, as its real-FFT half spectrum.

    ``coefficients[k1, k2, k3]`` is the coefficient of ``exp(i k.x)`` in numpy
    FFT index order, with wavevectors ``2*pi/l`` times integer triples; the
    last axis keeps ``k3 = 0..n/2`` only, the rest being ``c(-k) == conj(c(k))``.
    """

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.coefficients, dtype=np.complex128)
        n = self.grid.n
        if c.shape != (n, n, n // 2 + 1):
            raise ValueError(f"coefficients must have shape {(n, n, n // 2 + 1)}, got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def _fwd(values: np.ndarray, norm: str = "forward") -> np.ndarray:
    """Forward transform to the half spectrum of per-mode coefficients of exp(i k.x).

    The real pass runs along the last axis, then the complex passes along
    axes -3 and -2, in place.  ``norm="backward"`` leaves it unscaled.
    """
    hat = np.fft.rfft(values, axis=-1, norm=norm)
    for axis in (-3, -2):
        np.fft.fft(hat, axis=axis, norm=norm, out=hat)
    return hat


def _inv(coeffs: np.ndarray, norm: str = "forward", overwrite: bool = False) -> np.ndarray:
    """Inverse of :func:`_fwd` at the same ``norm``: the real field of a half spectrum.

    The complex passes run along axes -3 and -2, then the real pass along the
    last axis.  With ``overwrite`` the complex passes run in place on
    ``coeffs``, which must then be a writeable complex128 array.
    """
    n = coeffs.shape[-2]  # the last axis holds only n//2 + 1 modes
    lines = np.fft.ifft(coeffs, axis=-3, norm=norm, out=coeffs if overwrite else None)
    np.fft.ifft(lines, axis=-2, norm=norm, out=lines)
    return np.fft.irfft(lines, n, axis=-1, norm=norm)


#: smallest ``n`` whose forward cube transform is pruned.  Below it the
#: separate real pass of each array and the copy of its planes cost more than
#: the complex passes that pruning saves, most of all on two node threads
#: (``BENCH_numpy_fft.json``).  The inverse is pruned at every ``n``.
PRUNED_FROM = 32


def _cube_fwd(values: np.ndarray) -> np.ndarray:
    """``_to_cube(_fwd(values))``, with the complex passes run only on the cube's lines.

    From ``n =`` :data:`PRUNED_FROM`, each array of the stack takes its real
    pass alone, and the cube's ``c + 1`` planes of the result are copied
    into ``lines``, whose memory order is (axis -3, last axis, axis -2).
    There the lines of both complex passes lie next to each other, and the
    half spectrum of only one array is held at a time.  The pass along
    axis -2 runs only on the cube's ``2c + 1`` rows of axis -3.
    """
    n = values.shape[-1]
    if n < PRUNED_FROM:
        return _to_cube(_fwd(values))
    c = n // 3
    stack = values.reshape((-1, n, n, n))
    lines = np.empty((len(stack), n, c + 1, n), dtype=np.complex128)
    half = np.empty((n, n, n // 2 + 1), dtype=np.complex128)
    for v, dst in zip(stack, lines):
        np.fft.rfft(v, axis=-1, norm="forward", out=half)
        np.copyto(np.swapaxes(dst, -1, -2), half[..., : c + 1])
    np.fft.fft(lines, axis=-3, norm="forward", out=lines)
    for rows in _cube_rows(n):
        block = lines[:, rows]
        np.fft.fft(block, axis=-1, norm="forward", out=block)
    cube = _to_cube(np.swapaxes(lines, -1, -2))
    return cube.reshape(values.shape[:-3] + cube.shape[-3:])


def _cube_inv(cube: np.ndarray, n: int) -> np.ndarray:
    """The real values on ``n`` points per axis whose spectrum is ``cube`` and zero outside it.

    Inverse of :func:`_cube_fwd` on band-limited values.  The complex passes
    run only on the cube's ``c + 1`` planes of the last axis, held in the
    memory order of :func:`_cube_fwd`'s ``lines``; they are copied back to the
    usual order for the real pass.
    """
    lines = np.zeros(cube.shape[:-3] + (n, n // 3 + 1, n), dtype=np.complex128)
    planes = np.swapaxes(lines, -1, -2)
    for q, h in _cube_slabs(n):
        planes[h] = cube[q]
    np.fft.ifft(lines, axis=-3, norm="forward", out=lines)
    np.fft.ifft(lines, axis=-1, norm="forward", out=lines)
    planes = np.ascontiguousarray(planes)
    del lines  # the real pass's output and ``planes`` are the peak
    return np.fft.irfft(planes, n, axis=-1, norm="forward")


def to_spectral(f: ScalarField) -> SpectralField:
    """Half spectrum of a real scalar field."""
    return SpectralField(f.grid, _fwd(f.values))


def to_physical(s: SpectralField) -> ScalarField:
    """Inverse of :func:`to_spectral`."""
    return ScalarField(s.grid, _inv(s.coefficients))


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


def _advection(a: np.ndarray, bh: np.ndarray, grid: Grid) -> np.ndarray:
    """(a . grad) b in physical space (not yet dealiased), from ``a`` and the half spectrum of ``b``."""
    kd = _tables(grid)["kd"]
    out = np.zeros_like(a)
    for i in range(3):
        out += a[i] * _inv(1j * kd[i] * bh)  # a_i d b_m / d x_i for all m
    return out


def _k_dot(vh: np.ndarray, kd: np.ndarray) -> np.ndarray:
    """``kd . vh`` for a vector spectrum and the ``kd`` table of its layout: the divergence spectrum over ``i``."""
    return kd[0] * vh[0] + kd[1] * vh[1] + kd[2] * vh[2]


def _leray_hat(vh: np.ndarray, grid: Grid) -> np.ndarray:
    """Leray projection of a vector half spectrum; the mean mode is untouched."""
    t = _tables(grid)
    return vh - t["kd"] * (_k_dot(vh, t["kd"]) * t["inv_k2d"])[None]


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence ``i k . v_hat``."""
    return ScalarField(v.grid, _inv(1j * _k_dot(_fwd(v.values), _tables(v.grid)["kd"])))


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
    return VectorField(v.grid, _inv(_leray_hat(_fwd(v.values), v.grid)))


def dealias(s: SpectralField) -> SpectralField:
    """Zero every mode with any ``|k_i| > n/3`` (2/3 rule); idempotent."""
    return SpectralField(s.grid, _dealias_hat(s.coefficients, s.grid))


def _dealias_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Real values (last three axes on ``grid``) with every mode outside the 2/3-rule cube zeroed."""
    return _inv(_dealias_hat(_fwd(values), grid))


def dealias_field(f: Field) -> Field:
    """The field with every mode outside the 2/3-rule cube zeroed, as :func:`dealias` does to a spectrum."""
    return type(f)(f.grid, _dealias_values(f.values, f.grid))


def _magnitude_values(f: Field) -> np.ndarray:
    """Pointwise Euclidean magnitude of a vector field (absolute value of a scalar one).

    The components are scaled by a power of two that takes the largest below
    1 before they are squared, and the magnitude is scaled back: the scaling
    is exact, and the squares overflow only if the magnitude does.
    """
    if isinstance(f, ScalarField):
        return np.abs(f.values)
    _, e = math.frexp(float(np.max(np.abs(f.values))))
    return np.ldexp(np.sqrt(np.sum(np.ldexp(f.values, -e) ** 2, axis=0)), e)


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p norm over the box; vector fields use Euclidean magnitude.

    ``p = inf`` returns the max magnitude.  Values of ``p`` below 1 are
    rejected.  When the power sum overflows while the magnitudes are finite,
    or falls below the smallest normal number while they are not all zero,
    it is redone on the magnitudes scaled by a power of two that takes the
    largest below 1, and the root is scaled back.
    """
    if p != math.inf and not p >= 1:
        raise ValueError(f"exponent p must satisfy p >= 1 or p = inf, got {p}")
    mag = _magnitude_values(f)
    if p == math.inf:
        return float(mag.max())
    h3 = f.grid.spacing**3
    with np.errstate(over="ignore"):
        total = np.sum(mag**p) * h3
    if (total == math.inf or total < np.finfo(float).tiny) and 0.0 < (peak := float(mag.max())) < math.inf:
        _, e = math.frexp(peak)
        return math.ldexp(float((np.sum(np.ldexp(mag, -e) ** p) * h3) ** (1.0 / p)), e)
    return float(total ** (1.0 / p))


def mean_value(f: ScalarField) -> float:
    return float(f.values.mean())


def zero_vector(grid: Grid) -> VectorField:
    return VectorField(grid, np.zeros((3,) + (grid.n,) * 3))
