"""Morrey-norm estimation on the periodic box and the weighted space-time seminorms.

The continuum norm is a supremum of scaled ball averages over all centers and
radii.  Here the sup is discretized from below: centers on a sub-lattice of
grid points, dyadic radii capped at ``l/2`` (so balls in the torus metric do
not wrap onto themselves).  Ball membership counts cell centers; ball sums for
all centers at once are circular convolutions with the ball indicator,
evaluated by FFT.

The sums are only read at the sampled centers, so a radius costs one fold
instead of a full inverse: the half spectrum of the ball sums, folded modulo
``n/2`` on every axis, has an inverse on ``(n/2)**3`` points that is the ball
sums at the centers whose three indices are all even.  A ball that is exactly
a block of cells (the center cell alone, and the 3x3x3 block; radii ``h`` and
``2h`` of the default ladder) needs no transform: its sums are added up axis
by axis.  Every center gets the same bits at every stride: a block ball's
sums are computed alike for every stride, an all-even center always takes
the fold's value, and only the other centers of an odd stride read a full
inverse transform.  Refining the sampling (smaller stride that divides the
old one, more radii per octave) therefore never decreases the estimate.

For a zero scaling exponent the norm is the plain global L^p norm, so the
whole-box integral enters as an extra candidate exactly in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import kernels
from .fields import (
    Field,
    Grid,
    ScalarField,
    _cube_inv,
    _cube_tables,
    _fwd,
    _inv,
    _magnitude_values,
    node_map,
)

if TYPE_CHECKING:  # pragma: no cover
    from .mild import MhdTrace


@dataclass(frozen=True)
class MorreyParams:
    """Integrability exponent ``p`` and scaling exponent ``lam`` of a Morrey norm."""

    p: float
    lam: float

    def __post_init__(self) -> None:
        if not (1 <= self.p < math.inf):
            raise ValueError(f"integrability exponent must satisfy 1 <= p < inf, got {self.p}")
        if not (0 <= self.lam < 3):
            raise ValueError(f"scaling exponent must lie in [0, 3), got {self.lam}")


@dataclass(frozen=True)
class BallSampling:
    """Discretization of the sup over ball centers and radii.

    Centers sit on the stride-``stride`` sub-lattice of grid points; radii form
    the geometric ladder ``spacing * 2**(m / radii_per_octave)`` capped at
    ``l/2``.  The default (stride 2, one radius per octave) is the dyadic set.
    """

    stride: int = 2
    radii_per_octave: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError("center stride must be >= 1")
        if self.radii_per_octave < 1:
            raise ValueError("radii_per_octave must be >= 1")

    def radii(self, grid: Grid) -> tuple[float, ...]:
        h = grid.spacing
        out = []
        m = 0
        while True:
            r = h * 2.0 ** (m / self.radii_per_octave)
            if r > grid.l / 2:
                break
            out.append(r)
            m += 1
        if not out:
            raise ValueError("empty radius set; grid too coarse")
        return tuple(out)


@lru_cache(maxsize=256)
def _ball_kernel(n: int, l: float, r: float):
    """The ball of radius ``r`` (cell-center counting, torus metric): rfft of its indicator, cell count, block half-width.

    The half-width is ``w`` when the ball is exactly the ``(2w+1)**3`` block
    of cells around its center (``w = 0`` for the center cell alone, 1 for
    the 3x3x3 block), and None for any other shape.
    """
    o = np.minimum(np.arange(n), n - np.arange(n))
    s2 = o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
    thr = (r / (l / n)) ** 2
    mask = s2 < thr
    count = int(mask.sum())
    half = int(o[mask.any(axis=(1, 2))].max(initial=0))
    kern = _fwd(mask.astype(np.float64), norm="backward")
    kern.setflags(write=False)
    return kern, count, half if count == (2 * half + 1) ** 3 else None


def ball_cell_count(grid: Grid, r: float) -> int:
    """Number of cell centers inside the torus-metric ball of radius ``r``."""
    return _ball_kernel(grid.n, grid.l, r)[1]


@lru_cache(maxsize=16)
def _flip(half_n: int) -> np.ndarray:
    """Index of ``-k mod N`` for ``k = 0..N-1``, ``N = half_n``."""
    idx = -np.arange(half_n) % half_n
    idx.setflags(write=False)
    return idx


def _fold(prod: np.ndarray) -> np.ndarray:
    """Ball sums at the all-even centers from the half spectrum ``prod`` of the ball sums on all centers.

    The inverse transform sampled at even indices only sees the spectrum
    folded modulo ``N = n/2``.  The halves of axes -3 and -2 are added into
    ``Q``; on the last axis, whose upper half is known only through its
    conjugate twin, ``F[k] = Q[k] + conj(Q[-k1, -k2, N - k3])`` for
    ``k3 = 0..N/2``.  The inverse of ``F`` on ``N**3`` points is 8 times the
    wanted values; ``n`` is a power of two, so the division by 8 is exact.
    """
    n = prod.shape[-2]
    m = n // 2
    q = prod[:, :m] + prod[:, m:]
    q = q[:, :, :m] + q[:, :, m:]
    f = _flip(m)
    folded = q[..., : m // 2 + 1] + np.conj(q[:, f[:, None], f[None, :], m : m // 2 - 1 : -1])
    return _inv(folded, norm="backward", overwrite=True) / 8.0


def _block_sums(g: np.ndarray, half: int, st: int) -> np.ndarray:
    """Sums of ``g`` over the ``(2 half + 1)**3`` block around every center of the stride-``st`` lattice, axis by axis."""
    n = g.shape[-1]
    at = np.arange(0, n, st)
    out = g
    for axis in (-3, -2, -1):
        acc = np.take(out, (at - half) % n, axis=axis)
        for d in range(1 - half, half + 1):
            acc += np.take(out, (at + d) % n, axis=axis)
        out = acc
    return out


def _ball_sums(g: np.ndarray, ghat: np.ndarray, ball, st: int) -> np.ndarray:
    """Sums of each of ``g`` over ``ball`` (from :func:`_ball_kernel`) around every center of the stride-``st`` lattice.

    ``ghat`` is the rfft of ``g``.  A center gets the same bits at every
    stride: a block ball is a direct sum (:func:`_block_sums`), a center
    whose three indices are all even takes the fold's value
    (:func:`_fold`), and only the other centers of an odd stride read a full
    inverse transform.
    """
    kern, _, half = ball
    if half is not None:
        return _block_sums(g, half, st)
    prod = ghat * kern
    fold = _fold(prod)
    if st % 2 == 0:
        return fold[:, :: st // 2, :: st // 2, :: st // 2]
    mass = _inv(prod, norm="backward", overwrite=True)[:, ::st, ::st, ::st]
    mass[:, ::2, ::2, ::2] = fold[:, ::st, ::st, ::st]
    return mass


def _candidates(grid: Grid, mags: np.ndarray, mp: MorreyParams, sampling: BallSampling):
    """Yield (value, center_index_tuple_or_None, radius) candidates for the sup of each of ``mags``.

    ``mags`` stacks magnitude arrays along its first axis.  The candidates
    come radius by radius, one per array in stack order; one forward
    transform covers the stack and each radius that is not a block takes one
    fold (:func:`_ball_sums`).  An array whose power sum ``S`` falls below
    the smallest normal number while it is not all zero, or reaches the
    largest float over ``n**6``, is redone scaled by a power of two that
    takes its largest magnitude below 1, and its candidates are scaled back.
    That bound keeps every transform finite: a spectral value of a ball sum
    is at most ``S`` times the cell count (at most ``n**3``), a fold adds 8
    of them and its inverse sums at most ``(n/2)**3`` folded values (each
    pass scales after its sums), so no partial sum exceeds ``S * n**6``, as
    for the full inverse on ``n**3`` points.  So a candidate is non-finite
    only when a magnitude is, or when it exceeds the largest float.
    """
    h3 = grid.spacing**3
    with np.errstate(over="ignore"):
        g = mags ** mp.p * h3
        sums = [float(gi.sum()) for gi in g]
    low, high = np.finfo(float).tiny, np.finfo(float).max / float(g[0].size) ** 2
    # frexp of 0, inf and nan has exponent 0: such an array keeps its shift of 0
    shifts = [math.frexp(float(m.max()))[1] if not low <= s < high else 0 for m, s in zip(mags, sums)]
    for i, e in enumerate(shifts):
        if e:
            g[i] = np.ldexp(mags[i], -e) ** mp.p * h3
    del mags  # the generator's frame would keep it alive through the radius loop
    ghat = _fwd(g, norm="backward")
    st = sampling.stride
    for r in sampling.radii(grid):
        mass = _ball_sums(g, ghat, _ball_kernel(grid.n, grid.l, r), st)
        for sub, e in zip(np.maximum(mass, 0.0), shifts):
            idx = np.unravel_index(np.argmax(sub), sub.shape)
            val = r ** (-mp.lam / mp.p) * sub[idx] ** (1.0 / mp.p)
            yield _ldexp(val, e), tuple(st * i for i in idx), r
    if mp.lam == 0.0:
        # sup over arbitrarily large radii degenerates to the global integral
        for gi, e in zip(g, shifts):
            yield _ldexp(gi.sum() ** (1.0 / mp.p), e), None, math.inf


def _ldexp(x: float, e: int) -> float:
    """``x * 2**e``, or ``inf`` where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


def morrey_norm(f: Field, mp: MorreyParams, sampling: BallSampling = BallSampling()) -> float:
    """Discretized Morrey norm: max over sampled centers and radii of the scaled ball mass."""
    return max(v for v, _, _ in _candidates(f.grid, _magnitude_values(f)[None], mp, sampling))


def morrey_norm_detail(
    f: Field, mp: MorreyParams, sampling: BallSampling = BallSampling()
) -> tuple[float, tuple[float, float, float], float]:
    """Like :func:`morrey_norm` but also reports the attaining center and radius.

    The whole-box candidate (zero scaling exponent only) is reported with
    radius ``inf`` and the origin as center.
    """
    best = max(_candidates(f.grid, _magnitude_values(f)[None], mp, sampling), key=lambda c: c[0])
    val, idx, r = best
    h = f.grid.spacing
    center = (0.0, 0.0, 0.0) if idx is None else tuple(h * i for i in idx)
    return val, center, r


@dataclass(frozen=True)
class WeightedSeminorms:
    """Sup-weighted and time-integrated Morrey seminorms of one trace sweep, and the node norms they weigh."""

    w0: float
    j0: float
    w0_bar: float
    j0_bar: float
    w1: float
    j1: float
    w1_bar: float
    j1_bar: float
    omega_norms: tuple[float, ...]  # Morrey norm of every node; not in as_dict
    current_norms: tuple[float, ...]

    def as_dict(self) -> dict[str, float]:
        return {
            "w0": self.w0, "j0": self.j0, "w0_bar": self.w0_bar, "j0_bar": self.j0_bar,
            "w1": self.w1, "j1": self.j1, "w1_bar": self.w1_bar, "j1_bar": self.j1_bar,
        }


def _node_norms(cube: np.ndarray, grid: Grid, mp: MorreyParams, sampling: BallSampling) -> tuple[float, float]:
    """Morrey norms of ``|v|`` and ``|grad v|`` from ``cube``, the 2/3-rule cube of the spectrum of ``v``.

    An overflow gives non-finite norms.
    """
    n = grid.n
    kd = _cube_tables(grid)["kd"]
    sq = sum(_cube_inv(1j * kd[i] * cube, n) ** 2 for i in range(3))  # (d v / d x_i)**2 summed over i
    mags = np.stack([np.sum(_cube_inv(cube, n) ** 2, axis=0), np.sum(sq, axis=0)])
    vals = [v for v, _, _ in _candidates(grid, np.sqrt(mags, out=mags), mp, sampling)]
    return max(vals[0::2]), max(vals[1::2])


def _sup_weighted(nodes, values, exponent) -> float:
    """Largest ``t**exponent * v`` over the nodes, skipping t = 0 for a positive exponent; NaN propagates."""
    if exponent < 0:
        raise ValueError("negative sup weight exponent with t=0 on the mesh")
    weighted = [t**exponent * v for t, v in zip(nodes, values) if t > 0.0 or exponent == 0.0]
    return float(np.max([0.0, *weighted]))


def _time_lp(nodes, values, a) -> float:
    """Trapezoidal ``(int v(t)**a dt)**(1/a)``.

    The values are divided by the largest one before the power is taken, so
    the power overflows only when the result does.
    """
    arr = np.asarray(values, dtype=float)
    scale = float(arr.max())
    if not 0.0 < scale < math.inf:  # all zero, or already inf or nan
        return float(np.trapezoid(arr**a, np.asarray(nodes)) ** (1.0 / a))
    return scale * float(np.trapezoid((arr / scale) ** a, np.asarray(nodes)) ** (1.0 / a))


def weighted_seminorms(
    trace: "MhdTrace", p: float, q: float, sampling: BallSampling = BallSampling()
) -> WeightedSeminorms:
    """Weighted space-time seminorms of a trace at Morrey exponents (p, q).

    Sup norms carry the weight ``t**(1 - (3-q)/(2p))`` (``+1/2`` more for the
    gradient variants); the barred quantities are time-Lebesgue norms with
    exponents ``2p/(2p-3+q)`` and ``2p/(3p-3+q)``, by trapezoidal rule on the
    mesh.  Requires ``2p + q > 3``.
    """
    return _weighted_seminorms(trace, p, q, sampling, _datum_norms(trace, p, q, sampling))


def _exponents(p: float, q: float) -> MorreyParams:
    if not 2 * p + q > 3:
        raise ValueError(f"need 2p + q > 3 for integrable weights, got p={p}, q={q}")
    return MorreyParams(p, q)


def _datum_norms(trace: "MhdTrace", p: float, q: float, sampling: BallSampling):
    """:func:`_node_norms` of the vorticity and of the current at node 0, which holds the initial data."""
    mp = _exponents(p, q)
    return tuple(_node_norms(cube, trace.grid, mp, sampling) for cube in trace.spectra[:, 0])


def _weighted_seminorms(
    trace: "MhdTrace", p: float, q: float, sampling: BallSampling, datum_norms
) -> WeightedSeminorms:
    """:func:`weighted_seminorms`, given the :func:`_datum_norms` of node 0."""
    mp = _exponents(p, q)
    nodes = trace.mesh.nodes
    e0 = 1.0 - (3.0 - q) / (2.0 * p)
    e1 = 1.5 - (3.0 - q) / (2.0 * p)
    a0 = 2.0 * p / (2.0 * p - 3.0 + q)
    a1 = 2.0 * p / (3.0 * p - 3.0 + q)

    count = len(nodes) - 1

    def task(i):  # one per (field, node > 0): the vorticity nodes, then the current nodes
        which, m = divmod(i, count)
        return _node_norms(trace.spectra[which, m + 1], trace.grid, mp, sampling)

    norms = list(node_map(task, 2 * count))
    om, om_g = zip(datum_norms[0], *norms[:count])
    jm, jm_g = zip(datum_norms[1], *norms[count:])

    return WeightedSeminorms(
        w0=_sup_weighted(nodes, om, e0),
        j0=_sup_weighted(nodes, jm, e0),
        w0_bar=_time_lp(nodes, om, a0),
        j0_bar=_time_lp(nodes, jm, a0),
        w1=_sup_weighted(nodes, om_g, e1),
        j1=_sup_weighted(nodes, jm_g, e1),
        w1_bar=_time_lp(nodes, om_g, a1),
        j1_bar=_time_lp(nodes, jm_g, a1),
        omega_norms=om,
        current_norms=jm,
    )


_SCAN_OFFSET = {"heat": 0.0, "heat_grad": 0.5, "heat_dt": 1.0}


@dataclass(frozen=True)
class ScanResult:
    """Weighted operator-norm ratios over a set of times."""

    times: tuple[float, ...]
    ratios: tuple[float, ...]
    sup: float
    argmax_t: float


def smoothing_ratio_scan(
    f: ScalarField,
    mp_from: MorreyParams,
    mp_to: MorreyParams,
    t_set: Sequence[float],
    operator: str = "heat",
    sampling: BallSampling = BallSampling(),
) -> ScanResult:
    """Scan ``t**e * ||T_t f||_to / ||f||_from`` over ``t_set``.

    ``e`` is half the drop in scaling dimension ``(3 - lam)/p`` between the two
    norms, plus 1/2 for the gradient kernel and 1 for the time-derivative
    kernel.  Requires ``p_from <= p_to`` and ``lam_from <= lam_to``.
    """
    if operator not in _SCAN_OFFSET:
        raise ValueError(f"unknown operator {operator!r}")
    if mp_from.p > mp_to.p or mp_from.lam > mp_to.lam:
        raise ValueError("scan requires p_from <= p_to and lam_from <= lam_to")
    if any(t <= 0 for t in t_set):
        raise ValueError("scan times must be positive")
    alpha1 = (3.0 - mp_from.lam) / mp_from.p
    alpha2 = (3.0 - mp_to.lam) / mp_to.p
    expo = 0.5 * (alpha1 - alpha2) + _SCAN_OFFSET[operator]
    denom = morrey_norm(f, mp_from, sampling)
    op = {
        "heat": kernels.heat_propagate,
        "heat_grad": kernels.heat_grad_propagate,
        "heat_dt": kernels.heat_time_derivative,
    }[operator]
    ratios = []
    for t in t_set:
        if denom == 0.0:
            ratios.append(0.0)
            continue
        num = morrey_norm(op(f, t), mp_to, sampling)
        ratios.append(t**expo * num / denom)
    i = int(np.argmax(ratios)) if ratios else 0
    return ScanResult(tuple(t_set), tuple(ratios), float(max(ratios)), float(t_set[i]))


def interpolation_check(
    f: ScalarField,
    p1: float,
    mu1: float,
    p2: float,
    mu2: float,
    k: float,
    sampling: BallSampling = BallSampling(),
) -> float:
    """Ratio testing the two-norm interpolation bound.

    The middle exponents are ``1/p3 = k/p1 + (1-k)/p2`` and
    ``mu3/p3 = (mu1/p1) k + (mu2/p2)(1-k)``; returns
    ``||f||_{p3,mu3} / (||f||_{p1,mu1}^k ||f||_{p2,mu2}^{1-k})``, or 0 for the
    zero field.
    """
    if not (1 <= p1 < p2):
        raise ValueError(f"need 1 <= p1 < p2, got {p1}, {p2}")
    if not 0 < k < 1:
        raise ValueError(f"interpolation weight must lie in (0, 1), got {k}")
    p3 = 1.0 / (k / p1 + (1.0 - k) / p2)
    mu3 = p3 * ((mu1 / p1) * k + (mu2 / p2) * (1.0 - k))
    m1, m2, m3 = MorreyParams(p1, mu1), MorreyParams(p2, mu2), MorreyParams(p3, mu3)
    n1 = morrey_norm(f, m1, sampling)
    n2 = morrey_norm(f, m2, sampling)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return morrey_norm(f, m3, sampling) / (n1**k * n2 ** (1.0 - k))


def holder_check(
    f: ScalarField,
    g: ScalarField,
    r: float,
    theta: float,
    m: float,
    lam: float,
    s: float,
    tau: float,
    sampling: BallSampling = BallSampling(),
) -> float:
    """Ratio testing the Morrey Hoelder bound ``||fg|| <= ||f|| ||g||``.

    The exponents must satisfy ``1/r = 1/m + 1/s`` and
    ``theta/r = lam/m + tau/s`` to within 1e-12.
    """
    if abs(1.0 / r - (1.0 / m + 1.0 / s)) > 1e-12:
        raise ValueError("integrability exponents must satisfy 1/r = 1/m + 1/s")
    if abs(theta / r - (lam / m + tau / s)) > 1e-12:
        raise ValueError("scaling exponents must satisfy theta/r = lam/m + tau/s")
    if f.grid != g.grid:
        raise ValueError("fields are defined on different grids")
    nf = morrey_norm(f, MorreyParams(m, lam), sampling)
    ng = morrey_norm(g, MorreyParams(s, tau), sampling)
    if nf == 0.0 or ng == 0.0:
        return 0.0
    prod = ScalarField(f.grid, f.values * g.values)
    return morrey_norm(prod, MorreyParams(r, theta), sampling) / (nf * ng)
