"""Morrey-norm estimation on the periodic box and the weighted space-time seminorms.

The continuum norm is a supremum of scaled ball averages over all centers and
radii.  Here the sup is discretized from below: centers on a sub-lattice of
grid points, dyadic radii capped at ``l/2`` (so balls in the torus metric do
not wrap onto themselves).  Ball membership counts cell centers; ball sums for
all centers at once are circular convolutions with the ball indicator,
evaluated by FFT.  Refining the sampling (smaller stride that divides the old
one, more radii per octave) never decreases the estimate.

For a zero scaling exponent the norm is the plain global L^p norm, so the
whole-box integral enters as an extra candidate exactly in that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import fft as _sfft

from . import kernels
from .fields import (
    Field,
    Grid,
    ScalarField,
    _inv,
    _magnitude_values,
    _tables,
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
    """rfft of the ball indicator (cell-center counting, torus metric) and its cell count."""
    o = np.minimum(np.arange(n), n - np.arange(n))
    s2 = o[:, None, None] ** 2 + o[None, :, None] ** 2 + o[None, None, :] ** 2
    thr = (r / (l / n)) ** 2
    mask = (s2 < thr).astype(np.float64)
    kern = _sfft.rfftn(mask)
    kern.setflags(write=False)
    return kern, int(mask.sum())


def ball_cell_count(grid: Grid, r: float) -> int:
    """Number of cell centers inside the torus-metric ball of radius ``r``."""
    return _ball_kernel(grid.n, grid.l, r)[1]


def _candidates(grid: Grid, mags: np.ndarray, mp: MorreyParams, sampling: BallSampling):
    """Yield (value, center_index_tuple_or_None, radius) candidates for the sup of each of ``mags``.

    ``mags`` stacks magnitude arrays along its first axis.  The candidates
    come radius by radius, one per array in stack order; one forward
    transform covers the stack and each radius takes one inverse.
    """
    g = mags ** mp.p * grid.spacing**3
    del mags  # the generator's frame would keep it alive through the radius loop
    ghat = _sfft.rfftn(g, axes=(-3, -2, -1))
    st = sampling.stride
    for r in sampling.radii(grid):
        kern, _ = _ball_kernel(grid.n, grid.l, r)
        mass = _sfft.irfftn(ghat * kern, s=g.shape[1:], axes=(-3, -2, -1))
        for sub in np.maximum(mass[:, ::st, ::st, ::st], 0.0):
            idx = np.unravel_index(np.argmax(sub), sub.shape)
            val = r ** (-mp.lam / mp.p) * sub[idx] ** (1.0 / mp.p)
            yield float(val), tuple(st * i for i in idx), r
    if mp.lam == 0.0:
        # sup over arbitrarily large radii degenerates to the global integral
        for gi in g:
            yield float(gi.sum() ** (1.0 / mp.p)), None, math.inf


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
    """Sup-weighted and time-integrated Morrey seminorms of one trace sweep."""

    w0: float
    j0: float
    w0_bar: float
    j0_bar: float
    w1: float
    j1: float
    w1_bar: float
    j1_bar: float

    def as_dict(self) -> dict[str, float]:
        return {
            "w0": self.w0, "j0": self.j0, "w0_bar": self.w0_bar, "j0_bar": self.j0_bar,
            "w1": self.w1, "j1": self.j1, "w1_bar": self.w1_bar, "j1_bar": self.j1_bar,
        }


def _node_norms(vh: np.ndarray, grid: Grid, mp: MorreyParams, sampling: BallSampling) -> tuple[float, float]:
    """Morrey norms of ``|v|`` and ``|grad v|`` from the half spectrum ``vh``.

    An overflow gives non-finite norms.
    """
    n = grid.n
    kd = _tables(grid)["kd"]
    # (d v / d x_i)**2 summed over i; the n**3 of the inverse folds exactly
    # into the multiplier, because n is a power of two
    sq = sum(_sfft.irfftn((1j * n**3) * kd[i] * vh, s=(n,) * 3, axes=(-3, -2, -1)) ** 2 for i in range(3))
    mags = np.stack([np.sum(_inv(vh) ** 2, axis=0), np.sum(sq, axis=0)])
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
    if not 2 * p + q > 3:
        raise ValueError(f"need 2p + q > 3 for integrable weights, got p={p}, q={q}")
    mp = MorreyParams(p, q)
    nodes = trace.mesh.nodes
    e0 = 1.0 - (3.0 - q) / (2.0 * p)
    e1 = 1.5 - (3.0 - q) / (2.0 * p)
    a0 = 2.0 * p / (2.0 * p - 3.0 + q)
    a1 = 2.0 * p / (3.0 * p - 3.0 + q)

    count = len(nodes)

    def task(i):  # one per (field, node): the vorticity nodes, then the current nodes
        return _node_norms(trace.spectra[divmod(i, count)], trace.grid, mp, sampling)

    norms = list(node_map(task, 2 * count))
    om, om_g = zip(*norms[:count])
    jm, jm_g = zip(*norms[count:])

    return WeightedSeminorms(
        w0=_sup_weighted(nodes, om, e0),
        j0=_sup_weighted(nodes, jm, e0),
        w0_bar=_time_lp(nodes, om, a0),
        j0_bar=_time_lp(nodes, jm, a0),
        w1=_sup_weighted(nodes, om_g, e1),
        j1=_sup_weighted(nodes, jm_g, e1),
        w1_bar=_time_lp(nodes, om_g, a1),
        j1_bar=_time_lp(nodes, jm_g, a1),
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
