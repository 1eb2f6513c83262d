"""Recursion bounds, exponent-region combinatorics, smallness thresholds, and
the vector-calculus identities used to close the estimates.

Region membership follows the defining inequalities literally, with exact
comparisons (no epsilon padding); only a witness's closed range bounds admit
round-off.  The smallness threshold reads three gains,
constants that the analysis leaves unspecified; a frozen
:class:`ConstantsLedger` holds them (1 by default) with one provenance tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    _advection,
    _dealias_values,
    _fwd,
    _same_grid,
    curl,
    divergence,
    gradient,
)


# ---------------------------------------------------------------------------
# beta constants


def _split_beta(a: float, b: float, t: float) -> float:
    """``int_0^t (t-s)^(a-1) s^(b-1) ds`` by adaptive quadrature, split at ``t/2``.

    Each half removes its endpoint singularity (exponent below 1) by the
    substitution ``u = s**expo`` in the distance to that endpoint.
    """
    from scipy.integrate import quad  # imported on use: it is most of the package's import time

    def half_from_zero(expo_near: float, expo_far: float) -> float:
        # int_0^(t/2) (t-s)^(expo_far-1) s^(expo_near-1) ds  with u = s**expo_near
        top = (t / 2.0) ** expo_near
        val, _ = quad(
            lambda u: (t - u ** (1.0 / expo_near)) ** (expo_far - 1.0),
            0.0,
            top,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=200,
        )
        return val / expo_near

    return half_from_zero(b, a) + half_from_zero(a, b)


def beta_C(a: float, b: float) -> float:
    """The constant ``C(a, b) = int_0^1 (1-s)^(a-1) s^(b-1) ds`` by adaptive quadrature.

    The endpoint singularities (for exponents below 1) are removed by the
    substitution ``u = s**b`` near 0 and symmetrically near 1.  Requires
    ``a, b > 0`` (the integral diverges otherwise).
    """
    if a <= 0 or b <= 0:
        raise ValueError(f"beta constant needs positive arguments, got ({a}, {b})")
    return _split_beta(a, b, 1.0)


def beta_time_integral(a: float, b: float, t: float) -> float:
    """Direct quadrature of ``int_0^t (t-s)^(a-1) s^(b-1) ds`` (no rescaling shortcut)."""
    if a <= 0 or b <= 0:
        raise ValueError(f"integral needs positive exponents, got ({a}, {b})")
    if t <= 0:
        raise ValueError("t must be positive")
    return _split_beta(a, b, t)


# ---------------------------------------------------------------------------
# recursion harnesses


def cor1_recursion(a1: float, b1: float, x0: float, k_max: int) -> tuple[np.ndarray, bool]:
    """Iterate ``X_{k+1} = a1 + b1 X_k^2`` and check the quadratic-recursion bound.

    Requires ``a1, b1 > 0``, ``1 - 4 a1 b1 > 0`` and a start at or below the
    smaller root of ``x = a1 + b1 x^2``.  Returns the sequence (including the
    start) and whether every term stayed at or below the root and strictly
    below ``2 a1``.
    """
    if a1 <= 0 or b1 <= 0:
        raise ValueError("coefficients must be positive")
    disc = 1.0 - 4.0 * a1 * b1
    if disc <= 0:
        raise ValueError(f"need 1 - 4*a1*b1 > 0, got {disc}")
    root = (1.0 - math.sqrt(disc)) / (2.0 * b1)
    if x0 > root * (1 + 1e-15):
        raise ValueError(f"start {x0} exceeds the fixed point {root}")
    seq = [float(x0)]
    for _ in range(k_max):
        seq.append(a1 + b1 * seq[-1] ** 2)
    arr = np.asarray(seq)
    ok = bool(np.all(arr <= root + 1e-12) and np.all(arr < 2.0 * a1))
    return arr, ok


def lemma1_bound_check(f: Callable[[float], float], x_star: float, x0: float, k_max: int) -> bool:
    """Check that iterating a monotone map from below its fixed point stays below it.

    ``f`` must be monotonically non-decreasing on ``[0, x_star]`` (spot-checked
    on a sample grid; violations abort) with ``f(x_star) = x_star``.  Returns
    True when all ``k_max`` iterates stay at or below ``x_star + 1e-12``.
    """
    if x0 > x_star:
        raise ValueError(f"start {x0} exceeds the fixed point {x_star}")
    if abs(f(x_star) - x_star) > 1e-9 * max(1.0, abs(x_star)):
        raise ValueError(f"{x_star} is not a fixed point of the map")
    xs = np.linspace(0.0, x_star, 65)
    vals = np.array([f(x) for x in xs])
    drops = np.diff(vals)
    if np.any(drops < -1e-12):
        i = int(np.argmin(drops))
        raise RuntimeError(
            f"map is not non-decreasing on [0, {x_star}]: f({xs[i]:.6g}) = {vals[i]:.6g} "
            f"> f({xs[i + 1]:.6g}) = {vals[i + 1]:.6g}"
        )
    x = float(x0)
    for _ in range(k_max):
        x = f(x)
        if x > x_star + 1e-12:
            return False
    return True


# ---------------------------------------------------------------------------
# exponent regions


def region_a1(p: float, q: float) -> bool:
    return 1 < p < 2 and 1 <= q < 3 - p and (p - 2) * (q - 4) <= 2 and 3 < 2 * p + q < 6


def region_a2(p: float, q: float) -> bool:
    return 1 <= q < 2 and 2 * (3 - q) / (4 - q) < p < 3 - q


def region_e1(p: float, q: float, p0: float, q0: float) -> bool:
    return (
        1 <= p0 <= p
        and 0 <= q0 < 3
        and 2 * p0 + q0 == 3
        and 1 < p
        and q0 <= q < 3
        and p + q < 3
        and 3 < 2 * p + q < 6
        and (q - 4) * (p - 2) <= 2
    )


@dataclass(frozen=True)
class RegionQuery:
    """Exponent tuple for the extended-region witness search."""

    p: float
    q: float
    p0: float
    q0: float
    q0_tilde: float
    q1: float


@dataclass(frozen=True)
class E2Witness:
    """Auxiliary exponents certifying membership in the extended region."""

    q2: float
    q3: float
    p_tilde: float
    theta: float


def _conjugate(p: float) -> float:
    if p <= 1:
        raise ValueError("conjugate exponent needs p > 1")
    return p / (p - 1.0)


def _derive_from_q3(rq: RegionQuery, q3: float) -> E2Witness:
    pp = _conjugate(rq.p)
    p_tilde = 1.0 / (1.0 / pp + 1.0 / (3.0 - q3))
    theta = (1.0 / p_tilde - 1.0 / rq.p) / (1.0 - 1.0 / rq.p)
    q2 = q3 / pp + rq.q / rq.p
    return E2Witness(q2=q2, q3=q3, p_tilde=p_tilde, theta=theta)


def _e2_signed(rq: RegionQuery, w: E2Witness) -> tuple[float, float, float, float, float]:
    """Signed residuals of the q2, p_tilde, theta, q3 and weight identities of a witness."""
    pp = _conjugate(rq.p)
    return (
        w.q2 - (w.q3 / pp + rq.q / rq.p),
        1.0 / w.p_tilde - (1.0 / pp + 1.0 / (3.0 - w.q3)),
        1.0 / w.p_tilde - (w.theta + (1.0 - w.theta) / rq.p),
        w.q3 / w.p_tilde - (rq.q1 * w.theta + (rq.q / rq.p) * (1.0 - w.theta)),
        (w.q2 - rq.q0_tilde + 1.0) / 2.0
        - (
            (rq.q1 - rq.q0_tilde) / 2.0 * w.theta
            + (2.0 * rq.p - 3.0 + rq.q) / (2.0 * rq.p) * (2.0 - w.theta)
        ),
    )


def e2_residuals(rq: RegionQuery, w: E2Witness) -> dict[str, float]:
    """Residuals of the defining equations of a witness (ranges checked separately)."""
    names = ("q2_identity", "p_tilde_identity", "theta_identity", "q3_identity", "weight_identity")
    return {name: abs(r) for name, r in zip(names, _e2_signed(rq, w))}


#: largest residual a witness of :func:`e2_witness_search` may leave, and the
#: slack its closed range bounds allow
_WITNESS_TOL = 1e-9


def e2_witness_in_range(rq: RegionQuery, w: E2Witness) -> bool:
    """Range constraints on a witness: exponent intervals and both unit-window gaps.

    Closed lower bounds admit ``-_WITNESS_TOL``: the canonical witness sits on ``q1 - q2 = 0``.
    """
    pp = _conjugate(rq.p)
    low = -_WITNESS_TOL
    return (
        low <= w.q2 < 3
        and low <= w.q3 < 3
        and 1 < w.p_tilde < min(rq.p, pp)
        and 0 < w.theta < 1
        and low <= rq.q1 - rq.q0_tilde < 1
        and low <= rq.q1 - w.q2 < 1
    )


def _witness_valid(rq: RegionQuery, w: E2Witness) -> bool:
    if not e2_witness_in_range(rq, w):
        return False
    res = e2_residuals(rq, w)
    return all(v <= _WITNESS_TOL for v in res.values())


def e2_witness_search(rq: RegionQuery) -> E2Witness | None:
    """Auxiliary exponents closing the region system: the smallest admissible root of one quadratic.

    With ``p_tilde``, ``theta`` and ``q2`` eliminated, the q3 and weight
    identities are quadratics in ``q3`` over ``p (p-1) (q3-3)`` whose numerators
    differ by ``p (q0_tilde-1) (q3+p-3)``.  Their one common root for
    ``q0_tilde != 1``, ``3 - p``, gives ``theta = 1``, out of range; so the real
    roots in [0, 3) of the q3 numerator are tried in ascending order, and None
    is returned if the residuals and ranges accept none.  Absence of a witness
    is a valid outcome, not an error.
    """
    if not region_e1(rq.p, rq.q, rq.p0, rq.q0):
        raise ValueError("base exponents (p, q, p0, q0) are outside the admissible region")
    if not 0 <= rq.q1 - rq.q0_tilde < 1:
        raise ValueError(f"need 0 <= q1 - q0_tilde < 1, got {rq.q1 - rq.q0_tilde}")

    p, q, q1 = rq.p, rq.q, rq.q1
    a = (p - 1.0) ** 2
    b = -p * p * q1 - 4.0 * p * p + 2.0 * p * q1 + 7.0 * p - q - 3.0
    c = 4.0 * p * p * q1 - p * q - 6.0 * p * q1 + 3.0 * q
    disc = b * b - 4.0 * a * c
    if disc < 0:
        return None
    t = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation against b
    roots = (t / a, c / t) if t else (0.0,)  # t = 0 only for b = c = 0
    for q3 in sorted(r for r in roots if 0 <= r < 3):
        w = _derive_from_q3(rq, q3)
        if _witness_valid(rq, w):
            return w
    return None


# ---------------------------------------------------------------------------
# constants ledger and the smallness threshold


@dataclass(frozen=True)
class ConstantsLedger:
    """The three gains that :func:`smallness_threshold` reads, and where they came from.

    Each gain is a constant that the analysis leaves unspecified, 1 by default.
    ``provenance`` is ``"empirical"`` when :func:`mhdlab.verify.estimated_ledger`
    measured the gains, and ``"default"`` otherwise.
    """

    heat_smoothing: float = 1.0     # gain of the heat flow between the two Morrey norms
    duhamel_smoothing: float = 1.0  # gain of the heat-smoothed time convolution
    product_estimate: float = 1.0   # gain of the bilinear product/curl-inversion bound
    provenance: str = "default"

    def __post_init__(self) -> None:
        for name in ("heat_smoothing", "duhamel_smoothing", "product_estimate"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"ledger gain {name!r} must be positive, got {value}")
        if self.provenance not in ("default", "empirical"):
            raise ValueError(f"ledger provenance must be 'default' or 'empirical', got {self.provenance!r}")


def smallness_threshold(p: float, q: float, ledger: ConstantsLedger = ConstantsLedger()) -> float:
    """Initial-size bound under which the whole-trajectory iteration contracts.

    ``min(1/C(1 - (3-q)/(2p), (3-q)/p - 1), 1) / (32 * g_heat * g_duhamel * g_product)``
    with the three gains taken from the ledger.  Requires admissible (p, q).
    ``C`` is the beta function, taken in closed form (not by
    :func:`beta_C`'s quadrature) so that a run can record the threshold
    without importing the quadrature.
    """
    if not region_a1(p, q):
        raise ValueError(f"(p, q) = ({p}, {q}) is outside the admissible region")
    a = 1.0 - (3.0 - q) / (2.0 * p)
    b = (3.0 - q) / p - 1.0
    gains = ledger.heat_smoothing * ledger.duhamel_smoothing * ledger.product_estimate
    beta = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    return min(1.0 / beta, 1.0) / (32.0 * gains)


# ---------------------------------------------------------------------------
# vector-field identities


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest ``|lhs - rhs|`` over the larger of the two sides' largest magnitudes."""
    tiny = np.finfo(float).tiny
    return float(np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), tiny))


def vector_identity_check(F: VectorField, G: VectorField) -> dict[str, float]:
    """Relative residuals of the three product identities for vector fields.

    Keys: ``grad_dot`` for the gradient of a dot product, ``div_cross`` for
    the divergence of a cross product, ``curl_cross`` for the curl of a cross
    product.  Products are dealiased before any differentiation on both sides,
    so band-limited inputs give round-off-level residuals.
    """
    grid = _same_grid(F, G)
    f, g = F.values, G.values
    curl_f = curl(F).values
    curl_g = curl(G).values
    div_f = divergence(F).values
    div_g = divergence(G).values
    cross_fg = VectorField(grid, _dealias_values(np.cross(f, g, axis=0), grid))
    adv_fg = _advection(f, _fwd(g), grid)  # (F.grad)G
    adv_gf = _advection(g, _fwd(f), grid)  # (G.grad)F

    # grad(F . G) = (F.grad)G + (G.grad)F + F x curl G + G x curl F
    dot = ScalarField(grid, _dealias_values(np.sum(f * g, axis=0), grid))
    rhs = adv_fg + adv_gf + np.cross(f, curl_g, axis=0) + np.cross(g, curl_f, axis=0)
    # div(F x G) = G . curl F - F . curl G
    rhs_s = np.sum(g * curl_f - f * curl_g, axis=0)
    # curl(F x G) = F div G - G div F + (G.grad)F - (F.grad)G
    rhs_c = f * div_g[None] - g * div_f[None] + adv_gf - adv_fg
    return {
        "grad_dot": _relative_residual(gradient(dot).values, _dealias_values(rhs, grid)),
        "div_cross": _relative_residual(divergence(cross_fg).values, _dealias_values(rhs_s, grid)),
        "curl_cross": _relative_residual(curl(cross_fg).values, _dealias_values(rhs_c, grid)),
    }
