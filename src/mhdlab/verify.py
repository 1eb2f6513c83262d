"""Machine-checkable property suites: identities, recursions, regions, inequality scans.

Each suite returns a JSON-friendly report with one entry per check; a check
compares a measured quantity against a bound.  Bounds are either structural
(round-off budgets, sharp constants plus sampling slack) or pinned reference
values: those were computed once with the oracles named in the tests and are
committed below, so later runs must reproduce them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma as _gamma

from . import theory
from .fields import (
    ScalarField,
    VectorField,
    curl,
    divergence,
    lp_norm,
    make_grid,
    zero_vector,
)
from .initial_data import _finalize, _noise_hat
from .kernels import biot_savart, gaussian_bump, riesz_potential
from .mild import current_source, stretching_form, vorticity_flux
from .morrey import (
    MorreyParams,
    holder_check,
    interpolation_check,
    morrey_norm,
    smoothing_ratio_scan,
)
from .theory import ConstantsLedger, RegionQuery

#: pinned reference values, computed once on the canonical n=32, l=2*pi grid
GOLDEN = {
    # sup over t in geomspace(1e-2, 1e2, 13) of the weighted heat ratios,
    # sigma=0.3 unit-mass bump (box effects keep the window finite)
    "t1_gauss_10_to_20": 2.007845064777145,
    "t1_gauss_10_to_11": 1.6582849325694242,
    "t2_gauss_10_to_20": 0.06865581252823194,
    "t3_gauss_10_to_20": 0.08169939334402734,
}

#: regression-pinned upper bounds for the inequality corpora (measured max + headroom)
PINNED_BOUNDS = {
    "embedding_ratio": 1.2697,       # analytic per-ball volume factor (4*pi/3)**(1/1.5 - 1/2)
    "biot_savart_q3": 0.31,
    "biot_savart_q15": 0.21,
    "biot_savart_supnorm": 0.18,     # empirical only; the free-space prefactor is not asserted
    "riesz_lam0": 0.36,
    "riesz_lam1": 0.36,
    "sharp_ratio_slack": 1.02,       # Hoelder-type checks: constant 1 plus sampling slack
}

_TSET = tuple(np.geomspace(1e-2, 1e2, 13))


def _check(name: str, measured: float, bound: float, passed: bool | None = None) -> dict:
    ok = (measured <= bound) if passed is None else passed
    return {"name": name, "measured": float(measured), "bound": float(bound), "passed": bool(ok)}


def _finish(suite: str, checks: list[dict]) -> dict:
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def _default_grid():
    return make_grid(32, 2 * math.pi)


def _solenoidal_bump_field(grid, seed: int, cutoff: float = 6.0, slope: float = -1.5) -> VectorField:
    """Band-limited solenoidal field with bump-localized support and unit peak, deterministic per seed."""
    return _finalize(_noise_hat(grid, seed, cutoff, slope, gaussian_bump(grid, 0.5).values), grid, 1.0)


def _mq(q: float) -> MorreyParams:
    # localized-measure scale of norms: integrability 1, scaling 3*(1 - 1/q)
    return MorreyParams(1.0, 3.0 * (1.0 - 1.0 / q))


# ---------------------------------------------------------------------------
# suites


def suite_identities() -> dict:
    grid = _default_grid()
    checks = []
    worst = {"grad_dot": 0.0, "div_cross": 0.0, "curl_cross": 0.0}
    for seed in range(10):
        F = _solenoidal_bump_field(grid, 100 + seed)
        G = _solenoidal_bump_field(grid, 200 + seed)
        for key, val in theory.vector_identity_check(F, G).items():
            worst[key] = max(worst[key], val)
    for key, val in worst.items():
        checks.append(_check(f"vector_identity_{key}", val, 1e-10))

    worst_eq = 0.0
    worst_div = 0.0
    zero = zero_vector(grid)
    for seed in range(5):
        u, w, b, j = (_solenoidal_bump_field(grid, 300 + 10 * seed + i) for i in range(4))
        flux = vorticity_flux(u, w, b, j)
        st = stretching_form(u, w, b, j)
        scale = max(np.abs(flux.values).max(), np.finfo(float).tiny)
        worst_eq = max(worst_eq, float(np.abs(flux.values - st.values).max() / scale))
        worst_div = max(worst_div, float(np.abs(divergence(flux).values).max() / scale))
        # the double-curl current source against the curl of its gradient form
        src = current_source(u, b)
        alt = curl(stretching_form(u, b, zero, zero))
        sscale = max(np.abs(src.values).max(), np.finfo(float).tiny)
        worst_eq = max(worst_eq, float(np.abs(src.values - alt.values).max() / sscale))
    checks.append(_check("flux_equals_stretching_and_double_curl", worst_eq, 1e-10))
    checks.append(_check("flux_divergence_free", worst_div, 1e-10))
    return _finish("identities", checks)


def suite_recursions() -> dict:
    checks = []
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.05, 4.0))
        b = float(rng.uniform(0.05, 4.0))
        oracle = _gamma(a) * _gamma(b) / _gamma(a + b)
        worst = max(worst, abs(theory.beta_C(a, b) - oracle) / oracle)
    checks.append(_check("beta_vs_gamma_oracle", worst, 1e-10))

    worst = 0.0
    for a in (0.3, 0.8, 1.5):
        for b in (0.4, 1.0, 2.5):
            for t in (0.25, 1.0, 4.0):
                direct = theory.beta_time_integral(a, b, t)
                scaled = theory.beta_C(a, b) * t ** (a + b - 1.0)
                worst = max(worst, abs(direct - scaled) / scaled)
    checks.append(_check("time_integral_scaling", worst, 1e-8))

    worst_sym = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(0.1, 3.0))
        ca, cb = theory.beta_C(a, b), theory.beta_C(b, a)
        worst_sym = max(worst_sym, abs(ca - cb) / ca)
    checks.append(_check("beta_symmetry", worst_sym, 1e-12))

    ok = True
    for _ in range(50):
        a1 = float(rng.uniform(0.01, 0.4))
        b1 = float(rng.uniform(0.01, (1.0 - 1e-6) / (4 * a1)))
        root = (1 - math.sqrt(1 - 4 * a1 * b1)) / (2 * b1)
        x0 = float(rng.uniform(0.0, root))
        _, bound_ok = theory.cor1_recursion(a1, b1, x0, 60)
        ok = ok and bound_ok
    checks.append(_check("quadratic_recursion_bound", 0.0 if ok else 1.0, 0.5, passed=ok))

    maps_ok = (
        theory.lemma1_bound_check(lambda x: 0.1 + x * x, (1 - math.sqrt(0.6)) / 2, 0.0, 50)
        and theory.lemma1_bound_check(lambda x: x, 0.5, 0.5, 50)
        and theory.lemma1_bound_check(math.sqrt, 1.0, 0.25, 50)
    )
    checks.append(_check("monotone_map_bound", 0.0 if maps_ok else 1.0, 0.5, passed=maps_ok))
    return _finish("recursions", checks)


#: hand-evaluated membership table: (kind, args, expected)
REGION_TABLE = [
    ("a1", (1.5, 1.0), True),
    ("a1", (1.0, 1.0), False),       # p on the open boundary
    ("a1", (2.0, 0.9), False),       # p on the other boundary, q below 1
    ("a1", (1.2, 1.7), True),
    ("a1", (1.1, 1.05), False),      # hyperbola constraint: 0.9*2.95 > 2
    ("a1", (1.9, 1.05), True),
    ("a1", (1.5, 1.5), False),       # q = 3 - p excluded
    ("a1", (1.5, 0.5), False),       # q below 1
    ("a1", (1.25, 1.6), True),
    ("a1", (1.05, 1.0), False),      # hyperbola: 0.95*3 > 2
    ("a2", (1.5, 1.0), True),
    ("a2", (1.34, 1.0), True),
    ("a2", (4.0 / 3.0, 1.0), False),  # lower endpoint is open
    ("a2", (1.9, 1.2), False),       # p past 3 - q
    ("a2", (1.5, 1.9), False),
    ("a2", (1.05, 1.9), True),
    ("a2", (1.5, 2.0), False),       # q = 2 excluded
    ("e1", (1.5, 1.0, 1.0, 1.0), True),
    ("e1", (1.5, 1.0, 1.25, 0.5), True),
    ("e1", (1.5, 1.0, 1.2, 0.5), False),  # 2*p0 + q0 = 2.9 misses 3
    ("e1", (2.2, 0.5, 1.25, 0.5), True),  # p above 2 is allowed here
    ("e1", (1.5, 0.5, 1.0, 1.0), False),  # q below q0
    ("e1", (1.4, 1.6, 1.0, 1.0), False),  # p + q = 3 excluded
]

_WITNESS_PAIRS = ((1.5, 1.0), (1.6, 1.2), (1.4, 1.1), (1.7, 1.05), (1.3, 1.3))


def suite_regions() -> dict:
    checks = []
    fns = {"a1": theory.region_a1, "a2": theory.region_a2, "e1": theory.region_e1}
    bad = [
        (kind, args)
        for kind, args, expected in REGION_TABLE
        if fns[kind](*args) is not expected
    ]
    checks.append(_check("membership_table", float(len(bad)), 0.5, passed=not bad))

    worst = 0.0
    all_found = True
    for p, q in _WITNESS_PAIRS:
        rq = RegionQuery(p=p, q=q, p0=1.0, q0=1.0, q0_tilde=1.0, q1=q)
        w = theory.e2_witness_search(rq)
        if w is None:
            all_found = False
            continue
        pp = p / (p - 1.0)
        closed_p_tilde = pp * (3.0 - q) / (3.0 - q + pp)
        worst = max(
            worst,
            abs(w.q2 - q),
            abs(w.q3 - q),
            abs(w.p_tilde - closed_p_tilde),
            max(theory.e2_residuals(rq, w).values()),
        )
    checks.append(_check("witness_closed_form", worst, 1e-9, passed=all_found and worst <= 1e-9))

    g1 = theory.smallness_threshold(1.5, 1.0)
    checks.append(_check("smallness_threshold_canonical", abs(g1 - 0.0058963), 1e-6))
    return _finish("regions", checks)


def suite_props() -> dict:
    grid = _default_grid()
    bump = gaussian_bump(grid, 0.3)
    checks = []

    pairs = [
        ("t1_gauss_10_to_20", MorreyParams(1, 0), MorreyParams(2, 0), "heat"),
        ("t1_gauss_10_to_11", MorreyParams(1, 0), MorreyParams(1, 1), "heat"),
        ("t2_gauss_10_to_20", MorreyParams(1, 0), MorreyParams(2, 0), "heat_grad"),
        ("t3_gauss_10_to_20", MorreyParams(1, 0), MorreyParams(2, 0), "heat_dt"),
    ]
    for key, m_from, m_to, op in pairs:
        sup = smoothing_ratio_scan(bump, m_from, m_to, _TSET, op).sup
        rel = abs(sup - GOLDEN[key]) / GOLDEN[key]
        checks.append(_check(f"scan_{key}", rel, 0.01))

    same = smoothing_ratio_scan(bump, MorreyParams(1.5, 1), MorreyParams(1.5, 1), _TSET, "heat")
    checks.append(_check("scan_same_exponent_bounded", max(same.ratios), PINNED_BOUNDS["sharp_ratio_slack"]))

    corpus = [gaussian_bump(grid, s) for s in (0.2, 0.3, 0.45, 0.6)]

    emb = max(
        morrey_norm(f, MorreyParams(1.5, 1.5)) / morrey_norm(f, MorreyParams(2.0, 1.0))
        for f in corpus
    )
    checks.append(_check("embedding_ratio", emb, PINNED_BOUNDS["embedding_ratio"]))

    p1v = 0.0
    p0_, p1_, th = 1.5, 3.0, 0.4
    pm = 1.0 / ((1 - th) / p0_ + th / p1_)
    for f in corpus:
        denom = morrey_norm(f, _mq(p0_)) ** (1 - th) * morrey_norm(f, _mq(p1_)) ** th
        p1v = max(p1v, morrey_norm(f, _mq(pm)) / denom)
    checks.append(_check("interpolation_measure_scale", p1v, PINNED_BOUNDS["sharp_ratio_slack"]))

    interp = max(
        max(
            interpolation_check(f, 1.0, 0.0, 3.0, 0.0, 0.5),
            interpolation_check(f, 1.0, 1.0, 2.0, 1.0, 0.4),
        )
        for f in corpus
    )
    checks.append(_check("interpolation_two_norm", interp, PINNED_BOUNDS["sharp_ratio_slack"]))

    hold = max(
        holder_check(f, h, 1.0, 1.0, 2.0, 1.0, 2.0, 1.0) for f in corpus for h in corpus
    )
    checks.append(_check("holder_product", hold, PINNED_BOUNDS["sharp_ratio_slack"]))

    bs3 = bs15 = bs_sup = 0.0
    for seed in range(5):
        mu = _solenoidal_bump_field(grid, 10 + seed)
        u = biot_savart(mu)
        bs3 = max(bs3, morrey_norm(u, _mq(3.0)) / morrey_norm(mu, _mq(1.5)))
        bs15 = max(bs15, morrey_norm(u, _mq(1.5)) / morrey_norm(mu, _mq(1.0)))
        # interpolated sup-norm control of the inverted curl (reported, not
        # compared to any free-space constant)
        den = morrey_norm(mu, _mq(2.0)) ** (1 / 3) * morrey_norm(mu, _mq(4.0)) ** (2 / 3)
        bs_sup = max(bs_sup, lp_norm(u, math.inf) / den)
    checks.append(_check("biot_savart_q3", bs3, PINNED_BOUNDS["biot_savart_q3"]))
    checks.append(_check("biot_savart_q15", bs15, PINNED_BOUNDS["biot_savart_q15"]))
    checks.append(_check("biot_savart_supnorm", bs_sup, PINNED_BOUNDS["biot_savart_supnorm"]))

    r0 = r1 = 0.0
    for f in corpus:
        zf = ScalarField(grid, f.values - f.values.mean())
        s = riesz_potential(zf, 1.0)
        r0 = max(r0, lp_norm(s, 3.0) / lp_norm(zf, 1.5))
        r1 = max(
            r1,
            morrey_norm(s, MorreyParams(4.0, 1.0)) / morrey_norm(zf, MorreyParams(4.0 / 3.0, 1.0)),
        )
    checks.append(_check("riesz_lam0", r0, PINNED_BOUNDS["riesz_lam0"]))
    checks.append(_check("riesz_lam1", r1, PINNED_BOUNDS["riesz_lam1"]))
    return _finish("props", checks)


_SUITES = {
    "identities": suite_identities,
    "recursions": suite_recursions,
    "regions": suite_regions,
    "props": suite_props,
}


def run_suite(name: str) -> dict:
    """Run one suite (or 'all'); returns the JSON-friendly report."""
    if name == "all":
        reports = [fn() for fn in _SUITES.values()]
        return {
            "suite": "all",
            "passed": all(r["passed"] for r in reports),
            "suites": reports,
        }
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {sorted(_SUITES)} or 'all'")
    return _SUITES[name]()


def estimated_ledger(grid=None) -> ConstantsLedger:
    """The three gains of the smallness threshold, measured by smoothing and product scans."""
    grid = grid if grid is not None else _default_grid()
    bump = gaussian_bump(grid, 0.3)
    tw = tuple(np.geomspace(1e-2, 1.0, 7))
    heat_sup = smoothing_ratio_scan(bump, MorreyParams(1, 1), MorreyParams(1.5, 1), tw, "heat").sup
    grad_sup = smoothing_ratio_scan(
        bump, MorreyParams(1, 1), MorreyParams(1.5, 1), tw, "heat_grad"
    ).sup
    prod = 0.0
    for seed in range(3):
        w = _solenoidal_bump_field(grid, 20 + seed)
        u = biot_savart(w)
        uw = ScalarField(
            grid,
            np.sqrt(np.sum(u.values**2, axis=0)) * np.sqrt(np.sum(w.values**2, axis=0)),
        )
        prod = max(prod, morrey_norm(uw, MorreyParams(1.2, 1.0)) / morrey_norm(w, MorreyParams(1.5, 1.0)) ** 2)
    return ConstantsLedger(
        heat_smoothing=heat_sup, duhamel_smoothing=grad_sup, product_estimate=prod, provenance="empirical"
    )
