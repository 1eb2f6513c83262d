"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, not in helper code.
"""

import json
import math

import numpy as np
import pytest

from mhdlab.cli import main as cli_main
from mhdlab.fields import (
    ScalarField,
    VectorField,
    curl,
    dealias_field,
    divergence,
    gradient,
    lp_norm,
    make_grid,
    project_div_free,
    to_physical,
    to_spectral,
)
from mhdlab.initial_data import generate_initial_data
from mhdlab.kernels import (
    biot_savart,
    gaussian_bump,
    heat_grad_propagate,
    heat_propagate,
    heat_time_derivative,
)
from mhdlab.mild import (
    TimeMesh,
    heat_flow_trace,
    max_retained_k2,
    reference_timestepper,
    run_picard,
    weak_star_check,
)
from mhdlab.morrey import BallSampling, MorreyParams, morrey_norm, smoothing_ratio_scan
from mhdlab.verify import GOLDEN, run_suite

from .conftest import band_limited_scalar, band_limited_vector, rel_max_err, solenoidal_vector
from .oracles import constant_field_norm, fine_radii, morrey_direct


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def grid():
    return make_grid(32, 2 * math.pi)


@pytest.fixture(scope="module")
def coupled_data(grid):
    return generate_initial_data(
        {
            "omega": {
                "family": "single_mode",
                "wavevector": [1, 0, 0],
                "component": 3,
                "amplitude": 1e-3,
            },
            "j": {
                "family": "single_mode",
                "wavevector": [0, 0, 1],
                "component": 2,
                "amplitude": 1e-3,
            },
        },
        grid,
    )


def test_criterion_01_spectral_exactness(grid):
    worst = 0.0
    for seed in range(20):
        f = band_limited_scalar(grid, 1000 + seed, cutoff=grid.n)
        worst = max(worst, rel_max_err(to_physical(to_spectral(f)).values, f.values))
        v = band_limited_vector(grid, 2000 + seed)
        scale = np.abs(v.values).max()
        worst = max(worst, np.abs(divergence(curl(v)).values).max() / scale)
        phi = band_limited_scalar(grid, 3000 + seed)
        worst = max(worst, np.abs(curl(gradient(phi)).values).max())
        pv = project_div_free(v)
        worst = max(worst, rel_max_err(project_div_free(pv).values, pv.values))
    ok = worst <= 1e-12
    _report(1, ok, f"spectral exactness, worst residual {worst:.3e} (tol 1e-12)")
    assert ok


def test_criterion_02_biot_savart_inversion(grid):
    worst = 0.0
    for seed in range(10):
        w = solenoidal_vector(grid, 4000 + seed)
        u = biot_savart(w)
        err = lp_norm(VectorField(grid, curl(u).values - w.values), 2) / lp_norm(w, 2)
        worst = max(worst, err)
    ok = worst <= 1e-10
    _report(2, ok, f"curl inversion, worst relative L2 error {worst:.3e} (tol 1e-10)")
    assert ok


def test_criterion_03_heat_operators(grid):
    f = band_limited_scalar(grid, 77, cutoff=grid.n)
    semigroup = rel_max_err(
        heat_propagate(heat_propagate(f, 0.3), 0.7).values, heat_propagate(f, 1.0).values
    )
    grad_consistency = rel_max_err(
        heat_grad_propagate(f, 0.6).values, gradient(heat_propagate(f, 0.6)).values
    )
    smooth = band_limited_scalar(grid, 78, cutoff=3)
    dt = 1e-5
    fd = (heat_propagate(smooth, 1 + dt).values - heat_propagate(smooth, 1 - dt).values) / (2 * dt)
    exact = heat_time_derivative(smooth, 1.0).values
    fd_err = np.abs(fd - exact).max() / np.abs(exact).max()

    g64 = make_grid(64, 2 * math.pi)
    bump = gaussian_bump(g64, 0.3)
    widened = gaussian_bump(g64, math.sqrt(0.3**2 + 2 * 0.105))
    gauss_err = np.abs(heat_propagate(bump, 0.105).values - widened.values).max()

    ok = semigroup <= 1e-12 and grad_consistency <= 1e-12 and fd_err <= 1e-6 and gauss_err <= 1e-8
    _report(
        3,
        ok,
        f"heat operators: semigroup {semigroup:.2e} (1e-12), grad {grad_consistency:.2e} "
        f"(1e-12), d/dt vs FD {fd_err:.2e} (1e-6), gaussian width {gauss_err:.2e} (1e-8)",
    )
    assert ok


def test_criterion_04_morrey_estimator(grid):
    c = 0.7
    const = ScalarField(grid, np.full((grid.n,) * 3, c))
    sampling = BallSampling()
    radii = sampling.radii(grid)
    errs = []
    total = morrey_norm(const, MorreyParams(1, 0), sampling)
    errs.append(abs(total - c * grid.volume) / (c * grid.volume))
    for p, lam in ((1.0, 1.0), (2.0, 1.0), (1.5, 2.0)):
        oracle = constant_field_norm(grid, c, MorreyParams(p, lam), radii)
        errs.append(abs(morrey_norm(const, MorreyParams(p, lam), sampling) - oracle) / oracle)
    closed_form_err = max(errs)

    oracle_gap = 0.0
    fine = BallSampling(stride=2, radii_per_octave=4)
    for sigma in (0.2, 0.3):
        bump = gaussian_bump(grid, sigma)
        value = morrey_norm(bump, MorreyParams(1, 1), fine)
        oracle = morrey_direct(
            bump, MorreyParams(1, 1), fine_radii(grid, 16), stride=2, window_center=(16, 16, 16)
        )
        oracle_gap = max(oracle_gap, abs(value - oracle) / oracle)
    g64 = make_grid(64, 2 * math.pi)
    narrow = gaussian_bump(g64, 0.1)
    v64 = morrey_norm(narrow, MorreyParams(1, 1), fine)
    o64 = morrey_direct(
        narrow, MorreyParams(1, 1), fine_radii(g64, 16), stride=2, window_center=(32, 32, 32)
    )
    oracle_gap = max(oracle_gap, abs(v64 - o64) / o64)

    f = band_limited_scalar(grid, 55)
    homog_exact = all(
        morrey_norm(ScalarField(grid, 2 * f.values), MorreyParams(p, 1.0))
        == 2 * morrey_norm(f, MorreyParams(p, 1.0))
        for p in (1.0, 2.0)
    )
    frac = morrey_norm(ScalarField(grid, 2 * f.values), MorreyParams(1.5, 1.0))
    homog_frac = abs(frac - 2 * morrey_norm(f, MorreyParams(1.5, 1.0))) <= 1e-13 * frac

    mono = all(
        morrey_norm(f, MorreyParams(1.5, 1.0), BallSampling(stride=4))
        <= morrey_norm(f, MorreyParams(1.5, 1.0), BallSampling(stride=2))
        <= morrey_norm(f, MorreyParams(1.5, 1.0), BallSampling(stride=1, radii_per_octave=2))
        for f in (band_limited_scalar(grid, 56), band_limited_scalar(grid, 57))
    )

    ok = closed_form_err <= 1e-6 and oracle_gap <= 0.05 and homog_exact and homog_frac and mono
    _report(
        4,
        ok,
        f"morrey estimator: closed forms {closed_form_err:.2e} (1e-6), oracle gap "
        f"{oracle_gap:.2%} (5%), homogeneity exact={homog_exact and homog_frac}, "
        f"monotone={mono}",
    )
    assert ok


def test_criterion_05_inequality_scans(grid):
    report = run_suite("props")
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    bump = gaussian_bump(grid, 0.3)
    scan = smoothing_ratio_scan(
        bump, MorreyParams(1, 0), MorreyParams(2, 0), tuple(np.geomspace(1e-2, 1e2, 13)), "heat"
    )
    golden_rel = abs(scan.sup - GOLDEN["t1_gauss_10_to_20"]) / GOLDEN["t1_gauss_10_to_20"]
    finite = all(math.isfinite(c["measured"]) for c in report["checks"])
    ok = report["passed"] and golden_rel <= 0.01 and finite
    _report(
        5,
        ok,
        f"inequality scans: suite green={report['passed']} (failing={failing}), "
        f"golden sup reproduced to {golden_rel:.2%} (1%)",
    )
    assert ok


def test_criterion_06_nonlinear_term_identities(grid):
    from mhdlab.mild import stretching_form, vorticity_flux
    from mhdlab.theory import vector_identity_check

    worst_flux = 0.0
    for seed in range(5):
        u, w, b, j = (solenoidal_vector(grid, 5000 + 10 * seed + i) for i in range(4))
        flux = vorticity_flux(u, w, b, j)
        st = stretching_form(u, w, b, j)
        worst_flux = max(worst_flux, rel_max_err(flux.values, st.values))
    worst_ident = 0.0
    for seed in range(10):
        F = solenoidal_vector(grid, 6000 + seed)
        G = solenoidal_vector(grid, 7000 + seed)
        worst_ident = max(worst_ident, max(vector_identity_check(F, G).values()))
    ok = worst_flux <= 1e-10 and worst_ident <= 1e-10
    _report(
        6,
        ok,
        f"nonlinear terms: flux vs gradient form {worst_flux:.2e} (1e-10), "
        f"vector identities {worst_ident:.2e} (1e-10)",
    )
    assert ok


def test_criterion_07_picard_canonical(grid):
    w0, j0 = generate_initial_data(
        {"family": "single_mode", "wavevector": [1, 0, 0], "component": 3, "amplitude": 1e-3},
        grid,
    )
    mesh = TimeMesh.uniform(1.0, 17)
    trace, report = run_picard(w0, j0, mesh, tol=1e-8, max_sweeps=50, report_seminorms=False)
    ratios_ok = all(
        b / a <= 0.1 for a, b in zip(report.deltas[1:], report.deltas[2:]) if a > 0
    )
    j_zero = all(np.abs(j.values).max() == 0.0 for j in trace.current)
    stepped = reference_timestepper(w0, j0, mesh, dt=1.0 / max_retained_k2(grid))
    final_err = lp_norm(
        VectorField(grid, stepped.omega[-1].values - trace.omega[-1].values), 2
    ) / lp_norm(trace.omega[-1], 2)
    ok = report.converged and report.sweep_count <= 10 and ratios_ok and j_zero and final_err <= 1e-4
    _report(
        7,
        ok,
        f"fixed-point construction: converged in {report.sweep_count} sweeps (<=10), "
        f"contraction ok={ratios_ok}, stepper agreement {final_err:.2e} (1e-4), "
        f"hydrodynamic reduction exact={j_zero}",
    )
    assert ok


def test_criterion_08_coupled_run(grid, coupled_data):
    w0, j0 = coupled_data
    mp = MorreyParams(1.5, 1.0)

    def weighted_seq(trace):
        return [
            0.0 if t == 0 else t ** (1 / 3) * morrey_norm(w, mp)
            for t, w in zip(trace.mesh.nodes, trace.omega)
        ]

    results = {}
    for horizon, nodes in ((4.0, 17), (8.0, 33)):
        trace, report = run_picard(
            w0, j0, TimeMesh.uniform(horizon, nodes), tol=1e-8, max_sweeps=20,
            report_seminorms=False,
        )
        assert report.converged
        trace.validate()
        seq = weighted_seq(trace)
        results[horizon] = (max(seq), int(np.argmax(seq)), len(seq) - 1)
    max4, arg4, last4 = results[4.0]
    max8, _, _ = results[8.0]
    before_final = arg4 < last4
    stable = abs(max8 - max4) <= 0.05 * max4
    ok = before_final and stable
    _report(
        8,
        ok,
        f"coupled run: weighted max at node {arg4}/{last4} (before final={before_final}), "
        f"horizon doubling drift {abs(max8 - max4) / max4:.2%} (5%), iterates solenoidal",
    )
    assert ok


def test_criterion_09_weak_star_continuity(grid, coupled_data):
    w0, j0 = coupled_data
    # test functions with nonzero pairing against the leading data mode
    x1, _, _ = grid.meshgrid()
    phis = [
        ScalarField(grid, np.cos(x1)),
        ScalarField(grid, np.cos(x1) + 0.4 * np.cos(2 * x1)),
        dealias_field(gaussian_bump(grid, 0.5)),
    ]

    heat_trace = heat_flow_trace(w0, j0, TimeMesh.graded(1.0, 9))
    table = weak_star_check(heat_trace, phis[0], component=2)
    g0 = table.values[0]
    heat_err = max(
        abs(gt - math.exp(-t) * g0) for t, gt in zip(table.times, table.values)
    ) / abs(g0)

    shrink = []
    for first in (0.02, 0.01):
        nodes = (0.0, first, 0.1, 0.4, 1.0)
        trace, report = run_picard(w0, j0, TimeMesh(nodes), tol=1e-10, report_seminorms=False)
        assert report.converged
        shrink.append(
            [weak_star_check(trace, phi, component=2).deviations[1] for phi in phis]
        )
    decreasing = all(b < a for a, b in zip(shrink[0], shrink[1]))
    ok = heat_err <= 1e-10 and decreasing
    _report(
        9,
        ok,
        f"weak* continuity: pure-heat closed form {heat_err:.2e} (1e-10), "
        f"deviations shrink with the first node={decreasing}",
    )
    assert ok


def test_criterion_10_recursion_machinery():
    report = run_suite("recursions")
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    _report(10, report["passed"], f"recursion machinery suite green (failing={failing})")
    assert report["passed"]


def test_criterion_11_regions_and_thresholds():
    report = run_suite("regions")
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    _report(11, report["passed"], f"regions/threshold suite green (failing={failing})")
    assert report["passed"]


def test_criterion_12_cli_contract(tmp_path, capsys):
    cfg = {
        "grid": {"n": 32, "l": 2 * math.pi},
        "mesh": {"horizon": 1.0, "num_nodes": 9, "spacing": "uniform"},
        "data": {"family": "random_divfree", "seed": 3, "cutoff": 4, "amplitude": 1e-3},
        "exponents": {"p": 1.5, "q": 1.0, "p0": 1.0, "q0": 1.0},
        "tolerances": {"picard_tol": 1e-8, "max_sweeps": 50},
        "output_dir": str(tmp_path / "run1"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc1 = cli_main(["simulate", "--config", str(cfg_path)])
    cfg["output_dir"] = str(tmp_path / "run2")
    cfg_path.write_text(json.dumps(cfg))
    rc2 = cli_main(["simulate", "--config", str(cfg_path)])
    same_csv = (tmp_path / "run1" / "series.csv").read_bytes() == (
        tmp_path / "run2" / "series.csv"
    ).read_bytes()
    man1 = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    man2 = json.loads((tmp_path / "run2" / "manifest.json").read_text())
    man1.pop("timestamp")
    man2.pop("timestamp")
    same_manifest = man1 == man2

    cfg["data"] = {
        "omega": {"family": "random_divfree", "seed": 5, "cutoff": 6, "amplitude": 1.0},
        "j": {"family": "random_divfree", "seed": 6, "cutoff": 6, "amplitude": 1.0},
    }
    cfg["tolerances"] = {"picard_tol": 1e-12, "max_sweeps": 3}
    cfg["output_dir"] = str(tmp_path / "big")
    cfg_path.write_text(json.dumps(cfg))
    rc_big = cli_main(["simulate", "--config", str(cfg_path)])

    rc_bad = cli_main(["norms", str(tmp_path / "missing.mhf"), "--exponents", "1:0"])

    rc_verify = cli_main(["verify", "all"])
    capsys.readouterr()

    ok = (
        rc1 == 0
        and rc2 == 0
        and same_csv
        and same_manifest
        and rc_big == 2
        and rc_bad == 1
        and rc_verify == 0
    )
    _report(
        12,
        ok,
        f"CLI contract: converged run rc={rc1}, reproducible={same_csv and same_manifest}, "
        f"large-data rc={rc_big} (want 2), error rc={rc_bad} (want 1), verify-all rc={rc_verify}",
    )
    assert ok
