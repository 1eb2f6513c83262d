"""Nonlinear terms, the Duhamel map, whole-trajectory fixed-point iteration,
and an independent integrating-factor time stepper.

The evolved pair is (vorticity, current density); velocity and magnetic field
are recovered by curl inversion at every time node.  The fixed-point sweep
updates the whole trajectory at once: each new iterate is the heat flow of the
initial data minus the time-convolved nonlinear forcing of the previous
iterate.  Nonlinear products are formed in physical space and dealiased by the
2/3 rule before differentiation, so iterates of band-limited data stay exactly
band-limited.

A sweep stays in spectral space and costs O(M) in the number of nodes.  The
Duhamel integral advances node by node with the semigroup recursion
``acc_m = E(h) acc_{m-1} + A(h) F_{m-1} + B(h) F_m``: ``E(h)`` is the heat
multiplier of the step ``h = t_m - t_{m-1}`` and ``A(h)``, ``B(h)`` fold the
Gauss-Legendre weights of the linearly interpolated forcing over that step,
so every mesh, graded ones included, gets the same quadrature as the direct
sum over all earlier subintervals.  The forcing of a node is computed inside
that loop and dropped after the next step.  The new vorticity and current are
``exp(-t_m |k|^2) w0_hat - acc_m``; each field and its curl inverse come from
that spectrum with one inverse transform each.

The current source is evaluated as ``-curl curl(dealias(u x b))``, which equals
the curl of the dealiased ``(u.grad)b - (b.grad)u`` for band-limited solenoidal
``u, b``; the gradient forms survive as the test oracle :func:`stretching_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _curl_hat,
    _fwd,
    _inv,
    _same_grid,
    _tables,
    lp_norm,
)
from .kernels import _biot_savart_hat, _require_solenoidal, biot_savart, heat_propagate
from .morrey import BallSampling, WeightedSeminorms, weighted_seminorms


@dataclass(frozen=True)
class TimeMesh:
    """Strictly increasing time nodes starting at 0, with a quadrature order."""

    nodes: tuple[float, ...]
    quad_order: int = 4

    def __post_init__(self) -> None:
        nodes = tuple(float(t) for t in self.nodes)
        if len(nodes) < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at t = 0")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("mesh nodes must be strictly increasing")
        if self.quad_order < 1:
            raise ValueError("quadrature order must be >= 1")
        object.__setattr__(self, "nodes", nodes)

    @property
    def horizon(self) -> float:
        return self.nodes[-1]

    @staticmethod
    def uniform(horizon: float, num_nodes: int, quad_order: int = 4) -> "TimeMesh":
        return TimeMesh(tuple(np.linspace(0.0, horizon, num_nodes)), quad_order)

    @staticmethod
    def graded(horizon: float, num_nodes: int, ratio: float = 1.5, quad_order: int = 4) -> "TimeMesh":
        """Geometrically graded mesh concentrating nodes near t = 0."""
        m = num_nodes - 1
        steps = ratio ** np.arange(m)
        nodes = np.concatenate([[0.0], np.cumsum(steps)])
        return TimeMesh(tuple(nodes * (horizon / nodes[-1])), quad_order)

    def node_index(self, t: float) -> int:
        arr = np.asarray(self.nodes)
        i = int(np.argmin(np.abs(arr - t)))
        if abs(arr[i] - t) > 1e-12 * max(1.0, self.horizon):
            raise ValueError(f"t = {t} is not a mesh node")
        return i


@dataclass(frozen=True)
class MhdTrace:
    """Per-node iterate fields (vorticity, current) with cached (velocity, magnetic)."""

    mesh: TimeMesh
    omega: tuple[VectorField, ...]
    current: tuple[VectorField, ...]
    velocity: tuple[VectorField, ...]
    magnetic: tuple[VectorField, ...]

    def __post_init__(self) -> None:
        m = len(self.mesh.nodes)
        for name in ("omega", "current", "velocity", "magnetic"):
            if len(getattr(self, name)) != m:
                raise ValueError(f"{name} must have one field per mesh node")

    @property
    def grid(self) -> Grid:
        return self.omega[0].grid

    @staticmethod
    def from_vorticity(mesh: TimeMesh, omega, current) -> "MhdTrace":
        """Build a trace from iterate fields, recovering velocity and magnetic caches."""
        u = tuple(biot_savart(w) for w in omega)
        b = tuple(biot_savart(j) for j in current)
        return MhdTrace(mesh, tuple(omega), tuple(current), u, b)

    def validate(self, div_tol: float = 1e-8, cache_tol: float = 1e-10) -> None:
        """Check solenoidality of all fields and coherence of the curl caches."""
        from .fields import curl, divergence, max_norm

        for m, (w, j, u, b) in enumerate(zip(self.omega, self.current, self.velocity, self.magnetic)):
            for name, f in (("omega", w), ("current", j), ("velocity", u), ("magnetic", b)):
                scale = max(max_norm(f), np.finfo(float).tiny)
                if max_norm(divergence(f)) > div_tol * scale:
                    raise ValueError(f"node {m}: {name} is not divergence-free")
            for name, pot, target in (("velocity", u, w), ("magnetic", b, j)):
                scale = max(max_norm(target), np.finfo(float).tiny)
                err = max_norm(VectorField(self.grid, curl(pot).values - target.values))
                if err > cache_tol * scale:
                    raise ValueError(f"node {m}: curl({name}) does not match its source field")


@dataclass(frozen=True)
class SweepRecord:
    """One fixed-point sweep: successive-difference norm and weighted seminorms."""

    index: int
    delta: float
    seminorms: WeightedSeminorms | None


@dataclass(frozen=True)
class IterationReport:
    sweeps: tuple[SweepRecord, ...]
    converged: bool
    tol: float

    @property
    def sweep_count(self) -> int:
        return len(self.sweeps)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(s.delta for s in self.sweeps)


def _dealias_hat(hat: np.ndarray, grid: Grid) -> np.ndarray:
    keep = _tables(grid)["keep"]
    return np.where(keep, hat, 0.0)


def _flux_hat(u: np.ndarray, w: np.ndarray, b: np.ndarray, j: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence of the dealiased antisymmetric transport tensor.

    The tensor is ``T[i, m] = u_i w_m - u_m w_i - b_i j_m + b_m j_i``; only the
    three independent entries are formed, so the antisymmetry (and hence the
    solenoidality of the output) is exact.
    """
    t01 = u[0] * w[1] - u[1] * w[0] - b[0] * j[1] + b[1] * j[0]
    t02 = u[0] * w[2] - u[2] * w[0] - b[0] * j[2] + b[2] * j[0]
    t12 = u[1] * w[2] - u[2] * w[1] - b[1] * j[2] + b[2] * j[1]
    h01, h02, h12 = (_dealias_hat(_fwd(t), grid) for t in (t01, t02, t12))
    kd = _tables(grid)["kd"]
    return 1j * np.stack(
        [
            -kd[1] * h01 - kd[2] * h02,
            kd[0] * h01 - kd[2] * h12,
            kd[0] * h02 + kd[1] * h12,
        ]
    )


def _advective_difference(u: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """(u . grad) b - (b . grad) u in physical space (not yet dealiased)."""
    kd = _tables(grid)["kd"]
    uh = _fwd(u)
    bh = _fwd(b)
    out = np.zeros_like(u)
    for i in range(3):
        du_i = _inv(1j * kd[i] * uh)  # d u_m / d x_i for all m
        db_i = _inv(1j * kd[i] * bh)
        out += u[i] * db_i - b[i] * du_i
    return out


def _source_hat(u: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral ``-curl curl`` of the dealiased cross product ``u x b``."""
    cross = np.stack([u[1] * b[2] - u[2] * b[1], u[2] * b[0] - u[0] * b[2], u[0] * b[1] - u[1] * b[0]])
    kd = _tables(grid)["kd"]
    return -_curl_hat(_curl_hat(_dealias_hat(_fwd(cross), grid), kd), kd)


def vorticity_flux(u: VectorField, w: VectorField, b: VectorField, j: VectorField) -> VectorField:
    """Divergence-form nonlinear term of the vorticity equation.

    Component m is ``sum_i d_i (u_i w_m - u_m w_i - b_i j_m + b_m j_i)``;
    products are dealiased before differentiation and the result is
    divergence-free to round-off.
    """
    grid = _same_grid(u, w, b, j)
    return VectorField(grid, _inv(_flux_hat(u.values, w.values, b.values, j.values, grid)))


def current_source(u: VectorField, b: VectorField) -> VectorField:
    """Curl of the advective difference ``(u.grad)b - (b.grad)u`` of solenoidal fields.

    Evaluated as ``-curl curl(dealias(u x b))``, which equals the curl of the
    dealiased gradient form for band-limited solenoidal inputs (the test
    oracle is ``curl(stretching_form(u, b, 0, 0))``).
    """
    grid = _same_grid(u, b)
    return VectorField(grid, _inv(_source_hat(u.values, b.values, grid)))


def stretching_form(u: VectorField, w: VectorField, b: VectorField, j: VectorField) -> VectorField:
    """Gradient-form twin of :func:`vorticity_flux`; equal for solenoidal inputs.

    Kept as the test oracle of the fast forms: ``stretching_form(u, b, 0, 0)``
    is the dealiased ``(u.grad)b - (b.grad)u``, whose curl is the current source.
    """
    grid = _same_grid(u, w, b, j)
    out = _advective_difference(u.values, w.values, grid)
    out -= _advective_difference(b.values, j.values, grid)
    return VectorField(grid, _inv(_dealias_hat(_fwd(out), grid)))


def _step_multipliers(k2: np.ndarray, h: float, quad_order: int):
    """Multipliers ``E, A, B`` that advance a spectral Duhamel integral over one mesh step.

    Over a step of length ``h`` the integral becomes ``E acc + A f_prev + B
    f_next``: ``E`` is the heat multiplier of the step, and ``A``, ``B`` fold
    the linear interpolation of the forcing with the heat factor evaluated
    exactly at the step's Gauss-Legendre abscissae.
    """
    half = 0.5 * h
    a = np.zeros_like(k2)
    b = np.zeros_like(k2)
    for x, wq in zip(*np.polynomial.legendre.leggauss(quad_order)):
        frac = 0.5 * (1.0 + x)
        heat = np.exp(-(half * (1.0 - x)) * k2)
        a += (wq * half * (1.0 - frac)) * heat
        b += (wq * half * frac) * heat
    return np.exp(-h * k2), a, b


def _duhamel_step(acc: np.ndarray, f_prev: np.ndarray, f_next: np.ndarray, mult) -> None:
    """``acc <- E acc + A f_prev + B f_next`` in place, for ``mult = (E, A, B)``."""
    e, a, b = mult
    acc *= e
    acc += a * f_prev
    acc += b * f_next


def duhamel_integral(forcings, mesh: TimeMesh, t: float) -> VectorField:
    """Heat-smoothed time integral of a node-sampled forcing, up to mesh node ``t``.

    The forcing is linearly interpolated between nodes; the heat factor is
    evaluated exactly at the Gauss-Legendre abscissae of each subinterval.
    """
    m = mesh.node_index(t)
    grid = _same_grid(*forcings)
    k2 = _tables(grid)["k2"]
    prev = _fwd(forcings[0].values)
    acc = np.zeros_like(prev)
    for a in range(m):
        nxt = _fwd(forcings[a + 1].values)
        mult = _step_multipliers(k2, mesh.nodes[a + 1] - mesh.nodes[a], mesh.quad_order)
        _duhamel_step(acc, prev, nxt, mult)
        prev = nxt
    return VectorField(grid, _inv(acc))


def heat_flow_trace(w0: VectorField, j0: VectorField, mesh: TimeMesh) -> MhdTrace:
    """The zeroth iterate: pure heat flow of the initial pair."""
    omega = tuple(heat_propagate(w0, t) for t in mesh.nodes)
    current = tuple(heat_propagate(j0, t) for t in mesh.nodes)
    return MhdTrace.from_vorticity(mesh, omega, current)


class DivergenceError(ArithmeticError):
    """The fixed-point iterates left the range of finite floating-point numbers."""


def _require_finite(what: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"{what} is not finite: the iterates diverged")


def _fill_node(hat: np.ndarray, grid: Grid, t: float, field: np.ndarray, potential: np.ndarray,
               what: str) -> None:
    """Fill a new node's field and curl inverse from its spectrum; check them finite and solenoidal."""
    if t > 0.0:  # the node at t = 0 already holds the initial datum
        field[...] = _inv(hat)
    potential[...] = _inv(_biot_savart_hat(hat, grid))
    _require_finite(f"{what} at t = {t}", field, potential)
    _require_solenoidal(field, hat, grid, f"{what} at t = {t}")


def picard_sweep(trace: MhdTrace, w0: VectorField, j0: VectorField) -> MhdTrace:
    """One whole-trajectory fixed-point update.

    Evaluates the nonlinear terms of the previous iterate node by node and
    sets ``new(t) = heat_flow(initial, t) - duhamel(forcing, t)`` for both the
    vorticity and the current.  The minus sign matches the evolution system:
    the transport term enters the time derivative with a negative sign.
    Raises :class:`DivergenceError` when a new node is not finite.
    """
    grid = trace.grid
    mesh = trace.mesh
    k2 = _tables(grid)["k2"]
    w0h, j0h = _fwd(w0.values), _fwd(j0.values)
    # omega, velocity, current, magnetic of every node in one block, which is
    # released whole with the trace instead of fragmenting the heap
    out = np.empty((4, len(mesh.nodes)) + w0.values.shape)
    out[0, 0], out[2, 0] = w0.values, j0.values
    acc = (np.zeros_like(w0h), np.zeros_like(j0h))
    prev = None
    for m, t in enumerate(mesh.nodes):
        u, w, b, j = (f[m].values for f in (trace.velocity, trace.omega, trace.magnetic, trace.current))
        force = (_flux_hat(u, w, b, j, grid), _source_hat(u, b, grid))
        if m > 0:
            mult = _step_multipliers(k2, t - mesh.nodes[m - 1], mesh.quad_order)
            for a, fp, fn in zip(acc, prev, force):
                _duhamel_step(a, fp, fn, mult)
        prev = force
        heat = np.exp(-t * k2)
        _fill_node(heat * w0h - acc[0], grid, t, out[0, m], out[1, m], "omega")
        _fill_node(heat * j0h - acc[1], grid, t, out[2, m], out[3, m], "current")
    omega, velocity, current, magnetic = (tuple(VectorField(grid, v) for v in block) for block in out)
    return MhdTrace(mesh, omega, current, velocity, magnetic)


def trace_distance(a: MhdTrace, b: MhdTrace) -> float:
    """Max over nodes of the L2 distances of the vorticity and current iterates."""
    best = 0.0
    for wa, wb, ja, jb in zip(a.omega, b.omega, a.current, b.current):
        dw, dj = wa.values - wb.values, ja.values - jb.values
        _require_finite("trace difference", dw, dj)
        best = max(best, lp_norm(VectorField(wa.grid, dw), 2) + lp_norm(VectorField(ja.grid, dj), 2))
    return best


def run_picard(
    w0: VectorField,
    j0: VectorField,
    mesh: TimeMesh,
    tol: float = 1e-8,
    max_sweeps: int = 50,
    p: float = 1.5,
    q: float = 1.0,
    sampling: BallSampling = BallSampling(),
    report_seminorms: bool = True,
) -> tuple[MhdTrace, IterationReport]:
    """Iterate :func:`picard_sweep` from the heat flow until the trajectory settles.

    Convergence is declared when the successive-difference norm drops to
    ``tol``; running out of sweeps returns the last trace with
    ``converged=False`` (the smallness regime was left, or the horizon is too
    long for a contraction).  A sweep whose iterate, distance or seminorms
    are not finite ends the iteration with a ``delta = inf`` record and
    returns the last finite trace.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    _same_grid(w0, j0)
    trace = heat_flow_trace(w0, j0, mesh)
    records = []
    converged = False
    for k in range(1, max_sweeps + 1):
        try:
            # overflow is reported by the finiteness checks, not by warnings
            with np.errstate(over="ignore", invalid="ignore"):
                new = picard_sweep(trace, w0, j0)
                delta = trace_distance(new, trace)
                _require_finite(f"sweep {k} distance", delta)
                sem = weighted_seminorms(new, p, q, sampling) if report_seminorms else None
                if sem is not None:
                    _require_finite(f"sweep {k} seminorms", list(sem.as_dict().values()))
        except DivergenceError:
            # report divergence, keep the last finite trace
            records.append(SweepRecord(index=k, delta=math.inf, seminorms=None))
            break
        records.append(SweepRecord(index=k, delta=delta, seminorms=sem))
        trace = new
        if delta <= tol:
            converged = True
            break
    return trace, IterationReport(tuple(records), converged, tol)


def mild_residual(trace: MhdTrace, w0: VectorField, j0: VectorField) -> float:
    """How far a trace is from satisfying the integral equation (one extra sweep)."""
    return trace_distance(picard_sweep(trace, w0, j0), trace)


def max_retained_k2(grid: Grid) -> float:
    """Largest ``|k|^2`` surviving the 2/3-rule truncation."""
    t = _tables(grid)
    return float(t["k2d"][t["keep"]].max())


def reference_timestepper(
    w0: VectorField,
    j0: VectorField,
    mesh: TimeMesh,
    dt: float,
    nonlinear: bool = True,
) -> MhdTrace:
    """Integrating-factor Heun integration of the evolution system, node-aligned.

    The linear (heat) part is integrated exactly per mode; the dealiased
    nonlinear terms are advanced with the second-order Heun corrector.  Each
    mesh subinterval is split into uniform substeps no longer than ``dt``, so
    the mesh nodes are hit exactly without interpolation.  ``dt`` must resolve
    the fastest retained mode (``dt * max|k|^2 <= 1``).
    """
    grid = _same_grid(w0, j0)
    if dt <= 0:
        raise ValueError("dt must be positive")
    k2max = max_retained_k2(grid)
    if dt * k2max > 1.0 + 1e-12:
        raise ValueError(
            f"dt = {dt} does not resolve the fastest retained mode (need dt <= {1.0 / k2max:.3e})"
        )
    k2 = _tables(grid)["k2"]

    def nonlin(wh: np.ndarray, jh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not nonlinear:
            z = np.zeros_like(wh)
            return z, z
        uh = _biot_savart_hat(wh, grid)
        bh = _biot_savart_hat(jh, grid)
        u, w, b, j = (_inv(h) for h in (uh, wh, bh, jh))
        return -_flux_hat(u, w, b, j, grid), -_source_hat(u, b, grid)

    def l2(wh: np.ndarray, jh: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.abs(wh) ** 2) + np.sum(np.abs(jh) ** 2)))

    wh = _fwd(w0.values)
    jh = _fwd(j0.values)
    omega = [w0]
    current = [j0]
    for a in range(len(mesh.nodes) - 1):
        ta, tb = mesh.nodes[a], mesh.nodes[a + 1]
        nsub = max(1, math.ceil((tb - ta) / dt - 1e-12))
        h = (tb - ta) / nsub
        decay = np.exp(-h * k2)
        for _ in range(nsub):
            size0 = l2(wh, jh)
            nw0, nj0 = nonlin(wh, jh)
            wh_star = decay * (wh + h * nw0)
            jh_star = decay * (jh + h * nj0)
            nw1, nj1 = nonlin(wh_star, jh_star)
            wh = decay * wh + 0.5 * h * (decay * nw0 + nw1)
            jh = decay * jh + 0.5 * h * (decay * nj0 + nj1)
            if l2(wh, jh) > 10.0 * max(size0, np.finfo(float).tiny):
                raise RuntimeError(
                    f"unstable step at t in [{ta}, {tb}]: norm grew more than 10x in one step"
                )
        omega.append(VectorField(grid, _inv(wh)))
        current.append(VectorField(grid, _inv(jh)))
    return MhdTrace.from_vorticity(mesh, omega, current)


@dataclass(frozen=True)
class WeakStarTable:
    """Pairings g(t) of one iterate component against a test function."""

    times: tuple[float, ...]
    values: tuple[float, ...]
    deviations: tuple[float, ...]  # |g(t) - g(0)|


def weak_star_check(trace: MhdTrace, phi: ScalarField, component: int) -> WeakStarTable:
    """Pair one vorticity component against ``phi`` at every node and track |g(t) - g(0)|."""
    if phi.grid != trace.grid:
        raise ValueError("test function lives on a different grid")
    h3 = trace.grid.spacing**3
    g = [h3 * float(np.sum(w.values[component] * phi.values)) for w in trace.omega]
    g0 = g[0]
    return WeakStarTable(
        times=tuple(trace.mesh.nodes),
        values=tuple(g),
        deviations=tuple(abs(v - g0) for v in g),
    )
