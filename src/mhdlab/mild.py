"""Nonlinear terms, the Duhamel map, whole-trajectory fixed-point iteration,
and an independent integrating-factor time stepper.

The evolved pair is (vorticity, current density).  A trace holds only their
spectra inside the 2/3-rule cube ``|k_i| <= n // 3`` at every time node; the
physical fields are formed on demand, one inverse transform of a node's cube
each, and velocity and magnetic field are curl inversions formed where the
forcing needs them.  The fixed-point sweep updates the whole trajectory at
once: each new iterate is the heat flow of the initial data minus the
time-convolved nonlinear forcing of the previous iterate.  Nonlinear products
are formed in physical space and dealiased by the 2/3 rule before
differentiation, by keeping only the cube of their spectra, and the heat flow
acts mode by mode, so iterates of data resolved on the cube stay on it
exactly.  Each datum is checked to be resolved there up to round-off, and
projected onto the cube once.

Every transform between the cube and physical space goes through
:func:`~mhdlab.fields._cube_inv` or :func:`~mhdlab.fields._cube_fwd`: their
complex passes run only on the cube's ``c + 1`` planes of the last axis (the
forward one's from ``n =`` :data:`~mhdlab.fields.PRUNED_FROM` on), without
forming a half spectrum, and their results are bitwise those of the full
transforms.

A sweep stays on the cube and costs O(M) in the number of nodes.  One
recursion advances the Duhamel integral node by node,
``acc_m = E(h) acc_{m-1} + A(h) F_{m-1} + B(h) F_m``: ``E(h)`` is the heat
multiplier of the step ``h = t_m - t_{m-1}`` and ``A(h)``, ``B(h)`` fold the
Gauss-Legendre weights of the linearly interpolated forcing over that step,
so every mesh, graded ones included, gets the same quadrature as the direct
sum over all earlier subintervals.  The forcing of a node is computed in
Elsasser form, from ``z+- = u +- b`` alone: one inverse transform of each of
their cubes, and one forward transform per product ``z-_r z+_k``, formed one
row ``r`` at a time (:func:`_forcing_hats`).  It is dropped after the next
step.  One writer puts
``exp(-t_m |k|^2) data - acc_m`` into the new trace: the zeroth iterate is
the writer with zero integrals, a sweep the writer over the recursion.  Node
0 of every trace holds the initial spectra, so a sweep reads its data there.
The Heun stepper, the independent oracle, keeps its own loop.

The forcings of the nodes are independent, so they stream in node order from
:func:`~mhdlab.fields.node_map`, on ``MHDLAB_THREADS`` threads, the calling
one included (by default the CPUs the process may use).  The recursion and
the checks stay on the calling thread, so the trace is the same for any
thread count.  Node 0 holds the initial spectra in every iterate, so
:func:`run_picard` computes its forcing and its seminorm node norms once per
run; :func:`picard_sweep` and ``weighted_seminorms`` called alone compute
them each time.

Solenoidality holds by construction (flux and source are half the sum and
half the difference of two curls), so it is checked once per initial
datum and in :meth:`MhdTrace.validate`; every new spectrum is checked finite.

The public :func:`vorticity_flux` and :func:`current_source` keep the
``u, w, b, j`` form: the flux as the divergence of an antisymmetric tensor,
the current source as ``-curl curl(dealias(u x b))``, which equals the curl of
the dealiased ``(u.grad)b - (b.grad)u`` for band-limited solenoidal ``u, b``.
They are the oracles of the Elsasser kernel, and the gradient forms survive as
their own test oracle :func:`stretching_form`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    _advection,
    _cube_fwd,
    _cube_inv,
    _cube_tables,
    _curl_hat,
    _dealias_values,
    _fwd,
    _inv,
    _k_dot,
    _same_grid,
    _tables,
    _to_cube,
    node_map,
)
from .kernels import _biot_savart_hat, _require_solenoidal
from .morrey import BallSampling, WeightedSeminorms, _datum_norms, _weighted_seminorms


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


#: the fields of a trace, in the order of the first axis of its spectra
_FIELDS = ("omega", "current")


@dataclass(frozen=True)
class MhdTrace:
    """Vorticity and current at every mesh node, held on the 2/3-rule cube of their spectra.

    ``spectra[0, m]`` is the vorticity spectrum and ``spectra[1, m]`` the
    current spectrum at node ``m``, each of shape ``(3, 2c+1, 2c+1, c+1)``
    with ``c = n // 3``: the modes ``|k_i| <= c`` of the real-FFT half
    spectrum, axes 0 and 1 holding the wavenumbers ``0..c`` then ``-c..-1``
    and the last axis ``0..c`` (the layout of :func:`~mhdlab.fields._to_cube`).
    Every trace is zero outside that cube, so only the cube is stored;
    :func:`~mhdlab.fields._cube_inv` transforms a node to physical values.
    ``spectra`` is a read-only view: the array passed in stays as writeable as
    it was, and is not copied when it is already complex128.  Node 0 holds
    the initial data, from which :func:`picard_sweep` starts.  The physical
    fields are formed on each access, one inverse transform per node:
    :meth:`node_field` forms one node's, :attr:`omega` and :attr:`current`
    every node's; velocity and magnetic field are their ``biot_savart`` images.
    """

    mesh: TimeMesh
    grid: Grid
    spectra: np.ndarray

    def __post_init__(self) -> None:
        c = self.grid.n // 3
        shape = (2, len(self.mesh.nodes), 3, 2 * c + 1, 2 * c + 1, c + 1)
        spectra = np.asarray(self.spectra, dtype=np.complex128).view()
        if spectra.shape != shape:
            raise ValueError(f"spectra must have shape {shape}: one vorticity and current per mesh node")
        spectra.setflags(write=False)
        object.__setattr__(self, "spectra", spectra)

    @property
    def omega(self) -> tuple[VectorField, ...]:
        """Vorticity at every node; raises :class:`DivergenceError` if a node is not finite."""
        return tuple(self.node_field("omega", m) for m in range(len(self.mesh.nodes)))

    @property
    def current(self) -> tuple[VectorField, ...]:
        """Current density at every node; raises :class:`DivergenceError` if a node is not finite."""
        return tuple(self.node_field("current", m) for m in range(len(self.mesh.nodes)))

    def node_field(self, name: str, m: int) -> VectorField:
        """The ``"omega"`` or ``"current"`` field at node ``m``, from one inverse transform of its cube.

        Raises :class:`DivergenceError` if its values are not finite.
        """
        values = _cube_inv(self.spectra[_FIELDS.index(name), m], self.grid.n)
        _require_finite(f"{name} at t = {self.mesh.nodes[m]}", values)
        return VectorField(self.grid, values)

    def validate(self) -> None:
        """Check the stored spectra: every vorticity and current node finite, divergence-free and mean-free."""
        for which, name in enumerate(_FIELDS):
            for m, cube in enumerate(self.spectra[which]):
                values = self.node_field(name, m).values
                _require_solenoidal(values, cube, self.grid, f"node {m}: {name}")


@dataclass(frozen=True)
class SweepRecord:
    """One fixed-point sweep: successive-difference norm, its ratio to the previous one, and weighted seminorms.

    ``ratio`` is ``delta_k / delta_{k-1}``, ``None`` for the first sweep; it
    is the contraction estimate that :func:`run_picard`'s stopping rule reads.
    """

    index: int
    delta: float
    ratio: float | None
    seminorms: WeightedSeminorms | None

    @property
    def error_bound(self) -> float | None:
        """Banach a-posteriori bound ``delta * ratio / (1 - ratio)`` on the distance to the fixed point.

        It holds if ``ratio`` bounds the contraction constant; ``None`` unless ``ratio < 1``.
        """
        if self.ratio is None or not self.ratio < 1.0:
            return None
        return self.delta * self.ratio / (1.0 - self.ratio)


@dataclass(frozen=True)
class IterationReport:
    sweeps: tuple[SweepRecord, ...]
    stop: str  # why run_picard stopped: "converged", "budget", "not_contracting" or "overflow"
    tol: float

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    @property
    def sweep_count(self) -> int:
        return len(self.sweeps)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(s.delta for s in self.sweeps)

    @property
    def reason(self) -> str:
        """One line on why the iteration stopped."""
        last = self.sweeps[-1]
        if self.stop == "converged":
            return f"converged in {last.index} sweeps"
        if self.stop == "overflow":
            return f"iterates overflowed in sweep {last.index}"
        if self.stop == "not_contracting":
            ratios = ", ".join(f"{s.ratio:.3g}" for s in self.sweeps[-2:])
            return f"stopped contracting in sweep {last.index} (delta ratios {ratios})"
        ratio = "" if last.ratio is None else f", ratio {last.ratio:.3g}"
        return f"did not contract to {self.tol:.3g} within {last.index} sweeps (last delta {last.delta:.3e}{ratio})"


def _flux_hat(u: np.ndarray, w: np.ndarray, b: np.ndarray, j: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence of the dealiased antisymmetric transport tensor, on the 2/3-rule cube.

    The tensor is ``T[i, m] = u_i w_m - u_m w_i - b_i j_m + b_m j_i``; only the
    three independent entries are formed, so the antisymmetry (and hence the
    solenoidality of the output) is exact.
    """
    t01 = u[0] * w[1] - u[1] * w[0] - b[0] * j[1] + b[1] * j[0]
    t02 = u[0] * w[2] - u[2] * w[0] - b[0] * j[2] + b[2] * j[0]
    t12 = u[1] * w[2] - u[2] * w[1] - b[1] * j[2] + b[2] * j[1]
    h01, h02, h12 = (_cube_fwd(t) for t in (t01, t02, t12))
    kd = _cube_tables(grid)["kd"]
    return 1j * np.stack(
        [
            -kd[1] * h01 - kd[2] * h02,
            kd[0] * h01 - kd[2] * h12,
            kd[0] * h02 + kd[1] * h12,
        ]
    )


def _advective_difference(u: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """(u . grad) b - (b . grad) u in physical space (not yet dealiased)."""
    return _advection(u, _fwd(b), grid) - _advection(b, _fwd(u), grid)


def _source_hat(u: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral ``-curl curl`` of the dealiased cross product ``u x b``, on the 2/3-rule cube."""
    cross = np.stack([u[1] * b[2] - u[2] * b[1], u[2] * b[0] - u[0] * b[2], u[0] * b[1] - u[1] * b[0]])
    kd = _cube_tables(grid)["kd"]
    return -_curl_hat(_curl_hat(_cube_fwd(cross), kd), kd)


def _forcing_hats(wh: np.ndarray, jh: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Flux and current-source cubes of one node, from its vorticity and current cubes, in Elsasser form.

    With ``z+- = u +- b`` the curl inversions of ``w +- j``, the flux is
    ``(F+ + F-)/2`` and the source ``(F+ - F-)/2``, where
    ``F+ = curl((z-.grad) z+)`` and ``F- = curl((z+.grad) z-)``.  Both
    advections are divergences of the one dealiased tensor
    ``M[r, k] = z-_r z+_k``: ``(z-.grad) z+`` is ``i sum_r k_r M[r, :]`` and
    ``(z+.grad) z-`` is ``i sum_k k_k M[:, k]``.  So only ``z+-`` are formed
    in physical space (6 inverse scalar transforms), and ``M`` one row at a
    time (3 forward transforms each), which keeps one node's working set at
    two physical vector fields and one row of products.  Equal to
    ``_flux_hat(u, w, b, j)`` and ``_source_hat(u, b)`` up to round-off.
    """
    tab = _cube_tables(grid)
    kd = tab["kd"]
    z_minus, z_plus = _cube_inv(np.stack([_biot_savart_hat(h, tab) for h in (wh - jh, wh + jh)]), grid.n)
    d_plus = np.zeros_like(wh)
    d_minus = np.empty_like(wh)
    for r in range(3):
        row = _cube_fwd(z_minus[r] * z_plus)
        d_plus += kd[r] * row
        d_minus[r] = _k_dot(row, kd)
    f_plus, f_minus = _curl_hat(1j * d_plus, kd), _curl_hat(1j * d_minus, kd)
    return 0.5 * (f_plus + f_minus), 0.5 * (f_plus - f_minus)


def vorticity_flux(u: VectorField, w: VectorField, b: VectorField, j: VectorField) -> VectorField:
    """Divergence-form nonlinear term of the vorticity equation.

    Component m is ``sum_i d_i (u_i w_m - u_m w_i - b_i j_m + b_m j_i)``;
    products are dealiased before differentiation and the result is
    divergence-free to round-off.
    """
    grid = _same_grid(u, w, b, j)
    flux = _flux_hat(u.values, w.values, b.values, j.values, grid)
    return VectorField(grid, _cube_inv(flux, grid.n))


def current_source(u: VectorField, b: VectorField) -> VectorField:
    """Curl of the advective difference ``(u.grad)b - (b.grad)u`` of solenoidal fields.

    Evaluated as ``-curl curl(dealias(u x b))``, which equals the curl of the
    dealiased gradient form for band-limited solenoidal inputs (the test
    oracle is ``curl(stretching_form(u, b, 0, 0))``).
    """
    grid = _same_grid(u, b)
    return VectorField(grid, _cube_inv(_source_hat(u.values, b.values, grid), grid.n))


def stretching_form(u: VectorField, w: VectorField, b: VectorField, j: VectorField) -> VectorField:
    """Gradient-form twin of :func:`vorticity_flux`; equal for solenoidal inputs.

    Kept as the test oracle of the fast forms: ``stretching_form(u, b, 0, 0)``
    is the dealiased ``(u.grad)b - (b.grad)u``, whose curl is the current source.
    """
    grid = _same_grid(u, w, b, j)
    out = _advective_difference(u.values, w.values, grid)
    out -= _advective_difference(b.values, j.values, grid)
    return VectorField(grid, _dealias_values(out, grid))


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[tuple[float, float], ...]:
    """The (abscissa, weight) pairs of the ``order``-point Gauss-Legendre rule on [-1, 1]."""
    return tuple(zip(*np.polynomial.legendre.leggauss(order)))


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
    for x, wq in _gauss_legendre(quad_order):
        frac = 0.5 * (1.0 + x)
        heat = np.exp(-(half * (1.0 - x)) * k2)
        a += (wq * half * (1.0 - frac)) * heat
        b += (wq * half * frac) * heat
    return np.exp(-h * k2), a, b


def _duhamel(hats, mesh: TimeMesh, k2: np.ndarray):
    """Yield the spectral Duhamel integral ``acc_m`` of the forcing spectra ``hats``, node by node.

    ``k2`` is the ``|k|**2`` table of the layout the spectra are on (half
    spectrum or cube).  A node's forcing is an array or a tuple of equal
    arrays.  Each step is ``acc <- E acc + A f_prev + B f_next``, taken one
    leading component at a time so the temporaries stay one component large;
    the same array is yielded every time, updated in place.  The multipliers
    are reused while consecutive steps have exactly the same length.
    """
    step = None
    for m, force in enumerate(hats):
        if m == 0:
            acc = np.zeros_like(force)
        else:
            h = mesh.nodes[m] - mesh.nodes[m - 1]
            if h != step:
                step = h
                e, a, b = _step_multipliers(k2, h, mesh.quad_order)
            for acc_i, prev_i, force_i in zip(acc, prev, force):
                acc_i *= e
                acc_i += a * prev_i
                acc_i += b * force_i
        prev = force
        yield acc


def duhamel_integral(forcings, mesh: TimeMesh, t: float) -> VectorField:
    """Heat-smoothed time integral of a node-sampled forcing, up to mesh node ``t``.

    The forcing is linearly interpolated between nodes; the heat factor is
    evaluated exactly at the Gauss-Legendre abscissae of each subinterval.
    """
    m = mesh.node_index(t)
    if len(forcings) <= m:
        raise ValueError(f"need a forcing at every node up to t = {t}, got {len(forcings)}")
    grid = _same_grid(*forcings)
    *_, acc = _duhamel((_fwd(f.values) for f in forcings[: m + 1]), mesh, _tables(grid)["k2"])
    return VectorField(grid, _inv(acc))


class DivergenceError(ArithmeticError):
    """The fixed-point iterates left the range of finite floating-point numbers."""


def _require_finite(what: str, *values) -> None:
    for v in values:
        if not np.all(np.isfinite(v)):
            raise DivergenceError(f"{what} is not finite: the iterates diverged")


#: largest |coefficient| of a datum outside the 2/3-rule cube, relative to its largest |coefficient|;
#: band-limited data carry only the round-off of their transform there, about 1e-16 of it
RESOLUTION_TOL = 1e-12


def _datum_spectra(w0: VectorField, j0: VectorField) -> tuple[Grid, np.ndarray]:
    """Grid and stacked cubes of an initial pair.

    Rejected unless both data are solenoidal, mean-free and resolved on the
    2/3-rule cube: each is zero outside it up to :data:`RESOLUTION_TOL`, and
    the round-off there is dropped.
    """
    grid = _same_grid(w0, j0)
    keep = _tables(grid)["keep"]
    cubes = []
    for v, what in ((w0, "initial vorticity"), (j0, "initial current")):
        vh = _fwd(v.values)
        _require_solenoidal(v.values, vh, grid, what)
        # max-abs ratios: no square to overflow for huge data
        mag = np.abs(vh)
        top, outside = float(mag.max()), float(np.max(mag, where=~keep, initial=0.0))
        if outside > RESOLUTION_TOL * top:
            raise ValueError(
                f"{what} is not resolved on n = {grid.n}: a mode with some |k_i| > {grid.n // 3} "
                f"holds {outside / top:.3e} of the largest coefficient (limit {RESOLUTION_TOL:.0e})"
            )
        cubes.append(_to_cube(vh))
    return grid, np.stack(cubes)


def _write_trace(mesh: TimeMesh, grid: Grid, data: np.ndarray, accs, what: str) -> MhdTrace:
    """The trace ``exp(-t_m |k|^2) data - acc_m`` at every node, for stacked initial cubes ``data``."""
    k2 = _cube_tables(grid)["k2"]
    # every node in one block, released whole with the trace instead of fragmenting the heap
    out = np.empty((2, len(mesh.nodes)) + data.shape[1:], dtype=data.dtype)
    for m, (t, acc) in enumerate(zip(mesh.nodes, accs)):
        np.multiply(np.exp(-t * k2), data, out=out[:, m])
        out[:, m] -= acc
        _require_finite(f"{what} at t = {t}", out[:, m])
    return MhdTrace(mesh, grid, out)


def heat_flow_trace(w0: VectorField, j0: VectorField, mesh: TimeMesh) -> MhdTrace:
    """The zeroth iterate: pure heat flow of the initial pair (a sweep with zero forcing).

    Raises ``ValueError`` unless both data are solenoidal, mean-free and
    resolved on the 2/3-rule cube.
    """
    grid, data = _datum_spectra(w0, j0)
    return _write_trace(mesh, grid, data, itertools.repeat(0.0), "heat flow")


def picard_sweep(trace: MhdTrace) -> MhdTrace:
    """One whole-trajectory fixed-point update from the initial spectra at node 0 of ``trace``.

    Evaluates the nonlinear terms of the previous iterate node by node and
    sets ``new(t) = heat_flow(initial, t) - duhamel(forcing, t)`` for both the
    vorticity and the current.  The minus sign matches the evolution system:
    the transport term enters the time derivative with a negative sign.
    Raises :class:`DivergenceError` when a new node is not finite.
    """
    return _sweep(trace, _forcing_hats(*trace.spectra[:, 0], trace.grid))


def _sweep(trace: MhdTrace, datum_force: tuple[np.ndarray, np.ndarray]) -> MhdTrace:
    """:func:`picard_sweep`, given the forcing of node 0, which holds the initial spectra in every iterate."""
    grid, mesh, spectra = trace.grid, trace.mesh, trace.spectra
    forces = node_map(lambda m: _forcing_hats(*spectra[:, m + 1], grid), len(mesh.nodes) - 1)
    accs = _duhamel(itertools.chain([datum_force], forces), mesh, _cube_tables(grid)["k2"])
    return _write_trace(mesh, grid, spectra[:, 0], accs, "sweep node")


def trace_distance(a: MhdTrace, b: MhdTrace) -> float:
    """Max over nodes of the L2 distances of the vorticity and current iterates, by Parseval."""
    scale = math.sqrt(a.grid.volume)
    best = 0.0
    for m in range(len(a.mesh.nodes)):
        diff = a.spectra[:, m] - b.spectra[:, m]
        _require_finite("trace difference", diff)
        best = max(best, scale * (_spectral_l2(diff[0]) + _spectral_l2(diff[1])))
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

    The report's ``stop`` says why the iteration ended:

    - ``"converged"``: the successive-difference norm ``delta`` dropped to ``tol``;
    - ``"not_contracting"``: ``delta`` grew, or stayed level, in two
      consecutive sweeps (ratios ``delta_k / delta_{k-1} >= 1``): the
      iteration may diverge, the deltas may have reached their round-off
      floor above ``tol``, or they may grow only for a few sweeps before
      they contract, which the rule cannot tell apart (runs with transient
      growth at sweeps 2 and 3 are stopped here and converge without it);
    - ``"budget"``: ``max_sweeps`` sweeps ran without either;
    - ``"overflow"``: a sweep's iterate, distance or seminorms were not
      finite; its record has ``delta = inf``.

    The trace returned is the last finite iterate.  Node 0 of every iterate
    holds the initial spectra, bit for bit, so its forcing and its seminorm
    node norms are formed once per run, in the first sweep.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    trace = heat_flow_trace(w0, j0, mesh)
    records: list[SweepRecord] = []
    stop = "budget"
    for k in range(1, max_sweeps + 1):
        try:
            # overflow is reported by the finiteness checks, not by warnings
            with np.errstate(over="ignore", invalid="ignore"):
                if k == 1:
                    datum_force = _forcing_hats(*trace.spectra[:, 0], trace.grid)
                new = _sweep(trace, datum_force)
                delta = trace_distance(new, trace)
                _require_finite(f"sweep {k} distance", delta)
                sem = None
                if report_seminorms:
                    if k == 1:
                        datum_norms = _datum_norms(new, p, q, sampling)
                    sem = _weighted_seminorms(new, p, q, sampling, datum_norms)
                    _require_finite(f"sweep {k} seminorms", list(sem.as_dict().values()))
        except DivergenceError:
            new, delta, sem = None, math.inf, None
        ratio = delta / records[-1].delta if records else None
        records.append(SweepRecord(index=k, delta=delta, ratio=ratio, seminorms=sem))
        if new is None:
            stop = "overflow"  # keep the last finite trace
            break
        trace = new
        if delta <= tol:
            stop = "converged"
            break
        if k >= 3 and records[-2].ratio >= 1.0 and ratio >= 1.0:
            stop = "not_contracting"
            break
    return trace, IterationReport(tuple(records), stop, tol)


def mild_residual(trace: MhdTrace) -> float:
    """How far a trace is from satisfying the integral equation (one extra sweep from its node 0)."""
    return trace_distance(picard_sweep(trace), trace)


def max_retained_k2(grid: Grid) -> float:
    """Largest ``|k|^2`` surviving the 2/3-rule truncation."""
    t = _tables(grid)
    return float(t["k2d"][t["keep"]].max())


def oracle_step(grid: Grid, dt: float | None) -> float:
    """The oracle step ``dt``, by default ``1/max|k|^2``; rejected unless ``0 < dt * max|k|^2 <= 1``."""
    k2max = max_retained_k2(grid)
    if dt is None:
        return 1.0 / k2max
    dt = float(dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt * k2max > 1.0 + 1e-12:
        raise ValueError(
            f"dt = {dt} does not resolve the fastest retained mode (need dt <= {1.0 / k2max:.3e})"
        )
    return dt


def _spectral_l2(*hats: np.ndarray) -> float:
    """Square root of the summed mean squares of real fields, from their half spectra or cubes (Parseval).

    Every plane of the last axis but the one at wavenumber 0 also stands for
    its conjugate twin, so it counts twice, except the Nyquist plane ``n/2``
    of a half spectrum, whose even edge ``n`` shows it.  The cube's edge
    ``2c+1`` is odd: its last plane ``c < n/2`` counts twice.
    """
    total = 0.0
    for h in hats:
        sq = h.real**2 + h.imag**2
        nyquist = np.sum(sq[..., -1]) if h.shape[-2] % 2 == 0 else 0.0
        total += 2.0 * np.sum(sq) - np.sum(sq[..., 0]) - nyquist
    return float(np.sqrt(total))


def reference_timestepper(
    w0: VectorField,
    j0: VectorField,
    mesh: TimeMesh,
    dt: float,
) -> MhdTrace:
    """Integrating-factor Heun integration of the evolution system, node-aligned.

    The linear (heat) part is integrated exactly per mode; the dealiased
    nonlinear terms are advanced with the second-order Heun corrector.  Each
    mesh subinterval is split into uniform substeps no longer than ``dt``, so
    the mesh nodes are hit exactly without interpolation.  ``dt`` must resolve
    the fastest retained mode (``dt * max|k|^2 <= 1``), and both data must be
    solenoidal, mean-free and resolved on the 2/3-rule cube, on which the
    stepper runs.
    """
    grid, (wh, jh) = _datum_spectra(w0, j0)
    dt = oracle_step(grid, dt)
    k2 = _cube_tables(grid)["k2"]

    def nonlin(wh: np.ndarray, jh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flux, source = _forcing_hats(wh, jh, grid)
        return -flux, -source

    out = np.empty((2, len(mesh.nodes)) + wh.shape, dtype=wh.dtype)
    out[0, 0], out[1, 0] = wh, jh
    size = _spectral_l2(wh, jh)
    for a in range(len(mesh.nodes) - 1):
        ta, tb = mesh.nodes[a], mesh.nodes[a + 1]
        nsub = max(1, math.ceil((tb - ta) / dt - 1e-12))
        h = (tb - ta) / nsub
        decay = np.exp(-h * k2)
        for _ in range(nsub):
            nw0, nj0 = nonlin(wh, jh)
            wh_star = decay * (wh + h * nw0)
            jh_star = decay * (jh + h * nj0)
            nw1, nj1 = nonlin(wh_star, jh_star)
            wh = decay * wh + 0.5 * h * (decay * nw0 + nw1)
            jh = decay * jh + 0.5 * h * (decay * nj0 + nj1)
            size0, size = size, _spectral_l2(wh, jh)
            if size > 10.0 * max(size0, np.finfo(float).tiny):
                raise RuntimeError(
                    f"unstable step at t in [{ta}, {tb}]: norm grew more than 10x in one step"
                )
        out[0, a + 1], out[1, a + 1] = wh, jh
        _require_finite(f"oracle at t = {tb}", out[:, a + 1])
    return MhdTrace(mesh, grid, out)


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
    nodes = range(len(trace.mesh.nodes))
    g = [h3 * float(np.sum(trace.node_field("omega", m).values[component] * phi.values)) for m in nodes]
    g0 = g[0]
    return WeakStarTable(
        times=tuple(trace.mesh.nodes),
        values=tuple(g),
        deviations=tuple(abs(v - g0) for v in g),
    )
