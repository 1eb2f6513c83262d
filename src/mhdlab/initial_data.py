"""Initial-data families: single Fourier modes, smooth vortex rings, seeded random fields.

Every family ends in one spectral finish, :func:`_finalize` (2/3 dealias, Leray
projection, zero mean, one inverse transform, scaling to the peak), so every field
is solenoidal, mean-free and band-limited and fixed-point iterates built from it
stay exactly representable.  :func:`_noise_hat` is the one seeded noise source.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    Grid,
    VectorField,
    _dealias_hat,
    _fwd,
    _inv,
    _k_dot,
    _leray_hat,
    zero_vector,
)
from .morrey import BallSampling, MorreyParams, morrey_norm


def _checked_number(name: str, value, whole: bool = False) -> float | int:
    """``value`` as a float (an int if ``whole``); rejected unless it is a finite (whole) JSON number."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or (whole and not float(value).is_integer())
    ):
        raise ValueError(f"{name} must be a {'whole ' if whole else ''}number, got {value!r}")
    return int(value) if whole else float(value)


def _finalize(vh: np.ndarray, grid: Grid, amplitude: float) -> VectorField:
    """The field of half spectrum ``vh``: dealiased, projected, de-meaned, scaled to peak ``amplitude``."""
    vh = _leray_hat(_dealias_hat(vh, grid), grid)
    vh[:, 0, 0, 0] = 0.0
    v = _inv(vh)
    peak = float(np.sqrt(np.sum(v**2, axis=0)).max())
    if peak == 0.0:
        return zero_vector(grid)
    dmax = float(np.abs(_inv(1j * _k_dot(vh, grid))).max())
    if dmax > 1e-10 * peak:
        raise ValueError(f"generated field failed the solenoidality check: {dmax / peak:.3e}")
    return VectorField(grid, v * (amplitude / peak))


def _noise_hat(grid: Grid, seed: int, cutoff: float, slope: float, window: np.ndarray | None = None):
    """Half spectrum of seeded noise times ``window``, filtered by ``|k|**slope`` on integer 0 < |k| <= cutoff."""
    n = grid.n
    noise = np.random.default_rng(seed).standard_normal((3, n, n, n))
    if window is not None:
        noise *= window
    kint = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.sqrt(kint[:, None, None] ** 2 + kint[None, :, None] ** 2 + kint[None, None, : n // 2 + 1] ** 2)
    envelope = np.zeros_like(kmag)
    np.power(kmag, slope, out=envelope, where=(kmag > 0) & (kmag <= cutoff))
    return envelope * _fwd(noise)


def _single_mode(spec: dict, grid: Grid) -> np.ndarray:
    k = tuple(int(v) for v in spec.get("wavevector", (1, 0, 0)))
    comp = int(spec.get("component", 3)) - 1
    if comp not in (0, 1, 2):
        raise ValueError("component must be 1, 2 or 3")
    if all(v == 0 for v in k):
        raise ValueError("wavevector must be nonzero")
    if k[comp] != 0:
        raise ValueError("wavevector must be orthogonal to the carried component")
    x1, x2, x3 = grid.meshgrid()
    phase = 2.0 * math.pi / grid.l * (k[0] * x1 + k[1] * x2 + k[2] * x3)
    vals = np.zeros((3,) + (grid.n,) * 3)
    vals[comp] = np.cos(phase)
    return _fwd(vals)


def _gaussian_vortex_ring(spec: dict, grid: Grid) -> np.ndarray:
    radius = float(spec.get("radius", grid.l / 10))
    core = float(spec.get("core_width", grid.l / 16))
    if core < 4 * grid.spacing:
        raise ValueError(
            f"core width {core} is below 4 grid spacings ({4 * grid.spacing}); "
            "thinner tubes are not resolvable"
        )
    # 6 cores of clearance puts the boundary magnitude near the 1e-8 contract
    if radius + 6 * core > grid.l / 2:
        raise ValueError("ring does not decay inside the box")
    c = grid.l / 2
    x1, x2, x3 = grid.meshgrid()
    rho = np.sqrt((x1 - c) ** 2 + (x2 - c) ** 2)
    dist2 = (rho - radius) ** 2 + (x3 - c) ** 2
    mag = np.exp(-dist2 / (2.0 * core**2))
    safe_rho = np.where(rho > 0, rho, 1.0)
    vals = np.stack(
        [
            -mag * (x2 - c) / safe_rho,
            mag * (x1 - c) / safe_rho,
            np.zeros_like(mag),
        ]
    )
    vals[:, rho == 0] = 0.0
    # box-decay contract: the tube must be negligible on the boundary faces
    faces = np.concatenate(
        [np.abs(vals[:, 0]).ravel(), np.abs(vals[:, :, 0]).ravel(), np.abs(vals[:, :, :, 0]).ravel()]
    )
    if faces.max() > 1e-8 * np.abs(vals).max():
        raise ValueError("ring magnitude on the box boundary exceeds the decay requirement")
    return _fwd(vals)


def _random_divfree(spec: dict, grid: Grid) -> np.ndarray:
    cutoff, slope = float(spec.get("cutoff", grid.n / 4)), float(spec.get("slope", -2.0))
    return _noise_hat(grid, int(spec.get("seed", 0)), cutoff, slope)


#: each family's half-spectrum builder (none for ``zero``) and the keys its spec may hold besides
#: ``family``, with their kinds: a number (float), a whole number (int) or three whole numbers (list)
_FAMILY_TABLE = {
    "single_mode": (_single_mode, {"amplitude": float, "wavevector": list, "component": int}),
    "gaussian_vortex_ring": (
        _gaussian_vortex_ring,
        {"amplitude": float, "radius": float, "core_width": float},
    ),
    "random_divfree": (_random_divfree, {"amplitude": float, "cutoff": float, "slope": float, "seed": int}),
    "zero": (None, {}),
}


def _check_family_spec(spec, where: str) -> None:
    """Reject a family spec (named ``where``) whose family, keys or value kinds are not in its table row."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where} must be an object, got {spec!r}")
    family = spec.get("family")
    if family not in _FAMILY_TABLE:
        raise ValueError(f"unknown data family {family!r} in {where}; expected one of {tuple(_FAMILY_TABLE)}")
    kinds = _FAMILY_TABLE[family][1]
    unknown = sorted(set(spec) - {"family", *kinds})
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"a {family} spec holds family{''.join(', ' + k for k in kinds)}"
        )
    for key in (k for k in kinds if k in spec):
        kind, value = kinds[key], spec[key]
        if kind is list and not (isinstance(value, list) and len(value) == 3):
            raise ValueError(f"{where}.{key} must be a list of three whole numbers, got {value!r}")
        for v in value if kind is list else [value]:
            _checked_number(f"{where}.{key}", v, whole=kind is not float)
    if not spec.get("amplitude", 1.0) > 0:
        raise ValueError(f"{where}.amplitude must be positive")


def check_data_spec(spec) -> None:
    """Reject a data spec before any field is generated: a bad shape, family, key or value kind.

    A flat spec names a ``family``; a coupled spec holds only ``omega`` and an
    optional ``j`` (absent, null or empty: a zero current).  Each family spec
    holds only the keys of its row in the family table.
    """
    if isinstance(spec, dict) and "family" in spec:
        _check_family_spec(spec, "data")
        return
    if not isinstance(spec, dict) or "omega" not in spec:
        raise ValueError("data spec needs a 'family' key or an 'omega' sub-spec")
    unknown = sorted(set(spec) - {"omega", "j"})
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in data; a coupled spec holds omega and j"
        )
    _check_family_spec(spec["omega"], "data.omega")
    if spec.get("j"):
        _check_family_spec(spec["j"], "data.j")


def _seeded(spec) -> bool:
    return bool(spec) and "seed" in _FAMILY_TABLE[spec["family"]][1]


def seed_data_spec(spec: dict, seed: int) -> dict:
    """A checked data spec with its seeded families reseeded.

    A flat spec takes ``seed``; in a coupled spec omega takes ``seed`` and j
    ``seed + 1``.  Distinct seeds keep coupled data from collapsing to
    omega = j, where both nonlinear terms cancel identically.  A spec with no
    seeded family is rejected, since nothing would read the seed.
    """
    if "family" in spec:
        reseeded = {"seed": seed} if _seeded(spec) else {}
    else:
        reseeded = {
            key: {**spec[key], "seed": seed + offset}
            for offset, key in enumerate(("omega", "j"))
            if _seeded(spec.get(key))
        }
    if not reseeded:
        raise ValueError("a seed was given, but no family of this data spec takes one")
    return {**spec, **reseeded}


def _one_field(spec: dict, grid: Grid) -> VectorField:
    build = _FAMILY_TABLE[spec["family"]][0]
    if build is None:
        return zero_vector(grid)
    return _finalize(build(spec, grid), grid, float(spec.get("amplitude", 1.0)))


def generate_initial_data(spec: dict, grid: Grid) -> tuple[VectorField, VectorField]:
    """Generate the initial (vorticity, current) pair from a data spec.

    A flat spec ``{"family": ..., ...}`` generates the vorticity and leaves the
    current zero; ``{"omega": {...}, "j": {...}}`` generates both.  Fields are
    deterministic per seed.  The spec is checked first (:func:`check_data_spec`).
    """
    check_data_spec(spec)
    if "family" in spec:
        return _one_field(spec, grid), zero_vector(grid)
    w0 = _one_field(spec["omega"], grid)
    j_spec = spec.get("j")
    j0 = _one_field(j_spec, grid) if j_spec else zero_vector(grid)
    return w0, j0


def initial_size_report(
    w0: VectorField,
    j0: VectorField,
    sampling: BallSampling = BallSampling(),
    p0: float = 1.0,
    q0: float = 1.0,
) -> dict[str, float]:
    """Norms of the initial pair entering the smallness conditions.

    Both the localized-mass (1, 1) norms and the configured (p0, q0) norms are
    reported; whether to enforce smallness in both is left to the experiment.
    """
    mp11, mp0 = MorreyParams(1.0, 1.0), MorreyParams(p0, q0)
    # one estimate per distinct exponent pair: the default (p0, q0) is (1, 1)
    norms = {mp: (morrey_norm(w0, mp, sampling), morrey_norm(j0, mp, sampling)) for mp in {mp11, mp0}}
    (w11, j11), (wp0, jp0) = norms[mp11], norms[mp0]
    return {"omega_m11": w11, "j_m11": j11, "omega_mp0q0": wp0, "j_mp0q0": jp0}


def check_box_study(spec: dict, factors) -> tuple[int, ...]:
    """The box factors as ints, once ``spec`` is localized data and every factor a whole power of two."""
    families = [spec.get("family")] if "family" in spec else [
        sub.get("family") for sub in (spec.get("omega"), spec.get("j")) if sub
    ]
    if any(f not in ("gaussian_vortex_ring", "zero") for f in families):
        raise ValueError("box study needs localized data (gaussian_vortex_ring)")
    if not isinstance(factors, (list, tuple)) or not all(
        isinstance(f, (int, float)) and not isinstance(f, bool) and f >= 1 and float(f).is_integer()
        and not int(f) & (int(f) - 1)
        for f in factors
    ):
        raise ValueError(f"box factors must be whole powers of two (grid sizes stay so), got {factors!r}")
    return tuple(int(f) for f in factors)


def box_study(spec: dict, grid: Grid, factors=(2,), sampling: BallSampling = BallSampling()) -> list[dict]:
    """Convergence-in-box-size diagnostic for localized data.

    Regenerates the same physical data on boxes enlarged by each (power of
    two) factor, with the grid refined in step so the spacing stays fixed, and
    reports the localized-mass norms; stabilization under enlargement means
    the box is big enough for the norm suprema.  Only meaningful for families
    with absolute length scales (the vortex ring); periodic families are tied
    to the box.
    """
    out = []
    for factor in (1, *check_box_study(spec, factors)):
        big = Grid(grid.n * factor, grid.l * factor)
        w0, j0 = generate_initial_data(spec, big)
        entry = {"factor": float(factor), "l": big.l, "n": big.n}
        entry.update(initial_size_report(w0, j0, sampling))
        out.append(entry)
    return out
