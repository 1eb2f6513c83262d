"""Initial-data families: single Fourier modes, smooth vortex rings, seeded random fields.

:func:`read_data_spec`, through the config's schema reader :func:`_read_block`,
resolves a data spec on a grid into the one shape that the builders read.

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
    _tables,
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


#: a schema maps each key to its kind (a JSON object for a block, a number (float), a whole number
#: (int), bool, str or list) and its default; ``_OWN_DEFAULT`` leaves the default to the class that
#: takes the value.  A null value stands for its default only where that default is null.
_OWN_DEFAULT = object()
_KIND_NAMES = {dict: "an object", bool: "true or false", str: "a string", list: "a list"}


def _read_block(prefix: str, block, schema: dict) -> dict:
    """The keys of ``block`` (block ``prefix``), checked against ``schema``, with the defaults it holds."""
    unknown = sorted(set(block) - set(schema))
    if unknown:
        raise ValueError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {prefix[:-1] or 'the config'}; "
            f"expected {', '.join(schema)}"
        )
    out = {}
    for key, (kind, default) in schema.items():
        value, name = block.get(key), prefix + key
        if key not in block or (value is None and default is None):
            if default is not _OWN_DEFAULT:
                out[key] = default
        elif kind in (int, float):
            out[key] = _checked_number(name, value, whole=kind is int)
        elif isinstance(value, kind):
            out[key] = value
        else:
            raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return out


def _finalize(vh: np.ndarray, grid: Grid, amplitude: float) -> VectorField:
    """The field of half spectrum ``vh``: dealiased, projected, de-meaned, scaled to peak ``amplitude``."""
    vh = _leray_hat(_dealias_hat(vh, grid), grid)
    vh[:, 0, 0, 0] = 0.0
    v = _inv(vh)
    peak = float(np.sqrt(np.sum(v**2, axis=0)).max())
    if peak == 0.0:
        return zero_vector(grid)
    dmax = float(np.abs(_inv(1j * _k_dot(vh, _tables(grid)["kd"]))).max())
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
    k = spec["wavevector"]
    x1, x2, x3 = grid.meshgrid()
    phase = 2.0 * math.pi / grid.l * (k[0] * x1 + k[1] * x2 + k[2] * x3)
    vals = np.zeros((3,) + (grid.n,) * 3)
    vals[spec["component"] - 1] = np.cos(phase)
    return _fwd(vals)


def _check_single_mode(where: str, spec: dict, grid: Grid) -> None:
    k = spec["wavevector"]
    if len(k) != 3:
        raise ValueError(f"{where}wavevector must be a list of three whole numbers, got {k!r}")
    k = spec["wavevector"] = [_checked_number(f"{where}wavevector", v, whole=True) for v in k]  # as ints
    comp = spec["component"]
    if comp not in (1, 2, 3):
        raise ValueError(f"{where}component must be 1, 2 or 3, got {comp}")
    if not any(k):
        raise ValueError(f"{where}wavevector must be nonzero")
    if k[comp - 1]:
        raise ValueError(f"{where}wavevector {k} must be orthogonal to the carried component {comp}")


def _gaussian_vortex_ring(spec: dict, grid: Grid) -> np.ndarray:
    radius, core = spec["radius"], spec["core_width"]
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


def _check_ring(where: str, spec: dict, grid: Grid) -> None:
    radius, core = spec["radius"], spec["core_width"]
    if not radius > 0:
        raise ValueError(f"{where}radius must be positive, got {radius}")
    if core < 4 * grid.spacing:
        raise ValueError(f"{where}core_width {core} is below 4 grid spacings ({4 * grid.spacing}); too thin to resolve")
    # 6 cores of clearance puts the boundary magnitude near the 1e-8 contract
    if radius + 6 * core > grid.l / 2:
        raise ValueError(f"ring does not decay inside the box: {where}radius + 6 {where}core_width > l/2")


def _random_divfree(spec: dict, grid: Grid) -> np.ndarray:
    return _noise_hat(grid, spec["seed"], spec["cutoff"], spec["slope"])


def _check_random_divfree(where: str, spec: dict, grid: Grid) -> None:
    if spec["seed"] < 0:
        raise ValueError(f"{where}seed must be non-negative, got {spec['seed']}")


#: each family's half-spectrum builder (none for ``zero``), the schema of the keys its spec may hold
#: besides ``family`` (a callable default is a function of the grid) and its value check
_AMPLITUDE = {"amplitude": (float, 1.0)}
_FAMILY_TABLE = {
    "single_mode": (
        _single_mode,
        {**_AMPLITUDE, "wavevector": (list, [1, 0, 0]), "component": (int, 3)},
        _check_single_mode,
    ),
    "gaussian_vortex_ring": (
        _gaussian_vortex_ring,
        {**_AMPLITUDE, "radius": (float, lambda g: g.l / 10), "core_width": (float, lambda g: g.l / 16)},
        _check_ring,
    ),
    "random_divfree": (
        _random_divfree,
        {**_AMPLITUDE, "cutoff": (float, lambda g: g.n / 4), "slope": (float, -2.0), "seed": (int, 0)},
        _check_random_divfree,
    ),
    "zero": (None, {}, None),
}

#: the keys of a coupled spec: a null ``omega`` is an error, a null ``j`` a zero current
_COUPLED = {"omega": (dict, {}), "j": (dict, None)}


def _read_family(where: str, spec: dict, grid: Grid) -> dict:
    """A family spec whose keys are named ``where`` + key, with every key set; defaults taken on ``grid``."""
    family = spec.get("family")
    if not (isinstance(family, str) and family in _FAMILY_TABLE):
        raise ValueError(f"unknown data family {family!r} in {where[:-1]}; expected one of {tuple(_FAMILY_TABLE)}")
    schema = {key: (kind, d(grid) if callable(d) else d) for key, (kind, d) in _FAMILY_TABLE[family][1].items()}
    return _read_block(where, spec, {"family": (str, None), **schema})


def read_data_spec(spec, grid: Grid, seed: int | None = None) -> dict:
    """A data spec, read and checked on ``grid``: ``{"omega": {...}, "j": {...}}``, each with every key.

    A flat spec (it names a ``family``) is omega's, with a zero current; a
    coupled spec holds ``omega`` and an optional ``j`` (absent, null or empty:
    zero).  An absent key takes its family table default, taken on ``grid``
    where it is grid-relative.  ``seed`` reseeds the seeded families, omega
    with ``seed`` and j with ``seed + 1``, since coupled data with omega = j has
    no nonlinear terms; data with no seeded family rejects it.  A read spec
    reads the same again.
    """
    if not isinstance(spec, dict) or not ("family" in spec or "omega" in spec):
        raise ValueError(f"data spec needs a 'family' key or an 'omega' sub-spec, got {spec!r}")
    flat = "family" in spec
    parts = {"omega": spec, "j": None} if flat else _read_block("data.", spec, _COUPLED)
    where = {"omega": "data." if flat else "data.omega.", "j": "data.j."}
    out = {"omega": _read_family(where["omega"], parts["omega"], grid)}
    out["j"] = _read_family(where["j"], parts["j"] or {"family": "zero"}, grid)
    if seed is not None:
        if not any("seed" in sub for sub in out.values()):
            raise ValueError("a seed was given, but no family of this data spec takes one")
        for offset, sub in enumerate(out.values()):
            if "seed" in sub:
                sub["seed"] = seed + offset
    for key, sub in out.items():
        if "amplitude" in sub and not sub["amplitude"] > 0:
            raise ValueError(f"{where[key]}amplitude must be positive, got {sub['amplitude']}")
        check = _FAMILY_TABLE[sub["family"]][2]
        if check:
            check(where[key], sub, grid)
    return out


def _one_field(spec: dict, grid: Grid) -> VectorField:
    build = _FAMILY_TABLE[spec["family"]][0]
    return zero_vector(grid) if build is None else _finalize(build(spec, grid), grid, spec["amplitude"])


def generate_initial_data(spec: dict, grid: Grid) -> tuple[VectorField, VectorField]:
    """The initial (vorticity, current) pair of a data spec, read on ``grid`` by :func:`read_data_spec`.

    Fields are deterministic per seed.
    """
    spec = read_data_spec(spec, grid)
    return _one_field(spec["omega"], grid), _one_field(spec["j"], grid)


def initial_size_report(
    w0: VectorField,
    j0: VectorField,
    sampling: BallSampling = BallSampling(),
    p0: float = 1.0,
    q0: float = 1.0,
) -> dict[str, float]:
    """Norms of the initial pair entering the smallness conditions.

    The localized-mass (1, 1) norms ``omega_m11`` and ``j_m11`` are always
    reported, and the configured (p0, q0) norms ``omega_mp0q0`` and ``j_mp0q0``
    when (p0, q0) is not (1, 1); whether to enforce smallness in both is left
    to the experiment.
    """
    mp11, mp0 = MorreyParams(1.0, 1.0), MorreyParams(p0, q0)
    scales = {"m11": mp11} if mp0 == mp11 else {"m11": mp11, "mp0q0": mp0}
    out = {}
    for tag, mp in scales.items():
        out[f"omega_{tag}"] = morrey_norm(w0, mp, sampling)
        out[f"j_{tag}"] = morrey_norm(j0, mp, sampling)
    return out
