"""The numpy.fft transforms of the package against scipy.fft, bit for bit.

Every transform helper runs one pass per axis in the order of scipy's
multi-axis transforms: the real pass along the last axis and then the complex
passes along axes -3 and -2 forward, the reverse order inverse.  Each pass
scales by ``1/n``, a power of two, where scipy scales by ``1/n**3`` once, so
the results are the same bits unless a scaled value is subnormal.  Subnormal
inputs (about 1e-310) may therefore differ and are not tested; the
magnitudes below reach from 1e-300 to 1e305.
"""

import math

import numpy as np
import pytest

from mhdlab import fields, morrey
from mhdlab.fields import _cube_fwd, _cube_inv, _fwd, _inv, _magnitude_values, _to_cube, make_grid
from mhdlab.fields import VectorField
from mhdlab.morrey import BallSampling, MorreyParams

from .oracles import from_cube, scipy_fwd, scipy_inv

MAGNITUDES = [1.0, 1e-300, 1e300, 1e305]


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: signed zeros and NaN payloads count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _noise(n: int, magnitude: float, lead=(2, 3)) -> np.ndarray:
    return magnitude * np.random.default_rng(n).standard_normal(lead + (n, n, n))


@pytest.fixture(params=[True, False], ids=["pruned", "full"])
def pruned(request, monkeypatch):
    # both branches of the forward cube transform at every n: PRUNED_FROM is read at each call
    monkeypatch.setattr(fields, "PRUNED_FROM", 8 if request.param else 2**30)
    return request.param


@pytest.mark.parametrize("magnitude", MAGNITUDES)
@pytest.mark.parametrize("n", [8, 16, 32, 64])
class TestAgainstScipy:
    @pytest.mark.parametrize("norm", ["forward", "backward"])
    def test_half_spectrum_pair(self, n, magnitude, norm):
        # the backward pair is the Morrey estimator's unscaled one; its inverse
        # is fed the scaled spectrum, whose sums stay finite at every magnitude
        values = _noise(n, magnitude)
        with np.errstate(over="ignore"):  # the unscaled sums of 1e305 overflow on both sides
            assert _bitwise(_fwd(values, norm=norm), scipy_fwd(values, norm=norm))
        hat = scipy_fwd(values)
        assert _bitwise(_inv(hat, norm=norm), scipy_inv(hat, norm=norm))
        assert _bitwise(_inv(hat.copy(), norm=norm, overwrite=True), scipy_inv(hat, norm=norm))

    def test_cube_pair(self, n, magnitude, pruned):
        values = _noise(n, magnitude)
        cube = _to_cube(scipy_fwd(values))
        assert _bitwise(_cube_fwd(values), cube)
        assert _bitwise(_cube_fwd(values[0, 1]), cube[0, 1])
        assert _bitwise(_cube_inv(cube, n), scipy_inv(from_cube(cube, n)))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_morrey_candidates(self, n, magnitude, stride, monkeypatch):
        # the unscaled forward transform of the stack, the stride-2 fold and,
        # at stride 1, the full inverse; the estimator rescales arrays whose
        # power sums would overflow these transforms
        grid = make_grid(n, 2 * math.pi)
        mags = _magnitude_values(VectorField(grid, _noise(n, magnitude, (3,))))
        mags = np.stack([mags, mags.transpose(1, 2, 0)])
        sampling = BallSampling(stride=stride, radii_per_octave=1)
        mp = MorreyParams(1.5, 1.0)
        got = list(morrey._candidates(grid, mags.copy(), mp, sampling))
        monkeypatch.setattr(morrey, "_fwd", scipy_fwd)
        monkeypatch.setattr(morrey, "_inv", scipy_inv)
        want = list(morrey._candidates(grid, mags.copy(), mp, sampling))
        assert got == want
        for r in sampling.radii(grid):
            kern = morrey._ball_kernel(n, grid.l, r)[0]
            assert _bitwise(kern, morrey._ball_kernel.__wrapped__(n, grid.l, r)[0])
