"""The property suites themselves must be green and well-formed."""

import numpy as np
import pytest

from mhdlab.kernels import gaussian_bump
from mhdlab.theory import ConstantsLedger
from mhdlab.verify import _solenoidal_bump_field, estimated_ledger, run_suite

from .conftest import rel_max_err
from .oracles import solenoidal_noise_direct


@pytest.mark.parametrize("name", ["identities", "recursions", "regions", "props"])
def test_suite_passes(name):
    report = run_suite(name)
    assert report["suite"] == name
    failing = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failing


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_reports_are_json_friendly():
    import json

    json.dumps(run_suite("recursions"))


def test_estimated_ledger_marks_provenance():
    ledger = estimated_ledger()
    assert ledger.provenance == "empirical"
    for name in ("heat_smoothing", "duhamel_smoothing", "product_estimate"):
        assert 0 < getattr(ledger, name) < 10
    default = ConstantsLedger()
    assert default.provenance == "default"


@pytest.mark.parametrize("seed", [10, 100, 349])
def test_bump_field_matches_full_spectrum_reference(grid32, seed):
    ref = solenoidal_noise_direct(grid32, seed, 6.0, -1.5, 1.0, gaussian_bump(grid32, 0.5).values)
    assert rel_max_err(_solenoidal_bump_field(grid32, seed).values, ref) <= 1e-14


def test_bump_field_runs_on_the_half_spectrum(grid32, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("full complex FFT called")

    monkeypatch.setattr(np.fft, "fftn", forbidden)
    monkeypatch.setattr(np.fft, "ifftn", forbidden)
    f = _solenoidal_bump_field(grid32, 10)
    assert np.sqrt(np.sum(f.values**2, axis=0)).max() == pytest.approx(1.0, rel=1e-14)
