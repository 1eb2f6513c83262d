"""Beta constants, recursion harnesses, exponent regions, and vector identities."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from mhdlab.theory import (
    ConstantsLedger,
    E2Witness,
    RegionQuery,
    beta_C,
    beta_time_integral,
    cor1_recursion,
    e2_residuals,
    e2_witness_in_range,
    e2_witness_search,
    lemma1_bound_check,
    region_a1,
    region_a2,
    region_e1,
    smallness_threshold,
    vector_identity_check,
)
from mhdlab.verify import REGION_TABLE, _WITNESS_PAIRS

from .conftest import solenoidal_vector
from .oracles import e2_witness_scan


class TestBetaConstant:
    def test_unit_integrand(self):
        assert beta_C(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_gamma_identity_oracle(self):
        assert beta_C(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        oracle = gamma(1 / 3) ** 2 / gamma(2 / 3)
        assert beta_C(1 / 3, 1 / 3) == pytest.approx(oracle, rel=1e-10)

    def test_twenty_pair_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(0.05, 5.0))
            oracle = gamma(a) * gamma(b) / gamma(a + b)
            assert beta_C(a, b) == pytest.approx(oracle, rel=1e-10)

    def test_symmetry(self):
        assert beta_C(0.7, 2.3) == pytest.approx(beta_C(2.3, 0.7), rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-0.5, 1.0)])
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            beta_C(a, b)

    def test_time_scaling_identity(self):
        for a in (0.3, 0.8, 1.5):
            for b in (0.4, 1.0, 2.5):
                for t in (0.25, 1.0, 4.0):
                    direct = beta_time_integral(a, b, t)
                    scaled = beta_C(a, b) * t ** (a + b - 1)
                    assert direct == pytest.approx(scaled, rel=1e-8)


class TestQuadraticRecursion:
    def test_worked_example(self):
        seq, ok = cor1_recursion(0.1, 1.0, 0.0, 10)
        assert ok
        assert seq[1] == pytest.approx(0.1)
        assert seq[2] == pytest.approx(0.11)
        assert seq[3] == pytest.approx(0.1121)
        bound = (1 - math.sqrt(0.6)) / 2
        assert np.all(seq <= bound + 1e-12)
        assert np.all(seq < 0.2)

    def test_fixed_point_start_is_constant(self):
        root = (1 - math.sqrt(0.6)) / 2
        seq, ok = cor1_recursion(0.1, 1.0, root, 10)
        assert ok
        assert np.allclose(seq, root, rtol=1e-12)

    def test_monotone_from_zero(self):
        seq, _ = cor1_recursion(0.2, 0.8, 0.0, 40)
        assert np.all(np.diff(seq) >= -1e-15)

    def test_rejects_critical_discriminant(self):
        with pytest.raises(ValueError, match="1 - 4"):
            cor1_recursion(0.25, 1.0, 0.0, 10)

    def test_rejects_start_above_root(self):
        with pytest.raises(ValueError, match="exceeds"):
            cor1_recursion(0.1, 1.0, 0.5, 10)

    def test_random_admissible_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a1 = float(rng.uniform(0.01, 0.4))
            b1 = float(rng.uniform(0.01, (1 - 1e-9) / (4 * a1)))
            root = (1 - math.sqrt(1 - 4 * a1 * b1)) / (2 * b1)
            x0 = float(rng.uniform(0, root))
            _, ok = cor1_recursion(a1, b1, x0, 60)
            assert ok


class TestMonotoneMapBound:
    def test_quadratic_map(self):
        root = (1 - math.sqrt(0.6)) / 2
        assert lemma1_bound_check(lambda x: 0.1 + x * x, root, 0.0, 50)

    def test_identity_map(self):
        assert lemma1_bound_check(lambda x: x, 0.5, 0.5, 50)

    def test_square_root_map(self):
        assert lemma1_bound_check(math.sqrt, 1.0, 0.25, 50)

    def test_monotonicity_violation_aborts(self):
        # logistic map: fixed point 3/4, but decreasing on (1/2, 3/4]
        with pytest.raises(RuntimeError, match="non-decreasing"):
            lemma1_bound_check(lambda x: 4 * x * (1 - x), 0.75, 0.0, 10)

    def test_rejects_non_fixed_point(self):
        with pytest.raises(ValueError, match="not a fixed point"):
            lemma1_bound_check(lambda x: x + 1.0, 2.0, 0.0, 10)

    def test_rejects_start_above(self):
        with pytest.raises(ValueError, match="exceeds"):
            lemma1_bound_check(lambda x: x, 1.0, 2.0, 10)


class TestRegions:
    def test_golden_table(self):
        fns = {"a1": region_a1, "a2": region_a2, "e1": region_e1}
        for kind, args, expected in REGION_TABLE:
            assert fns[kind](*args) is expected, (kind, args)

    def test_worked_examples(self):
        assert region_a1(1.5, 1.0)
        assert not region_a1(1.0, 1.0)
        assert region_a2(1.5, 1.0)
        assert region_e1(1.5, 1.0, 1.0, 1.0)

    def test_a1_with_unit_base_embeds_in_e1(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = float(rng.uniform(0.9, 2.2))
            q = float(rng.uniform(0.8, 2.2))
            if region_a1(p, q):
                assert region_e1(p, q, 1.0, 1.0)

    def test_a1_meets_a2(self):
        assert region_a1(1.5, 1.0) and region_a2(1.5, 1.0)


def _admissible_bases(rng, count: int, q_range: tuple[float, float]) -> list[tuple[float, float, float, float]]:
    """``count`` uniformly drawn base tuples ``(p, q, p0, 3 - 2 p0)`` that :func:`region_e1` admits."""
    out = []
    while len(out) < count:
        p, q, p0 = float(rng.uniform(1.0, 2.0)), float(rng.uniform(*q_range)), float(rng.uniform(1.0, 1.5))
        if region_e1(p, q, p0, 3.0 - 2.0 * p0):
            out.append((p, q, p0, 3.0 - 2.0 * p0))
    return out


class TestWitnessSearch:
    def test_reduction_closed_form(self):
        for p, q in _WITNESS_PAIRS:
            rq = RegionQuery(p=p, q=q, p0=1.0, q0=1.0, q0_tilde=1.0, q1=q)
            w = e2_witness_search(rq)
            assert w is not None
            pp = p / (p - 1)
            assert w.q2 == pytest.approx(q, abs=1e-9)
            assert w.q3 == pytest.approx(q, abs=1e-9)
            assert w.p_tilde == pytest.approx(pp * (3 - q) / (3 - q + pp), abs=1e-9)
            assert e2_witness_in_range(rq, w)
            assert max(e2_residuals(rq, w).values()) <= 1e-9

    def test_every_canonical_query_has_the_witness_q3_equal_q(self):
        # the canonical witness sits on the closed bound q1 - q2 = 0, where round-off falls either side
        queries = [
            RegionQuery(p, q, p0, q0, q0_tilde=1.0, q1=q)
            for p, q, p0, q0 in _admissible_bases(np.random.default_rng(5), 1000, q_range=(1.0, 2.0))
        ]
        queries.append(RegionQuery(1.21721140224978, 1.600947369400297, 1.192465628312987,
                                   0.615068743374026, 1.0, 1.600947369400297))
        for rq in queries:
            w = e2_witness_search(rq)
            assert w is not None, rq
            assert abs(w.q3 - rq.q) <= 1e-9, rq

    def test_closed_form_matches_the_scan_off_the_boundary(self):
        rng = np.random.default_rng(6)
        found = 0
        for i, (p, q, p0, q0) in enumerate(_admissible_bases(rng, 2000, q_range=(0.0, 3.0))):
            if i % 2:  # the canonical q0_tilde with q1 away from q
                q0_tilde, q1 = 1.0, float(rng.uniform(1.0, 2.0))
            else:
                q0_tilde = float(rng.uniform(0.0, 3.0))
                q1 = q0_tilde + float(rng.uniform(0.0, 1.0))
            rq = RegionQuery(p, q, p0, q0, q0_tilde, q1)
            w, ref = e2_witness_search(rq), e2_witness_scan(rq)
            assert (w is None) == (ref is None), rq
            if w is not None:
                found += 1
                assert q0_tilde == 1.0
                assert abs(w.q3 - ref.q3) <= 1e-9, rq
        assert found > 100

    def test_canonical_theta(self):
        rq = RegionQuery(p=1.5, q=1.0, p0=1.0, q0=1.0, q0_tilde=1.0, q1=1.0)
        w = e2_witness_search(rq)
        assert w.p_tilde == pytest.approx(1.2, abs=1e-9)
        assert w.theta == pytest.approx(0.5, abs=1e-9)

    def test_rejects_gap_precondition(self):
        rq = RegionQuery(p=1.5, q=1.0, p0=1.0, q0=1.0, q0_tilde=0.0, q1=1.5)
        with pytest.raises(ValueError, match="q1 - q0_tilde"):
            e2_witness_search(rq)

    def test_rejects_inadmissible_base(self):
        rq = RegionQuery(p=1.0, q=1.0, p0=1.0, q0=1.0, q0_tilde=1.0, q1=1.0)
        with pytest.raises(ValueError, match="admissible region"):
            e2_witness_search(rq)

    def test_revalidation_catches_stale_witness(self):
        rq = RegionQuery(p=1.5, q=1.0, p0=1.0, q0=1.0, q0_tilde=1.0, q1=1.0)
        fake = E2Witness(q2=1.0, q3=1.1, p_tilde=1.2, theta=0.5)
        assert max(e2_residuals(rq, fake).values()) > 1e-9


class TestSmallnessThreshold:
    def test_canonical_value(self):
        g1 = smallness_threshold(1.5, 1.0, ConstantsLedger())
        assert g1 == pytest.approx(0.0058963, abs=1e-6)

    def test_inverse_proportionality(self):
        ledger = ConstantsLedger(heat_smoothing=2.0)
        assert (ledger.duhamel_smoothing, ledger.product_estimate) == (1.0, 1.0)
        assert smallness_threshold(1.5, 1.0, ledger) == pytest.approx(0.0058963 / 2, abs=1e-6)
        ledger = ConstantsLedger(heat_smoothing=2.0, duhamel_smoothing=2.0, product_estimate=2.0)
        assert smallness_threshold(1.5, 1.0, ledger) == pytest.approx(0.0058963 / 8, abs=1e-6)

    def test_rejects_outside_region(self):
        with pytest.raises(ValueError, match="admissible"):
            smallness_threshold(1.5, 2.0, ConstantsLedger())


class TestConstantsLedger:
    def test_defaults(self):
        ledger = ConstantsLedger()
        assert ledger.heat_smoothing == 1.0
        assert ledger.provenance == "default"

    def test_set_and_provenance(self):
        ledger = ConstantsLedger(product_estimate=0.3, provenance="empirical")
        assert (ledger.product_estimate, ledger.provenance) == (0.3, "empirical")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantsLedger(heat_smoothing=0.0)
        with pytest.raises(ValueError):
            ConstantsLedger(product_estimate=-1.0)

    def test_rejects_unknown_gain(self):
        assert ConstantsLedger(heat_smoothing=2.0).heat_smoothing == 2.0
        with pytest.raises(TypeError):
            ConstantsLedger(heat_smothing=2.0)

    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError, match="provenance"):
            ConstantsLedger(provenance="user")

    def test_is_frozen(self):
        ledger = ConstantsLedger()
        with pytest.raises(AttributeError):
            ledger.heat_smoothing = 2.0


class TestVectorIdentities:
    def test_equal_fields(self, grid32):
        F = solenoidal_vector(grid32, 31)
        res = vector_identity_check(F, F)
        assert res["grad_dot"] <= 1e-10
        assert res["curl_cross"] <= 1e-10

    def test_constant_second_field(self, grid32):
        F = solenoidal_vector(grid32, 32)
        const = np.zeros((3, 32, 32, 32))
        const[0] = 0.8
        from mhdlab.fields import VectorField

        G = VectorField(grid32, const)
        res = vector_identity_check(F, G)
        assert res["curl_cross"] <= 1e-12
        assert res["div_cross"] <= 1e-12

    def test_random_pairs(self, grid32):
        for seed in range(5):
            F = solenoidal_vector(grid32, 800 + seed)
            G = solenoidal_vector(grid32, 900 + seed)
            res = vector_identity_check(F, G)
            assert max(res.values()) <= 1e-10
