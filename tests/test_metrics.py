import numpy as np
import pytest

from distcost.energy import disturbed_energy_bound, nominal_energy
from distcost.errors import DomainError
from distcost.gramian import build_bundle
from distcost.linalg import norm
from distcost.metrics import (additive_metric_bound, hardness, metric_report,
                              multiplicative_metric_bound)
from distcost.systems import LtiSystem, StabilizationTask


@pytest.fixture(scope="module")
def scalar_sys():
    return LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="scalar")


@pytest.fixture(scope="module")
def scalar_bundle(scalar_sys):
    return build_bundle(scalar_sys, 1.0)


class TestScalarValues:
    def test_multiplicative_quarter(self, scalar_sys, scalar_bundle):
        # l = 1, gamma = 2, c = 1, R = 1: 1 / (1 + 2 + 1) = 0.25
        r_M = multiplicative_metric_bound(scalar_sys, scalar_bundle, 1.0, 1.0)
        assert r_M == pytest.approx(0.25, abs=1e-12)

    def test_additive_matches_parts(self, scalar_sys, scalar_bundle):
        # c + gamma R sqrt(n) = 1 + 2 = 3 at R = 1
        r_A = additive_metric_bound(scalar_sys, scalar_bundle, 1.0, 1.0)
        assert r_A == pytest.approx(3.0, abs=1e-12)

    def test_report_consistency(self, scalar_sys, scalar_bundle):
        rep = metric_report(scalar_sys, scalar_bundle, 1.0, 1.0)
        assert rep.r_A_bound == pytest.approx(3.0, abs=1e-12)
        assert rep.r_M_bound == pytest.approx(0.25, abs=1e-12)
        assert rep.hardness == pytest.approx(1.0, abs=1e-15)
        assert rep.gamma == pytest.approx(2.0, abs=1e-12)
        assert rep.c_term == pytest.approx(1.0, abs=1e-12)
        assert rep.l_min == pytest.approx(1.0, abs=1e-12)


class TestBoundStructure:
    def test_additive_dominates_bound_gap(self, jet, jet_bundle_half):
        # r_A bounds E_D_bound - E_N over the whole ball ||x0|| <= R
        R = 20.0
        r_A = additive_metric_bound(jet, jet_bundle_half, 1.0, R)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x0 = rng.standard_normal(3)
            x0 *= R * rng.uniform() ** (1 / 3) / np.linalg.norm(x0)
            task = StabilizationTask(x0=x0, t_f=0.5, w_bar=1.0)
            rep = disturbed_energy_bound(jet, task, jet_bundle_half)
            assert rep.E_D_bound - rep.E_N <= r_A * (1.0 + 1e-12)

    def test_multiplicative_bounds_ratio_on_sphere(self, jet, jet_bundle_half):
        R = 100.0
        r_M = multiplicative_metric_bound(jet, jet_bundle_half, 1.0, R)
        rng = np.random.default_rng(6)
        for _ in range(100):
            x0 = rng.standard_normal(3)
            x0 *= R / np.linalg.norm(x0)
            task = StabilizationTask(x0=x0, t_f=0.5, w_bar=1.0)
            rep = disturbed_energy_bound(jet, task, jet_bundle_half)
            assert rep.E_N / rep.E_D_bound >= r_M * (1.0 - 1e-12)

    def test_multiplicative_monotone_in_R(self, jet, jet_bundle_half):
        vals = [multiplicative_metric_bound(jet, jet_bundle_half, 1.0, R)
                for R in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_multiplicative_in_unit_interval(self, jet, jet_bundle_half):
        for R in (0.5, 5.0, 500.0):
            r_M = multiplicative_metric_bound(jet, jet_bundle_half, 1.0, R)
            assert 0.0 < r_M <= 1.0

    def test_zero_disturbance_limits(self, jet, jet_bundle_half):
        assert multiplicative_metric_bound(jet, jet_bundle_half, 0.0, 10.0) == 1.0
        assert additive_metric_bound(jet, jet_bundle_half, 0.0, 10.0) == 0.0

    def test_additive_affine_in_R(self, jet, jet_bundle_half):
        # r_A(R) = c + gamma sqrt(n) R: check affinity via three points
        r1 = additive_metric_bound(jet, jet_bundle_half, 1.0, 1.0)
        r2 = additive_metric_bound(jet, jet_bundle_half, 1.0, 2.0)
        r3 = additive_metric_bound(jet, jet_bundle_half, 1.0, 3.0)
        assert r3 - r2 == pytest.approx(r2 - r1, rel=1e-12)


class TestHardness:
    def test_value(self):
        assert hardness(100.0, 0.5) == 200.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            hardness(1.0, 0.0)

    def test_rejects_negative_radius(self):
        with pytest.raises(DomainError):
            hardness(-1.0, 1.0)


class TestDomainChecks:
    def test_multiplicative_rejects_zero_radius(self, jet, jet_bundle_half):
        with pytest.raises(DomainError):
            multiplicative_metric_bound(jet, jet_bundle_half, 1.0, 0.0)

    def test_additive_accepts_zero_radius(self, jet, jet_bundle_half):
        r_A = additive_metric_bound(jet, jet_bundle_half, 1.0, 0.0)
        rep = metric_report(jet, jet_bundle_half, 1.0, 1.0)
        assert r_A == pytest.approx(rep.c_term, rel=1e-14)

    def test_negative_wbar_rejected(self, jet, jet_bundle_half):
        with pytest.raises(DomainError):
            additive_metric_bound(jet, jet_bundle_half, -1.0, 1.0)

    def test_report_rejects_mismatched_bundle(self, jet, scalar_bundle):
        # a 1-state bundle with the 3-state jet: every entry point refuses it
        for f in (additive_metric_bound, multiplicative_metric_bound, metric_report):
            with pytest.raises(DomainError):
                f(jet, scalar_bundle, 1.0, 1.0)
