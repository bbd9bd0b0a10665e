import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, target
from hypothesis import strategies as st

import mp_oracle
from distcost.energy import disturbed_energy_bound, nominal_energy
from distcost.errors import DomainError, NumericalError
from distcost.gramian import build_bundle
from distcost.metrics import hardness, metric_report
from distcost.sweeps import (DEFAULT_ACCURACY_TF_GRID, DEFAULT_TF_GRID, bound_accuracy_rows,
                             metrics_sweep_rows)
from distcost.systems import LtiSystem, StabilizationTask
from test_benchmark_reference import workloads

# l_min's relative error, in units of eps sqrt(cond(W_B)) cond(e^{A t_f}):
# one SVD of sqrt(Lambda) U^T e^{A t_f} loses at most a small multiple of
# that, while forming e^{A^T t_f} W_B^{-1} e^{A t_f} squares it
KAPPA = 10.0


@pytest.fixture(scope="module")
def scalar_sys():
    return LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="scalar")


@pytest.fixture(scope="module")
def scalar_bundle(scalar_sys):
    return build_bundle(scalar_sys, 1.0)


class TestScalarValues:
    def test_multiplicative_quarter(self, scalar_sys, scalar_bundle):
        # l = 1, gamma = 2, c = 1, R = 1: 1 / (1 + 2 + 1) = 0.25
        r_M = metric_report(scalar_bundle, 1.0, 1.0).r_M_bound
        assert r_M == pytest.approx(0.25, abs=1e-12)

    def test_additive_matches_parts(self, scalar_sys, scalar_bundle):
        # c + gamma R sqrt(n) = 1 + 2 = 3 at R = 1
        r_A = metric_report(scalar_bundle, 1.0, 1.0).r_A_bound
        assert r_A == pytest.approx(3.0, abs=1e-12)

    def test_report_consistency(self, scalar_sys, scalar_bundle):
        rep = metric_report(scalar_bundle, 1.0, 1.0)
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
        r_A = metric_report(jet_bundle_half, 1.0, R).r_A_bound
        rng = np.random.default_rng(5)
        for _ in range(100):
            x0 = rng.standard_normal(3)
            x0 *= R * rng.uniform() ** (1 / 3) / np.linalg.norm(x0)
            task = StabilizationTask(x0=x0, t_f=0.5, w_bar=1.0)
            rep = disturbed_energy_bound(task, jet_bundle_half)
            assert rep.E_D_bound - rep.E_N <= r_A * (1.0 + 1e-12)

    def test_multiplicative_bounds_ratio_on_sphere(self, jet, jet_bundle_half):
        R = 100.0
        r_M = metric_report(jet_bundle_half, 1.0, R).r_M_bound
        rng = np.random.default_rng(6)
        for _ in range(100):
            x0 = rng.standard_normal(3)
            x0 *= R / np.linalg.norm(x0)
            task = StabilizationTask(x0=x0, t_f=0.5, w_bar=1.0)
            rep = disturbed_energy_bound(task, jet_bundle_half)
            assert rep.E_N / rep.E_D_bound >= r_M * (1.0 - 1e-12)

    def test_multiplicative_monotone_in_R(self, jet, jet_bundle_half):
        vals = [metric_report(jet_bundle_half, 1.0, R).r_M_bound
                for R in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_multiplicative_in_unit_interval(self, jet, jet_bundle_half):
        for R in (0.5, 5.0, 500.0):
            r_M = metric_report(jet_bundle_half, 1.0, R).r_M_bound
            assert 0.0 < r_M <= 1.0

    def test_zero_disturbance_limits(self, jet, jet_bundle_half):
        rep = metric_report(jet_bundle_half, 0.0, 10.0)
        assert rep.r_M_bound == 1.0
        assert rep.r_A_bound == 0.0

    def test_additive_affine_in_R(self, jet, jet_bundle_half):
        # r_A(R) = c + gamma sqrt(n) R: check affinity via three points
        r1 = metric_report(jet_bundle_half, 1.0, 1.0).r_A_bound
        r2 = metric_report(jet_bundle_half, 1.0, 2.0).r_A_bound
        r3 = metric_report(jet_bundle_half, 1.0, 3.0).r_A_bound
        assert r3 - r2 == pytest.approx(r2 - r1, rel=1e-12)


class TestLMinOracle:
    """l_min against 50-digit mpmath (``tests/mp_oracle.py``)."""

    @pytest.mark.parametrize("t_f", DEFAULT_TF_GRID)
    def test_admire(self, jet, t_f):
        got = metric_report(build_bundle(jet, t_f), 1.0, 1.0).l_min
        assert got == pytest.approx(mp_oracle.l_min(jet.A, jet.B, t_f), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t_f,rel", [(0.25, 1e-12), (1.0, 1e-12), (5.0, 1e-9)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_horizons_models(self, seed, t_f, rel):
        # the n = 12 benchmark models; at t_f = 5 the limit is W_B's own
        # error, as the Van Loan block holds e^{-A^T t_f} (about 4e8 here)
        A, B = workloads.horizons_model(
            workloads._rng(workloads.WORKLOADS["horizons"].index, seed))
        got = metric_report(build_bundle(LtiSystem(A, B), t_f), 1.0, 1.0).l_min
        assert got == pytest.approx(mp_oracle.l_min(A, B, t_f), rel=rel, abs=0.0)

    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), t_f=st.floats(0.1, 3.0))
    @example(n=3, seed=697661756, t_f=0.41)
    @example(n=4, seed=1823889140, t_f=1.48)
    @settings(max_examples=60, deadline=None)
    def test_error_within_kappa_budget(self, n, seed, t_f):
        # against the value the bundle's own factors determine, at 40
        # digits: the factors carry W_B's and the eigensolve's errors,
        # which are not l_min's
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, n + 1))
        A = 2.0 * rng.standard_normal((n, n)) / np.sqrt(n)
        B = rng.standard_normal((n, p))
        try:
            bundle = build_bundle(LtiSystem(A, B), t_f)
        except NumericalError:
            reject()
        spec = bundle.spec
        cond_W = spec.lambdas[0] / spec.lambdas[-1]
        assume(cond_W <= 1e8)
        truth = mp_oracle.l_min_from_factors(spec.U, spec.lambdas, bundle.state_transition)
        got = metric_report(bundle, 1.0, 1.0).l_min
        budget = (np.sqrt(cond_W) * np.linalg.cond(bundle.state_transition)
                  * np.finfo(float).eps * truth)
        target(abs(got - truth) / budget)
        assert abs(got - truth) <= KAPPA * budget


def _scaled_pipeline(A, B, x0, t_f, k):
    # (E_N, E_D_bound, r_A_bound) of (A, 2^k B), each times 4^k, and
    # r_M_bound, which does not depend on the scale of B
    bundle = build_bundle(LtiSystem(A, np.ldexp(B, k)), t_f)
    rep = disturbed_energy_bound(StabilizationTask(x0=x0, t_f=t_f, w_bar=1.0), bundle)
    m = metric_report(bundle, 1.0, 2.0)
    return np.ldexp([rep.E_N, rep.E_D_bound, m.r_A_bound], 2 * k), m.r_M_bound


class TestScaleOfB:
    """B -> 2^k B scales W_B by 4^k, and every output with it: W_B^{-1}'s
    factors stop depending on the scale of B once Jacobi's stop test reads
    a power-of-two-normalised copy of W_B."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_systems_scale_exactly(self, seed):
        # against B 2^-60, where BB^T is too small to move the Van Loan
        # block's scaling exponent, as it is at the smaller scales. r_M
        # comes from an SVD, which LAPACK rescales by a factor that is not
        # a power of two once its matrix's norm passes about 7.5e137 (at
        # k = -450 here): 1.9e-14 on seed 32, where cond(W_B) is 7.9e7
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        x0, t_f = rng.standard_normal(n), float(rng.uniform(0.5, 3.0))
        base, r_M = _scaled_pipeline(A, B, x0, t_f, -60)
        for k in (-100, -300, -450):
            scaled, r_M_k = _scaled_pipeline(A, B, x0, t_f, k)
            assert np.array_equal(scaled, base)
            assert r_M_k == pytest.approx(r_M, rel=1e-13, abs=0.0)

    def test_admire_rows_at_b_times_2_to_minus_300(self, jet, jet_x0):
        small = LtiSystem(jet.A, np.ldexp(jet.B, -300))
        for got, want in zip(bound_accuracy_rows(small, jet_x0, 1.0, DEFAULT_ACCURACY_TF_GRID),
                             bound_accuracy_rows(jet, jet_x0, 1.0, DEFAULT_ACCURACY_TF_GRID)):
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        energies = ("E_N", "E_D_bound", "r_A_bound", "diff_min", "diff_max")
        for got, want in zip(metrics_sweep_rows(small, jet_x0, 1.0, samples=20),
                             metrics_sweep_rows(jet, jet_x0, 1.0, samples=20)):
            got = {c: np.ldexp(v, -600) if c in energies else v for c, v in got.items()}
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)


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
            metric_report(jet_bundle_half, 1.0, 0.0)

    def test_negative_wbar_rejected(self, jet, jet_bundle_half):
        with pytest.raises(DomainError):
            metric_report(jet_bundle_half, -1.0, 1.0)

    @pytest.mark.parametrize("R", [1e160, 1e200, 1e300])
    def test_overflowing_bounds_raise(self, jet_bundle_half, R):
        # l R^2 overflows and r_M_bound = inf / inf would be nan; no
        # RuntimeWarning comes first (filterwarnings = error here)
        with pytest.raises(NumericalError, match="metric bounds at R = .* not finite"):
            metric_report(jet_bundle_half, 1.0, R)
