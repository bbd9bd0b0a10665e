import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost.energy import (disturbed_energy_bound, disturbed_signal_energy,
                             nominal_energy, weighted_energies)
from distcost.errors import NumericalError
from distcost.gramian import build_bundle
from distcost.signals import make_disturbance
from distcost.synthesis import disturbance_response
from distcost.systems import LtiSystem, StabilizationTask


@pytest.fixture(scope="module")
def scalar_sys():
    return LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="scalar")


@pytest.fixture(scope="module")
def scalar_bundle(scalar_sys):
    return build_bundle(scalar_sys, 1.0)


class TestScalarClosedForms:
    """A = 0, B = 1, t_f = 1: every quantity has a hand-computable value.
    W = 1, transition = 1, v_bar_unit = 1."""

    def test_nominal_energy(self, scalar_sys, scalar_bundle):
        task = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        assert nominal_energy(task, scalar_bundle) == pytest.approx(1.0, abs=1e-12)

    def test_disturbed_bound_is_four(self, scalar_sys, scalar_bundle):
        # E_N + 2 q ||p||_1 + q^2 sum(lambda) = 1 + 2 + 1 with q = 1
        task = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        rep = disturbed_energy_bound(task, scalar_bundle)
        assert rep.E_N == pytest.approx(1.0, abs=1e-12)
        assert rep.q_bar == pytest.approx(1.0, abs=1e-12)
        assert rep.E_D_bound == pytest.approx(4.0, abs=1e-12)

    def test_worst_constant_attains_bound(self, scalar_sys, scalar_bundle):
        # w = 1 compensating control has energy (x0 + R)^2 / W = 4
        task = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        w = make_disturbance("constant_sign", 1.0, 1, sign_vector=[1])
        e = disturbed_signal_energy(task, scalar_bundle, w)
        assert e == pytest.approx(4.0, abs=1e-12)

    def test_witness_sign_matches_attaining_disturbance(self, scalar_sys, scalar_bundle):
        task = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        rep = disturbed_energy_bound(task, scalar_bundle)
        assert np.array_equal(rep.witness_q, np.array([1.0]))


class TestNominalEnergy:
    def test_quadratic_in_x0(self, jet, jet_bundle_5):
        base = StabilizationTask(x0=np.array([5.0, -1.0, 3.0]), t_f=5.0)
        scaled = StabilizationTask(x0=2.5 * base.x0, t_f=5.0)
        e1 = nominal_energy(base, jet_bundle_5)
        e2 = nominal_energy(scaled, jet_bundle_5)
        assert e2 == pytest.approx(2.5**2 * e1, rel=1e-12)

    def test_gramian_quadratic_form(self, jet, jet_task_5, jet_bundle_5):
        # E_N = (Phi x0)' W^-1 (Phi x0)
        v = jet_bundle_5.state_transition @ jet_task_5.x0
        ref = float(v @ np.linalg.solve(jet_bundle_5.W_B, v))
        assert nominal_energy(jet_task_5, jet_bundle_5) == pytest.approx(ref, rel=1e-10)

    def test_nonincreasing_in_horizon(self, jet, jet_x0):
        # a longer deadline can only reduce the minimum energy on this
        # stable system
        energies = []
        for t_f in (0.5, 1.0, 2.0, 5.0):
            task = StabilizationTask(x0=jet_x0, t_f=t_f)
            energies.append(nominal_energy(task, build_bundle(jet, t_f)))
        assert all(b < a for a, b in zip(energies, energies[1:]))


class TestDisturbedEnergy:
    def test_matches_quadratic_form_with_response(self, jet, jet_task_5, jet_bundle_5):
        w = make_disturbance("sinusoid", 1.0, jet.n)
        R = disturbance_response(jet, w, 5.0)
        v = jet_bundle_5.state_transition @ jet_task_5.x0 + R
        ref = float(v @ np.linalg.solve(jet_bundle_5.W_B, v))
        got = disturbed_signal_energy(jet_task_5, jet_bundle_5, w)
        assert got == pytest.approx(ref, rel=1e-10)

    def test_zero_disturbance_equals_nominal(self, jet, jet_task_5, jet_bundle_5):
        w = make_disturbance("zero", 1.0, jet.n)
        assert disturbed_signal_energy(jet_task_5, jet_bundle_5, w) == \
            nominal_energy(jet_task_5, jet_bundle_5)


class TestBound:
    def test_bound_has_three_nonnegative_parts(self, jet, jet_task_5, jet_bundle_5):
        rep = disturbed_energy_bound(jet_task_5, jet_bundle_5)
        assert rep.cross_term >= 0.0 and rep.c_term >= 0.0 and rep.q_bar >= 0.0
        assert rep.E_D_bound == pytest.approx(rep.E_N + rep.cross_term + rep.c_term, rel=1e-14)

    def test_monotone_in_wbar(self, jet, jet_x0, jet_bundle_5):
        bounds = []
        for w_bar in (0.0, 0.5, 1.0, 2.0):
            task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=w_bar)
            bounds.append(disturbed_energy_bound(task, jet_bundle_5).E_D_bound)
        assert all(b > a or (a == b == bounds[0]) for a, b in zip(bounds, bounds[1:]))
        task0 = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=0.0)
        assert bounds[0] == nominal_energy(task0, jet_bundle_5)

    def test_overflowing_energy_raises(self, jet_bundle_5):
        # the overflow is reported by the error alone: under the suite's
        # filterwarnings = error, a RuntimeWarning would replace it
        task = StabilizationTask(x0=np.full(3, 1e200), t_f=5.0, w_bar=1.0)
        with pytest.raises(NumericalError, match="E_D_bound = inf is not finite"):
            disturbed_energy_bound(task, jet_bundle_5)

    def test_overflowing_disturbance_term_raises(self, jet_x0, jet_bundle_5):
        # q_bar^2 overflows as a Python float, which warns of nothing
        task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1e200)
        with pytest.raises(NumericalError, match="not finite"):
            disturbed_energy_bound(task, jet_bundle_5)

    def test_overflowing_signal_energy_raises(self, jet_task_5, jet_bundle_5):
        w = make_disturbance("constant_sign", 1e300, 3, sign_vector=np.ones(3))
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericalError, match="not finite"):
            disturbed_signal_energy(jet_task_5, jet_bundle_5, w)

    def test_witness_entries_are_signs(self, jet, jet_task_5, jet_bundle_5):
        rep = disturbed_energy_bound(jet_task_5, jet_bundle_5)
        assert np.all(np.isin(rep.witness_q, [-rep.q_bar, 0.0, rep.q_bar]))

    def test_witness_maximizes_over_random_sign_boxes(self, jet, jet_task_5, jet_bundle_5):
        # the transformed-coordinate quadratic q -> ||sqrt(lam) (U'Phi x0 + q)||^2
        # must peak at the witness over the box |q_i| <= q_bar
        rep = disturbed_energy_bound(jet_task_5, jet_bundle_5)
        spec = jet_bundle_5.spec
        base = spec.U.T @ (jet_bundle_5.state_transition @ jet_task_5.x0)

        def val(q):
            h = np.sqrt(spec.lambdas) * (base + q)
            return float(h @ h)

        best = val(rep.witness_q)
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = rep.q_bar * rng.uniform(-1.0, 1.0, jet.n)
            assert val(q) <= best + 1e-12 * best

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.2, 4.0), st.integers(0, 2**32))
    def test_containment_property_scalar(self, w_bar, t_f, seed):
        # any admissible disturbance of any class keeps ||u_D||^2 under the bound
        sys = LtiSystem(np.array([[-0.3]]), np.ones((1, 1)), name="s")
        bundle = build_bundle(sys, t_f)
        task = StabilizationTask(x0=np.array([2.0]), t_f=t_f, w_bar=w_bar)
        bound = disturbed_energy_bound(task, bundle).E_D_bound
        w = make_disturbance("piecewise_uniform", w_bar, 1, seed=seed, cells=16,
                             horizon=t_f)
        e = disturbed_signal_energy(task, bundle, w)
        assert e <= bound * (1.0 + 1e-12)


def energy_pair(bundle, task, R):
    """Energies of the controls compensating the responses +R and -R of
    a pair (w, -w)."""
    base = bundle.state_transition @ task.x0
    return (float(weighted_energies(bundle, base + R)),
            float(weighted_energies(bundle, base - R)))


class TestEnergyPair:
    def test_pair_from_flipped_response(self, jet, jet_task_5, jet_bundle_5):
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=21, cells=50,
                             horizon=5.0)
        R = disturbance_response(jet, w, 5.0)
        e_plus, e_minus = energy_pair(jet_bundle_5, jet_task_5, R)
        direct = disturbed_signal_energy(jet_task_5, jet_bundle_5, w)
        assert e_plus == pytest.approx(direct, rel=1e-12)

    def test_pair_max_dominates_nominal(self, jet, jet_task_5, jet_bundle_5):
        # e(+R) + e(-R) = 2 E_N + 2 e(R alone), so the max is >= E_N
        e_n = nominal_energy(jet_task_5, jet_bundle_5)
        for seed in range(20):
            w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=seed,
                                 cells=20, horizon=5.0)
            R = disturbance_response(jet, w, 5.0)
            e_plus, e_minus = energy_pair(jet_bundle_5, jet_task_5, R)
            assert max(e_plus, e_minus) >= e_n * (1.0 - 1e-12)
