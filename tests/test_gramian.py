import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from distcost import gramian
from distcost.errors import IllConditionedError, NumericalError
from distcost.gramian import build_bundle, controllability_gramian, norm_integral
from distcost.linalg import expm
from distcost.systems import LtiSystem


def simpson_gramian(sys, t_f, panels=2048):
    """Fixed-grid composite Simpson oracle for int_0^tf e^{As} BB' e^{A's} ds."""
    taus = np.linspace(0.0, t_f, 2 * panels + 1)
    BBt = sys.B @ sys.B.T
    vals = np.empty((taus.size, sys.n, sys.n))
    for i, s in enumerate(taus):
        E = scipy.linalg.expm(sys.A * s)
        vals[i] = E @ BBt @ E.T
    h = t_f / panels
    acc = vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0) + 2.0 * vals[2:-1:2].sum(axis=0)
    return (h / 6.0) * acc


def depth_first_norm_integral(A, t_f):
    """The depth-first adaptive Simpson norm_integral replaced, kept as the
    reference: one expm per node, panels popped off a stack.

    Returns (total, err_total, nodes, depth): the integral, its error
    estimate, the number of integrand evaluations and the deepest panel
    level visited. Reads the module's tolerance and depth limit at call
    time, so a monkeypatched limit applies to both implementations.
    """
    def f(s):
        return float(np.max(np.sum(np.abs(expm(A * s)), axis=1)))

    tol = gramian._NORM_INTEGRAL_TOL * t_f
    depth_limit = gramian._ADAPTIVE_DEPTH
    a, b = 0.0, t_f
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    err_total = 0.0
    nodes, depth = 3, 0
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, m0, b0, f0, f1, f2, S0, tol0, d = stack.pop()
        depth = max(depth, d)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = f(lm)
        frm = f(rm)
        nodes += 2
        Sl = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        Sr = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        err = (Sl + Sr - S0) / 15.0
        if abs(err) <= tol0:
            total += Sl + Sr + err
            err_total += abs(err)
        elif d >= depth_limit:
            total += Sl + Sr + err
            err_total += abs(err) * 15.0
        else:
            stack.append((a0, lm, m0, f0, flm, f1, Sl, 0.5 * tol0, d + 1))
            stack.append((m0, rm, b0, f1, frm, f2, Sr, 0.5 * tol0, d + 1))
    return total, err_total, nodes, depth


def _random_system(seed, n=12, p=4):
    rng = np.random.default_rng(seed)
    return LtiSystem(rng.standard_normal((n, n)) / np.sqrt(n),
                     rng.standard_normal((n, p)), name=f"rand{seed}")


def _kink_system(seed):
    A = np.random.default_rng(seed).standard_normal((2, 2)) / np.sqrt(2.0)
    return LtiSystem(A, np.eye(2), name="kink")


# ADMIRE at three horizons, seeded random n = 12, p = 4 systems, and the
# two kinked integrands whose panels reach the depth limit
REFERENCE_CASES = ([("admire", None, t_f) for t_f in (0.1, 0.5, 5.0)]
                   + [("random", seed, t_f) for seed in (0, 1, 2)
                      for t_f in (0.25, 5.0)]
                   + [("kink", seed, 5.0) for seed in (13, 34)])


@pytest.fixture(scope="module")
def oscillator():
    A = np.array([[0.0, 1.0], [-4.0, -0.4]])
    B = np.array([[0.0], [1.0]])
    return LtiSystem(A, B, name="osc")


class TestGramian:
    @pytest.mark.parametrize("t_f", [0.1, 0.5, 5.0])
    def test_matches_simpson_oracle(self, jet, t_f):
        W = controllability_gramian(jet, t_f)
        ref = simpson_gramian(jet, t_f)
        assert np.max(np.abs(W - ref)) / np.max(np.abs(ref)) < 1e-7

    def test_matches_oracle_oscillator(self, oscillator):
        W = controllability_gramian(oscillator, 2.0)
        ref = simpson_gramian(oscillator, 2.0)
        assert np.max(np.abs(W - ref)) / np.max(np.abs(ref)) < 1e-7

    def test_symmetric_psd(self, jet):
        W = controllability_gramian(jet, 1.0)
        assert np.array_equal(W, W.T)
        assert np.min(np.linalg.eigvalsh(W)) > 0.0

    def test_monotone_in_horizon(self, jet):
        # W(t') - W(t) integrates a PSD integrand, so it is PSD
        W1 = controllability_gramian(jet, 1.0)
        W2 = controllability_gramian(jet, 2.0)
        assert np.min(np.linalg.eigvalsh(W2 - W1)) > -1e-12

    def test_scalar_integrator_closed_form(self):
        # A = 0, B = 1: W(t) = t
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="int1")
        W = controllability_gramian(sys, 3.0)
        assert abs(W[0, 0] - 3.0) < 1e-13


class TestBundle:
    def test_transition_matches_scipy(self, jet, jet_bundle_5):
        ref = scipy.linalg.expm(jet.A * 5.0)
        assert np.max(np.abs(jet_bundle_5.state_transition - ref)) < 1e-13

    def test_inverse_consistency(self, jet_bundle_5):
        n = jet_bundle_5.W_B.shape[0]
        P = jet_bundle_5.W_B @ jet_bundle_5.W_B_inv
        assert np.max(np.abs(P - np.eye(n))) < 1e-12

    def test_spectral_factors_invert_gramian(self, jet_bundle_5):
        spec = jet_bundle_5.spec
        assert np.max(np.abs(spec.reconstruct() - jet_bundle_5.W_B_inv)) < 1e-12

    def test_ill_conditioned_raises(self):
        # double integrator at a tiny horizon: cond(W) ~ 1/t^2 blows past
        # the configured limit
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = LtiSystem(A, B, name="dblint")
        with pytest.raises(IllConditionedError):
            build_bundle(sys, 1e-8)

    @pytest.mark.parametrize("t_f", [800.0, 1e300])
    @pytest.mark.parametrize("call", [build_bundle, controllability_gramian])
    def test_overflowing_exponential_raises(self, jet, call, t_f):
        # the jet model's unstable mode: e^{A t_f} overflows past t_f ~ 700
        with pytest.warns(RuntimeWarning), \
                pytest.raises(IllConditionedError, match="overflows"):
            call(jet, t_f)

    def test_v_bar_unit_matches_norm_integral(self, jet, jet_bundle_5):
        assert jet_bundle_5.v_bar_unit == pytest.approx(norm_integral(jet, 5.0), rel=1e-12)


class TestNormIntegral:
    def test_scalar_closed_form(self):
        # A = -a: integral of e^{-a s} on [0, t] = (1 - e^{-a t}) / a
        a = 0.7
        sys = LtiSystem(np.array([[-a]]), np.ones((1, 1)), name="s")
        got = norm_integral(sys, 2.0)
        assert got == pytest.approx((1.0 - np.exp(-2.0 * a)) / a, rel=1e-9)

    def test_zero_matrix_closed_form(self):
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="z")
        assert norm_integral(sys, 4.0) == pytest.approx(4.0, rel=1e-12)

    def test_matches_dense_quadrature(self, jet):
        taus = np.linspace(0.0, 5.0, 8193)
        vals = [np.linalg.norm(scipy.linalg.expm(jet.A * s), np.inf) for s in taus]
        ref = scipy.integrate.simpson(vals, x=taus)
        assert norm_integral(jet, 5.0) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("seed", [13, 34])
    def test_kinked_integrand_meets_tolerance(self, seed):
        # the row attaining ||e^{As}||_inf changes at a kink, where the
        # panels hit the halving depth; their pessimistic error share still
        # fits the tolerance, so the integral returns instead of raising
        sys = _kink_system(seed)
        A = sys.A
        ref, _ = scipy.integrate.quad(
            lambda s: np.linalg.norm(scipy.linalg.expm(A * s), np.inf), 0.0, 5.0,
            epsabs=1e-12, epsrel=1e-13, limit=500)
        assert abs(norm_integral(sys, 5.0) - ref) <= gramian._NORM_INTEGRAL_TOL * 5.0

    def test_budget_exhaustion_raises_with_estimate(self, jet, monkeypatch):
        monkeypatch.setattr(gramian, "_ADAPTIVE_DEPTH", 2)
        monkeypatch.setattr(gramian, "_NORM_INTEGRAL_TOL", 1e-14)
        with pytest.raises(NumericalError) as exc:
            norm_integral(jet, 5.0)
        total, err_total, _, _ = depth_first_norm_integral(jet.A, 5.0)
        assert exc.value.estimate == total
        assert exc.value.error_bound == err_total
        assert exc.value.iterations == 2


def _reference_case(kind, seed, jet):
    if kind == "admire":
        return jet
    return _random_system(seed) if kind == "random" else _kink_system(seed)


class TestLevelSynchronous:
    """norm_integral refines level by level; the depth-first loop it
    replaced must give the same bits."""

    @pytest.mark.parametrize("kind,seed,t_f", REFERENCE_CASES)
    def test_bitwise_equal_to_depth_first(self, jet, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _, _ = depth_first_norm_integral(sys.A, t_f)
        assert norm_integral(sys, t_f) == total

    @pytest.mark.parametrize("kind,seed,t_f", [("admire", None, 5.0), ("kink", 34, 5.0)])
    def test_one_node_blocks_are_bitwise_equal(self, jet, monkeypatch, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _, _ = depth_first_norm_integral(sys.A, t_f)
        monkeypatch.setattr(gramian, "_NODE_BLOCK", 1)
        assert norm_integral(sys, t_f) == total

    @pytest.mark.parametrize("kind,seed,t_f", [("admire", None, 5.0), ("random", 0, 5.0)])
    def test_one_expm_call_per_level(self, jet, monkeypatch, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        _, _, nodes, depth = depth_first_norm_integral(sys.A, t_f)
        calls = []

        def counting_expm(M):
            calls.append(len(M))
            return expm(M)

        monkeypatch.setattr(gramian, "expm", counting_expm)
        norm_integral(sys, t_f)
        # the three end and middle nodes, then one call per panel level
        assert len(calls) == depth + 2
        assert sum(calls) == nodes
        assert len(calls) < nodes / 4
