import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import gramian
from distcost import _kernels
from distcost.errors import DomainError, IllConditionedError, NumericalError
from distcost.gramian import build_bundle, build_bundles
from distcost.linalg import expm
from distcost.systems import LtiSystem

from conftest import metzler_system


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


def norm_integral(A, t_f):
    """v_bar_unit at one horizon as build_bundles computes it, or the
    NumericalError of a norm integral that misses its tolerance."""
    (v,) = gramian._norm_integrals(A, [t_f])
    return v


def depth_first_norm_integral(A, t_f, per_node=False):
    """The depth-first adaptive Simpson loop the level-by-level refinement
    replaced, kept as the reference: panels popped off a stack, every
    exponential formed alone.

    By default the nodes follow the propagated rule of the refinement: a
    panel [a, b] of width w at depth d carries e^{Aa} and e^{Am} at its
    midpoint m, and its new nodes a + w/4 and m + w/4 are those times the
    step e^{A t_f / 2^(d+2)}. With ``per_node`` every node is its own expm
    instead, an oracle independent of the propagation.

    Returns (total, err_total, nodes, depth): the integral, its error
    estimate, the number of integrand evaluations and the deepest panel
    level visited. Reads the module's tolerance and depth limit at call
    time, so a monkeypatched limit applies to both implementations.
    """
    def f(E):
        return float(np.max(np.sum(np.abs(E), axis=1)))

    steps = {}

    def step(d):
        if d not in steps:
            steps[d] = expm(A * (t_f * 2.0 ** -(d + 2)))
        return steps[d]

    tol = gramian._NORM_INTEGRAL_TOL * t_f
    depth_limit = gramian._ADAPTIVE_DEPTH
    a, b = 0.0, t_f
    m = 0.5 * (a + b)
    Ea, Em, Eb = np.eye(len(A)), expm(A * m), expm(A * b)
    fa, fm, fb = f(Ea), f(Em), f(Eb)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total = 0.0
    err_total = 0.0
    nodes, depth = 3, 0
    stack = [(a, m, b, Ea, Em, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, m0, b0, E0, E1, f0, f1, f2, S0, tol0, d = stack.pop()
        depth = max(depth, d)
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        if per_node:
            Elm, Erm = expm(A * lm), expm(A * rm)
        else:
            Elm, Erm = E0 @ step(d), E1 @ step(d)
        flm = f(Elm)
        frm = f(Erm)
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
            stack.append((a0, lm, m0, E0, Elm, f0, flm, f1, Sl, 0.5 * tol0, d + 1))
            stack.append((m0, rm, b0, E1, Erm, f1, frm, f2, Sr, 0.5 * tol0, d + 1))
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
        W = build_bundle(jet, t_f).W_B
        ref = simpson_gramian(jet, t_f)
        assert np.max(np.abs(W - ref)) / np.max(np.abs(ref)) < 1e-7

    def test_matches_oracle_oscillator(self, oscillator):
        W = build_bundle(oscillator, 2.0).W_B
        ref = simpson_gramian(oscillator, 2.0)
        assert np.max(np.abs(W - ref)) / np.max(np.abs(ref)) < 1e-7

    def test_symmetric_psd(self, jet):
        W = build_bundle(jet, 1.0).W_B
        assert np.array_equal(W, W.T)
        assert np.min(np.linalg.eigvalsh(W)) > 0.0

    def test_monotone_in_horizon(self, jet):
        # W(t') - W(t) integrates a PSD integrand, so it is PSD
        W1 = build_bundle(jet, 1.0).W_B
        W2 = build_bundle(jet, 2.0).W_B
        assert np.min(np.linalg.eigvalsh(W2 - W1)) > -1e-12

    def test_scalar_integrator_closed_form(self):
        # A = 0, B = 1: W(t) = t
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="int1")
        W = build_bundle(sys, 3.0).W_B
        assert abs(W[0, 0] - 3.0) < 1e-13


class TestBundle:
    def test_transition_matches_scipy(self, jet, jet_bundle_5):
        ref = scipy.linalg.expm(jet.A * 5.0)
        assert np.max(np.abs(jet_bundle_5.state_transition - ref)) < 1e-13

    def test_inverse_consistency(self, jet_bundle_5):
        n = jet_bundle_5.W_B.shape[0]
        P = jet_bundle_5.W_B @ jet_bundle_5.spec.reconstruct()
        assert np.max(np.abs(P - np.eye(n))) < 1e-12

    def test_spectral_factors_invert_gramian(self, jet_bundle_5):
        # W_B^{-1} applied through the factors to each column of W_B
        spec, W = jet_bundle_5.spec, jet_bundle_5.W_B
        P = np.column_stack([spec.apply(w) for w in W.T])
        assert np.max(np.abs(P - np.eye(len(W)))) < 1e-12

    def test_ill_conditioned_raises(self):
        # double integrator at a tiny horizon: cond(W) ~ 1/t^2 blows past
        # the configured limit
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = LtiSystem(A, B, name="dblint")
        with pytest.raises(IllConditionedError):
            build_bundle(sys, 1e-8)

    def test_subnormal_smallest_eigenvalue_raises(self):
        # W_B ~ 1e-310 is well conditioned, but 1 / lambda_min overflows;
        # no RuntimeWarning comes first (filterwarnings = error here)
        sys = LtiSystem(np.array([[-1.0, 1.0], [0.0, -2.0]]), np.array([[0.0], [1e-155]]),
                        name="subnormal")
        with pytest.raises(IllConditionedError,
                           match=r"singular at horizon t_f = 1 .*no finite reciprocal") as info:
            build_bundle(sys, 1.0)
        assert 0.0 < info.value.estimate[-1] < np.finfo(float).tiny
        assert info.value.error_bound <= gramian._CONDITION_LIMIT

    @pytest.mark.parametrize("t_f", [800.0, 1e300, 5e306, 1e307])
    # the controllability_gramian row reads W_B, the field that replaced it
    @pytest.mark.parametrize("call", [build_bundle, lambda s, t_f: build_bundle(s, t_f).W_B],
                             ids=["build_bundle", "controllability_gramian"])
    def test_overflowing_exponential_raises(self, jet, call, t_f):
        # the jet model's unstable mode: e^{A t_f} overflows past t_f ~ 700,
        # and from t_f ~ 4e306 on the Van Loan block M t_f itself does; no
        # RuntimeWarning comes first (filterwarnings = error here)
        with pytest.raises(IllConditionedError, match="overflows"):
            call(jet, t_f)

    def test_v_bar_unit_matches_norm_integral(self, jet, jet_bundle_5):
        assert jet_bundle_5.v_bar_unit == norm_integral(jet.A, 5.0)


class TestNormIntegral:
    def test_scalar_closed_form(self):
        # A = -a: integral of e^{-a s} on [0, t] = (1 - e^{-a t}) / a
        a = 0.7
        sys = LtiSystem(np.array([[-a]]), np.ones((1, 1)), name="s")
        got = build_bundle(sys, 2.0).v_bar_unit
        assert got == pytest.approx((1.0 - np.exp(-2.0 * a)) / a, rel=1e-9)

    def test_zero_matrix_closed_form(self):
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="z")
        assert build_bundle(sys, 4.0).v_bar_unit == pytest.approx(4.0, rel=1e-12)

    def test_matches_dense_quadrature(self, jet):
        taus = np.linspace(0.0, 5.0, 8193)
        vals = [np.linalg.norm(scipy.linalg.expm(jet.A * s), np.inf) for s in taus]
        ref = scipy.integrate.simpson(vals, x=taus)
        assert build_bundle(jet, 5.0).v_bar_unit == pytest.approx(ref, rel=1e-6)

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
        assert abs(norm_integral(A, 5.0) - ref) <= gramian._NORM_INTEGRAL_TOL * 5.0

    def test_budget_exhaustion_raises_with_estimate(self, jet, monkeypatch):
        monkeypatch.setattr(gramian, "_ADAPTIVE_DEPTH", 2)
        monkeypatch.setattr(gramian, "_NORM_INTEGRAL_TOL", 1e-14)
        err = norm_integral(jet.A, 5.0)
        assert isinstance(err, NumericalError)
        total, err_total, _, _ = depth_first_norm_integral(jet.A, 5.0)
        assert err.estimate == total
        assert err.error_bound == err_total
        assert err.iterations == 2


def _reference_case(kind, seed, jet):
    if kind == "admire":
        return jet
    return _random_system(seed) if kind == "random" else _kink_system(seed)


class TestLevelSynchronous:
    """The norm integral refines level by level and propagates its nodes;
    the depth-first loop with the same node rule must give the same bits,
    and the per-node oracle the same value within the tolerance."""

    @pytest.mark.parametrize("kind,seed,t_f", REFERENCE_CASES)
    def test_bitwise_equal_to_depth_first(self, jet, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _, _ = depth_first_norm_integral(sys.A, t_f)
        assert norm_integral(sys.A, t_f) == total

    @pytest.mark.parametrize("kind,seed,t_f", REFERENCE_CASES)
    def test_within_tolerance_of_per_node_oracle(self, jet, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _, _ = depth_first_norm_integral(sys.A, t_f, per_node=True)
        assert abs(norm_integral(sys.A, t_f) - total) <= gramian._NORM_INTEGRAL_TOL * t_f

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["gaussian", "oscillatory", "unstable"]),
           t_f=st.floats(0.05, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_random_matrices_within_tolerance_of_per_node_oracle(self, n, seed, kind, t_f):
        # oscillatory: a dominant skew part, eigenvalues near the imaginary
        # axis; unstable: spectral abscissa up to about 1.5. A kink's panels
        # reach the depth limit, and a missed tolerance is compared through
        # its estimate
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        if kind == "oscillatory":
            G = rng.standard_normal((n, n))
            A = 0.2 * A + 1.5 * (G - G.T) / np.sqrt(n)
        elif kind == "unstable":
            A = A + 0.5 * np.eye(n)
        got = norm_integral(A, t_f)
        got = got.estimate if isinstance(got, NumericalError) else got
        total, _, _, _ = depth_first_norm_integral(A, t_f, per_node=True)
        assert abs(got - total) <= gramian._NORM_INTEGRAL_TOL * t_f

    @pytest.mark.parametrize("kind,seed,t_f", [("admire", None, 5.0), ("kink", 34, 5.0)])
    def test_one_node_blocks_are_bitwise_equal(self, jet, monkeypatch, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _, _ = depth_first_norm_integral(sys.A, t_f)
        monkeypatch.setattr(gramian, "_NODE_BLOCK", 1)
        assert norm_integral(sys.A, t_f) == total

    @pytest.mark.parametrize("kind,seed,t_f", [("admire", None, 5.0), ("random", 0, 5.0)])
    def test_one_expm_call_per_level(self, jet, monkeypatch, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        _, _, nodes, depth = depth_first_norm_integral(sys.A, t_f)
        calls = _counted_expm_calls(monkeypatch)
        norm_integral(sys.A, t_f)
        # the middle and end nodes, then one step per panel level: 2 plus
        # the number of levels exponentials, where there were one per node
        assert calls == [2] + [1] * (depth + 1)
        assert sum(calls) < nodes / 10

    def test_grid_steps_only_for_open_horizons(self, monkeypatch):
        sys = metzler_system(0)
        depths = [depth_first_norm_integral(sys.A, t_f)[3] for t_f in HORIZON_GRID]
        calls = _counted_expm_calls(monkeypatch)
        gramian._norm_integrals(sys.A, HORIZON_GRID)
        # each horizon: its two root nodes, then one step per level it reaches
        assert calls == [2 * len(HORIZON_GRID)] + [
            sum(d >= level for d in depths) for level in range(max(depths) + 1)]
        assert min(depths) < max(depths)


def _counted_expm_calls(monkeypatch):
    # the stack height of every expm call the gramian module makes
    calls = []

    def counting_expm(M):
        calls.append(len(M))
        return expm(M)

    monkeypatch.setattr(gramian, "expm", counting_expm)
    return calls


def _unstable_double_integrator():
    # a double integrator shifted by I: cond(W_B) ~ 1 / t_f^2 makes tiny
    # horizons singular and e^{t_f} overflows past t_f ~ 709
    return LtiSystem(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]]),
                     name="dblint+")


HORIZON_GRID = [float(t) for t in np.geomspace(0.25, 5.0, 12)]


def _grid_case(kind, jet):
    return jet if kind == "admire" else metzler_system(0)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_bundle(got, want):
    for field in ("W_B", "state_transition", "v_bar_unit", "t_f"):
        assert _same_bits(getattr(got, field), getattr(want, field)), field
    assert _same_bits(got.spec.U, want.spec.U)
    assert _same_bits(got.spec.lambdas, want.spec.lambdas)
    assert got.system is want.system


class TestBuildBundles:
    """build_bundles stacks the work of a whole horizon grid; every bundle
    must be bit-for-bit the grid of one."""

    @pytest.mark.parametrize("kind", ["admire", "metzler"])
    def test_every_field_equals_grid_of_one(self, jet, kind):
        sys = _grid_case(kind, jet)
        bundles = build_bundles(sys, HORIZON_GRID)
        assert [b.t_f for b in bundles] == HORIZON_GRID
        for t_f, got in zip(HORIZON_GRID, bundles):
            _assert_same_bundle(got, build_bundle(sys, t_f))

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("kind", ["admire", "metzler"])
    def test_v_bar_unit_equals_depth_first(self, jet, monkeypatch, kind, block):
        # a one-float block puts every Van Loan exponential, every Jacobi
        # eigensolve and every node norm in a call of its own
        sys = _grid_case(kind, jet)
        grid = HORIZON_GRID[::3]
        if block is not None:
            monkeypatch.setattr(gramian, "_NODE_BLOCK", block)
        for t_f, got in zip(grid, build_bundles(sys, grid)):
            total, _, _, _ = depth_first_norm_integral(sys.A, t_f)
            assert got.v_bar_unit == total

    def test_one_float_blocks_give_the_same_bundles(self, jet, monkeypatch):
        sys = metzler_system(1)
        whole = build_bundles(sys, HORIZON_GRID)
        monkeypatch.setattr(gramian, "_NODE_BLOCK", 1)
        for got, want in zip(build_bundles(sys, HORIZON_GRID), whole):
            _assert_same_bundle(got, want)

    def test_repeated_unsorted_and_single_grids(self, jet):
        grid = [5.0, 0.5, 1.0, 0.5, 5.0, 0.1]
        bundles = build_bundles(jet, grid)
        assert [b.t_f for b in bundles] == grid
        for t_f, got in zip(grid, bundles):
            _assert_same_bundle(got, build_bundle(jet, t_f))
        assert bundles[1] is bundles[3]
        (single,) = build_bundles(jet, (2,))
        assert single.t_f == 2.0
        _assert_same_bundle(single, build_bundle(jet, 2.0))
        assert build_bundles(jet, []) == []

    def test_one_jacobi_call_per_grid(self, jet, monkeypatch):
        calls = []
        jacobi = _kernels.jacobi_core

        def counting_jacobi(S, off_tol, max_sweeps):
            calls.append(S.shape)
            return jacobi(S, off_tol, max_sweeps)

        monkeypatch.setattr(_kernels, "jacobi_core", counting_jacobi)
        build_bundles(metzler_system(0), HORIZON_GRID)
        assert calls == [(12, 12, 12)]

    def test_first_failing_horizon_raises(self):
        # the overflow at 800 is found first, the singular W_B at 1e-8 in a
        # later pass: the error raised is that of the earlier horizon
        sys = _unstable_double_integrator()
        with pytest.raises(IllConditionedError, match="singular at horizon t_f = 1e-08"):
            build_bundles(sys, [1.0, 1e-8, 800.0])
        with pytest.raises(IllConditionedError, match="overflows at horizon t_f = 800"):
            build_bundles(sys, [800.0, 1e-8])

    def test_invalid_horizon_raises_in_grid_order(self):
        sys = _unstable_double_integrator()
        with pytest.raises(IllConditionedError, match="singular"):
            build_bundles(sys, [1.0, 1e-8, -1.0])
        with pytest.raises(DomainError, match="horizon t_f"):
            build_bundles(sys, [1.0, 0.0, 1e-8])

    def test_overflowing_block_does_not_poison_the_stack(self, jet):
        # M t_f non-finite at the last horizon: the horizons before it
        # still get their own bits, and the overflow is what is raised
        with pytest.raises(IllConditionedError, match="overflows"):
            build_bundles(jet, [0.5, 1.0, 5e306])
        W = gramian._gramians(jet, [0.5, 1.0, 5e306])
        assert isinstance(W[-1], IllConditionedError)
        for t_f, (got, _) in zip([0.5, 1.0], W[:-1]):
            assert _same_bits(got, build_bundle(jet, t_f).W_B)
