import functools
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import gramian
from distcost import _kernels
from distcost.errors import DistcostError, DomainError, IllConditionedError, NumericalError
from distcost.gramian import build_bundle, build_bundles
from distcost.linalg import block_expm, expm
from distcost.models import admire
from distcost.systems import LtiSystem

import mp_oracle
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
    """v_bar_unit at one horizon as build_bundles computes it."""
    (v,) = gramian._norm_integrals(A, [t_f])
    return v


def depth_first_norm_integral(A, t_f, per_node=False):
    """The closed form one node at a time, kept as the reference for the
    stacked, level-by-level one: the grid's nodes in order, each interval
    whose end keys conflict bisected depth first, and each panel edge's J
    from its own block_expm.

    By default every node follows the rule of the stacked form: grid node
    j in (m, 2m] is node j - m times node m, and a midpoint is its
    interval's left node times e^{A w/2}. With ``per_node`` every node is
    its own expm instead, an oracle independent of the propagation.

    Returns (total, breakpoints, levels): the integral, the breakpoints in
    order and the number of intervals bisected at each level that has any.
    """
    n, eps, depth = len(A), np.finfo(float).eps, gramian._HALVINGS

    def key(E, before=None):
        # (row, signs, signs with each 0 carried from the key before)
        r = np.sum(np.abs(E), axis=-1)
        tiny = n * eps * r.max()
        row = int(np.flatnonzero(r >= r.max() - tiny)[0])
        sig = np.where(np.abs(E[row]) > tiny, np.sign(E[row]), 0.0)
        if before is None or before[0] != row:
            return row, sig, sig
        return row, sig, np.where(sig == 0.0, before[2], sig)

    def conflict(ka, kb):
        return ka[0] != kb[0] or bool(np.any(ka[2] * kb[1] < 0.0))

    breaks, levels = [], [0] * depth

    def bisect(a, b, Ea, ka, kb, level):
        if level == depth:
            breaks.append((a + 0.5 * (b - a), ka[0]))
            return
        levels[level] += 1
        half = 0.5 * (b - a)
        mid = a + half
        Em = expm(A * mid) if per_node else Ea @ expm(A * half)
        km = key(Em, ka)
        if conflict(ka, km):
            bisect(a, mid, Ea, ka, km, level + 1)
        if conflict(km, kb):
            bisect(mid, b, Em, km, kb, level + 1)

    with np.errstate(divide="ignore"):
        k = int(max(np.ceil(np.log2(np.abs(A).sum(axis=0).max()) + np.log2(t_f)), 0.0))
    h = np.ldexp(t_f, -k)
    pos = [np.ldexp(h, -depth)] + [h * float(j) for j in range(1, 2 ** k + 1)]
    E = [expm(A * s) for s in pos[:2]]
    for j in range(2, 2 ** k + 1):
        m = 1 << ((j - 1).bit_length() - 1)
        E.append(expm(A * pos[j]) if per_node else E[j - m] @ E[m])
    keys = [key(E[0])]
    for Ej in E[1:]:
        keys.append(key(Ej, keys[-1]))
    for j in range(2 ** k):
        if conflict(keys[j], keys[j + 1]):
            bisect(pos[j], pos[j + 1], E[j], keys[j], keys[j + 1], 0)

    total, before = 0.0, None
    for edge, row in breaks + [(t_f, keys[-1][0])]:
        J = block_expm(A, np.eye(n), np.zeros((n, n)), edge)[1]
        total += np.sum(np.abs(J[row] - (0.0 if before is None else before[row])))
        before = J
    return total, [c for c, _ in breaks], [count for count in levels if count]


def _random_system(seed, n=12, p=4):
    rng = np.random.default_rng(seed)
    return LtiSystem(rng.standard_normal((n, n)) / np.sqrt(n),
                     rng.standard_normal((n, p)), name=f"rand{seed}")


def _kink_system(seed):
    A = np.random.default_rng(seed).standard_normal((2, 2)) / np.sqrt(2.0)
    return LtiSystem(A, np.eye(2), name="kink")


# ADMIRE at three horizons, seeded random n = 12, p = 4 systems, and two
# kinked integrands, whose maximising row switches
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
        spec = jet_bundle_5.spec
        P = jet_bundle_5.W_B @ ((spec.U * spec.lambdas) @ spec.U.T)
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
        assert build_bundle(sys, 4.0).v_bar_unit == 4.0

    def test_matches_dense_quadrature(self, jet):
        taus = np.linspace(0.0, 5.0, 8193)
        vals = [np.linalg.norm(scipy.linalg.expm(jet.A * s), np.inf) for s in taus]
        ref = scipy.integrate.simpson(vals, x=taus)
        assert build_bundle(jet, 5.0).v_bar_unit == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("seed", [13, 34])
    def test_kinked_integrand_meets_tolerance(self, seed):
        # the row attaining ||e^{As}||_inf changes at a kink, where the
        # closed form places a breakpoint
        sys = _kink_system(seed)
        A = sys.A
        ref, _ = scipy.integrate.quad(
            lambda s: np.linalg.norm(scipy.linalg.expm(A * s), np.inf), 0.0, 5.0,
            epsabs=1e-12, epsrel=1e-13, limit=500)
        assert abs(norm_integral(A, 5.0) - ref) <= 1e-11 * 5.0
        assert len(gramian._panels(A, [5.0])[0]) > 1

    @pytest.mark.parametrize("t_f", [2.0 * np.pi, 8.0 * np.pi / 3.5])
    def test_sign_change_within_rounding_of_a_point(self, t_f):
        # e^{As} = [[cos s, sin s], [-sin s, cos s]], whose row sums tie. The
        # grid of t_f = 2 pi has nodes at pi/2 and pi, and that of 8 pi / 3.5
        # a bisection midpoint at pi: an entry is within rounding of 0
        # there, and its sign change shows only against the points either
        # side
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        q, r = divmod(t_f, 0.5 * np.pi)
        _, edge, _ = gramian._panels(A, [t_f])
        assert edge[:-1] == pytest.approx(0.5 * np.pi * np.arange(1.0, np.ceil(t_f / (0.5 * np.pi))),
                                          rel=1e-8)
        assert norm_integral(A, t_f) == pytest.approx(2.0 * q + np.sin(r) + 1.0 - np.cos(r),
                                                      rel=1e-14)

    def test_not_finite_integral_raises_naming_horizon(self):
        # e^{t/1000} stays finite at t_f = 704000 but its integral, 1000
        # times as large, does not
        with pytest.raises(NumericalError, match="norm integral is not finite at horizon "
                                                 "t_f = 704000"):
            gramian._norm_integrals(np.array([[1e-3]]), [1.0, 704000.0])

    def test_too_fine_grid_raises_naming_horizon(self):
        with pytest.raises(NumericalError, match=r"more than 2\^26 grid steps at horizon "
                                                 r"t_f = 1e\+08"):
            gramian._norm_integrals(np.diag([0.0, -1.0]), [1.0, 1e8])


# stable Gaussian n = 4 systems (A shifted left of the imaginary axis by
# 0.3), each with a breakpoint in [0, 5]
STABLE_SEEDS = (0, 2, 5)
TANGENT_TF = 2.0 * float(np.log(2.0))


def _oracle_system(kind):
    if kind == "admire":
        return admire().A
    if kind == "metzler":
        return metzler_system(0).A
    if kind == "tangent":
        # V diag(-2, -3, -4) V^-1 with V and V^-1 integer, scaled by
        # diag(1, 1/16, 1/16): exact in binary, row 0 attains the norm
        V = np.array([[1.0, 1.0, 1.0], [4.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        V_inv = np.array([[1.0, 0.0, -1.0], [-4.0, 1.0, 4.0], [4.0, -1.0, -3.0]])
        D = np.diag([1.0, 0.0625, 0.0625])
        return D @ V @ np.diag([-2.0, -3.0, -4.0]) @ V_inv @ np.diag([1.0, 16.0, 16.0])
    rng = np.random.default_rng(int(kind[len("stable"):]))
    A = rng.standard_normal((4, 4)) / 2.0
    return A - (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(4)


@functools.lru_cache(maxsize=None)
def _oracle(kind, t_f):
    # each 40-digit value once per (system, horizon)
    return mp_oracle.norm_integral(_oracle_system(kind), t_f)


class TestNormIntegralOracle:
    """v_bar_unit against the 40-digit closed form of ``tests/mp_oracle.py``,
    whose breakpoints are located in mpmath."""

    @pytest.mark.parametrize("kind,t_f", [("admire", t_f) for t_f in (0.1, 0.5, 1.0, 5.0)]
                             + [("metzler", t_f) for t_f in (0.25, 1.0, 5.0)]
                             + [(f"stable{seed}", 5.0) for seed in STABLE_SEEDS]
                             + [("tangent", TANGENT_TF)])
    def test_within_1e14_of_oracle(self, kind, t_f):
        A = _oracle_system(kind)
        truth, breaks = _oracle(kind, t_f)
        assert abs(norm_integral(A, t_f) - truth) <= 1e-14 * truth
        # the same breakpoints, each within the bisection's final width
        _, edge, _ = gramian._panels(A, [t_f])
        h = t_f / 2.0 ** np.ceil(np.log2(np.abs(A).sum(axis=0).max() * t_f))
        assert len(edge) - 1 == len(breaks)
        assert np.all(np.abs(edge[:-1] - breaks) <= np.ldexp(h, -gramian._HALVINGS))

    @pytest.mark.parametrize("seed", STABLE_SEEDS)
    def test_random_stable_systems_have_breakpoints(self, seed):
        assert len(_oracle(f"stable{seed}", 5.0)[1]) >= 1

    def test_tangency_is_no_breakpoint(self):
        # e^{As}_00 = (e^{-s} - 2 e^{-2s})^2 touches 0 at s = ln 2, a grid
        # node, in the maximising row; the one breakpoint is the sign change
        # of e^{As}_02 at ln 3
        A = _oracle_system("tangent")
        assert abs(expm(A * np.log(2.0))[0, 0]) < 1e-15
        (c,) = _oracle("tangent", TANGENT_TF)[1]
        assert c == pytest.approx(np.log(3.0), rel=1e-12)
        _, edge, row = gramian._panels(A, [TANGENT_TF])
        assert edge[:-1] == pytest.approx([np.log(3.0)], rel=1e-8) and list(row) == [0, 0]

    @pytest.mark.parametrize("t_f", [0.1, 0.5, 1.0, 5.0])
    def test_structural_zero_is_no_breakpoint(self, jet, t_f):
        # e^{As}_21 is 0 for every s, in the row that attains the norm
        assert expm(jet.A * t_f)[2, 1] == 0.0
        assert _oracle("admire", t_f)[1] == []
        _, edge, row = gramian._panels(jet.A, [t_f])
        assert list(edge) == [t_f] and list(row) == [2]


class TestNormIntegralMemory:
    def test_shifted_n48_pair_stays_small(self):
        # 12 horizons from 0.25 to 5 of the n = 48 Metzler pair shifted by
        # +3.5 I: each grid holds 2^k + 1 nodes, 2^k >= ||A||_1 t_f
        A = metzler_system(0, n=48, p=24).A + 3.5 * np.eye(48)
        tracemalloc.start()
        try:
            values = gramian._norm_integrals(A, HORIZON_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(values)) and peak <= 64 * 2 ** 20


def _reference_case(kind, seed, jet):
    if kind == "admire":
        return jet
    return _random_system(seed) if kind == "random" else _kink_system(seed)


class TestLevelSynchronous:
    """The closed form bisects level by level and propagates its nodes;
    the depth-first loop with the same node rule must give the same bits,
    and the per-node oracle the same value within rounding."""

    @pytest.mark.parametrize("kind,seed,t_f", REFERENCE_CASES)
    def test_bitwise_equal_to_depth_first(self, jet, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, breaks, _ = depth_first_norm_integral(sys.A, t_f)
        assert norm_integral(sys.A, t_f) == total
        assert list(gramian._panels(sys.A, [t_f])[1]) == breaks + [t_f]

    @pytest.mark.parametrize("kind,seed,t_f", REFERENCE_CASES)
    def test_within_tolerance_of_per_node_oracle(self, jet, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        total, _, _ = depth_first_norm_integral(sys.A, t_f, per_node=True)
        assert abs(norm_integral(sys.A, t_f) - total) <= 1e-12 * t_f

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["gaussian", "oscillatory", "unstable"]),
           t_f=st.floats(0.05, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_random_matrices_within_tolerance_of_per_node_oracle(self, n, seed, kind, t_f):
        # oscillatory: a dominant skew part, eigenvalues near the imaginary
        # axis, so many breakpoints; unstable: spectral abscissa up to about
        # 1.5
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        if kind == "oscillatory":
            G = rng.standard_normal((n, n))
            A = 0.2 * A + 1.5 * (G - G.T) / np.sqrt(n)
        elif kind == "unstable":
            A = A + 0.5 * np.eye(n)
        total, _, _ = depth_first_norm_integral(A, t_f, per_node=True)
        assert abs(norm_integral(A, t_f) - total) <= min(1e-9 * t_f, 1e-12 * max(t_f, total))

    @pytest.mark.parametrize("kind,seed,t_f", [("admire", None, 5.0), ("random", 0, 5.0)])
    def test_one_expm_call_per_level(self, jet, monkeypatch, kind, seed, t_f):
        sys = _reference_case(kind, seed, jet)
        _, breaks, levels = depth_first_norm_integral(sys.A, t_f)
        calls = _counted_expm_calls(monkeypatch)
        norm_integral(sys.A, t_f)
        # the first two nodes, then one stacked step per bisection level,
        # where the depth-first loop takes one per interval
        assert calls == [2] + levels
        assert len(levels) == (gramian._HALVINGS if breaks else 0)

    def test_grid_steps_only_for_open_horizons(self, monkeypatch):
        sys = _random_system(0)
        levels = [depth_first_norm_integral(sys.A, t_f)[2] for t_f in HORIZON_GRID]
        calls = _counted_expm_calls(monkeypatch)
        gramian._norm_integrals(sys.A, HORIZON_GRID)
        # every horizon's first two nodes, then at each level one step per
        # interval still open, over the horizons that have one
        depth = max(len(lv) for lv in levels)
        assert calls == [2 * len(HORIZON_GRID)] + [
            sum(lv[d] for lv in levels if len(lv) > d) for d in range(depth)]
        assert min(len(lv) for lv in levels) < depth


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



def _undamped_oscillator():
    # cond(W_B) ~ 1 / t_f^2 makes tiny horizons singular, the peak |BB^T|
    # of 4 makes M t_f non-finite past t_f ~ 4.5e307, and past ||A||_1 t_f =
    # 2^26 the norm integral's grid would be finer than doubles resolve
    return LtiSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [2.0]]),
                     name="undamped")


# horizons of _undamped_oscillator(): valid ones, then failing ones of
# each kind
VALID_HORIZONS = [0.5, 1.0, 2.0]
FAILING_HORIZONS = {
    "invalid": [-1.0, 0.0, float("nan")],
    "overflowing": [5e307, 1e308],  # M t_f non-finite
    "singular": [1e-8],
    "norm integral": [1e8],
}


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

    @pytest.mark.parametrize("kind", ["admire", "metzler"])
    def test_v_bar_unit_equals_depth_first(self, jet, kind):
        sys = _grid_case(kind, jet)
        grid = HORIZON_GRID[::3]
        for t_f, got in zip(grid, build_bundles(sys, grid)):
            total, _, _ = depth_first_norm_integral(sys.A, t_f)
            assert got.v_bar_unit == total

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

    def test_long_grid_is_one_call_per_stage(self, monkeypatch):
        # 456 horizons at n = 12: every W_B's Van Loan exponential is one
        # block_expm call, every W_B one Jacobi call and every norm
        # integral's J one more block_expm call (this model has no
        # breakpoints, so its panel edges are the horizons), its first grid
        # nodes one expm call, however long the grid
        sys = metzler_system(0)
        grid = [float(t) for t in np.geomspace(0.25, 5.0, 456)]
        van_loan, jacobi_stacks = [], []
        block_expm, jacobi = gramian.block_expm, _kernels.jacobi_core
        expm_calls = _counted_expm_calls(monkeypatch)

        def counting_block_expm(A, C, S, t):
            van_loan.append(len(t))
            return block_expm(A, C, S, t)

        def counting_jacobi(S, off_tol, max_sweeps):
            jacobi_stacks.append(len(S))
            return jacobi(S, off_tol, max_sweeps)

        monkeypatch.setattr(gramian, "block_expm", counting_block_expm)
        monkeypatch.setattr(_kernels, "jacobi_core", counting_jacobi)
        bundles = build_bundles(sys, grid)
        assert van_loan == [456, 456] and jacobi_stacks == [456]
        assert expm_calls == [2 * 456]
        assert [b.t_f for b in bundles] == grid

    def test_first_failing_horizon_raises(self):
        # the overflow at 800 is found first, the singular W_B at 1e-8 in a
        # later pass: the error raised is that of the earlier horizon
        sys = _unstable_double_integrator()
        with pytest.raises(IllConditionedError, match="singular at horizon t_f = 1e-08"):
            build_bundles(sys, [1.0, 1e-8, 800.0])
        with pytest.raises(IllConditionedError, match="overflows at horizon t_f = 800"):
            build_bundles(sys, [800.0, 1e-8])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(VALID_HORIZONS + sum(FAILING_HORIZONS.values(), [])),
                    min_size=1, max_size=6))
    def test_first_failing_horizon_raises_its_own_error(self, grid):
        # the error of a grid is the one build_bundle raises on its first
        # failing horizon in grid order, whichever stage finds it
        sys = _undamped_oscillator()
        want = None
        for t_f in grid:
            try:
                build_bundle(sys, t_f)
            except DistcostError as exc:
                want = exc
                break
        if want is None:
            assert [b.t_f for b in build_bundles(sys, grid)] == grid
            return
        with pytest.raises(DistcostError) as got:
            build_bundles(sys, grid)
        assert type(got.value) is type(want) and str(got.value) == str(want)

    def test_failing_horizons_fail_alone_as_their_kind(self):
        sys = _undamped_oscillator()
        kinds = {"invalid": "must be positive", "overflowing": "overflows",
                 "singular": "singular", "norm integral": "norm integral"}
        for kind, horizons in FAILING_HORIZONS.items():
            for t_f in horizons:
                with pytest.raises(DistcostError, match=kinds[kind]):
                    build_bundle(sys, t_f)
        build_bundles(sys, VALID_HORIZONS)

    def test_invalid_horizon_raises_in_grid_order(self):
        sys = _unstable_double_integrator()
        with pytest.raises(IllConditionedError, match="singular"):
            build_bundles(sys, [1.0, 1e-8, -1.0])
        with pytest.raises(DomainError, match="horizon t_f"):
            build_bundles(sys, [1.0, 0.0, 1e-8])

    def test_overflowing_block_does_not_poison_the_stack(self, jet, monkeypatch):
        # M t_f non-finite at the last horizon: the stacked block_expm
        # never receives it, the horizons before it still get their own
        # bits, and the overflow is what is raised
        seen = []
        block_expm = gramian.block_expm

        def spying_block_expm(A, C, S, t):
            seen.extend(np.asarray(t).tolist())
            return block_expm(A, C, S, t)

        monkeypatch.setattr(gramian, "block_expm", spying_block_expm)
        with pytest.raises(IllConditionedError, match="overflows"):
            build_bundles(jet, [0.5, 1.0, 5e306])
        with pytest.raises(IllConditionedError, match="overflows at horizon t_f = 5e"):
            gramian._gramians(jet, [0.5, 1.0, 5e306])
        assert seen and 5e306 not in seen
        W = gramian._gramians(jet, [0.5, 1.0])
        for t_f, (got, _) in zip([0.5, 1.0], W):
            assert _same_bits(got, build_bundle(jet, t_f).W_B)
