"""Acceptance criteria, one test per criterion.

Each test prints a single summary line with its measured numbers; with
pytest -v the per-criterion pass/fail verdict is the test outcome line.
Timed criteria measure the algorithm, not jit compilation: the autouse
session fixture warms every kernel specialization first.
"""

import json
import time

import numpy as np
import pytest
import scipy.integrate

from distcost.cli import entry
from distcost.energy import (disturbed_energy_bound, disturbed_signal_energy,
                             nominal_energy, weighted_energies)
from distcost.gramian import build_bundle
from distcost.metrics import metric_report
from distcost.signals import derive_seed, make_disturbance
from distcost.simulate import simulate_closed_loop
from distcost.sweeps import (DEFAULT_R_GRID, DEFAULT_TF_GRID,
                             bound_accuracy_rows, metrics_sweep_rows,
                             sample_sphere, worst_constant_sign)
from distcost.synthesis import disturbance_response, disturbed_control, nominal_control
from distcost.systems import LtiSystem, StabilizationTask

from conftest import expm_nodes

X0 = np.array([5.0, -1.0, 3.0])
W_BAR = 1.0


@pytest.fixture(scope="module")
def default_sweep(jet):
    # shared by criteria 6 and 8: the full default grid at 500 samples
    return metrics_sweep_rows(jet, X0, W_BAR, DEFAULT_R_GRID, DEFAULT_TF_GRID,
                              samples=500, seed=0)


def test_criterion_1_admire_stabilization(jet):
    """x0 = (5,-1,3), t_f = 5, w_bar = 1, steps = 5000: terminal residual
    <= 1e-5 for the nominal run and all three disturbance classes, under
    10 seconds total."""
    t0 = time.perf_counter()
    t_f, steps = 5.0, 5000
    task = StabilizationTask(x0=X0, t_f=t_f, w_bar=W_BAR)
    bundle = build_bundle(jet, t_f)

    residuals = {}
    u_n = nominal_control(task, bundle)
    residuals["nominal"] = simulate_closed_loop(task, u_n, None, steps).terminal_residual

    classes = {
        "constant": make_disturbance("constant_sign", W_BAR, jet.n,
                                     sign_vector=worst_constant_sign(task, bundle)),
        "sinusoid": make_disturbance("sinusoid", W_BAR, jet.n),
        "piecewise": make_disturbance("piecewise_uniform", W_BAR, jet.n,
                                      seed=0, cells=1000, horizon=t_f),
    }
    for name, w in classes.items():
        u_d = disturbed_control(task, bundle, w)
        traj = simulate_closed_loop(task, u_d, w, steps)
        residuals[name] = traj.terminal_residual
    elapsed = time.perf_counter() - t0

    worst = max(residuals.values())
    assert worst <= 1e-5, f"residuals {residuals}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"criterion 1: worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_scalar_exactness():
    """A = 0, B = 1, t_f = 1, x0 = 1, w_bar = 1: E_N = 1, bound = 4,
    the worst constant disturbance attains 4, r_M(R=1) = 0.25; 1e-12."""
    sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="scalar")
    bundle = build_bundle(sys, 1.0)
    task = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)

    rep = disturbed_energy_bound(task, bundle)
    w = make_disturbance("constant_sign", 1.0, 1, sign_vector=[1])
    e_attained = disturbed_signal_energy(task, bundle, w)
    r_M = metric_report(bundle, 1.0, 1.0).r_M_bound

    assert abs(rep.E_N - 1.0) <= 1e-12
    assert abs(rep.E_D_bound - 4.0) <= 1e-12
    assert abs(e_attained - 4.0) <= 1e-12
    assert abs(r_M - 0.25) <= 1e-12
    print(f"criterion 2: E_N={rep.E_N}, bound={rep.E_D_bound}, "
          f"attained={e_attained}, r_M={r_M}")


def test_criterion_3_bound_containment(jet):
    """200 seeded random admissible disturbances at each t_f in
    {0.1, 0.5, 1, 5}: ||u_D||^2 <= E_D_bound, zero violations, under 30s."""
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    margin_min = np.inf
    for i_tf, t_f in enumerate((0.1, 0.5, 1.0, 5.0)):
        bundle = build_bundle(jet, t_f)
        task = StabilizationTask(x0=X0, t_f=t_f, w_bar=W_BAR)
        bound = disturbed_energy_bound(task, bundle).E_D_bound
        for k in range(200):
            w = make_disturbance("piecewise_uniform", W_BAR, jet.n,
                                 seed=derive_seed(0, i_tf, k), cells=50,
                                 horizon=t_f)
            e = disturbed_signal_energy(task, bundle, w)
            checked += 1
            margin_min = min(margin_min, bound - e)
            if e > bound:
                violations += 1
    elapsed = time.perf_counter() - t0

    assert checked == 800
    assert violations == 0, f"{violations} of {checked} violated the bound"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(f"criterion 3: 0/{checked} violations, min margin {margin_min:.3e}, "
          f"{elapsed:.2f}s")


def test_criterion_4_ratio_trends(jet):
    """Constant-disturbance energy ratio strictly decreasing in t_f over
    {0.1, 0.5, 1, 2, 5} and dominating the sinusoid ratio pointwise."""
    rows = bound_accuracy_rows(jet, X0, W_BAR, (0.1, 0.5, 1.0, 2.0, 5.0), seed=0)
    const = [r["ratio_constant"] for r in rows]
    sinus = [r["ratio_sinusoid"] for r in rows]
    assert all(b < a for a, b in zip(const, const[1:])), f"not decreasing: {const}"
    assert all(c >= s for c, s in zip(const, sinus)), f"{const} vs {sinus}"
    print(f"criterion 4: constant {['%.4f' % v for v in const]}, "
          f"sinusoid {['%.4f' % v for v in sinus]}")


def test_criterion_5_paper_point_value(jet):
    """t_f = 0.5, w_bar = 1, R = 100: r_M = 0.45 +/- 0.02, and 500 seeded
    sampled energy ratios all within [0.85, 1.0]."""
    t_f, R = 0.5, 100.0
    bundle = build_bundle(jet, t_f)
    r_M = metric_report(bundle, W_BAR, R).r_M_bound
    assert abs(r_M - 0.45) <= 0.02, f"r_M = {r_M}"

    ratios = []
    x0s = sample_sphere(derive_seed(0, 3), 500, jet.n, R)
    for i, x0 in enumerate(x0s):
        task = StabilizationTask(x0=x0, t_f=t_f, w_bar=W_BAR)
        w = make_disturbance("piecewise_uniform", W_BAR, jet.n,
                             seed=derive_seed(0, 4, i), cells=100, horizon=t_f)
        # the energy-increasing member of the pair (w, -w)
        base, resp = bundle.state_transition @ task.x0, disturbance_response(jet, w, t_f)
        e_d = max(float(weighted_energies(bundle, base + resp)),
                  float(weighted_energies(bundle, base - resp)))
        ratios.append(nominal_energy(task, bundle) / e_d)
    lo, hi = min(ratios), max(ratios)
    assert lo >= 0.85 and hi <= 1.0, f"ratios in [{lo:.4f}, {hi:.4f}]"
    print(f"criterion 5: r_M={r_M:.4f}, 500 ratios in [{lo:.4f}, {hi:.4f}]")


def test_criterion_6_metric_containment(default_sweep):
    """At every default grid point, 500 sampled initial states and
    disturbance draws satisfy both metric bounds. Zero violations."""
    diff_viol = sum(r["diff_max"] > r["r_A_bound"] for r in default_sweep)
    ratio_viol = sum(r["ratio_min"] < r["r_M_bound"] for r in default_sweep)
    assert diff_viol == 0 and ratio_viol == 0, (diff_viol, ratio_viol)
    worst_add = max(r["diff_max"] / r["r_A_bound"] for r in default_sweep)
    worst_mul = min(r["ratio_min"] - r["r_M_bound"] for r in default_sweep)
    print(f"criterion 6: 0 violations over {len(default_sweep)} points x 500 "
          f"samples (additive headroom {1 - worst_add:.3f}, "
          f"multiplicative slack {worst_mul:.3f})")


def test_criterion_7_oracle_equivalence(jet):
    """Augmented-exponential Gramian within 1e-7 of a 2048-panel Simpson
    oracle; closed-form energies within 1e-5 of trajectory quadrature."""
    t_f = 5.0
    bundle = build_bundle(jet, t_f)
    W = bundle.W_B
    expm_at = expm_nodes(jet.A)
    taus = np.linspace(0.0, t_f, 2 * 2048 + 1)
    E = expm_at(taus)
    vals = E @ (jet.B @ jet.B.T) @ E.transpose(0, 2, 1)
    h = t_f / 2048
    ref = (h / 6.0) * (vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0)
                       + 2.0 * vals[2:-1:2].sum(axis=0))
    gram_err = np.max(np.abs(W - ref)) / np.max(np.abs(ref))
    assert gram_err < 1e-7, f"gramian error {gram_err:.2e}"

    task = StabilizationTask(x0=X0, t_f=t_f, w_bar=W_BAR)
    w = make_disturbance("sinusoid", W_BAR, jet.n)
    errs = {}
    for name, u, e_closed in (
        ("nominal", nominal_control(task, bundle),
         nominal_energy(task, bundle)),
        ("disturbed", disturbed_control(task, bundle, w),
         disturbed_signal_energy(task, bundle, w)),
    ):
        ts = np.linspace(0.0, t_f, 20001)
        # u(t) = -B^T e^{A^T(t_f - t)} g at every node from one
        # decomposition; the control's own call path must agree at
        # every 64th node
        U = -np.einsum("kji,j->ki", expm_at(t_f - ts), u.gain_vector) @ jet.B
        for k in range(0, ts.size, 64):
            ref = u(ts[k])
            assert np.linalg.norm(U[k] - ref) <= 1e-12 * np.linalg.norm(ref), ts[k]
        g = np.sum(U * U, axis=1)
        e_quad = scipy.integrate.simpson(g, x=ts)
        errs[name] = abs(e_quad - e_closed) / e_closed
    assert max(errs.values()) < 1e-5, f"energy errors {errs}"
    print(f"criterion 7: gramian err {gram_err:.2e}, energy errs "
          f"{ {k: f'{v:.2e}' for k, v in errs.items()} }")


def test_criterion_8_hardness_monotonicity(default_sweep):
    """The gap (E_N / E_D_bound) - r_M_bound is nonincreasing along both
    hardness-increasing grid directions: growing R at fixed t_f and
    shrinking t_f at fixed R."""
    gap = {(r["R"], r["t_f"]): r["E_N"] / r["E_D_bound"] - r["r_M_bound"]
           for r in default_sweep}
    tol = 1e-12
    for t_f in DEFAULT_TF_GRID:
        seq = [gap[(R, t_f)] for R in DEFAULT_R_GRID]
        assert all(b <= a + tol for a, b in zip(seq, seq[1:])), (t_f, seq)
    for R in DEFAULT_R_GRID:
        seq = [gap[(R, t_f)] for t_f in sorted(DEFAULT_TF_GRID, reverse=True)]
        assert all(b <= a + tol for a, b in zip(seq, seq[1:])), (R, seq)
    print(f"criterion 8: gap nonincreasing along both axes "
          f"(range {min(gap.values()):.4f}..{max(gap.values()):.4f})")


def test_criterion_9_determinism(tmp_path):
    """Two metrics-sweep runs with identical config and seed produce
    byte-identical CSVs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 100}))
    rc_a = entry(["metrics-sweep", "--config", str(cfg), "--seed", "7",
                  "--out", str(tmp_path / "a")])
    rc_b = entry(["metrics-sweep", "--config", str(cfg), "--seed", "7",
                  "--out", str(tmp_path / "b")])
    assert rc_a == 0 and rc_b == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b
    print(f"criterion 9: {len(a)} CSV bytes identical across runs")
