from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import sweeps
from distcost.energy import disturbed_signal_energy
from distcost.errors import DomainError
from distcost.gramian import build_bundle
from distcost.signals import make_disturbance
from distcost.sweeps import (bound_accuracy_rows, metrics_sweep_rows,
                             sample_ball, sample_gaussians, sample_sphere,
                             transition_integral, worst_constant_sign)
from distcost.systems import LtiSystem, StabilizationTask


def reference_worst_sign(sys, task, bundle):
    """The per-pattern search loop: (first maximizing pattern, energy of
    every pattern in itertools.product order)."""
    V = transition_integral(sys, task.t_f)
    base = bundle.state_transition @ task.x0
    lam = bundle.spec.lambdas
    Ut = bundle.spec.U.T
    best, best_s, energies = -np.inf, None, []
    for bits in product((1.0, -1.0), repeat=sys.n):
        s = np.array(bits)
        h = np.sqrt(lam) * (Ut @ (base + V @ (task.w_bar * s)))
        e = float(np.sum(h * h))
        energies.append(e)
        if e > best:
            best, best_s = e, s
    return best_s, np.array(energies)


def random_sign_problem(n, seed, t_f=0.5, x0_scale=1.0, w_bar=1.0):
    # B has n columns so the Gramian stays well conditioned at any n <= 8
    rng = np.random.default_rng(seed)
    sys = LtiSystem(rng.standard_normal((n, n)) / np.sqrt(n),
                    rng.standard_normal((n, n)), name="random")
    x0 = x0_scale * rng.standard_normal(n)
    return sys, StabilizationTask(x0=x0, t_f=t_f, w_bar=w_bar), build_bundle(sys, t_f)


class TestSamplers:
    def test_gaussians_moments(self):
        g = sample_gaussians(0, 20000, 3)
        assert np.max(np.abs(g.mean(axis=0))) < 0.03
        assert np.max(np.abs(g.std(axis=0) - 1.0)) < 0.03

    def test_sphere_radius_exact(self):
        s = sample_sphere(1, 500, 4, 7.5)
        radii = np.linalg.norm(s, axis=1)
        assert np.max(np.abs(radii - 7.5)) < 1e-12

    def test_ball_radius_distribution(self):
        b = sample_ball(2, 20000, 3, 2.0)
        radii = np.linalg.norm(b, axis=1)
        assert np.max(radii) <= 2.0
        # P(r <= R/2) = (1/2)^3 for uniform volume
        assert abs(np.mean(radii <= 1.0) - 0.125) < 0.01

    def test_deterministic(self):
        assert np.array_equal(sample_ball(3, 50, 3, 1.0), sample_ball(3, 50, 3, 1.0))
        assert not np.array_equal(sample_ball(3, 50, 3, 1.0), sample_ball(4, 50, 3, 1.0))

    def test_sample_prefix_stable(self):
        # draws are indexed per sample, so a longer batch starts identically
        short = sample_sphere(9, 10, 3, 1.0)
        long = sample_sphere(9, 200, 3, 1.0)
        assert np.array_equal(short, long[:10])

    def test_odd_dimension_consumes_fixed_budget(self):
        s = sample_sphere(5, 100, 5, 1.0)
        assert s.shape == (100, 5)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) < 1e-12


class TestWorstConstantSign:
    def test_beats_every_other_pattern(self, jet, jet_task_5, jet_bundle_5):
        best = worst_constant_sign(jet, jet_task_5, jet_bundle_5)
        w_best = make_disturbance("constant_sign", 1.0, 3, sign_vector=best)
        e_best = disturbed_signal_energy(jet, jet_task_5, jet_bundle_5, w_best)
        for bits in product((1.0, -1.0), repeat=3):
            w = make_disturbance("constant_sign", 1.0, 3, sign_vector=np.array(bits))
            e = disturbed_signal_energy(jet, jet_task_5, jet_bundle_5, w)
            assert e <= e_best * (1.0 + 1e-12)

    def test_scalar_sign_matches_state_direction(self):
        from distcost.systems import LtiSystem
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="s")
        bundle = build_bundle(sys, 1.0)
        task_pos = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        task_neg = StabilizationTask(x0=np.array([-1.0]), t_f=1.0, w_bar=1.0)
        assert worst_constant_sign(sys, task_pos, bundle)[0] == 1.0
        assert worst_constant_sign(sys, task_neg, bundle)[0] == -1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 2.0),
           st.floats(-2.0, 4.0), st.floats(-3.0, 3.0))
    def test_matches_loop_reference_random_systems(self, n, seed, t_f, log_x0,
                                                   log_w):
        sys, task, bundle = random_sign_problem(n, seed, t_f, 10.0 ** log_x0,
                                                10.0 ** log_w)
        ref_s, energies = reference_worst_sign(sys, task, bundle)
        got = worst_constant_sign(sys, task, bundle)
        k = int(np.dot((1.0 - got) / 2.0, 2 ** np.arange(n - 1, -1, -1)))
        top = np.max(energies)
        assert energies[k] >= top * (1.0 - 1e-12)
        if top - np.sort(energies)[-2] > 1e-12 * top:
            assert np.array_equal(got, ref_s)

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_block_boundaries(self, monkeypatch, block):
        sys, task, bundle = random_sign_problem(6, 7, x0_scale=0.1, w_bar=3.0)
        full = worst_constant_sign(sys, task, bundle)
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", block)
        assert np.array_equal(worst_constant_sign(sys, task, bundle), full)
        assert np.array_equal(full, reference_worst_sign(sys, task, bundle)[0])

    def test_ties_keep_first_pattern(self, monkeypatch):
        # at w_bar = 0 every pattern has the same energy, so the first in
        # product order wins, within a block and across blocks
        sys, task, bundle = random_sign_problem(5, 3, w_bar=0.0)
        assert np.array_equal(worst_constant_sign(sys, task, bundle), np.ones(5))
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", 4)
        assert np.array_equal(worst_constant_sign(sys, task, bundle), np.ones(5))

    def test_rejects_more_than_twenty_states(self):
        sys = LtiSystem(-np.eye(21), np.eye(21), name="n21")
        task = StabilizationTask(x0=np.ones(21), t_f=1.0, w_bar=1.0)
        with pytest.raises(DomainError):
            worst_constant_sign(sys, task, build_bundle(sys, 1.0))


class TestBoundAccuracyRows:
    def test_columns_and_ranges(self, jet, jet_x0):
        rows = bound_accuracy_rows(jet, jet_x0, 1.0, (0.5, 1.0), seed=0)
        assert [r["t_f"] for r in rows] == [0.5, 1.0]
        for row in rows:
            for key in ("ratio_constant", "ratio_sinusoid", "ratio_piecewise"):
                assert 0.0 < row[key] <= 1.0

    def test_constant_dominates_sinusoid(self, jet, jet_x0):
        rows = bound_accuracy_rows(jet, jet_x0, 1.0, (0.1, 1.0, 5.0), seed=0)
        for row in rows:
            assert row["ratio_constant"] >= row["ratio_sinusoid"]


class TestMetricsSweepRows:
    def test_grid_order_and_workers_equivalence(self, jet, jet_x0):
        kwargs = dict(samples=20, seed=3, cells=40)
        serial = metrics_sweep_rows(jet, jet_x0, 1.0, (10.0, 100.0), (0.5, 1.0),
                                    workers=1, **kwargs)
        threaded = metrics_sweep_rows(jet, jet_x0, 1.0, (10.0, 100.0), (0.5, 1.0),
                                      workers=4, **kwargs)
        assert serial == threaded
        assert [(r["t_f"], r["R"]) for r in serial] == \
            [(0.5, 10.0), (0.5, 100.0), (1.0, 10.0), (1.0, 100.0)]

    def test_rows_satisfy_containment(self, jet, jet_x0):
        rows = metrics_sweep_rows(jet, jet_x0, 1.0, (31.6, 316.0), (0.25,),
                                  samples=50, seed=0)
        for row in rows:
            assert row["diff_max"] <= row["r_A_bound"]
            assert row["ratio_min"] >= row["r_M_bound"]
            assert row["diff_min"] > 0.0
            assert row["ratio_max"] <= 1.0 + 1e-12

    def test_seed_changes_evidence_not_bounds(self, jet, jet_x0):
        a = metrics_sweep_rows(jet, jet_x0, 1.0, (100.0,), (0.5,), samples=30, seed=0)[0]
        b = metrics_sweep_rows(jet, jet_x0, 1.0, (100.0,), (0.5,), samples=30, seed=1)[0]
        assert a["r_A_bound"] == b["r_A_bound"]
        assert a["r_M_bound"] == b["r_M_bound"]
        assert a["ratio_min"] != b["ratio_min"]
