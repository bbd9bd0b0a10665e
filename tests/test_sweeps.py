from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import energy, sweeps, synthesis
from distcost.energy import (disturbed_energy_bound, disturbed_signal_energy,
                             nominal_energy, weighted_energies)
from distcost.errors import (DimensionError, DomainError, NumericalError,
                             ValidationError)
from distcost.gramian import build_bundle, build_bundles
from distcost.metrics import _metric_reports
from distcost.models import admire
from distcost.signals import derive_seed, make_disturbance
from distcost.synthesis import disturbance_response, piecewise_response
from distcost.sweeps import (DEFAULT_ACCURACY_TF_GRID, EVIDENCE_CELLS,
                             bound_accuracy_rows, metrics_sweep_rows,
                             sample_ball, sample_gaussians, sample_sphere,
                             worst_constant_sign)
from distcost.systems import LtiSystem, StabilizationTask

from conftest import metzler_system


def reference_worst_sign(task, bundle):
    """The per-pattern search loop: (first maximizing pattern, energy of
    every pattern in itertools.product order)."""
    sys = bundle.system
    # int_0^tf e^{As} ds: column j is the response to the constant e_j
    V = piecewise_response(sys, np.eye(sys.n)[:, None, :], task.t_f).T
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


def reference_block_sign(task, bundle):
    """The search of one horizon alone: each block of ``_SIGN_BLOCK``
    patterns one ``piecewise_response`` of one-cell signals, with its own
    J(t_f), and one ``weighted_energies`` call."""
    n = bundle.system.n
    if n > 20:
        raise DomainError("exhaustive sign search is limited to n <= 20")
    base = bundle.state_transition @ task.x0
    shifts = np.arange(n - 1, -1, -1)
    total = 1 << n
    best, best_k = -np.inf, 0
    for start in range(0, total, sweeps._SIGN_BLOCK):
        k = np.arange(start, min(start + sweeps._SIGN_BLOCK, total))
        S = 1.0 - 2.0 * ((k[:, None] >> shifts) & 1)
        R = piecewise_response(bundle.system, task.w_bar * S[:, None, :], task.t_f)
        e = weighted_energies(bundle, base + R)
        i = int(np.argmax(e))
        if e[i] > best:
            best, best_k = e[i], start + i
    return 1.0 - 2.0 * ((best_k >> shifts) & 1)


def reference_bound_accuracy_rows(sys, x0, w_bar, tf_grid, seed=0,
                                  cells=EVIDENCE_CELLS):
    """The horizon-by-horizon loop: per horizon a task, two signals, four
    exponentials and a search of its own."""
    rows = []
    for i, bundle in enumerate(build_bundles(sys, tf_grid)):
        task = StabilizationTask(x0=x0, t_f=bundle.t_f, w_bar=w_bar)
        bound = disturbed_energy_bound(task, bundle).E_D_bound
        piecewise = make_disturbance("piecewise_uniform", w_bar, sys.n,
                                     seed=derive_seed(seed, 1, i), cells=cells,
                                     horizon=task.t_f)
        responses = {
            "constant": piecewise_response(
                sys, task.w_bar * reference_block_sign(task, bundle)[None], task.t_f),
            "sinusoid": disturbance_response(
                sys, make_disturbance("sinusoid", w_bar, sys.n), task.t_f),
            "piecewise": disturbance_response(sys, piecewise, task.t_f),
        }
        row = {"t_f": task.t_f}
        for kind, R in responses.items():
            row[f"ratio_{kind}"] = float(
                weighted_energies(bundle, bundle.state_transition @ task.x0 + R) / bound)
        rows.append(row)
    return rows


def reference_sweep_point(bundle, rep, w_bar, x0_dir, samples, seed, cells):
    """One sweep point with a task, a signal and a response per sample.
    Samples come through the ``sweeps`` module, so patching a sampler there
    patches both implementations."""
    sys, t_f, R = bundle.system, bundle.t_f, rep.R
    task_rep = StabilizationTask(x0=R * x0_dir, t_f=t_f, w_bar=w_bar)
    e_n_rep = nominal_energy(task_rep, bundle)
    e_bound_rep = disturbed_energy_bound(task_rep, bundle).E_D_bound
    diff_min, diff_max = np.inf, -np.inf
    for x0 in sweeps.sample_ball(derive_seed(seed, 2), samples, sys.n, R):
        if not np.any(x0 != 0.0):
            continue
        r = disturbed_energy_bound(StabilizationTask(x0=x0, t_f=t_f, w_bar=w_bar),
                                   bundle)
        diff_min = min(diff_min, r.E_D_bound - r.E_N)
        diff_max = max(diff_max, r.E_D_bound - r.E_N)
    ratio_min, ratio_max = np.inf, -np.inf
    for i, x0 in enumerate(sweeps.sample_sphere(derive_seed(seed, 3), samples,
                                                sys.n, R)):
        task = StabilizationTask(x0=x0, t_f=t_f, w_bar=w_bar)
        w = make_disturbance("piecewise_uniform", w_bar, sys.n,
                             seed=derive_seed(seed, 4, i), cells=cells, horizon=t_f)
        # the energy-increasing member of the pair (w, -w)
        base, resp = bundle.state_transition @ task.x0, disturbance_response(sys, w, t_f)
        e_d = max(float(weighted_energies(bundle, base + resp)),
                  float(weighted_energies(bundle, base - resp)))
        ratio = nominal_energy(task, bundle) / e_d
        ratio_min = min(ratio_min, ratio)
        ratio_max = max(ratio_max, ratio)
    return {"R": R, "t_f": t_f, "H": R / t_f, "r_A_bound": rep.r_A_bound,
            "r_M_bound": rep.r_M_bound, "E_N": e_n_rep, "E_D_bound": e_bound_rep,
            "diff_min": diff_min, "diff_max": diff_max,
            "ratio_min": ratio_min, "ratio_max": ratio_max}


EVIDENCE = ("diff_min", "diff_max", "ratio_min", "ratio_max")
BOUNDS = ("R", "t_f", "H", "r_A_bound", "r_M_bound", "E_N", "E_D_bound")


def sweep_point_pair(sys, t_f, R, w_bar, samples, seed, cells, x0_dir=None):
    """(batched, reference) rows of one sweep point."""
    bundle = build_bundle(sys, t_f)
    rep = _metric_reports(bundle, w_bar, (R,))[0]
    if x0_dir is None:
        x0_dir = np.ones(sys.n) / np.sqrt(sys.n)
    args = (bundle, rep, w_bar, x0_dir, samples, seed, cells)
    return sweeps._sweep_point(*args), reference_sweep_point(*args)


def assert_rows_match(got, ref):
    for key in BOUNDS:
        assert got[key] == ref[key], key
    for key in EVIDENCE:
        assert got[key] == pytest.approx(ref[key], rel=1e-12, abs=0.0), key


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
        best = worst_constant_sign(jet_task_5, jet_bundle_5)
        w_best = make_disturbance("constant_sign", 1.0, 3, sign_vector=best)
        e_best = disturbed_signal_energy(jet_task_5, jet_bundle_5, w_best)
        for bits in product((1.0, -1.0), repeat=3):
            w = make_disturbance("constant_sign", 1.0, 3, sign_vector=np.array(bits))
            e = disturbed_signal_energy(jet_task_5, jet_bundle_5, w)
            assert e <= e_best * (1.0 + 1e-12)

    def test_scalar_sign_matches_state_direction(self):
        from distcost.systems import LtiSystem
        sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="s")
        bundle = build_bundle(sys, 1.0)
        task_pos = StabilizationTask(x0=np.array([1.0]), t_f=1.0, w_bar=1.0)
        task_neg = StabilizationTask(x0=np.array([-1.0]), t_f=1.0, w_bar=1.0)
        assert worst_constant_sign(task_pos, bundle)[0] == 1.0
        assert worst_constant_sign(task_neg, bundle)[0] == -1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 2.0),
           st.floats(-2.0, 4.0), st.floats(-3.0, 3.0))
    def test_matches_loop_reference_random_systems(self, n, seed, t_f, log_x0,
                                                   log_w):
        sys, task, bundle = random_sign_problem(n, seed, t_f, 10.0 ** log_x0,
                                                10.0 ** log_w)
        ref_s, energies = reference_worst_sign(task, bundle)
        got = worst_constant_sign(task, bundle)
        k = int(np.dot((1.0 - got) / 2.0, 2 ** np.arange(n - 1, -1, -1)))
        top = np.max(energies)
        assert energies[k] >= top * (1.0 - 1e-12)
        if top - np.sort(energies)[-2] > 1e-12 * top:
            assert np.array_equal(got, ref_s)

    @pytest.mark.parametrize("block", [1, 3, 4])
    def test_block_boundaries(self, monkeypatch, block):
        sys, task, bundle = random_sign_problem(6, 7, x0_scale=0.1, w_bar=3.0)
        full = worst_constant_sign(task, bundle)
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", block)
        assert np.array_equal(worst_constant_sign(task, bundle), full)
        assert np.array_equal(full, reference_worst_sign(task, bundle)[0])

    def test_ties_keep_first_pattern(self, monkeypatch):
        # at w_bar = 0 every pattern has the same energy, so the first in
        # product order wins, within a block and across blocks
        sys, task, bundle = random_sign_problem(5, 3, w_bar=0.0)
        assert np.array_equal(worst_constant_sign(task, bundle), np.ones(5))
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", 4)
        assert np.array_equal(worst_constant_sign(task, bundle), np.ones(5))

    def test_rejects_more_than_twenty_states(self):
        sys = LtiSystem(-np.eye(21), np.eye(21), name="n21")
        task = StabilizationTask(x0=np.ones(21), t_f=1.0, w_bar=1.0)
        with pytest.raises(DomainError):
            worst_constant_sign(task, build_bundle(sys, 1.0))


class TestBoundAccuracyRows:
    def test_columns_and_ranges(self, jet, jet_x0):
        rows = bound_accuracy_rows(jet, jet_x0, 1.0, (0.5, 1.0), seed=0)
        assert [r["t_f"] for r in rows] == [0.5, 1.0]
        for row in rows:
            for key in ("ratio_constant", "ratio_sinusoid", "ratio_piecewise"):
                assert 0.0 < row[key] <= 1.0

    def test_constant_ratio_reuses_sign_search_integral(self, jet, jet_x0,
                                                       monkeypatch):
        # the grid takes every response from two stacked block_expm calls,
        # one of t_f and t_f / cells per horizon and one of t_f for the
        # sinusoid, never from disturbance_response; the constant class has
        # the value of the signal path
        times, responses = [], []
        stacked = sweeps.block_expm

        def recording(A, C, S, t):
            times.append(np.shape(t))
            return stacked(A, C, S, t)

        with monkeypatch.context() as m:
            for module in (sweeps, synthesis):
                m.setattr(module, "block_expm", recording)
            for module in (synthesis, energy):
                m.setattr(module, "disturbance_response",
                          lambda *args: responses.append(args))
            rows = bound_accuracy_rows(jet, jet_x0, 1.0, (0.5, 2.0), seed=0)
        assert times == [(4,), (2,)]
        assert responses == []
        for row in rows:
            bundle = build_bundle(jet, row["t_f"])
            task = StabilizationTask(x0=jet_x0, t_f=row["t_f"], w_bar=1.0)
            w = make_disturbance("constant_sign", 1.0, 3,
                                 sign_vector=worst_constant_sign(task, bundle))
            e = disturbed_signal_energy(task, bundle, w)
            bound = disturbed_energy_bound(task, bundle).E_D_bound
            assert row["ratio_constant"] == float(e / bound)

    def test_constant_dominates_sinusoid(self, jet, jet_x0):
        rows = bound_accuracy_rows(jet, jet_x0, 1.0, (0.1, 1.0, 5.0), seed=0)
        for row in rows:
            assert row["ratio_constant"] >= row["ratio_sinusoid"]


def _accuracy_case(kind):
    # (system, x0, grid) of ADMIRE or a seeded n = 12 Metzler model
    if kind == "admire":
        return admire(), np.array([5.0, -1.0, 3.0]), DEFAULT_ACCURACY_TF_GRID
    seed = int(kind[-1])
    x0 = np.random.default_rng(100 + seed).standard_normal(12)
    return metzler_system(seed), x0, tuple(np.geomspace(0.25, 5.0, 12))


def _spy_signs(monkeypatch):
    # the list that records every pattern grid the search returns
    signs, search = [], sweeps._worst_signs
    monkeypatch.setattr(sweeps, "_worst_signs",
                        lambda *args: signs.append(search(*args)) or signs[-1])
    return signs


class TestBoundAccuracyGrid:
    """The one grid pass against the horizon-by-horizon loop, bit for bit."""

    @pytest.mark.parametrize("kind", ["admire", "metzler0", "metzler1"])
    def test_matches_horizon_loop(self, monkeypatch, kind):
        sys, x0, grid = _accuracy_case(kind)
        signs = _spy_signs(monkeypatch)
        rows = bound_accuracy_rows(sys, x0, 1.0, grid, seed=7)
        assert rows == reference_bound_accuracy_rows(sys, x0, 1.0, grid, seed=7)
        tasks = [StabilizationTask(x0=x0, t_f=t, w_bar=1.0) for t in grid]
        assert np.array_equal(signs[0], [reference_block_sign(task, b) for task, b
                                         in zip(tasks, build_bundles(sys, grid))])

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("n", [3, 6])
    def test_sign_block_sizes(self, monkeypatch, block, n):
        # 7 leaves a short last block of 8 and of 64 patterns
        sys, task, _ = random_sign_problem(n, 11, x0_scale=0.1, w_bar=3.0)
        grid = (0.2, 0.7, 1.5)
        full = bound_accuracy_rows(sys, task.x0, 3.0, grid, seed=2, cells=9)
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", block)
        rows = bound_accuracy_rows(sys, task.x0, 3.0, grid, seed=2, cells=9)
        assert rows == full
        assert rows == reference_bound_accuracy_rows(sys, task.x0, 3.0, grid,
                                                     seed=2, cells=9)

    @pytest.mark.parametrize("block", [1, 7, 1 << 14])
    def test_ties_keep_first_pattern_at_every_horizon(self, monkeypatch, block):
        # at w_bar = 0 every pattern of every horizon has the same energy
        sys, task, _ = random_sign_problem(5, 3, w_bar=0.0)
        monkeypatch.setattr(sweeps, "_SIGN_BLOCK", block)
        signs = _spy_signs(monkeypatch)
        grid = (0.3, 0.3, 1.0, 0.1)
        rows = bound_accuracy_rows(sys, task.x0, 0.0, grid, cells=4)
        assert np.array_equal(signs[0], np.ones((4, 5)))
        assert rows == reference_bound_accuracy_rows(sys, task.x0, 0.0, grid, cells=4)

    @pytest.mark.parametrize("grid", [(1.0, 0.5, 1.0), (2.0, 0.1, 0.5), (0.5,), ()],
                             ids=["repeated", "unsorted", "single", "empty"])
    def test_grid_shapes(self, jet, jet_x0, grid):
        rows = bound_accuracy_rows(jet, jet_x0, 1.0, grid, seed=4, cells=10)
        assert rows == reference_bound_accuracy_rows(jet, jet_x0, 1.0, grid,
                                                     seed=4, cells=10)
        assert [row["t_f"] for row in rows] == list(grid)

    def test_worst_constant_sign_is_grid_of_one(self, monkeypatch):
        sys, x0, grid = _accuracy_case("metzler1")
        signs = _spy_signs(monkeypatch)
        bound_accuracy_rows(sys, x0, 1.0, grid)
        for t_f, got in zip(grid, signs[0]):
            task = StabilizationTask(x0=x0, t_f=t_f, w_bar=1.0)
            assert np.array_equal(worst_constant_sign(task, build_bundle(sys, t_f)), got)


class TestBoundAccuracyErrors:
    """The grid raises what the horizon-by-horizon loop raises."""

    @pytest.mark.parametrize("case,error,match", [
        (dict(x0=np.ones(2)), DimensionError, "x0 dimension 2"),
        (dict(tf_grid=(0.5, -1.0), cells=0), DomainError, "horizon t_f"),
        (dict(cells=0), DomainError,
         r"^piecewise_uniform cells must be at least 1, got 0$"),
        (dict(cells=2.5), DomainError, "piecewise_uniform cells must be a whole"),
        (dict(seed=0.5), DomainError, "seed must be a whole"),
        (dict(x0=np.zeros(3)), ValidationError, "x0 must be nonzero"),
        (dict(w_bar=-1.0), DomainError, "w_bar"),
        (dict(sys="n21", x0=np.ones(21)), DomainError, "n <= 20"),
        (dict(x0=np.full(3, 1e200), cells=0), NumericalError, "E_D_bound = inf"),
    ], ids=["x0-length", "horizon-before-cells", "cells", "fractional-cells",
            "seed", "zero-x0", "w_bar", "n21", "overflow-before-cells"])
    def test_same_error_as_horizon_loop(self, jet, jet_x0, case, error, match):
        args = {"sys": jet, "x0": jet_x0, "w_bar": 1.0, "tf_grid": (0.5,),
                "seed": 0, "cells": 5, **case}
        if args["sys"] == "n21":
            args["sys"] = LtiSystem(-np.eye(21), np.eye(21), name="n21")
        with pytest.raises(error, match=match) as got:
            bound_accuracy_rows(**args)
        with pytest.raises(error, match=match) as ref:
            reference_bound_accuracy_rows(**args)
        assert (type(got.value), str(got.value)) == (type(ref.value), str(ref.value))

    def test_overflowing_bound_raises_numerical_error(self, jet):
        # under the suite's filterwarnings = error, an overflow warning
        # raised on the way would replace the NumericalError
        with pytest.raises(NumericalError, match="E_D_bound = inf is not finite"):
            bound_accuracy_rows(jet, 1e200 * np.ones(3), 1.0, (0.5,))

    def test_every_bound_is_checked_before_the_search(self, monkeypatch):
        # an overflow at a later horizon stops the run before any pattern
        # is searched or drawn
        searched = _spy_signs(monkeypatch)
        # E_N ~ x0^2 / t_f for xdot = -x + u: finite at 0.5, not at 1e-10
        sys = LtiSystem(np.array([[-1.0]]), np.array([[1.0]]), name="stable")
        with pytest.raises(NumericalError, match="E_D_bound = inf"):
            bound_accuracy_rows(sys, np.array([1e150]), 1.0, (0.5, 1e-10))
        assert searched == []


class TestMetricsSweepRows:
    def test_grid_order_and_workers_equivalence(self, jet, jet_x0):
        kwargs = dict(samples=20, seed=3, cells=40)
        serial = metrics_sweep_rows(jet, jet_x0, 1.0, (10.0, 100.0), (0.5, 1.0),
                                    **kwargs)
        threaded = metrics_sweep_rows(jet, jet_x0, 1.0, (10.0, 100.0), (0.5, 1.0),
                                      **kwargs)
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

    def test_zero_samples_rejected(self, jet, jet_x0):
        with pytest.raises(DomainError, match="samples"):
            metrics_sweep_rows(jet, jet_x0, 1.0, (100.0,), (0.5,), samples=0)

    @pytest.mark.parametrize("key,value", [("samples", 5.9), ("cells", 4.7)])
    def test_fractional_count_rejected(self, jet, jet_x0, key, value):
        with pytest.raises(DomainError, match=key):
            metrics_sweep_rows(jet, jet_x0, 1.0, (100.0,), (0.5,),
                               **{"samples": 5, "cells": 4, key: value})

    def test_zero_cells_rejected(self, jet, jet_x0):
        with pytest.raises(DomainError, match="cells"):
            metrics_sweep_rows(jet, jet_x0, 1.0, (100.0,), (0.5,), samples=5,
                               cells=0)


class TestBatchedEvidence:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           samples=st.sampled_from([1, 2, 7, 50]),
           cells=st.sampled_from([1, 3, 100, 101]),
           t_f=st.floats(0.2, 2.0), log_R=st.floats(-1.0, 2.0),
           log_w=st.floats(-1.0, 1.0))
    def test_matches_per_sample_reference(self, n, seed, samples, cells, t_f,
                                          log_R, log_w):
        sys, task, _ = random_sign_problem(n, seed, t_f)
        got, ref = sweep_point_pair(sys, t_f, 10.0 ** log_R, 10.0 ** log_w,
                                    samples, seed, cells, x0_dir=task.x0)
        assert_rows_match(got, ref)

    def test_zero_ball_row_is_skipped(self, jet, monkeypatch):
        ball = sweeps.sample_ball

        def with_zero_row(seed, count, dim, radius):
            b = ball(seed, count, dim, radius)
            b[1] = 0.0
            return b

        monkeypatch.setattr(sweeps, "sample_ball", with_zero_row)
        got, ref = sweep_point_pair(jet, 0.5, 100.0, 1.0, 6, 11, 40)
        assert_rows_match(got, ref)
        # a zero row would add exactly c_term, below every nonzero row's
        # extra energy, so diff_min shows whether it was skipped
        c_term = _metric_reports(build_bundle(jet, 0.5), 1.0, (100.0,))[0].c_term
        assert got["diff_min"] > c_term

    def test_all_zero_ball_leaves_empty_extremes(self, jet, monkeypatch):
        monkeypatch.setattr(sweeps, "sample_ball",
                            lambda seed, count, dim, radius: np.zeros((count, dim)))
        got, ref = sweep_point_pair(jet, 0.5, 100.0, 1.0, 3, 0, 10)
        assert (got["diff_min"], got["diff_max"]) == (np.inf, -np.inf)
        assert_rows_match(got, ref)

    @pytest.mark.parametrize("block", [1, 75, 225])
    def test_block_boundaries(self, jet, monkeypatch, block):
        # _SAMPLE_BLOCK counts cell values: at 25 cells of 3 states, 1 and
        # 75 give one sample per block and 225 three, so 7 samples end on
        # a short block
        full, ref = sweep_point_pair(jet, 0.25, 31.6, 1.0, 7, 5, 25)
        monkeypatch.setattr(sweeps, "_SAMPLE_BLOCK", block)
        blocked, _ = sweep_point_pair(jet, 0.25, 31.6, 1.0, 7, 5, 25)
        assert blocked == full
        assert_rows_match(blocked, ref)
