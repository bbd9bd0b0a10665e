import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import simulate
from distcost.errors import DimensionError, DomainError, NumericalError
from distcost.gramian import build_bundle, build_bundles
from distcost.models import load_model
from distcost.signals import derive_seed, make_disturbance
from distcost.simulate import (_POW10, Trajectory, _square_sums, simulate_closed_loop,
                               trajectory_to_csv)
from distcost.sweeps import worst_constant_sign
from distcost.synthesis import ControlSignal, disturbed_control, nominal_control
from distcost.systems import LtiSystem, StabilizationTask
from rk4_oracle import _disturbance_stages, _rk4, rk4_states


def rk4_reference(A, B, x0, h, U_half, w_stages):
    """Textbook RK4, stage by stage, one step at a time."""
    x = np.array(x0, dtype=float)
    X = [x]
    for k in range(w_stages.shape[0]):
        u_l, u_m, u_r = U_half[2 * k], U_half[2 * k + 1], U_half[2 * k + 2]
        k1 = A @ x + B @ u_l + w_stages[k, 0]
        k2 = A @ (x + 0.5 * h * k1) + B @ u_m + w_stages[k, 1]
        k3 = A @ (x + 0.5 * h * k2) + B @ u_m + w_stages[k, 1]
        k4 = A @ (x + h * k3) + B @ u_r + w_stages[k, 2]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        X.append(x)
    return np.array(X)


def csv_reference(traj):
    """The per-value formatter trajectory_to_csv must match byte for byte."""
    n, p = traj.states.shape[1], traj.controls.shape[1]
    header = ["t", *(f"x{i + 1}" for i in range(n)),
              *(f"u{i + 1}" for i in range(p)), "xnorm", "energy"]
    lines = [",".join(header)]
    for j in range(traj.times.shape[0]):
        row = [traj.times[j], *traj.states[j], *traj.controls[j],
               traj.state_norms[j], traj.control_energy_running[j]]
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_of(table):
    """A Trajectory whose CSV rows are the rows of a (rows, w >= 5) table."""
    table = np.asarray(table, dtype=np.float64)
    return Trajectory(times=table[:, 0], states=table[:, 1:2], controls=table[:, 2:-2],
                      state_norms=table[:, -2], control_energy_running=table[:, -1])


def assert_formats_as_repr(values, width=5):
    """trajectory_to_csv of the values, width per row (zero-padded), is
    byte for byte the per-value formatter's text."""
    values = np.asarray(values, dtype=np.float64).ravel()
    table = np.zeros(-(-values.size // width) * width)
    table[:values.size] = values
    traj = trajectory_of(table.reshape(-1, width))
    assert trajectory_to_csv(traj) == csv_reference(traj)


@pytest.fixture(scope="module")
def scalar_run():
    sys = LtiSystem(np.zeros((1, 1)), np.ones((1, 1)), name="s")
    task = StabilizationTask(x0=np.array([1.0]), t_f=1.0)
    bundle = build_bundle(sys, 1.0)
    u = nominal_control(task, bundle)
    return sys, task, u


class TestClosedForm:
    def test_scalar_integrator_linear_decay(self, scalar_run):
        # A = 0, W = t_f: u = -x0 / t_f constant, so x(t) = x0 (1 - t / t_f)
        sys, task, u = scalar_run
        traj = simulate_closed_loop(u, None, 200)
        expected = 1.0 - traj.times
        assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-13
        assert abs(traj.energy - 1.0) < 1e-13

    def test_autonomous_decay_matches_exponential(self):
        A = np.array([[-0.6, 0.2], [0.0, -1.1]])
        sys = LtiSystem(A, np.eye(2), name="a")
        task = StabilizationTask(x0=np.array([1.0, -2.0]), t_f=2.0)
        zero_u = ControlSignal(task=task, gain_vector=np.zeros(2), system=sys)
        traj = simulate_closed_loop(zero_u, None, 400)
        for idx in (0, 100, 400):
            ref = scipy.linalg.expm(A * traj.times[idx]) @ task.x0
            assert np.max(np.abs(traj.states[idx] - ref)) < 1e-10


class TestSquareSums:
    @pytest.mark.parametrize("width", range(1, 8))
    def test_bits_of_numpy_sum_below_eight_columns(self, width):
        # numpy adds rows of fewer than 8 entries left to right, as
        # _square_sums does
        rng = np.random.default_rng(width)
        A = rng.standard_normal((5000, width)) * 10.0 ** rng.integers(-150, 150, (5000, width))
        got, want = _square_sums(A), np.sum(A * A, axis=1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("width", [8, 12])
    def test_rounding_of_wider_rows(self, width):
        # from 8 entries numpy splits a row pairwise, so the bits may
        # differ; each sum of w nonnegative terms is within (w - 1) eps
        rng = np.random.default_rng(width)
        A = rng.standard_normal((5000, width))
        np.testing.assert_allclose(_square_sums(A), np.sum(A * A, axis=1),
                                   rtol=2 * (width - 1) * np.finfo(float).eps, atol=0)


class TestAffineRk4:
    # the scan runs steps.bit_length() passes: at a power of two (128,
    # 256) the last pass shifts by all the steps, the others (100, 101,
    # 257, 1000) end on a partial pass
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4),
           st.sampled_from([100, 101, 128, 256, 257, 1000]),
           st.floats(0.1, 5.0), st.integers(0, 2**32 - 1))
    def test_matches_stage_by_stage_reference(self, n, p, steps, t_f, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        B = rng.standard_normal((n, p))
        x0 = rng.standard_normal(n)
        U_half = rng.standard_normal((2 * steps + 1, p))
        w_stages = rng.standard_normal((steps, 3, n))
        h = t_f / steps
        got = _rk4(A, B, x0, h, U_half, w_stages)
        ref = rk4_reference(A, B, x0, h, U_half, w_stages)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestDisturbanceStages:
    @pytest.mark.parametrize("t_f,cells_spanned", [(1.0, 8), (0.5, 4)])
    def test_aligned_cells_repeat_cell_values(self, t_f, cells_spanned):
        # 8 cells over [0, 1]: t_f spans whole cells that divide the steps,
        # so all three stages of a step take its own cell's value
        w = make_disturbance("piecewise_uniform", 1.0, 2, seed=4, cells=8, horizon=1.0)
        stages = _disturbance_stages(w, t_f, 1000, 2)
        expected = np.repeat(w.cell_values[:cells_spanned], 1000 // cells_spanned, axis=0)
        for j in range(3):
            assert np.array_equal(stages[:, j], expected)

    def test_unaligned_cells_sample_each_stage(self):
        # 7 cells do not divide 1000 steps: each stage takes the signal's
        # value at its own node, so a step holding a jump sees both cells
        w = make_disturbance("piecewise_uniform", 1.0, 2, seed=4, cells=7, horizon=1.0)
        stages = _disturbance_stages(w, 1.0, 1000, 2)
        h = 1.0 / 1000
        left = np.linspace(0.0, 1.0, 1001)[:-1]
        for j, offset in enumerate((0.0, 0.5 * h, h)):
            assert np.array_equal(stages[:, j], w.eval(left + offset))
        assert np.any(stages[:, 0] != stages[:, 2])


class TestStepCount:
    def test_states_agree_across_step_counts(self, jet, jet_x0):
        # every step is exact, so the step count sets only the sampling:
        # 400 and 1600 steps give the same states at their common nodes
        task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1.0)
        bundle = build_bundle(jet, 5.0)
        w = make_disturbance("sinusoid", 1.0, jet.n)
        u = disturbed_control(task, bundle, w)
        coarse = simulate_closed_loop(u, w, 400).states
        fine = simulate_closed_loop(u, w, 1600).states[::4]
        assert np.max(np.abs(coarse - fine)) <= 1e-13 * np.max(np.abs(fine))


def stabilize_runs(task, bundle, steps):
    """(name, control, signal) of stabilize's four default runs at this
    step count, with its cells rule for the piecewise run."""
    n = bundle.system.n
    cells = 1000 if steps % 1000 == 0 else steps
    signals = {"nominal": None,
               "constant": make_disturbance("constant_sign", task.w_bar, n,
                                            sign_vector=worst_constant_sign(task, bundle)),
               "sinusoid": make_disturbance("sinusoid", task.w_bar, n),
               "piecewise": make_disturbance("piecewise_uniform", task.w_bar, n, cells=cells,
                                             seed=derive_seed(0, 5, 2), horizon=task.t_f)}
    return [(name, disturbed_control(task, bundle, w), w) for name, w in signals.items()]


def assert_matches_oracle(u, w, steps, refine, tol, axis=0):
    """The exact states at ``steps`` against oracle RK4 at ``refine``
    times the steps, at the common nodes, within tol of each state
    column's largest magnitude (axis 0) or of the largest of all (None)."""
    got = simulate_closed_loop(u, w, steps).states
    ref = rk4_states(u, w, refine * steps)[::refine]
    err = np.max(np.abs(got - ref), axis=axis) / np.max(np.abs(ref), axis=axis)
    assert np.all(err <= tol), err


def _load_workloads():
    # the benchmark's workload module, imported from its file without
    # writing bytecode beside it
    path = Path(__file__).resolve().parent.parent / "e2ebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e2ebench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


class TestExactSteps:
    @pytest.mark.parametrize("run", range(4), ids=["nominal", "constant", "sinusoid",
                                                    "piecewise"])
    def test_hundred_steps_match_fine_rk4(self, jet_task_5, jet_bundle_5, run):
        # RK4 at 512 times the steps is within rounding of the truth; the
        # exact steps reach it at 100
        _, u, w = stabilize_runs(jet_task_5, jet_bundle_5, 100)[run]
        assert_matches_oracle(u, w, 100, 512, 1e-13)

    @pytest.mark.parametrize("steps", [100, 5000])
    def test_terminal_residual_at_rounding_level(self, jet_task_5, jet_bundle_5, steps):
        for name, u, w in stabilize_runs(jet_task_5, jet_bundle_5, steps):
            assert simulate_closed_loop(u, w, steps).terminal_residual <= 1e-12, name

    @pytest.mark.parametrize("seed", range(3))
    def test_horizons_models_match_rk4(self, tmp_path, seed):
        # the n = 12 models of the benchmark's horizons workload, from its
        # own input files. At t_f = 0.25, cond(W_B) up to 1e10 makes the
        # control large against the states it steers: the exact states at
        # 100 and at 1000 steps differ by up to 5e-10 of a column's
        # largest value, so the states are compared against the largest
        # of all
        inputs = _load_workloads().WORKLOADS["horizons"].make_inputs(seed, tmp_path)
        sys_ = load_model(inputs["model"])
        x0 = np.array(json.loads(Path(inputs["config"]).read_text())["x0"])
        for t_f, bundle in zip((0.25, 1.0, 5.0), build_bundles(sys_, [0.25, 1.0, 5.0])):
            task = StabilizationTask(x0=x0, t_f=t_f, w_bar=1.0)
            for steps, refine in ((100, 64), (1000, 8)):
                for name, u, w in stabilize_runs(task, bundle, steps):
                    assert_matches_oracle(u, w, steps, refine, 1e-9, axis=None)


class TestNesting:
    def test_cells_that_do_not_nest_raise(self, jet, jet_task_5, jet_bundle_5):
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, cells=7, horizon=5.0)
        u = disturbed_control(jet_task_5, jet_bundle_5, w)
        with pytest.raises(DomainError, match=r"of 7 cells over \[0, 5\] and 1000 steps "
                                              r"over \[0, 5\] do not nest"):
            simulate_closed_loop(u, w, 1000)

    def test_final_time_inside_a_cell_raises(self, jet, jet_task_5, jet_bundle_5):
        # 7 cells over [0, 10]: t_f = 5 ends halfway through the fourth
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, cells=7, horizon=10.0)
        u = nominal_control(jet_task_5, jet_bundle_5)
        with pytest.raises(DomainError, match=r"of 7 cells over \[0, 10\] and 1000 steps "
                                              r"over \[0, 5\] do not nest"):
            simulate_closed_loop(u, w, 1000)

    @pytest.mark.parametrize("cells,steps,refine", [(7, 700, 64), (3000, 1000, 48)],
                             ids=["steps-refine-cells", "cells-refine-steps"])
    def test_nesting_grids_match_rk4(self, jet, jet_task_5, jet_bundle_5, cells, steps,
                                     refine):
        # the oracle's step count is a multiple of the cells, so RK4 sees
        # each cell's value at all its stages
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, cells=cells, seed=3,
                             horizon=5.0)
        u = disturbed_control(jet_task_5, jet_bundle_5, w)
        assert_matches_oracle(u, w, steps, refine, 1e-13)


class TestResiduals:
    def test_piecewise_residual_insensitive_to_seed(self, jet, jet_x0):
        task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1.0)
        bundle = build_bundle(jet, 5.0)
        for seed in range(20):
            w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=seed,
                                 cells=1000, horizon=5.0)
            u = disturbed_control(task, bundle, w)
            traj = simulate_closed_loop(u, w, 5000)
            assert traj.terminal_residual < 1e-9


class TestEnergyAccumulation:
    def test_running_energy_monotone_and_matches_quadrature(self, jet, jet_task_5, jet_bundle_5):
        u = nominal_control(jet_task_5, jet_bundle_5)
        traj = simulate_closed_loop(u, None, 2000)
        running = traj.control_energy_running
        assert np.all(np.diff(running) >= -1e-15)
        # oracle: Simpson over the sampled ||u||^2 on the same grid
        g = np.sum(traj.controls**2, axis=1)
        ref = scipy.integrate.simpson(g, x=traj.times)
        assert traj.energy == pytest.approx(ref, rel=1e-9)


class TestValidation:
    def test_too_few_steps(self, scalar_run):
        sys, task, u = scalar_run
        with pytest.raises(DomainError):
            simulate_closed_loop(u, None, 99)

    def test_fractional_steps(self, scalar_run):
        sys, task, u = scalar_run
        with pytest.raises(DomainError, match="steps"):
            simulate_closed_loop(u, None, 100.5)
        with pytest.raises(DomainError, match="steps"):
            u.sample_half_grid(2.5)

    def test_steps_past_index_range(self, scalar_run):
        _, _, u = scalar_run
        with pytest.raises(DomainError, match="steps must be at most"):
            simulate_closed_loop(u, None, 10**30)
        with pytest.raises(DomainError, match="steps must be at most"):
            u.sample_half_grid(10**30)

    def test_steps_past_array_size(self, scalar_run):
        # inside the index range, but 8 * (2*steps + 1) bytes are not
        _, _, u = scalar_run
        with pytest.raises(DomainError, match=r"^steps = 2\d+ needs a 4\d+ x 1 half grid"):
            u.sample_half_grid(2**61)
        with pytest.raises(DomainError, match="steps = 2"):
            simulate_closed_loop(u, None, 2**61)

    @pytest.mark.parametrize("w_dim", [2], ids=["disturbance"])
    def test_state_of_another_dimension(self, scalar_run, w_dim):
        # the control's 1-state system sets n for the signal
        _, _, u = scalar_run
        w = make_disturbance("zero", 1.0, w_dim)
        with pytest.raises(DimensionError, match="disturbance dim"):
            simulate_closed_loop(u, w, 100)

    @pytest.mark.parametrize("x0,w_bar", [(1e200, 0.0), (1.0, 1e300)],
                             ids=["state", "disturbance"])
    def test_overflowing_trajectory_raises(self, scalar_run, x0, w_bar):
        # finite inputs whose states or norms overflow, the unit-x0
        # control's gain started from x0: no inf or nan reaches a
        # trajectory, and the error alone reports it (any RuntimeWarning
        # is an error here)
        _, _, u = scalar_run
        u = dataclasses.replace(u, task=StabilizationTask(x0=np.array([x0]), t_f=1.0))
        w = make_disturbance("constant_sign", w_bar, 1, sign_vector=np.ones(1))
        with pytest.raises(NumericalError, match="not finite"):
            simulate_closed_loop(u, w, 100)

    def test_outputs_readonly(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(u, None, 100)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 7.0


class TestCsv:
    def test_header_and_shape(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(u, None, 100)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,u1,xnorm,energy"
        assert len(lines) == 102

    def test_values_roundtrip(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(u, None, 100)
        lines = trajectory_to_csv(traj).strip().split("\n")
        j = 37
        t, x1, u1, xnorm, energy = (float(v) for v in lines[1 + j].split(","))
        assert t == traj.times[j]
        assert x1 == traj.states[j, 0]
        assert u1 == traj.controls[j, 0]
        assert xnorm == traj.state_norms[j]
        assert energy == traj.control_energy_running[j]

    def test_byte_identical_to_per_value_formatter(self):
        # signed zero, the smallest subnormal, the switch points of repr
        # between positional and exponent notation, and negatives
        special = np.array([-0.0, 5e-324, 1e-5, 1e16, -2.5, -1e-300, 0.1, 1e-4,
                            9999999999999998.0, -1.7976931348623157e308, 1 / 3])
        m = special.size
        rolled = [np.roll(special, k) for k in range(5)]
        traj = Trajectory(times=special.copy(),
                          states=np.column_stack(rolled[:3]),
                          controls=np.column_stack(rolled[3:]),
                          state_norms=-special,
                          control_energy_running=special[::-1].copy())
        text = trajectory_to_csv(traj)
        assert text == csv_reference(traj)
        assert len(text.splitlines()) == m + 1
        assert "-0.0" in text and "5e-324" in text and "1e-05" in text and "1e+16" in text


class TestShortestRepr:
    """csv_text against repr() on the values where shortest round-trip
    formatting goes wrong: subnormals, powers, notation switch points."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
    def test_random_bit_patterns(self, bits):
        assert_formats_as_repr(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True), min_size=1, max_size=300))
    def test_any_floats(self, values):
        assert_formats_as_repr(values)

    def test_short_decimals_and_neighbours(self):
        # random bits almost always need 16-17 digits; values parsed from
        # 1- to 17-digit decimals over the whole exponent range, and their
        # neighbours, reach the interval-end, tie and shorter-candidate
        # cases of the digit kernel in bulk
        rng = np.random.default_rng(20)
        n = 100_000
        digits = rng.integers(1, 18, n)
        mantissa = rng.integers(0, 10 ** 17, n, dtype=np.uint64) // _POW10[17 - digits]
        exponent = rng.integers(-323, 310, n) - digits
        x = np.array([float(f"{m}e{e}") for m, e in zip(mantissa.tolist(), exponent.tolist())])
        x = x[np.isfinite(x)] * rng.choice([-1.0, 1.0], x.size)[np.isfinite(x)]
        with np.errstate(over="ignore"):
            values = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        values = values[np.isfinite(values)]
        table = values[:values.size // 10 * 10].reshape(-1, 10)
        header = [f"c{i}" for i in range(10)]
        reference = [",".join(header)] + [",".join(map(repr, row)) for row in table.tolist()]
        # lines, so that a failure names its first differing row quickly
        assert simulate.csv_text(header, table).split("\n") == reference + [""]

    def test_every_power_of_two_and_its_neighbours(self):
        # 2^(bq - 1023) for every exponent field bq of 1-2046, whose
        # digits the kernel's table reads off repr, and both neighbours
        x = np.ldexp(1.0, np.arange(-1022, 1024))
        assert_formats_as_repr(np.concatenate([x, np.nextafter(x, 0.0),
                                               np.nextafter(x, np.inf)]))

    def test_digit_counts_near_powers_of_two(self):
        # a significand's digit count is read from its bit length as a
        # float, which rounds up to the next power of two just below 2^54,
        # 2^55, 2^56 and 2^57 (17-digit significands)
        values = [float(f"{(1 << b) + j}e{e}") for b in range(50, 58)
                  for j in (-2, -1, 0, 1) for e in (-320, -20, 0, 20, 280)]
        assert_formats_as_repr(values)

    def test_every_small_subnormal(self):
        # mantissas t < 2^16 at the bottom exponent: the one-digit-shorter
        # candidate must be tried from two-digit s on (5e-324, not 4.9e-324)
        assert_formats_as_repr(np.arange(2**16, dtype=np.uint64).view(np.float64), 11)

    def test_powers_of_ten_and_neighbours(self):
        p = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_formats_as_repr(np.concatenate([p, np.nextafter(p, 0.0),
                                               np.nextafter(p, np.inf)]))

    def test_powers_of_two(self):
        assert_formats_as_repr(np.ldexp(1.0, np.arange(-1074, 1024)))

    def test_notation_switch_points(self):
        edges = np.array([1e-4, 1e-5, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
                          9999999999999998.0, 0.1, 1e22, 1e23,
                          np.finfo(float).max, np.finfo(float).tiny])
        with np.errstate(over="ignore"):
            near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        assert_formats_as_repr(np.concatenate([near, -near]))
        text = trajectory_to_csv(trajectory_of([[1e-4, 1e-5, 1e16, 2.0**53 - 1, 2.0**53 + 2]]))
        assert text.splitlines()[1] == "0.0001,1e-05,1e+16,9007199254740991.0,9007199254740994.0"

    def test_signed_zero_infinities_and_nans(self):
        negative_nan = np.array([0xFFF8000000000000, 0xFFF0000000000001,
                                 0x7FF4000000000000], dtype=np.uint64).view(np.float64)
        row = np.concatenate([[-0.0, 0.0, np.inf, -np.inf], negative_nan, [-5e-324]])
        assert_formats_as_repr(row, width=len(row))
        line = trajectory_to_csv(trajectory_of([row])).splitlines()[1]
        assert line == "-0.0,0.0,inf,-inf,nan,nan,nan,-5e-324"

    @pytest.mark.parametrize("block", [1, 7, 10, 11, 12])
    def test_rows_straddling_blocks(self, monkeypatch, block):
        # 11 values per row: blocks of the row length +- 1 and of 1 and 7
        # values end inside rows, which keep their "," and newline
        rng = np.random.default_rng(block)
        table = rng.standard_normal((20, 11)) * 10.0 ** rng.integers(-30, 30, (20, 11))
        table[3, 4], table[7, 10] = np.nan, -np.inf
        traj = trajectory_of(table)
        monkeypatch.setattr(simulate, "_FORMAT_BLOCK", block)
        assert trajectory_to_csv(traj) == csv_reference(traj)

    def test_group_digit_table(self):
        # word i holds the four digits of i, most significant first, in its
        # four low bytes, and in the second row in its four high ones,
        # after "0000"
        table = simulate._layout_tables()[0]
        assert table.shape == (2, 10 ** 4) and table.dtype == np.uint64
        low, high = table.astype("<u8").view(np.uint8).reshape(2, -1, 8)
        want = "".join(f"{i:04d}" for i in range(10 ** 4))
        assert not low[:, 4:].any() and low[:, :4].tobytes().decode("ascii") == want
        assert high.tobytes().decode("ascii") == "".join(f"0000{i:04d}" for i in range(10 ** 4))
