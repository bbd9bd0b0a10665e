import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost.errors import DimensionError, DomainError, NumericalError
from distcost.gramian import build_bundle
from distcost.signals import make_disturbance
from distcost.simulate import (Trajectory, _disturbance_stages, _rk4,
                               simulate_closed_loop, trajectory_to_csv)
from distcost.synthesis import ControlSignal, disturbed_control, nominal_control
from distcost.systems import LtiSystem, StabilizationTask


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
        traj = simulate_closed_loop(task, u, None, 200)
        expected = 1.0 - traj.times
        assert np.max(np.abs(traj.states[:, 0] - expected)) < 1e-13
        assert abs(traj.energy - 1.0) < 1e-13

    def test_autonomous_decay_matches_exponential(self):
        A = np.array([[-0.6, 0.2], [0.0, -1.1]])
        sys = LtiSystem(A, np.eye(2), name="a")
        task = StabilizationTask(x0=np.array([1.0, -2.0]), t_f=2.0)
        zero_u = ControlSignal(t_f=2.0, gain_vector=np.zeros(2), system=sys)
        traj = simulate_closed_loop(task, zero_u, None, 400)
        for idx in (0, 100, 400):
            ref = scipy.linalg.expm(A * traj.times[idx]) @ task.x0
            assert np.max(np.abs(traj.states[idx] - ref)) < 1e-10


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


class TestConvergenceOrder:
    def test_fourth_order_in_step_count(self, jet, jet_x0):
        # halving h should shrink the error by ~16; accept [8, 32] to
        # leave room for error-constant wobble
        task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1.0)
        bundle = build_bundle(jet, 5.0)
        w = make_disturbance("sinusoid", 1.0, jet.n)
        u = disturbed_control(task, bundle, w)

        def endpoint_error(steps):
            traj = simulate_closed_loop(task, u, w, steps)
            fine = simulate_closed_loop(task, u, w, 4 * steps)
            return np.linalg.norm(traj.states[-1] - fine.states[-1])

        e400, e800 = endpoint_error(400), endpoint_error(800)
        assert 8.0 < e400 / e800 < 32.0


class TestResiduals:
    def test_piecewise_residual_insensitive_to_seed(self, jet, jet_x0):
        task = StabilizationTask(x0=jet_x0, t_f=5.0, w_bar=1.0)
        bundle = build_bundle(jet, 5.0)
        for seed in range(20):
            w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=seed,
                                 cells=1000, horizon=5.0)
            u = disturbed_control(task, bundle, w)
            traj = simulate_closed_loop(task, u, w, 5000)
            assert traj.terminal_residual < 1e-9


class TestEnergyAccumulation:
    def test_running_energy_monotone_and_matches_quadrature(self, jet, jet_task_5, jet_bundle_5):
        u = nominal_control(jet_task_5, jet_bundle_5)
        traj = simulate_closed_loop(jet_task_5, u, None, 2000)
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
            simulate_closed_loop(task, u, None, 99)

    def test_fractional_steps(self, scalar_run):
        sys, task, u = scalar_run
        with pytest.raises(DomainError, match="steps"):
            simulate_closed_loop(task, u, None, 100.5)
        with pytest.raises(DomainError, match="steps"):
            u.sample_half_grid(2.5)

    def test_control_for_another_horizon(self, scalar_run):
        sys, _, u = scalar_run
        task = StabilizationTask(x0=np.array([1.0]), t_f=2.0)
        with pytest.raises(DomainError, match="horizon"):
            simulate_closed_loop(task, u, None, 100)

    @pytest.mark.parametrize("x0,w_dim,what", [
        ([1.0, 2.0], 1, "x0 dimension"),
        ([1.0], 2, "disturbance dim"),
    ], ids=["x0", "disturbance"])
    def test_state_of_another_dimension(self, scalar_run, x0, w_dim, what):
        # the control's 1-state system sets n for the task and the signal
        _, _, u = scalar_run
        task = StabilizationTask(x0=np.array(x0), t_f=1.0)
        w = make_disturbance("zero", 1.0, w_dim)
        with pytest.raises(DimensionError, match=what):
            simulate_closed_loop(task, u, w, 100)

    @pytest.mark.parametrize("x0,w_bar", [(1e200, 0.0), (1.0, 1e300)],
                             ids=["state", "disturbance"])
    def test_overflowing_trajectory_raises(self, scalar_run, x0, w_bar):
        # finite inputs whose states or norms overflow: no inf or nan
        # reaches a trajectory
        _, _, u = scalar_run
        task = StabilizationTask(x0=np.array([x0]), t_f=1.0)
        w = make_disturbance("constant_sign", w_bar, 1, sign_vector=np.ones(1))
        with pytest.warns(RuntimeWarning), \
                pytest.raises(NumericalError, match="not finite"):
            simulate_closed_loop(task, u, w, 100)

    def test_outputs_readonly(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(task, u, None, 100)
        with pytest.raises(ValueError):
            traj.states[0, 0] = 7.0


class TestCsv:
    def test_header_and_shape(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(task, u, None, 100)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1,u1,xnorm,energy"
        assert len(lines) == 102

    def test_values_roundtrip(self, scalar_run):
        sys, task, u = scalar_run
        traj = simulate_closed_loop(task, u, None, 100)
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
