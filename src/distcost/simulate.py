"""Closed-loop simulation by classical fixed-step Runge-Kutta.

Controls are evaluated on a half-step grid shared with the RK4 stages
(no interpolation), and discontinuous disturbances contribute their own
cell's value at every stage of a step, including the right endpoint, so
a piecewise-constant signal aligned with the step grid is integrated at
full fourth order.

One RK4 step on xdot = A x + f(t) is exactly affine, x_{k+1} = T x_k + F_k:
    M = hA,  T = I + M + M^2/2 + M^3/6 + M^4/24,
    F_k = (h/6) [(I + M + M^2/2 + M^3/4) f_L + (4I + 2M + M^2/2) f_mid + f_R]
with f = B u + w at the left, mid and right stages. T is RK4's degree-4
polynomial, not e^{hA}, so this is still RK4 with its O(h^4) error and
an independent check of the closed-form energies. The recurrence runs as
one prefix scan (``linalg.linear_scan``) in log2(steps) batched passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import as_whole, linear_scan
from .signals import DisturbanceSignal
from .synthesis import ControlSignal
from .systems import LtiSystem, StabilizationTask

__all__ = ["Trajectory", "simulate_closed_loop", "trajectory_to_csv", "csv_text"]


@dataclass(frozen=True)
class Trajectory:
    """Simulation record on a uniform grid over [0, t_f].

    ``control_energy_running[j]`` is the composite-Simpson value of
    int_0^{t_j} ||u||_2^2 dt, so its last entry is the signal energy.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    state_norms: np.ndarray
    control_energy_running: np.ndarray

    @property
    def terminal_residual(self) -> float:
        """||x(t_f)||_2 relative to ||x0||_2."""
        x0n = self.state_norms[0]
        return float(self.state_norms[-1] / x0n) if x0n > 0.0 else 0.0

    @property
    def energy(self) -> float:
        return float(self.control_energy_running[-1])


def _disturbance_stages(w: DisturbanceSignal, t_f: float, steps: int,
                        n: int) -> np.ndarray:
    if w is None:
        return np.zeros((steps, 3, n))
    w.require_cover(t_f)
    K = w.aligned_cells(t_f)
    if K and steps % K == 0:
        # step grid refines the cell grid: every stage of a step sees
        # the step's own cell value, jumps land exactly on step edges
        cell_of_step = np.repeat(np.arange(K), steps // K)
        vals = w.cell_values[cell_of_step]
        return np.repeat(vals[:, None, :], 3, axis=1)
    # sinusoids and unaligned grids: pointwise sampling; integration
    # order degrades at interior jumps
    h = t_f / steps
    t_left = np.linspace(0.0, t_f, steps + 1)[:-1]
    left = w._values(t_left)
    mid = w._values(t_left + 0.5 * h)
    right = w._values(t_left + h)
    return np.stack([left, mid, right], axis=1)


def _rk4(A, B, x0, h, U_half, w_stages):
    # the affine RK4 recurrence of the module docstring; U_half is u on the
    # half-step grid, w_stages the (left, mid, right) w of each step. T is
    # kept as I + D, since rounding I + D would repeat one error per step.
    steps = w_stages.shape[0]
    I = np.eye(A.shape[0])
    M = h * A
    M2 = M @ M
    M3 = M2 @ M
    D = M + M2 / 2.0 + M3 / 6.0 + (M2 @ M2) / 24.0
    P_left = I + M + M2 / 2.0 + M3 / 4.0
    P_mid = 4.0 * I + 2.0 * M + M2 / 2.0
    f = U_half @ B.T
    F = (h / 6.0) * ((f[0:-1:2] + w_stages[:, 0]) @ P_left.T
                     + (f[1::2] + w_stages[:, 1]) @ P_mid.T
                     + f[2::2] + w_stages[:, 2])

    # T is a polynomial, not an exponential, so its powers T^(2^j) - I
    # come only by doubling: (I + D)^2 - I = 2D + D^2
    D_pow = list(accumulate(range(steps.bit_length() - 1),
                            lambda Dj, _: 2.0 * Dj + Dj @ Dj, initial=D))
    return linear_scan(np.vstack([x0, F]), D_pow)


def simulate_closed_loop(sys: LtiSystem, task: StabilizationTask, u: ControlSignal,
                         w: DisturbanceSignal | None, steps: int) -> Trajectory:
    """Integrate xdot = A x + B u(t) + w(t) from x0 over [0, t_f].

    Parameters
    ----------
    u : ControlSignal
        Sampled on the half-step grid by its ``sample_half_grid``. It must
        be built for the task's horizon (else DomainError) and the
        system's input count (else DimensionError); a zero gain vector
        gives zero control.
    w : DisturbanceSignal or None
        None means no disturbance.
    steps : int
        Uniform RK4 step count, at least 100; a float must be a whole
        number.

    Returns
    -------
    Trajectory
        States and controls on the step grid, state norms, and the
        running control energy (composite Simpson per step).
    """
    steps = as_whole(steps, "steps", 100)
    if w is not None and w.dim != sys.n:
        raise DimensionError(f"disturbance dim {w.dim} does not match n = {sys.n}")
    t_f = task.t_f
    h = t_f / steps

    if abs(u.t_f - t_f) > 1e-12 * max(1.0, t_f):
        raise DomainError(
            f"control defined on [0, {u.t_f:g}] does not match horizon {t_f:g}"
        )
    if u.system.p != sys.p:
        raise DimensionError(
            f"control has {u.system.p} inputs, the system has p = {sys.p}"
        )
    U_half = u.sample_half_grid(steps)
    w_stages = _disturbance_stages(w, t_f, steps, sys.n)
    X = _rk4(sys.A, sys.B, task.x0, h, U_half, w_stages)

    g = np.sum(U_half * U_half, axis=1)
    seg = (h / 6.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
    running = np.concatenate(([0.0], np.cumsum(seg)))

    times = np.linspace(0.0, t_f, steps + 1)
    controls = np.ascontiguousarray(U_half[::2])
    norms = np.sqrt(np.sum(X * X, axis=1))
    for arr in (times, X, controls, norms, running):
        arr.setflags(write=False)
    return Trajectory(times=times, states=X, controls=controls,
                      state_norms=norms, control_energy_running=running)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text, header t,x1..xn,u1..up,xnorm,energy; shortest-roundtrip decimals."""
    n = traj.states.shape[1]
    p = traj.controls.shape[1]
    header = ["t"]
    header += [f"x{i + 1}" for i in range(n)]
    header += [f"u{i + 1}" for i in range(p)]
    header += ["xnorm", "energy"]
    return csv_text(header, np.column_stack([traj.times, traj.states, traj.controls,
                                             traj.state_norms,
                                             traj.control_energy_running]))


def csv_text(header, table) -> str:
    """CSV text: the header line, one line per row of the float table, and
    a trailing newline.

    Numbers are written as repr() of each float, the shortest decimal
    that round-trips (<= 17 significant digits).
    """
    lines = [",".join(header)]
    lines += [",".join(map(repr, row))
              for row in np.asarray(table, dtype=np.float64).tolist()]
    return "\n".join(lines) + "\n"
