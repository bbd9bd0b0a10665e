"""Classical fixed-step Runge-Kutta for the closed loop, the independent
oracle of ``simulate.simulate_closed_loop``'s exact steps.

Test-only. Controls are evaluated on the half-step grid shared with the
RK4 stages (no interpolation), and discontinuous disturbances contribute
their own cell's value at every stage of a step, including the right
endpoint, so a piecewise-constant signal aligned with the step grid is
integrated at full fourth order.

One RK4 step on xdot = A x + f(t) is exactly affine, x_{k+1} = T x_k + F_k:
    M = hA,  T = I + M + M^2/2 + M^3/6 + M^4/24,
    F_k = (h/6) [(I + M + M^2/2 + M^3/4) f_L + (4I + 2M + M^2/2) f_mid + f_R]
with f = B u + w at the left, mid and right stages. T is RK4's degree-4
polynomial, not e^{hA}, so this is RK4 with its O(h^4) error, and the
recurrence runs as one prefix scan (``linalg.linear_scan``).
"""

from itertools import accumulate

import numpy as np

from distcost.linalg import linear_scan


def _disturbance_stages(w, t_f: float, steps: int, n: int) -> np.ndarray:
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


def rk4_states(u, w, steps: int) -> np.ndarray:
    """The RK4 states of the closed loop of control u and disturbance w
    (or None) on ``steps`` uniform steps over [0, t_f], (steps + 1, n)."""
    sys, t_f = u.system, u.task.t_f
    return _rk4(sys.A, sys.B, u.task.x0, t_f / steps, u.sample_half_grid(steps),
                _disturbance_stages(w, t_f, steps, sys.n))
