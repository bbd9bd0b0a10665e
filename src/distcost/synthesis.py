"""Optimal control construction.

The nominal minimum-energy control is
    u_N(t) = -B^T e^{A^T(t_f - t)} W_B^{-1} e^{A t_f} x0
and with an a-priori-known disturbance w the stabilizing analogue is
    u_D(t) = -B^T e^{A^T(t_f - t)} W_B^{-1} [e^{A t_f} x0 + R(w, t_f)]
where R(w, t_f) = int_0^tf e^{A(t_f - tau)} w(tau) dtau is the
disturbance response. Both controls share the constant gain vector in
brackets; evaluation only varies the transition factor in front.

Every disturbance class is generated by a small linear exosystem, so
R(w, t_f) is exact up to rounding: a block of one block-triangular
matrix exponential (Van Loan, IEEE TAC 1978), plus for piecewise
signals a log2(K)-pass fold over the K cells. No quadrature is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gramian import GramianBundle
from .linalg import as_scalar, as_whole, block_expm, expm
from .signals import DisturbanceSignal
from .systems import LtiSystem, StabilizationTask

__all__ = ["ControlSignal", "nominal_control", "disturbed_control",
           "disturbance_response", "piecewise_response"]


@dataclass(frozen=True)
class ControlSignal:
    """A synthesized control u(t) = -B^T e^{A^T(t_f - t)} g, defined
    exactly on [0, t_f].

    ``task`` is the StabilizationTask the control was planned for, whose
    x0 and t_f ``simulate_closed_loop`` starts from and ends at;
    ``gain_vector`` is the constant g = W_B^{-1}[e^{A t_f} x0 + R(w, t_f)]
    the signal encodes, and ``system`` the (A, B) of its bundle. Calling
    the signal outside [0, t_f] raises.
    """

    task: StabilizationTask
    gain_vector: np.ndarray
    system: LtiSystem

    def __call__(self, t: float) -> np.ndarray:
        t, t_f = float(t), self.task.t_f
        if not np.isfinite(t) or t < 0.0 or t > t_f:
            raise DomainError(
                f"control signal is defined on [0, {t_f:g}], got t = {t:g}"
            )
        Phi = expm(self.system.A.T * (t_f - t))
        return -(self.system.B.T @ (Phi @ self.gain_vector))

    def sample_half_grid(self, steps: int) -> np.ndarray:
        """Control values on the half-step grid k * t_f / (2*steps), -B^T
        times the ``costates`` of 2*steps intervals: row 2k at step
        boundary k, row 2k+1 at the step's midpoint, which the Simpson
        running energy needs; shape (2*steps + 1, p). Values match
        pointwise evaluation to ~1e-13 relative.
        """
        steps = as_whole(steps, "steps", 1)
        if 8 * (2 * steps + 1) * self.system.n > np.iinfo(np.intp).max:
            raise DomainError(f"steps = {steps} needs a {2 * steps + 1} x {self.system.n} "
                              f"half grid, past numpy's array size limit")
        return -(self.costates(2 * steps)[::-1] @ self.system.B)

    def costates(self, intervals: int) -> np.ndarray:
        """y(t) = e^{A^T(t_f - t)} g, the control being -B^T y, from t_f
        back over ``intervals`` uniform intervals: row k is y(t_f - k delta),
        delta = t_f / intervals, the k-th state of the input-free
        y_{k+1} = e^{A^T delta} y_k from y_0 = g. The states double: pass j
        carries the first 2^j of them 2^j nodes on with
        P_j = e^{A^T 2^j delta}, in linear work overall.
        """
        intervals = as_whole(intervals, "intervals", 1)
        passes = intervals.bit_length()
        delta = self.task.t_f / intervals
        At = self.system.A.T
        g = self.gain_vector
        # each power from a fresh exponential, all in one stacked call:
        # squaring the first one pass by pass would compound its rounding.
        # As in linalg.linear_scan, P_j - I keeps the small increments at
        # full precision.
        scales = delta * 2.0 ** np.arange(passes)
        D_pow = expm(At * scales[:, None, None]) - np.eye(len(g))
        Y = np.empty((intervals + 1, len(g)))
        Y[0] = g
        for j, D in enumerate(D_pow):
            s = 1 << j
            m = min(s, len(Y) - s)
            # 0.0 + turns a -0.0 state into the +0.0 that a prefix scan's
            # zero-initialised rows would give
            Y[s:s + m] = (0.0 + Y[:m]) + Y[:m] @ D.T
        return Y


def _check_bundle(bundle: GramianBundle, task: StabilizationTask):
    # a bundle serves only a task of its own state dimension and horizon
    n = bundle.system.n
    if task.x0.shape != (n,):
        raise DimensionError(
            f"x0 dimension {task.x0.shape[0]} does not match system n = {n}"
        )
    if abs(bundle.t_f - task.t_f) > 1e-12 * max(1.0, task.t_f):
        raise DimensionError(
            f"bundle horizon {bundle.t_f:g} does not match task horizon {task.t_f:g}"
        )


def nominal_control(task: StabilizationTask, bundle: GramianBundle) -> ControlSignal:
    """Minimum-energy control stabilizing the disturbance-free system at t_f."""
    return disturbed_control(task, bundle, None)


def disturbed_control(task: StabilizationTask, bundle: GramianBundle,
                      w: DisturbanceSignal | None) -> ControlSignal:
    """Minimum-energy stabilizing control when w is known a priori.

    w = None gives the nominal control.
    """
    # the gain W_B^{-1}[e^{A t_f} x0 + R(w, t_f)], with R = 0 when w is None
    _check_bundle(bundle, task)
    rhs = bundle.state_transition @ task.x0
    if w is not None:
        rhs = rhs + disturbance_response(bundle.system, w, task.t_f)
    gain = np.ascontiguousarray(bundle.spec.apply(rhs))
    gain.setflags(write=False)
    return ControlSignal(task=task, gain_vector=gain, system=bundle.system)


def disturbance_response(sys: LtiSystem, w: DisturbanceSignal, t_f) -> np.ndarray:
    """R(w, t_f) = int_0^tf e^{A(tf - tau)} w(tau) dtau, in closed form.

    Every class is the output of a linear exosystem, so the integral is a
    block of one block-triangular exponential (``block_expm``):

    - sinusoid: the state z = (sin(omega_i t + phi_i), cos(omega_i t + phi_i))
      obeys z' = S z, w = C z, and R = [expm([[A, C], [0, S]] t_f)]_12 z(0);
    - a cell grid, K cells of width d = t_f / K with values v_k:
      R = sum_k e^{Ad(K-1-k)} J(d) v_k with J(t) = int_0^t e^{As} ds.
      Zero and constant signals are one cell, R = J(t_f) v_0.

    The result is exact up to rounding in the exponential. Raises
    DomainError if the signal is not defined on all of [0, t_f], or (for
    a grid of several cells) if t_f does not land on a cell boundary.
    """
    t_f = as_scalar(t_f, "t_f", positive=True)
    if w.dim != sys.n:
        raise DimensionError(f"disturbance dim {w.dim} does not match n = {sys.n}")
    w.require_cover(t_f)
    if w.cell_values is None:
        C, S, z0 = _sinusoid_exosystem(w)
        return block_expm(sys.A, C, S, t_f)[1] @ z0
    K = w.aligned_cells(t_f)
    if K == 0:
        raise DomainError(
            "piecewise disturbance cells do not align with t_f; build the "
            "signal with horizon equal to (a multiple of) the cell grid"
        )
    return piecewise_response(sys, w.cell_values[:K], t_f)


def piecewise_response(sys: LtiSystem, values: np.ndarray, t_f: float) -> np.ndarray:
    """R(w, t_f) for w piecewise constant, values[..., k, :] on cell k of K
    uniform cells spanning [0, t_f]; leading axes batch independent signals.

    R = sum_k e^{Ad(K-1-k)} J(d) v_k with d = t_f / K and J(d) =
    int_0^d e^{As} ds: ``fold_cells`` on the ``cell_propagators`` of d. A
    constant is a single cell.
    """
    return fold_cells(values, *cell_propagators(sys, t_f / values.shape[-2]))


def cell_propagators(sys: LtiSystem, d):
    """(e^{Ad}, J(d)) with J(d) = int_0^d e^{As} ds, from one ``block_expm``;
    a 1-D array of cell widths d gives a stack of each."""
    n = sys.n
    return block_expm(sys.A, np.eye(n), np.zeros((n, n)), d)


def fold_cells(values: np.ndarray, Phi: np.ndarray, J: np.ndarray) -> np.ndarray:
    """sum_k Phi^(K-1-k) J v_k over the K cells of values[..., k, :], with
    (Phi, J) the ``cell_propagators`` of the cell width.

    Writing Y[k] = J v_k, the sum folds neighbours as Phi Y[2i] + Y[2i+1]
    and squares Phi, halving it each pass, so the powers of Phi are never
    formed one by one.
    """
    n = J.shape[-1]
    # one 2-D product for all signals and cells: a stacked matmul would
    # take the leading axes one small product at a time
    Y = (values.reshape(-1, n) @ J.T).reshape(values.shape)
    while Y.shape[-2] > 1:
        if Y.shape[-2] % 2:
            # a zero cell in front keeps every later cell's power of Phi
            Y = np.concatenate([np.zeros_like(Y[..., :1, :]), Y], axis=-2)
        Y = Y[..., 0::2, :] @ Phi.T + Y[..., 1::2, :]
        Phi = Phi @ Phi
    return Y[..., 0, :]


def _sinusoid_exosystem(w: DisturbanceSignal, t=None):
    # channel i owns exosystem states (2i, 2i+1) = (sin, cos) of its phase;
    # z is the state at time 0, or one row per time of the array t
    n = w.dim
    i = np.arange(n)
    C = np.zeros((n, 2 * n))
    C[i, 2 * i] = w.amplitudes
    S = np.zeros((2 * n, 2 * n))
    S[2 * i, 2 * i + 1] = w.frequencies
    S[2 * i + 1, 2 * i] = -w.frequencies
    phase = w.phases if t is None else np.outer(t, w.frequencies) + w.phases
    z = np.stack([np.sin(phase), np.cos(phase)], axis=-1)
    return C, S, z.reshape(phase.shape[:-1] + (2 * n,))
