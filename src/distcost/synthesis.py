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
from .linalg import as_scalar, as_whole, block_expm, expm, linear_scan
from .signals import DisturbanceSignal
from .systems import LtiSystem, StabilizationTask

__all__ = ["ControlSignal", "nominal_control", "disturbed_control",
           "disturbance_response", "piecewise_response"]


@dataclass(frozen=True)
class ControlSignal:
    """A synthesized control u(t) = -B^T e^{A^T(t_f - t)} g, defined
    exactly on [0, t_f].

    ``gain_vector`` is the constant g = W_B^{-1}[e^{A t_f} x0 + R(w, t_f)]
    the signal encodes, and ``system`` the (A, B) of its bundle, the one
    ``simulate_closed_loop`` integrates. Calling the signal outside
    [0, t_f] raises.
    """

    t_f: float
    gain_vector: np.ndarray
    system: LtiSystem

    def __call__(self, t: float) -> np.ndarray:
        t = float(t)
        if not np.isfinite(t) or t < 0.0 or t > self.t_f:
            raise DomainError(
                f"control signal is defined on [0, {self.t_f:g}], got t = {t:g}"
            )
        Phi = expm(self.system.A.T * (self.t_f - t))
        return -(self.system.B.T @ (Phi @ self.gain_vector))

    def sample_half_grid(self, steps: int) -> np.ndarray:
        """Control values on the half-step grid k * t_f / (2*steps).

        Row 2k is the value at step boundary k, row 2k+1 the midpoint
        value the RK4 stages need; shape (2*steps + 1, p). Values match
        pointwise evaluation to ~1e-13 relative.
        """
        steps = as_whole(steps, "steps", 1)
        passes = (2 * steps).bit_length()
        delta = self.t_f / (2 * steps)
        At = self.system.A.T
        g = self.gain_vector
        # node 2*steps - k needs e^{A^T k delta} g, the k-th state of
        # y_{k+1} = e^{A^T delta} y_k from y_0 = g. Each power comes from a
        # fresh exponential, all in one stacked call: doubling the first one
        # would compound its rounding at every pass.
        scales = delta * 2.0 ** np.arange(passes)
        D_pow = expm(At * scales[:, None, None]) - np.eye(len(g))
        X = np.zeros((2 * steps + 1, g.shape[0]))
        X[0] = g
        Y = linear_scan(X, D_pow)[::-1]
        return -(Y @ self.system.B)


def _check_x0(task: StabilizationTask, n: int):
    if task.x0.shape != (n,):
        raise DimensionError(
            f"x0 dimension {task.x0.shape[0]} does not match system n = {n}"
        )


def _check_bundle(bundle: GramianBundle, task: StabilizationTask):
    # a bundle serves only a task of its own state dimension and horizon
    _check_x0(task, bundle.system.n)
    if abs(bundle.t_f - task.t_f) > 1e-12 * max(1.0, task.t_f):
        raise DimensionError(
            f"bundle horizon {bundle.t_f:g} does not match task horizon {task.t_f:g}"
        )


def _control(task: StabilizationTask, bundle: GramianBundle,
             w: DisturbanceSignal | None) -> ControlSignal:
    # the gain W_B^{-1}[e^{A t_f} x0 + R(w, t_f)], with R = 0 when w is None
    _check_bundle(bundle, task)
    rhs = bundle.state_transition @ task.x0
    if w is not None:
        rhs = rhs + disturbance_response(bundle.system, w, task.t_f)
    gain = np.ascontiguousarray(bundle.spec.apply(rhs))
    gain.setflags(write=False)
    return ControlSignal(t_f=task.t_f, gain_vector=gain, system=bundle.system)


def nominal_control(task: StabilizationTask, bundle: GramianBundle) -> ControlSignal:
    """Minimum-energy control stabilizing the disturbance-free system at t_f."""
    return _control(task, bundle, None)


def disturbed_control(task: StabilizationTask, bundle: GramianBundle,
                      w: DisturbanceSignal | None) -> ControlSignal:
    """Minimum-energy stabilizing control when w is known a priori.

    w = None gives the nominal control.
    """
    return _control(task, bundle, w)


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


def _sinusoid_exosystem(w: DisturbanceSignal):
    # channel i owns exosystem states (2i, 2i+1) = (sin, cos) of its phase
    n = w.dim
    i = np.arange(n)
    C = np.zeros((n, 2 * n))
    C[i, 2 * i] = w.amplitudes
    S = np.zeros((2 * n, 2 * n))
    S[2 * i, 2 * i + 1] = w.frequencies
    S[2 * i + 1, 2 * i] = -w.frequencies
    z0 = np.empty(2 * n)
    z0[0::2] = np.sin(w.phases)
    z0[1::2] = np.cos(w.phases)
    return C, S, z0
