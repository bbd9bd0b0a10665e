"""Control energies and the worst-case disturbed-energy bound.

The nominal minimum energy is the quadratic form
    E_N = x0^T e^{A^T t_f} W_B^{-1} e^{A t_f} x0,
evaluated here as || diag(sqrt(lambda)) U^T e^{A t_f} x0 ||_2^2 with
(U, lambda) the factors of W_B^{-1}, so rounding can never push it
negative. The disturbed-signal energy replaces e^{A t_f} x0 with
e^{A t_f} x0 + R(w, t_f).

The worst case over all admissible disturbances is bounded by
    E_D_bound = E_N + 2 q_bar ||p||_1 + q_bar^2 sum(lambda),
with p = diag(lambda) U^T e^{A t_f} x0 and
q_bar = w_bar ||U||_1 int_0^tf ||e^{A(t_f-t)}||_inf dt. The maximizer of
the relaxed inner problem is the sign pattern q_bar * sign(p), reported
as the witness vector (sign(0) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gramian import GramianBundle
from .linalg import norm
from .signals import DisturbanceSignal
from .synthesis import _check_bundle, disturbance_response
from .systems import LtiSystem, StabilizationTask

__all__ = ["EnergyReport", "nominal_energy", "disturbed_signal_energy",
           "disturbed_energy_bound"]


@dataclass(frozen=True)
class EnergyReport:
    """Worst-case energy bound and its pieces.

    ``E_D_bound`` is assembled as exactly E_N + cross_term + c_term, so
    the bound can never dip below E_N. ``witness_q`` is the sign-pattern
    vector attaining the relaxed inner maximum.
    """

    E_N: float
    E_D_bound: float
    q_bar: float
    witness_q: np.ndarray
    c_term: float
    cross_term: float


def _half_weighted(bundle: GramianBundle, v: np.ndarray) -> np.ndarray:
    # diag(sqrt(lambda)) U^T v, the "half" of the W_B^{-1} quadratic form
    return np.sqrt(bundle.spec.lambdas) * (bundle.spec.U.T @ v)


def nominal_energy(sys: LtiSystem, task: StabilizationTask,
                   bundle: GramianBundle) -> float:
    """Minimum control energy stabilizing the nominal system from x0 at t_f."""
    _check_bundle(sys, task, bundle)
    h = _half_weighted(bundle, bundle.state_transition @ task.x0)
    return float(np.sum(h * h))


def disturbed_signal_energy(sys: LtiSystem, task: StabilizationTask,
                            bundle: GramianBundle, w: DisturbanceSignal) -> float:
    """Energy of the stabilizing control when disturbance w is known a priori."""
    _check_bundle(sys, task, bundle)
    R = disturbance_response(sys, w, task.t_f)
    h = _half_weighted(bundle, bundle.state_transition @ task.x0 + R)
    return float(np.sum(h * h))


def disturbed_energy_bound(sys: LtiSystem, task: StabilizationTask,
                           bundle: GramianBundle) -> EnergyReport:
    """Upper bound on the worst-case disturbed energy, with witness.

    With w_bar = 0 the report collapses to the nominal energy and a zero
    witness.
    """
    _check_bundle(sys, task, bundle)
    lam = bundle.spec.lambdas
    U = bundle.spec.U
    e_n = nominal_energy(sys, task, bundle)
    q_bar = task.w_bar * norm(U, "one") * bundle.v_bar_unit
    p = lam * (U.T @ (bundle.state_transition @ task.x0))
    cross = 2.0 * q_bar * float(np.sum(np.abs(p)))
    c_term = q_bar * q_bar * float(np.sum(lam))
    witness = q_bar * np.sign(p)
    witness.setflags(write=False)
    return EnergyReport(
        E_N=e_n,
        E_D_bound=e_n + cross + c_term,
        q_bar=float(q_bar),
        witness_q=witness,
        c_term=float(c_term),
        cross_term=float(cross),
    )


def energy_pair_for_response(bundle: GramianBundle, task: StabilizationTask,
                             R: np.ndarray):
    """Energies of the controls compensating +R and -R, from one response.

    Disturbance classes closed under negation come in (w, -w) pairs whose
    responses differ only in sign; sampling protocols that want the
    energy-increasing member of the pair can pick the larger of the two
    without integrating twice.
    """
    base = bundle.state_transition @ task.x0
    h_plus = _half_weighted(bundle, base + R)
    h_minus = _half_weighted(bundle, base - R)
    return float(np.sum(h_plus * h_plus)), float(np.sum(h_minus * h_minus))
