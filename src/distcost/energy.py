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

from .errors import NumericalError
from .gramian import GramianBundle
from .signals import DisturbanceSignal
from .synthesis import _check_bundle, disturbance_response
from .systems import StabilizationTask

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


def weighted_energies(bundle: GramianBundle, X: np.ndarray):
    """||diag(sqrt(lambda)) U^T x||^2, the W_B^{-1} quadratic form, for x = X
    or for every row x of X."""
    H = np.sqrt(bundle.spec.lambdas) * (X @ bundle.spec.U)
    return np.sum(H * H, axis=-1)


def nominal_energy(task: StabilizationTask, bundle: GramianBundle) -> float:
    """Minimum control energy stabilizing the bundle's system from x0 at t_f."""
    _check_bundle(bundle, task)
    return float(weighted_energies(bundle, bundle.state_transition @ task.x0))


def disturbed_signal_energy(task: StabilizationTask, bundle: GramianBundle,
                            w: DisturbanceSignal) -> float:
    """Energy of the stabilizing control when disturbance w is known a
    priori. Raises NumericalError when it overflows."""
    _check_bundle(bundle, task)
    R = disturbance_response(bundle.system, w, task.t_f)
    energy = float(weighted_energies(bundle, bundle.state_transition @ task.x0 + R))
    if not np.isfinite(energy):
        raise NumericalError(f"disturbed signal energy {energy!r} is not finite")
    return energy


def disturbance_terms(bundle: GramianBundle, w_bar: float):
    """(q_bar, c_term) for disturbances bounded by w_bar: q_bar bounds each
    entry of U^T R(w, t_f), and c_term = q_bar^2 sum(lambda)."""
    U_one = float(np.max(np.sum(np.abs(bundle.spec.U), axis=0)))  # ||U||_1
    q_bar = w_bar * U_one * bundle.v_bar_unit
    return q_bar, q_bar * q_bar * float(np.sum(bundle.spec.lambdas))


def disturbed_energy_bound(task: StabilizationTask, bundle: GramianBundle) -> EnergyReport:
    """Upper bound on the worst-case disturbed energy, with witness.

    With w_bar = 0 the report collapses to the nominal energy and a zero
    witness. Raises NumericalError when the bound overflows; E_N is
    never above it, so both are then finite.
    """
    _check_bundle(bundle, task)
    q_bar, c_term = disturbance_terms(bundle, task.w_bar)
    # an overflow leaves the bound inf or nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        e_n, p, cross, bound = energy_bound_rows(
            bundle, bundle.state_transition @ task.x0, q_bar, c_term)
    if not np.isfinite(bound):
        raise NumericalError(
            f"disturbed energy bound E_D_bound = {float(bound)!r} is not finite")
    witness = q_bar * np.sign(p)
    witness.setflags(write=False)
    return EnergyReport(
        E_N=float(e_n),
        E_D_bound=float(bound),
        q_bar=float(q_bar),
        witness_q=witness,
        c_term=float(c_term),
        cross_term=float(cross),
    )


def energy_bound_rows(bundle: GramianBundle, X: np.ndarray, q_bar: float,
                      c_term: float):
    """(E_N, p, cross_term, E_D_bound) for X = e^{A t_f} x0, or for every
    row of X, with (q_bar, c_term) from ``disturbance_terms``.

    p = diag(lambda) U^T X, cross_term = 2 q_bar ||p||_1, and E_D_bound is
    assembled as E_N + cross_term + c_term.
    """
    e_n = weighted_energies(bundle, X)
    p = bundle.spec.lambdas * (X @ bundle.spec.U)
    cross = 2.0 * q_bar * np.sum(np.abs(p), axis=-1)
    return e_n, p, cross, e_n + cross + c_term
