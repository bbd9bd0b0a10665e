"""Cost-of-disturbance metric bounds and the hardness measure.

Over initial states of radius R the extra energy a worst-case disturbance
can extort is bounded by the additive metric
    r_A_bound = c + gamma * R * sqrt(n),
and the energy ratio nominal/disturbed is bounded from below by the
multiplicative metric
    r_M_bound = l R^2 / (l R^2 + gamma R sqrt(n) + c),
where gamma = 2 q_bar ||diag(lambda) U^T e^{A t_f}||_1 (induced 1-norm),
c = q_bar^2 sum(lambda), and l is the smallest eigenvalue of
e^{A^T t_f} W_B^{-1} e^{A t_f}. Hardness is the ratio R / t_f: far
initial states and short deadlines make stabilization expensive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import disturbance_terms
from .errors import IllConditionedError, NumericalError
from .gramian import GramianBundle
from .linalg import _sym_eigs, as_scalar

__all__ = ["MetricReport", "hardness", "metric_report"]


@dataclass(frozen=True)
class MetricReport:
    """Both metric bounds at one (R, t_f) point, plus their ingredients."""

    R: float
    t_f: float
    r_A_bound: float
    r_M_bound: float
    hardness: float
    gamma: float
    c_term: float
    l_min: float


def _additive(bundle: GramianBundle, w_bar, R):
    # (r_A_bound, gamma, c_term) at a checked radius R, or elementwise at
    # an array of them
    q_bar, c_term = disturbance_terms(bundle, as_scalar(w_bar, "w_bar"))
    weighted = (bundle.spec.lambdas[:, None] * bundle.spec.U.T) @ bundle.state_transition
    gamma = 2.0 * q_bar * float(np.max(np.sum(np.abs(weighted), axis=0)))
    return c_term + gamma * R * np.sqrt(bundle.system.n), gamma, c_term


def _l_min(bundle: GramianBundle) -> float:
    W_inv = bundle.spec.reconstruct()
    W_inv = 0.5 * (W_inv + W_inv.T)
    M = bundle.state_transition.T @ W_inv @ bundle.state_transition
    spec = _sym_eigs((0.5 * (M + M.T))[None])[0]
    if isinstance(spec, NumericalError):
        raise spec
    l = float(spec.lambdas[-1])
    if l <= 0.0:
        raise IllConditionedError(
            f"energy quadratic form lost positive definiteness at t_f = "
            f"{bundle.t_f:g} (min eigenvalue {l:.3e})",
            estimate=spec.lambdas,
        )
    return l


def hardness(R: float, t_f: float) -> float:
    """Hardness H = R / t_f of stabilizing from radius R within t_f."""
    return as_scalar(R, "radius R") / as_scalar(t_f, "t_f", positive=True)


def metric_report(bundle: GramianBundle, w_bar: float, R: float) -> MetricReport:
    """Evaluate both bounds and hardness at one (R, t_f) grid point."""
    return _metric_reports(bundle, w_bar, (R,))[0]


def _metric_reports(bundle: GramianBundle, w_bar: float, R_grid) -> list:
    # metric_report at every R of R_grid: gamma, c and l_min depend on the
    # bundle alone, so they (and l_min's eigensolve) are computed once
    Rs = [as_scalar(R, "radius R", positive=True) for R in R_grid]
    # an overflow leaves a bound inf or nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        r_A, gamma, c_term = _additive(bundle, w_bar, np.array(Rs))
        l = _l_min(bundle)
        r_M = [l * R * R / (l * R * R + gamma * R * np.sqrt(bundle.system.n) + c_term)
               for R in Rs]
    for R, a, m in zip(Rs, r_A, r_M):
        if not (np.isfinite(a) and np.isfinite(m)):
            raise NumericalError(
                f"metric bounds at R = {R:g}, t_f = {bundle.t_f:g} are not finite "
                f"(r_A_bound = {float(a)!r}, r_M_bound = {float(m)!r})")
    return [MetricReport(
        R=R,
        t_f=bundle.t_f,
        r_A_bound=r_A[j],
        r_M_bound=r_M[j],
        hardness=hardness(R, bundle.t_f),
        gamma=float(gamma),
        c_term=float(c_term),
        l_min=l,
    ) for j, R in enumerate(Rs)]
