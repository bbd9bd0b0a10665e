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
from .errors import DomainError, IllConditionedError
from .gramian import GramianBundle
from .linalg import as_scalar, norm, sym_eig
from .systems import LtiSystem

__all__ = ["MetricReport", "additive_metric_bound", "multiplicative_metric_bound",
           "hardness", "metric_report"]


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


def _additive(sys: LtiSystem, bundle: GramianBundle, w_bar, R):
    # (r_A_bound, gamma, c_term) at a checked radius R, or elementwise at
    # an array of them
    if bundle.W_B.shape != (sys.n, sys.n):
        raise DomainError("bundle does not match system dimensions")
    q_bar, c_term = disturbance_terms(bundle, as_scalar(w_bar, "w_bar"))
    weighted = (bundle.spec.lambdas[:, None] * bundle.spec.U.T) @ bundle.state_transition
    gamma = 2.0 * q_bar * norm(weighted, "one")
    return c_term + gamma * R * np.sqrt(sys.n), gamma, c_term


def _l_min(bundle: GramianBundle) -> float:
    M = bundle.state_transition.T @ bundle.W_B_inv @ bundle.state_transition
    spec = sym_eig(0.5 * (M + M.T))
    l = float(spec.lambdas[-1])
    if l <= 0.0:
        raise IllConditionedError(
            f"energy quadratic form lost positive definiteness at t_f = "
            f"{bundle.t_f:g} (min eigenvalue {l:.3e})",
            estimate=spec.lambdas,
        )
    return l


def additive_metric_bound(sys: LtiSystem, bundle: GramianBundle, w_bar: float,
                          R: float) -> float:
    """Upper bound on the worst extra disturbed energy over ||x0||_2 <= R."""
    return _additive(sys, bundle, w_bar, as_scalar(R, "radius R"))[0]


def multiplicative_metric_bound(sys: LtiSystem, bundle: GramianBundle, w_bar: float,
                                R: float) -> float:
    """Lower bound on the nominal/disturbed energy ratio over ||x0||_2 >= R.

    Always in (0, 1]; equal to 1 when w_bar = 0 and nondecreasing in R.
    """
    return metric_report(sys, bundle, w_bar, R).r_M_bound


def hardness(R: float, t_f: float) -> float:
    """Hardness H = R / t_f of stabilizing from radius R within t_f."""
    return as_scalar(R, "radius R") / as_scalar(t_f, "t_f", positive=True)


def metric_report(sys: LtiSystem, bundle: GramianBundle, w_bar: float,
                  R: float) -> MetricReport:
    """Evaluate both bounds and hardness at one (R, t_f) grid point."""
    return _metric_reports(sys, bundle, w_bar, (R,))[0]


def _metric_reports(sys: LtiSystem, bundle: GramianBundle, w_bar: float,
                    R_grid) -> list:
    # metric_report at every R of R_grid: gamma, c and l_min depend on the
    # bundle alone, so they (and l_min's eigensolve) are computed once
    Rs = [as_scalar(R, "radius R", positive=True) for R in R_grid]
    r_A, gamma, c_term = _additive(sys, bundle, w_bar, np.array(Rs))
    l = _l_min(bundle)
    return [MetricReport(
        R=R,
        t_f=bundle.t_f,
        r_A_bound=r_A[j],
        r_M_bound=l * R * R / (l * R * R + gamma * R * np.sqrt(sys.n) + c_term),
        hardness=hardness(R, bundle.t_f),
        gamma=float(gamma),
        c_term=float(c_term),
        l_min=l,
    ) for j, R in enumerate(Rs)]
