"""Finite-horizon controllability Gramian and the transition-norm integral.

The Gramian W_B = int_0^tf e^{At} B B^T e^{A^T t} dt is evaluated through
the exponential of the augmented block matrix [[A, BB^T], [0, -A^T]]*tf,
which reduces the integral to one expm call: with the result partitioned
into n x n blocks E11, E12 (top row), W_B = E12 @ E11^T and E11 = e^{A tf}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError, NumericalError
from .linalg import SpectralDecomposition, block_expm, expm, sym_eig
from .settings import DEFAULT_SETTINGS, NumericSettings
from .systems import LtiSystem

__all__ = ["GramianBundle", "controllability_gramian", "norm_integral", "build_bundle"]


@dataclass(frozen=True)
class GramianBundle:
    """Everything the energy and metric formulas need for one horizon.

    ``spec`` factors W_B_inv (eigenvalues descending), ``state_transition``
    is e^{A t_f}, and ``v_bar_unit`` is the unit-amplitude value of the
    disturbance norm integral int_0^tf ||e^{A(tf-t)}||_inf dt.
    """

    W_B: np.ndarray
    W_B_inv: np.ndarray
    spec: SpectralDecomposition
    t_f: float
    v_bar_unit: float
    state_transition: np.ndarray


def _check_horizon(t_f) -> float:
    t_f = float(t_f)
    if not np.isfinite(t_f) or t_f <= 0.0:
        raise DomainError(f"horizon t_f must be positive and finite, got {t_f}")
    return t_f


def _gramian_and_transition(sys: LtiSystem, t_f: float):
    trans, E12 = block_expm(sys.A, sys.B @ sys.B.T, -sys.A.T, t_f)
    W = E12 @ trans.T
    W = 0.5 * (W + W.T)
    return W, trans


def controllability_gramian(sys: LtiSystem, t_f,
                            settings: NumericSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Finite-horizon controllability Gramian of (A, B) over [0, t_f].

    Returns the symmetrized W_B; raises IllConditionedError when the
    eigenvalue spread says the horizon is too short for the pair to be
    usefully controllable in double precision.
    """
    t_f = _check_horizon(t_f)
    W, _ = _gramian_and_transition(sys, t_f)
    _checked_eig(W, t_f, settings)
    return W


def _checked_eig(W: np.ndarray, t_f: float,
                 settings: NumericSettings = DEFAULT_SETTINGS) -> SpectralDecomposition:
    spec = sym_eig(W, settings)
    lam_max = spec.lambdas[0]
    lam_min = spec.lambdas[-1]
    if lam_min <= 0.0 or lam_max / lam_min > settings.gramian_condition_limit:
        cond = np.inf if lam_min <= 0.0 else lam_max / lam_min
        raise IllConditionedError(
            f"Gramian is numerically singular at horizon t_f = {t_f:g} "
            f"(condition estimate {cond:.3e})",
            estimate=spec.lambdas,
            error_bound=cond,
        )
    return spec


def norm_integral(sys: LtiSystem, t_f, settings: NumericSettings = DEFAULT_SETTINGS) -> float:
    """int_0^tf ||e^{A(tf-t)}||_inf dt by adaptive composite Simpson.

    By the substitution s = tf - t this equals int_0^tf ||e^{As}||_inf ds,
    which is the form actually integrated. Absolute tolerance is
    ``settings.norm_integral_tol * t_f``; exhausting the halving depth
    raises NumericalError carrying the achieved estimate and error bound.
    """
    t_f = _check_horizon(t_f)
    A = sys.A

    def f(s: float) -> float:
        E = expm(A * s)
        return float(np.max(np.sum(np.abs(E), axis=1)))

    tol = settings.norm_integral_tol * t_f
    depth_limit = settings.adaptive_depth

    a, b = 0.0, t_f
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    # iterative adaptive Simpson; each stack entry is one subinterval with
    # its endpoint/midpoint values, Simpson value, tolerance share and depth
    total = 0.0
    err_total = 0.0
    bad = 0
    stack = [(a, m, b, fa, fm, fb, whole, tol, 0)]
    while stack:
        a0, m0, b0, f0, f1, f2, S0, tol0, d = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = f(lm)
        frm = f(rm)
        Sl = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        Sr = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        err = (Sl + Sr - S0) / 15.0
        if abs(err) <= tol0:
            total += Sl + Sr + err
            err_total += abs(err)
        elif d >= depth_limit:
            total += Sl + Sr + err
            err_total += abs(err) * 15.0
            bad += 1
        else:
            stack.append((a0, lm, m0, f0, flm, f1, Sl, 0.5 * tol0, d + 1))
            stack.append((m0, rm, b0, f1, frm, f2, Sr, 0.5 * tol0, d + 1))
    if bad:
        raise NumericalError(
            f"norm integral did not reach tolerance {tol:.3e} within depth "
            f"{depth_limit} on {bad} subintervals",
            estimate=total,
            error_bound=err_total,
            iterations=depth_limit,
        )
    return total


def build_bundle(sys: LtiSystem, t_f,
                 settings: NumericSettings = DEFAULT_SETTINGS) -> GramianBundle:
    """Assemble the GramianBundle for (sys, t_f).

    W_B is inverted through its own spectral factors (eigenvalues inverted,
    eigenvectors shared), which keeps W_B_inv exactly symmetric and hands
    the factors of W_B_inv to the worst-case energy bound for free.
    """
    t_f = _check_horizon(t_f)
    W, trans = _gramian_and_transition(sys, t_f)
    spec_w = _checked_eig(W, t_f, settings)

    inv_lam = 1.0 / spec_w.lambdas[::-1]
    inv_U = np.ascontiguousarray(spec_w.U[:, ::-1])
    inv_lam.setflags(write=False)
    inv_U.setflags(write=False)
    spec_inv = SpectralDecomposition(U=inv_U, lambdas=inv_lam)
    W_inv = spec_inv.reconstruct()
    W_inv = 0.5 * (W_inv + W_inv.T)

    v_unit = norm_integral(sys, t_f, settings)

    for arr in (W, W_inv, trans):
        arr.setflags(write=False)
    return GramianBundle(
        W_B=W,
        W_B_inv=W_inv,
        spec=spec_inv,
        t_f=t_f,
        v_bar_unit=v_unit,
        state_transition=trans,
    )
