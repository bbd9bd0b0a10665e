"""Finite-horizon controllability Gramian and the transition-norm integral.

The Gramian W_B = int_0^tf e^{At} B B^T e^{A^T t} dt is evaluated through
the exponential of the augmented block matrix [[A, BB^T], [0, -A^T]]*tf,
which reduces the integral to one expm call: with the result partitioned
into n x n blocks E11, E12 (top row), W_B = E12 @ E11^T and E11 = e^{A tf}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError, NumericalError
from .linalg import SpectralDecomposition, as_scalar, block_expm, expm, sym_eig
from .systems import LtiSystem

__all__ = ["GramianBundle", "controllability_gramian", "norm_integral", "build_bundle"]

# lambda_max / lambda_min of W_B above this leaves W_B_inv with at most
# two correct digits in double precision, so the horizon is rejected
_CONDITION_LIMIT = 1e14
# adaptive Simpson on the norm integral: absolute tolerance is this times
# t_f, with at most _ADAPTIVE_DEPTH halvings of any subinterval
_NORM_INTEGRAL_TOL = 1e-9
_ADAPTIVE_DEPTH = 24


@dataclass(frozen=True)
class GramianBundle:
    """Everything the energy and metric formulas need for one horizon.

    ``spec`` factors W_B_inv (eigenvalues descending), ``state_transition``
    is e^{A t_f}, and ``v_bar_unit`` is the unit-amplitude value of the
    disturbance norm integral int_0^tf ||e^{A(tf-t)}||_inf dt. ``system``
    is the pair the bundle was built from: every consumer reads (A, B)
    from it, so no second system can be passed beside the bundle.
    """

    W_B: np.ndarray
    W_B_inv: np.ndarray
    spec: SpectralDecomposition
    t_f: float
    v_bar_unit: float
    state_transition: np.ndarray
    system: LtiSystem


def _gramian_and_transition(sys: LtiSystem, t_f: float):
    trans, E12 = block_expm(sys.A, sys.B @ sys.B.T, -sys.A.T, t_f)
    W = E12 @ trans.T
    W = 0.5 * (W + W.T)
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(trans))):
        raise IllConditionedError(
            f"Gramian exponential overflows at horizon t_f = {t_f:g}")
    return W, trans


def controllability_gramian(sys: LtiSystem, t_f) -> np.ndarray:
    """Finite-horizon controllability Gramian of (A, B) over [0, t_f].

    Returns the symmetrized W_B; raises IllConditionedError when the
    eigenvalue spread says the horizon is too short for the pair to be
    usefully controllable in double precision.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    W, _ = _gramian_and_transition(sys, t_f)
    _checked_eig(W, t_f)
    return W


def _checked_eig(W: np.ndarray, t_f: float) -> SpectralDecomposition:
    spec = sym_eig(W)
    lam_max = spec.lambdas[0]
    lam_min = spec.lambdas[-1]
    if lam_min <= 0.0 or lam_max / lam_min > _CONDITION_LIMIT:
        cond = np.inf if lam_min <= 0.0 else lam_max / lam_min
        raise IllConditionedError(
            f"Gramian is numerically singular at horizon t_f = {t_f:g} "
            f"(condition estimate {cond:.3e})",
            estimate=spec.lambdas,
            error_bound=cond,
        )
    return spec


def norm_integral(sys: LtiSystem, t_f) -> float:
    """int_0^tf ||e^{A(tf-t)}||_inf dt by adaptive composite Simpson.

    By the substitution s = tf - t this equals int_0^tf ||e^{As}||_inf ds,
    which is the form actually integrated. Absolute tolerance is
    ``_NORM_INTEGRAL_TOL * t_f``. A subinterval still short of its share
    after ``_ADAPTIVE_DEPTH`` halvings, as at a kink of the integrand,
    adds a pessimistic 15 |err| to the error estimate; NumericalError,
    carrying the estimate and error bound, is raised only when that
    total misses the tolerance.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    A = sys.A

    def f(s: float) -> float:
        E = expm(A * s)
        return float(np.max(np.sum(np.abs(E), axis=1)))

    tol = _NORM_INTEGRAL_TOL * t_f
    depth_limit = _ADAPTIVE_DEPTH

    a, b = 0.0, t_f
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    # iterative adaptive Simpson; each stack entry is one subinterval with
    # its endpoint/midpoint values, Simpson value, tolerance share and depth
    total = 0.0
    err_total = 0.0
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
        else:
            stack.append((a0, lm, m0, f0, flm, f1, Sl, 0.5 * tol0, d + 1))
            stack.append((m0, rm, b0, f1, frm, f2, Sr, 0.5 * tol0, d + 1))
    if err_total > tol:
        raise NumericalError(
            f"norm integral error estimate {err_total:.3e} misses tolerance "
            f"{tol:.3e} within depth {depth_limit}",
            estimate=total,
            error_bound=err_total,
            iterations=depth_limit,
        )
    return total


def build_bundle(sys: LtiSystem, t_f) -> GramianBundle:
    """Assemble the GramianBundle for (sys, t_f).

    W_B is inverted through its own spectral factors (eigenvalues inverted,
    eigenvectors shared), which keeps W_B_inv exactly symmetric and hands
    the factors of W_B_inv to the worst-case energy bound for free.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    W, trans = _gramian_and_transition(sys, t_f)
    spec_w = _checked_eig(W, t_f)

    inv_lam = 1.0 / spec_w.lambdas[::-1]
    inv_U = np.ascontiguousarray(spec_w.U[:, ::-1])
    inv_lam.setflags(write=False)
    inv_U.setflags(write=False)
    spec_inv = SpectralDecomposition(U=inv_U, lambdas=inv_lam)
    W_inv = spec_inv.reconstruct()
    W_inv = 0.5 * (W_inv + W_inv.T)

    v_unit = norm_integral(sys, t_f)

    for arr in (W, W_inv, trans):
        arr.setflags(write=False)
    return GramianBundle(
        W_B=W,
        W_B_inv=W_inv,
        spec=spec_inv,
        t_f=t_f,
        v_bar_unit=v_unit,
        state_transition=trans,
        system=sys,
    )
