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
# a stacked expm over the nodes of one refinement level takes at most this
# many floats per (nodes, n, n) temporary, 2 MiB, with at least one node
_NODE_BLOCK = 1 << 18


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


def _node_norms(A: np.ndarray, s: np.ndarray) -> np.ndarray:
    # ||e^{A s_k}||_inf at every node s_k, one stacked expm per block
    block = max(1, _NODE_BLOCK // A.size)
    out = np.empty(len(s))
    for i in range(0, len(s), block):
        E = expm(A * s[i:i + block, None, None])
        out[i:i + block] = np.max(np.sum(np.abs(E), axis=-1), axis=-1)
    return out


def norm_integral(sys: LtiSystem, t_f) -> float:
    """int_0^tf ||e^{A(tf-t)}||_inf dt by adaptive composite Simpson.

    By the substitution s = tf - t this equals int_0^tf ||e^{As}||_inf ds,
    which is the form actually integrated. Absolute tolerance is
    ``_NORM_INTEGRAL_TOL * t_f``, halved with each halving of a panel. A
    subinterval still short of its share after ``_ADAPTIVE_DEPTH``
    halvings, as at a kink of the integrand, adds a pessimistic 15 |err|
    to the error estimate; NumericalError, carrying the estimate and
    error bound, is raised only when that total misses the tolerance.

    The panel tree is refined one level at a time, and all new midpoints
    of a level share one stacked ``expm`` call. Whether a panel is split
    depends on that panel alone, so the panels are those of a depth-first
    refinement; the accepted ones are summed in depth-first order
    (descending left end), which keeps the result and the error estimate
    bit-for-bit those of the depth-first loop.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    A = sys.A
    tol = _NORM_INTEGRAL_TOL * t_f

    # one level of the panel tree, one column per panel: ends a and b,
    # midpoint m, the integrand at all three and the panel's Simpson value
    a, m, b = np.array([0.0]), np.array([0.5 * t_f]), np.array([t_f])
    fa, fm, fb = np.split(_node_norms(A, np.concatenate([a, m, b])), 3)
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol_d = tol
    accepted = []  # (left ends, values, error shares), one entry per level
    for d in range(_ADAPTIVE_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.split(_node_norms(A, np.concatenate([lm, rm])), 2)
        Sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        Sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (Sl + Sr - S) / 15.0
        ok = np.abs(err) <= tol_d
        split = ~ok & (d < _ADAPTIVE_DEPTH)
        keep = ~split
        accepted.append((a[keep], (Sl + Sr + err)[keep],
                         np.where(ok, np.abs(err), np.abs(err) * 15.0)[keep]))
        if not split.any():
            break
        # the two halves of each panel that is split
        halves = np.concatenate([np.stack([a, lm, m, fa, flm, fm, Sl]),
                                 np.stack([m, rm, b, fm, frm, fb, Sr])], axis=1)
        a, m, b, fa, fm, fb, S = halves[:, np.concatenate([split, split])]
        tol_d = 0.5 * tol_d

    left, value, share = (np.concatenate(c) for c in zip(*accepted))
    total = 0.0
    err_total = 0.0
    for i in np.argsort(left)[::-1]:  # the depth-first order
        total += value[i]
        err_total += share[i]
    total, err_total = float(total), float(err_total)
    if err_total > tol:
        raise NumericalError(
            f"norm integral error estimate {err_total:.3e} misses tolerance "
            f"{tol:.3e} within depth {_ADAPTIVE_DEPTH}",
            estimate=total,
            error_bound=err_total,
            iterations=_ADAPTIVE_DEPTH,
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
