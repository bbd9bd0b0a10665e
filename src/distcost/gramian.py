"""Finite-horizon controllability Gramian and the transition-norm integral.

The Gramian W_B = int_0^tf e^{At} B B^T e^{A^T t} dt is evaluated through
the exponential of the augmented block matrix [[A, BB^T], [0, -A^T]]*tf,
which reduces the integral to one expm call: with the result partitioned
into n x n blocks E11, E12 (top row), W_B = E12 @ E11^T and E11 = e^{A tf}.

A grid of horizons is built in three stacked stages (``build_bundles``):
one expm over every horizon's augmented matrix, one Jacobi call over
every W_B for W_B^{-1}'s factors, and one level-by-level adaptive Simpson
refinement of every horizon's norm integral. The refinement's nodes are
propagated (e^{A(a+h)} = e^{Aa} e^{Ah}): each new node is one product of
a panel's carried exponential with its level's step, and each level
takes one stacked expm of those steps. Each horizon gets the bits it
gets alone, and fails alone as in the grid, which a failed grid replays
one horizon at a time. ``build_bundle`` is a grid of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DistcostError, IllConditionedError, NumericalError
from .linalg import SpectralDecomposition, as_scalar, block_expm, expm
from .systems import LtiSystem

__all__ = ["GramianBundle", "build_bundle", "build_bundles"]

# Jacobi stops when off(W) <= _JACOBI_OFF_TOL * ||W||_F, which leaves the
# eigenvalues accurate to about that relative level
_JACOBI_OFF_TOL = 1e-12
# cyclic Jacobi converges quadratically, so only a broken input hits this
_JACOBI_MAX_SWEEPS = 100
# lambda_max / lambda_min of W_B above this leaves W_B^{-1} with at most
# two correct digits in double precision, so the horizon is rejected
_CONDITION_LIMIT = 1e14
# adaptive Simpson on the norm integral: absolute tolerance is this times
# t_f, with at most _ADAPTIVE_DEPTH halvings of any subinterval
_NORM_INTEGRAL_TOL = 1e-9
_ADAPTIVE_DEPTH = 24


@dataclass(frozen=True)
class GramianBundle:
    """Everything the energy and metric formulas need for one horizon.

    ``spec`` factors W_B^{-1} (eigenvalues descending), ``state_transition``
    is e^{A t_f}, and ``v_bar_unit`` is the unit-amplitude value of the
    disturbance norm integral int_0^tf ||e^{A(tf-t)}||_inf dt. ``system``
    is the pair the bundle was built from: every consumer reads (A, B)
    from it, so no second system can be passed beside the bundle.
    """

    W_B: np.ndarray
    spec: SpectralDecomposition
    t_f: float
    v_bar_unit: float
    state_transition: np.ndarray
    system: LtiSystem


def _overflow(t_f: float) -> IllConditionedError:
    return IllConditionedError(f"Gramian exponential overflows at horizon t_f = {t_f:g}")


def _gramians(sys: LtiSystem, hs: list) -> list:
    # read-only (W_B, e^{A t_f}) per horizon from one stacked Van Loan
    # expm, or the IllConditionedError of the first horizon whose
    # exponential overflows. Overflow is found by the finiteness checks,
    # not reported by numpy.
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        BBt = sys.B @ sys.B.T
        # M t_f has a non-finite entry exactly when its largest one
        # overflows, and such a horizon must not reach the stacked expm
        peak = max(np.max(np.abs(sys.A)), np.max(np.abs(BBt)))
        finite = np.isfinite(peak * np.array(hs))
        if not finite.all():
            raise _overflow(hs[int(np.argmin(finite))])
        trans, E12 = block_expm(sys.A, BBt, -sys.A.T, np.array(hs))
        trans.setflags(write=False)
        for t_f, T, E in zip(hs, trans, E12):
            W = E @ T.T
            W = 0.5 * (W + W.T)
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(T))):
                raise _overflow(t_f)
            W.setflags(write=False)
            out.append((W, T))
    return out


def _inverse_factors(Ws: list, hs: list) -> list:
    # W_B^{-1}'s factors (eigenvalues descending: W_B's eigenvectors, its
    # eigenvalues ascending and inverted) from one Jacobi call on the stack
    # of W_B, or the error of the first horizon whose eigensolve does not
    # converge or loses orthogonality, or whose W_B is singular: an
    # eigenvalue ratio past _CONDITION_LIMIT, or a smallest eigenvalue (a
    # subnormal one) with no finite reciprocal. Tied eigenvalues go last
    # index first, the reverse of a stable descending sort. No test warns.
    diag, V, off, sweeps, thresh = _k.jacobi_core(np.stack(Ws), _JACOBI_OFF_TOL,
                                                  _JACOBI_MAX_SWEEPS)
    n = diag.shape[-1]
    out = []
    for t_f, d, Vi, off_i, sweeps_i, thresh_i in zip(hs, diag, V, off, sweeps.tolist(),
                                                      thresh):
        if off_i > thresh_i:
            raise NumericalError(
                f"Jacobi iteration did not converge in {sweeps_i} sweeps "
                f"(off-diagonal norm {off_i:.3e}, threshold {thresh_i:.3e})",
                estimate=d,
                error_bound=off_i,
                iterations=sweeps_i,
            )
        order = np.lexsort((-np.arange(n), d))
        lam = d[order]
        U = np.ascontiguousarray(Vi[:, order])
        if np.max(np.abs(U.T @ U - np.eye(n))) > 1e-10 * n:
            raise NumericalError(
                "eigenvector matrix lost orthogonality", estimate=lam[::-1],
                iterations=sweeps_i)
        with np.errstate(over="ignore", divide="ignore"):
            inv_lam = 1.0 / lam
            cond = lam[-1] / lam[0] if lam[0] > 0.0 else np.inf
        if cond > _CONDITION_LIMIT or np.isinf(inv_lam[0]):
            reason = (f"condition estimate {cond:.3e}" if cond > _CONDITION_LIMIT
                      else f"smallest eigenvalue {lam[0]:.3e} has no finite reciprocal")
            raise IllConditionedError(
                f"Gramian is numerically singular at horizon t_f = {t_f:g} ({reason})",
                estimate=lam[::-1],
                error_bound=cond,
            )
        inv_lam.setflags(write=False)
        U.setflags(write=False)
        out.append(SpectralDecomposition(U=U, lambdas=inv_lam))
    return out


def _inf_norms(E: np.ndarray) -> np.ndarray:
    return np.max(np.sum(np.abs(E), axis=-1), axis=-1)


def _norm_integrals(A: np.ndarray, hs: list) -> list:
    # v_bar_unit = int_0^tf ||e^{A(tf-t)}||_inf dt = int_0^tf ||e^{As}||_inf ds
    # for every horizon of hs by adaptive composite Simpson, or the
    # NumericalError, carrying estimate and error bound, of the first whose
    # error estimate misses its tolerance. The absolute tolerance is
    # _NORM_INTEGRAL_TOL * t_f, halved with each halving of a panel; a
    # panel still short of its share after _ADAPTIVE_DEPTH halvings, as at
    # a kink of the integrand, adds a pessimistic 15 |err| to the estimate
    # instead of failing on its own. Whether a panel is split depends on
    # that panel alone, so refining every tree one level at a time gives
    # the panels of a depth-first refinement; summed in depth-first
    # order, the result and the error estimate are bit-for-bit those of
    # the depth-first loop with the same node rule.
    #
    # The node rule is propagation (e^{A(a + h)} = e^{Aa} e^{Ah}): every
    # open panel [a, b] of width w carries e^{Aa} and e^{Am} at its
    # midpoint m, and the level's new midpoints a + w/4 and m + w/4 are
    # one stacked product with the horizon's step e^{A t_f / 2^(d+2)} at
    # level d. The root nodes e^{A t_f/2} and e^{A t_f} are one stacked
    # expm, and each level's steps one more, over the horizons that still
    # have open panels. A node at level d is a product of at most d + 2
    # factors, so its rounding stays bounded by the depth budget, and
    # each horizon's steps depend on its own t_f alone.
    t_f = np.array(hs)
    tol = _NORM_INTEGRAL_TOL * t_f

    # one level of every horizon's panel tree, one column per panel: the
    # owning horizon, ends a and b, midpoint m, the integrand at all
    # three and the panel's Simpson value; Ea and Em are e^{Aa} and e^{Am}
    H = len(hs)
    own = np.arange(H)
    a, m, b = np.zeros(H), 0.5 * t_f, t_f
    roots = expm(A * np.concatenate([m, b])[:, None, None])
    Ea, Em = np.broadcast_to(np.eye(A.shape[0]), (H,) + A.shape), roots[:H]
    fa, fm, fb = np.ones(H), _inf_norms(Em), _inf_norms(roots[H:])
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol_d = tol
    accepted = []  # (owners, left ends, values, error shares) per level
    for d in range(_ADAPTIVE_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        live = np.zeros(H, dtype=bool)
        live[own] = True
        steps = np.empty((H,) + A.shape)
        steps[live] = expm(A * np.ldexp(t_f[live], -(d + 2))[:, None, None])
        # E holds e^{A lm} and e^{A rm}, the products of F = (e^{Aa},
        # e^{Am}) with their steps
        F = np.concatenate([Ea, Em])
        E = F @ steps[np.concatenate([own, own])]
        flm, frm = np.split(_inf_norms(E), 2)
        Sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        Sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (Sl + Sr - S) / 15.0
        ok = np.abs(err) <= tol_d[own]
        split = ~ok & (d < _ADAPTIVE_DEPTH)
        keep = ~split
        accepted.append((own[keep], a[keep], (Sl + Sr + err)[keep],
                         np.where(ok, np.abs(err), np.abs(err) * 15.0)[keep]))
        if not split.any():
            break
        # the two halves of each panel that is split: [a, m] carries
        # (e^{Aa}, e^{A lm}) and [m, b] carries (e^{Am}, e^{A rm})
        both = np.concatenate([split, split])
        halves = np.concatenate([np.stack([a, lm, m, fa, flm, fm, Sl]),
                                 np.stack([m, rm, b, fm, frm, fb, Sr])], axis=1)
        a, m, b, fa, fm, fb, S = halves[:, both]
        Ea, Em = F[both], E[both]
        own = np.concatenate([own, own])[both]
        tol_d = 0.5 * tol_d

    owner, left, value, share = (np.concatenate(c) for c in zip(*accepted))
    # by horizon, and within one in the depth-first order (descending left
    # end); bincount adds its weights one at a time in that order, as the
    # depth-first loop did
    order = np.lexsort((-left, owner))
    totals, err_totals = (np.bincount(owner[order], weights=x[order], minlength=H)
                          for x in (value, share))
    for h in range(H):
        if err_totals[h] > tol[h]:
            raise NumericalError(
                f"norm integral error estimate {err_totals[h]:.3e} misses tolerance "
                f"{tol[h]:.3e} within depth {_ADAPTIVE_DEPTH}",
                estimate=float(totals[h]),
                error_bound=float(err_totals[h]),
                iterations=_ADAPTIVE_DEPTH,
            )
    return totals.tolist()


def build_bundles(sys: LtiSystem, tf_grid) -> list:
    """The GramianBundle of (sys, t_f) for every t_f of ``tf_grid``, in
    the grid's order, each bit-for-bit what ``build_bundle`` gives.

    The work is three stacked stages over the distinct horizons: one
    ``expm`` of all Van Loan blocks, one Jacobi call on all W_B for the
    factors of W_B^{-1} and one level-by-level refinement of all norm
    integrals. The error raised is the one ``build_bundle`` raises on the
    first failing horizon in grid order: an invalid horizon, an
    overflowing exponential, a failed eigensolve or a singular W_B, or a
    norm integral that misses its tolerance. A grid that fails is built
    again one horizon at a time until one fails. Repeated horizons share
    a bundle.
    """
    grid = list(tf_grid)
    if not grid:
        return []
    try:
        hs = [as_scalar(t_f, "horizon t_f", positive=True) for t_f in grid]
        uniq = list(dict.fromkeys(hs))
        gram = _gramians(sys, uniq)
        specs = _inverse_factors([W for W, _ in gram], uniq)
        v_units = _norm_integrals(sys.A, uniq)
    except DistcostError:
        if len(grid) > 1:
            for t_f in grid:
                build_bundles(sys, [t_f])
        raise
    bundles = {t_f: GramianBundle(W_B=W, spec=spec, t_f=t_f, v_bar_unit=v_unit,
                                  state_transition=trans, system=sys)
               for t_f, (W, trans), spec, v_unit in zip(uniq, gram, specs, v_units)}
    return [bundles[t_f] for t_f in hs]


def build_bundle(sys: LtiSystem, t_f) -> GramianBundle:
    """Assemble the GramianBundle for (sys, t_f): ``build_bundles`` on a
    grid of one horizon."""
    return build_bundles(sys, [t_f])[0]
