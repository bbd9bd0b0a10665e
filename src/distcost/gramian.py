"""Finite-horizon controllability Gramian and the transition-norm integral.

The Gramian W_B = int_0^tf e^{At} B B^T e^{A^T t} dt is evaluated through
the exponential of the augmented block matrix [[A, BB^T], [0, -A^T]]*tf,
which reduces the integral to one expm call: with the result partitioned
into n x n blocks E11, E12 (top row), W_B = E12 @ E11^T and E11 = e^{A tf}.

A grid of horizons is built in three stacked passes (``build_bundles``):
one expm over every horizon's augmented matrix, one Jacobi eigensolve
over every W_B, and one level-by-level refinement of every horizon's norm
integral. Each horizon gets the bits it gets alone, and ``build_bundle``,
``controllability_gramian`` and ``norm_integral`` are grids of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IllConditionedError, NumericalError
from .linalg import (SpectralDecomposition, _sym_eigs, as_scalar, block_expm,
                     expm)
from .systems import LtiSystem

__all__ = ["GramianBundle", "controllability_gramian", "norm_integral", "build_bundle",
           "build_bundles"]

# lambda_max / lambda_min of W_B above this leaves W_B_inv with at most
# two correct digits in double precision, so the horizon is rejected
_CONDITION_LIMIT = 1e14
# adaptive Simpson on the norm integral: absolute tolerance is this times
# t_f, with at most _ADAPTIVE_DEPTH halvings of any subinterval
_NORM_INTEGRAL_TOL = 1e-9
_ADAPTIVE_DEPTH = 24
# a stacked call (the expm of one refinement level's nodes or of the
# augmented matrices of a horizon grid, the Jacobi eigensolve of its W_B)
# takes at most this many floats per stacked temporary, 2 MiB, with at
# least one matrix
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


def _overflow(t_f: float) -> IllConditionedError:
    return IllConditionedError(f"Gramian exponential overflows at horizon t_f = {t_f:g}")


def _cut(results: list, failure):
    # the results before the first exception, and that exception (or the
    # earlier stage's failure, which belongs to a later horizon)
    for i, r in enumerate(results):
        if isinstance(r, Exception):
            return results[:i], r
    return results, failure


def _gramians(sys: LtiSystem, hs: list) -> list:
    # (W_B, e^{A t_f}) per horizon, up to and including the first whose
    # exponential overflows, which gets its IllConditionedError. The Van
    # Loan exponentials of a block of horizons are one stacked expm.
    n = sys.n
    BBt = sys.B @ sys.B.T
    # M t_f has a non-finite entry exactly when its largest one overflows,
    # and such a horizon must not reach the stacked expm
    peak = max(np.max(np.abs(sys.A)), np.max(np.abs(BBt)))
    finite = np.isfinite(peak * np.array(hs))
    last = len(hs) if finite.all() else int(np.argmin(finite))
    block = max(1, _NODE_BLOCK // (2 * n) ** 2)
    out = []
    for i in range(0, last, block):
        ts = hs[i:min(i + block, last)]
        trans, E12 = block_expm(sys.A, BBt, -sys.A.T, np.array(ts))
        for t_f, T, E in zip(ts, trans, E12):
            W = E @ T.T
            W = 0.5 * (W + W.T)
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(T))):
                return out + [_overflow(t_f)]
            out.append((W, T))
    return out + [_overflow(t_f) for t_f in hs[last:last + 1]]


def _checked_eigs(Ws: list, hs: list) -> list:
    # the spectral factors of each W_B, up to and including the first
    # horizon whose eigensolve fails or whose W_B is numerically singular;
    # one stacked Jacobi call per block of horizons
    if not Ws:
        return []
    n = Ws[0].shape[0]
    block = max(1, _NODE_BLOCK // (2 * n * n))
    out = []
    for i in range(0, len(Ws), block):
        for spec, t_f in zip(_sym_eigs(np.stack(Ws[i:i + block])), hs[i:i + block]):
            if not isinstance(spec, NumericalError):
                spec = _condition_checked(spec, t_f)
            out.append(spec)
            if isinstance(spec, NumericalError):
                return out
    return out


def _condition_checked(spec: SpectralDecomposition, t_f: float):
    lam_max = spec.lambdas[0]
    lam_min = spec.lambdas[-1]
    if lam_min <= 0.0 or lam_max / lam_min > _CONDITION_LIMIT:
        cond = np.inf if lam_min <= 0.0 else lam_max / lam_min
        return IllConditionedError(
            f"Gramian is numerically singular at horizon t_f = {t_f:g} "
            f"(condition estimate {cond:.3e})",
            estimate=spec.lambdas,
            error_bound=cond,
        )
    return spec


def controllability_gramian(sys: LtiSystem, t_f) -> np.ndarray:
    """Finite-horizon controllability Gramian of (A, B) over [0, t_f].

    Returns the symmetrized W_B; raises IllConditionedError when the
    eigenvalue spread says the horizon is too short for the pair to be
    usefully controllable in double precision.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    gram, failure = _cut(_gramians(sys, [t_f]), None)
    _, failure = _cut(_checked_eigs([W for W, _ in gram], [t_f]), failure)
    if failure is not None:
        raise failure
    return gram[0][0]


def _node_norms(A: np.ndarray, s: np.ndarray) -> np.ndarray:
    # ||e^{A s_k}||_inf at every node s_k, one stacked expm per block
    block = max(1, _NODE_BLOCK // A.size)
    out = np.empty(len(s))
    for i in range(0, len(s), block):
        E = expm(A * s[i:i + block, None, None])
        out[i:i + block] = np.max(np.sum(np.abs(E), axis=-1), axis=-1)
    return out


def _norm_integrals(A: np.ndarray, hs: list) -> list:
    # the norm integral of every horizon of hs, or the NumericalError of
    # one that misses its tolerance; see norm_integral
    if not hs:
        return []
    t_f = np.array(hs)
    tol = _NORM_INTEGRAL_TOL * t_f

    # one level of every horizon's panel tree, one column per panel: the
    # owning horizon, ends a and b, midpoint m, the integrand at all
    # three and the panel's Simpson value
    own = np.arange(len(hs))
    a, m, b = np.zeros(len(hs)), 0.5 * t_f, t_f
    fa, fm, fb = np.split(_node_norms(A, np.concatenate([a, m, b])), 3)
    S = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol_d = tol
    accepted = []  # (owners, left ends, values, error shares) per level
    for d in range(_ADAPTIVE_DEPTH + 1):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = np.split(_node_norms(A, np.concatenate([lm, rm])), 2)
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
        # the two halves of each panel that is split
        both = np.concatenate([split, split])
        halves = np.concatenate([np.stack([a, lm, m, fa, flm, fm, Sl]),
                                 np.stack([m, rm, b, fm, frm, fb, Sr])], axis=1)
        a, m, b, fa, fm, fb, S = halves[:, both]
        own = np.concatenate([own, own])[both]
        tol_d = 0.5 * tol_d

    owner, left, value, share = (np.concatenate(c) for c in zip(*accepted))
    # by horizon, and within one in the depth-first order (descending left
    # end); cumsum adds one term at a time, as the depth-first loop did
    order = np.lexsort((-left, owner))
    ends = np.searchsorted(owner[order], np.arange(1, len(hs) + 1))
    out = []
    for h, panels in enumerate(np.split(order, ends[:-1])):
        total = float(np.cumsum(value[panels])[-1])
        err_total = float(np.cumsum(share[panels])[-1])
        if err_total > tol[h]:
            out.append(NumericalError(
                f"norm integral error estimate {err_total:.3e} misses tolerance "
                f"{tol[h]:.3e} within depth {_ADAPTIVE_DEPTH}",
                estimate=total,
                error_bound=err_total,
                iterations=_ADAPTIVE_DEPTH,
            ))
        else:
            out.append(total)
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
    of a level share one stacked ``expm`` call; ``build_bundles`` refines
    the trees of all its horizons together this way. Whether a panel is
    split depends on that panel alone, so the panels are those of a
    depth-first refinement; the accepted ones are summed in depth-first
    order (descending left end), which keeps the result and the error
    estimate bit-for-bit those of the depth-first loop.
    """
    t_f = as_scalar(t_f, "horizon t_f", positive=True)
    (v,) = _norm_integrals(sys.A, [t_f])
    if isinstance(v, NumericalError):
        raise v
    return v


def build_bundles(sys: LtiSystem, tf_grid) -> list:
    """The GramianBundle of (sys, t_f) for every t_f of ``tf_grid``, in
    the grid's order, each bit-for-bit what ``build_bundle`` gives.

    The work is three stacked passes over the distinct horizons: one
    ``expm`` of all Van Loan blocks, one Jacobi eigensolve of all W_B
    and one level-by-level refinement of all norm integrals, the first
    two in blocks of at most ``_NODE_BLOCK`` floats. A horizon that fails
    a pass is left out of the later ones. The error raised is that of the
    first failing horizon in grid order, which is the error
    ``build_bundle`` raises on it: an invalid horizon, then an overflowing
    exponential, a failed eigensolve or a singular W_B, then a norm
    integral that misses its tolerance. Repeated horizons share a bundle.
    """
    hs, failure = [], None
    for t_f in tf_grid:
        try:
            hs.append(as_scalar(t_f, "horizon t_f", positive=True))
        except DomainError as exc:
            failure = exc
            break
    uniq = list(dict.fromkeys(hs))
    gram, failure = _cut(_gramians(sys, uniq), failure)
    specs, failure = _cut(_checked_eigs([W for W, _ in gram], uniq), failure)
    v_units, failure = _cut(_norm_integrals(sys.A, uniq[:len(specs)]), failure)
    if failure is not None:
        raise failure
    bundles = {t_f: _assemble(sys, t_f, W, trans, spec, v_unit)
               for t_f, (W, trans), spec, v_unit in zip(uniq, gram, specs, v_units)}
    return [bundles[t_f] for t_f in hs]


def _assemble(sys: LtiSystem, t_f: float, W: np.ndarray, trans: np.ndarray,
              spec_w: SpectralDecomposition, v_unit: float) -> GramianBundle:
    # W_B is inverted through its own spectral factors (eigenvalues
    # inverted, eigenvectors shared), which keeps W_B_inv exactly symmetric
    # and hands the factors of W_B_inv to the worst-case energy bound
    inv_lam = 1.0 / spec_w.lambdas[::-1]
    inv_U = np.ascontiguousarray(spec_w.U[:, ::-1])
    inv_lam.setflags(write=False)
    inv_U.setflags(write=False)
    spec_inv = SpectralDecomposition(U=inv_U, lambdas=inv_lam)
    W_inv = spec_inv.reconstruct()
    W_inv = 0.5 * (W_inv + W_inv.T)

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


def build_bundle(sys: LtiSystem, t_f) -> GramianBundle:
    """Assemble the GramianBundle for (sys, t_f): ``build_bundles`` on a
    grid of one horizon."""
    return build_bundles(sys, [t_f])[0]
