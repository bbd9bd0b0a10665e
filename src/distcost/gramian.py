"""Finite-horizon controllability Gramian and the transition-norm integral.

The Gramian W_B = int_0^tf e^{At} B B^T e^{A^T t} dt is evaluated through
the exponential of the augmented block matrix [[A, BB^T], [0, -A^T]]*tf,
which reduces the integral to one expm call: with the result partitioned
into n x n blocks E11, E12 (top row), W_B = E12 @ E11^T and E11 = e^{A tf}.

A grid of horizons is built in three stacked stages (``build_bundles``):
one expm over every horizon's augmented matrix, one Jacobi call over
every W_B for W_B^{-1}'s factors, and the norm integrals
int_0^tf ||e^{As}||_inf ds in closed form: between breakpoints, found on a
grid of nodes and bisected, each is the 1-norm of a row of a difference
of J(t) = int_0^t e^{As} ds, the Van Loan block of [[A, I], [0, 0]] t.
Each horizon's grid depends on its own t_f alone, so each horizon gets
the bits it gets alone, and fails alone as in the grid, which a failed
grid replays one horizon at a time. ``build_bundle`` is a grid of one.
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
# the norm integral bisects an interval of its grid's spacing h down to
# width h 2^-_HALVINGS, half the bits of a double: a breakpoint's sliver
# costs an error quadratic in its width, below rounding there
_HALVINGS = (np.finfo(float).nmant + 1) // 2


@dataclass(frozen=True)
class GramianBundle:
    """Everything the energy and metric formulas need for one horizon.

    ``spec`` factors W_B^{-1} (eigenvalues descending), ``state_transition``
    is e^{A t_f}, and ``v_bar_unit`` is the unit-amplitude value of the
    disturbance norm integral int_0^tf ||e^{A(tf-t)}||_inf dt, in closed
    form between the breakpoints of its integrand. ``system``
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


def _keys(E: np.ndarray):
    # each matrix's key: the row attaining ||E||_inf and the signs of its
    # entries. Rows and entries within n ulps of the norm count as tied and
    # as 0: tied rows take the first, and a 0 sign (a structural zero, a
    # tangency) matches either sign
    r = np.sum(np.abs(E), axis=-1)
    top = np.max(r, axis=-1)
    tiny = E.shape[-1] * np.finfo(float).eps * top
    row = np.argmax(r >= (top - tiny)[:, None], axis=-1)
    Er = E[np.arange(len(E)), row]
    return row, np.where(np.abs(Er) > tiny[:, None], np.sign(Er), 0.0)


def _conflict(row_a, fil_a, row_b, sig_b):
    # whether a breakpoint lies between a point a and the next, b; fil_a
    # holds a's signs with each 0 carried from the last nonzero one
    return (row_a != row_b) | np.any(fil_a * sig_b < 0.0, axis=-1)


def _not_finite(hs: list, owner: np.ndarray, finite: np.ndarray) -> None:
    if not finite.all():
        raise NumericalError("norm integral is not finite at horizon "
                             f"t_f = {hs[int(owner[~finite].min())]:g}")


def _panels(A: np.ndarray, hs: list):
    # every horizon's panels, on each of which the row attaining
    # ||e^{As}||_inf and the signs of its entries stay fixed, as the arrays
    # (owner, right edge, row) by horizon and then by edge. A grid has
    # spacing h = t_f / 2^k, the largest with h ||A||_1 <= 1, and nodes
    # s0 = h 2^-_HALVINGS, h, 2h, ..., t_f; node j in (m, 2m] is node j - m
    # times node m. Each interval whose end keys conflict is bisected
    # _HALVINGS times, one level of all at a time, and its midpoint is a
    # breakpoint.
    H, n = len(hs), A.shape[0]
    t_f = np.array(hs)
    with np.errstate(divide="ignore"):
        k = np.maximum(np.ceil(np.log2(np.abs(A).sum(axis=0).max()) + np.log2(t_f)), 0.0)
    if k.max() > _HALVINGS:
        # the bisection would go below the spacing of doubles at t_f
        raise NumericalError(f"norm integral needs more than 2^{_HALVINGS} grid steps at "
                             f"horizon t_f = {hs[int(np.argmax(k > _HALVINGS))]:g}")
    k = k.astype(np.int64)
    h, N = np.ldexp(t_f, -k), 1 << k
    pos = h[:, None] * np.arange(N.max() + 1)
    pos[:, 0] = np.ldexp(h, -_HALVINGS)
    # G[i, j] is node j of horizon i, and 0 past its t_f
    G = np.zeros(pos.shape + A.shape)
    G[:, :2] = expm((A * pos[:, :2, None, None]).reshape(-1, n, n)).reshape(H, 2, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(k.max()):
            m, live = 1 << r, k > r
            G[live, m + 1:2 * m + 1] = G[live, 1:m + 1] @ G[live, m:m + 1]
    _not_finite(hs, np.arange(H), np.all(np.isfinite(G), axis=(1, 2, 3)))
    row, sig = (x.reshape(pos.shape + x.shape[1:]) for x in _keys(G.reshape(-1, n, n)))
    # each 0 sign carries the last nonzero one of its run of one row
    idx = np.arange(pos.shape[1])
    start = np.ones(row.shape, dtype=bool)
    start[:, 1:] = row[:, 1:] != row[:, :-1]
    last = np.where((sig != 0.0) | start[..., None], idx[:, None], 0)
    fil = np.take_along_axis(sig, np.maximum.accumulate(last, axis=1), axis=1)

    # the open intervals: owner, ends a and b, e^{Aa}, a's row and carried
    # signs, b's row and signs
    own, j = np.nonzero(_conflict(row[:, :-1], fil[:, :-1], row[:, 1:], sig[:, 1:])
                        & (idx[:-1] < N[:, None]))
    iv = (own, pos[own, j], pos[own, j + 1], G[own, j], row[own, j], fil[own, j],
          row[own, j + 1], sig[own, j + 1])
    for _ in range(_HALVINGS):
        own, a, b, Ea, ra, fa, rb, sb = iv
        if not len(own):
            break
        half = 0.5 * (b - a)
        with np.errstate(over="ignore", invalid="ignore"):
            Em = Ea @ expm(A * half[:, None, None])
        _not_finite(hs, own, np.all(np.isfinite(Em), axis=(1, 2)))
        rm, sm = _keys(Em)
        fm = np.where((rm == ra)[:, None] & (sm == 0.0), fa, sm)
        lt, rt = _conflict(ra, fa, rm, sm), _conflict(rm, fm, rb, sb)
        mid = a + half
        iv = tuple(np.concatenate([x[lt], y[rt]]) for x, y in
                   zip((own, a, mid, Ea, ra, fa, rm, sm), (own, mid, b, Em, rm, fm, rb, sb)))

    # a panel ends at a breakpoint, with the row of the point before it, or
    # at t_f, with the row of the horizon's last node
    own, a, b, _, ra = iv[:5]
    owner, edge = np.concatenate([own, np.arange(H)]), np.concatenate([a + 0.5 * (b - a), t_f])
    order = np.lexsort((edge, owner))
    return owner[order], edge[order], np.concatenate([ra, row[np.arange(H), N]])[order]


def _norm_integrals(A: np.ndarray, hs: list) -> list:
    # v_bar_unit = int_0^tf ||e^{As}||_inf ds for every horizon of hs, or
    # the NumericalError of the first whose grid is too fine or whose nodes
    # or J are not finite. On a panel [c, e] with row i, whose entries keep
    # their signs, the integral is sum_j |(J(e) - J(c))_ij|, with
    # J(t) = int_0^t e^{As} ds from one stacked Van Loan exponential at
    # every panel edge.
    n = A.shape[0]
    if not A.any():
        # e^{As} = I: exactly t_f, where J's Pade solve may round it down
        return list(hs)
    owner, edge, row = _panels(A, hs)
    with np.errstate(over="ignore", invalid="ignore"):
        J = block_expm(A, np.eye(n), np.zeros((n, n)), edge)[1]
    _not_finite(hs, owner, np.all(np.isfinite(J), axis=(1, 2)))
    panel = np.arange(len(edge))
    first = np.r_[True, owner[1:] != owner[:-1]]
    before = np.where(first[:, None], 0.0, J[panel - 1, row])
    value = np.sum(np.abs(J[panel, row] - before), axis=-1)
    return np.bincount(owner, weights=value, minlength=len(hs)).tolist()


def build_bundles(sys: LtiSystem, tf_grid) -> list:
    """The GramianBundle of (sys, t_f) for every t_f of ``tf_grid``, in
    the grid's order, each bit-for-bit what ``build_bundle`` gives.

    The work is three stacked stages over the distinct horizons: one
    ``expm`` of all Van Loan blocks, one Jacobi call on all W_B for the
    factors of W_B^{-1}, and all norm integrals in closed form, whose grid
    nodes, bisection levels and J blocks are each stacked over the grid.
    The error raised is the one ``build_bundle`` raises on the first
    failing horizon in grid order: an invalid horizon, an overflowing
    exponential, a failed eigensolve or a singular W_B, or a norm integral
    that is not finite or needs more than 2^26 grid steps. A grid that
    fails is built again one horizon at a time until one fails. Repeated
    horizons share a bundle.
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
