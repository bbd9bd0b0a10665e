"""Grid sweeps and sampled evidence behind the CLI commands.

Everything here is deterministic given (seed, grid): child seeds are
derived from the master seed and the grid/draw indices alone, never from
execution order. A grid point's sampled evidence calls the module that
owns each formula over a leading sample axis: the energies and the
E_D_bound assembly of ``energy``, the piecewise draws of ``signals`` and
their responses from ``synthesis``.

The bound-accuracy table is one pass over its horizon grid: after
``build_bundles``, two stacked exponentials give every horizon's
responses, the piecewise draws come from one vector of child seeds, and
the sign search builds each block of patterns once for all horizons.
"""

from __future__ import annotations

import numpy as np

from .energy import (disturbance_terms, disturbed_energy_bound,
                     energy_bound_rows, weighted_energies)
from .errors import DomainError
from .gramian import GramianBundle, build_bundles
from .linalg import as_scalar, as_vector, as_whole, block_expm
from .metrics import MetricReport, _metric_reports
from .signals import (derive_seed, derive_seeds, make_disturbance,
                      piecewise_cell_values, uniform_stream)
from .synthesis import (_sinusoid_exosystem, cell_propagators, fold_cells,
                        piecewise_response)
from .systems import LtiSystem, StabilizationTask

__all__ = ["sample_gaussians", "sample_sphere", "sample_ball",
           "worst_constant_sign", "bound_accuracy_rows", "metrics_sweep_rows",
           "DEFAULT_R_GRID", "DEFAULT_TF_GRID", "DEFAULT_ACCURACY_TF_GRID"]

# engineering defaults for the sweep grids: chosen inside the hardness
# regime where both bounds are informative (see README, config reference)
DEFAULT_R_GRID = (31.6, 100.0, 316.0, 1000.0)
DEFAULT_TF_GRID = (0.1, 0.25, 0.5, 1.0)
DEFAULT_ACCURACY_TF_GRID = (0.1, 0.5, 1.0, 2.0, 5.0)

# disturbance-draw grid resolution used by the sampled-evidence columns
EVIDENCE_CELLS = 100

# sign patterns per block of the constant-class search: a few MB of
# temporaries at n = 20, where all 2^20 patterns at once would take
# 160 MiB per array
_SIGN_BLOCK = 1 << 14

# piecewise cell values per block of sphere samples in the multiplicative
# evidence: 2 MiB per (samples, cells, n) temporary for any config, with
# at least one sample per block
_SAMPLE_BLOCK = 1 << 18


def _box_muller(u: np.ndarray, dim: int) -> np.ndarray:
    # (count, dim) standard normals, one (radius, angle) pair per two
    # columns (u[:, 2i], u[:, 2i+1]) of the uniforms
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    th = 2.0 * np.pi * u[:, 1::2]
    g = np.empty(u.shape)
    g[:, 0::2] = r * np.cos(th)
    g[:, 1::2] = r * np.sin(th)
    return g[:, :dim]


def sample_gaussians(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) standard normals via Box-Muller on the uniform stream.

    Sample i consumes draws [i*D, (i+1)*D) with D = 2*ceil(dim/2), so any
    sample can be regenerated in isolation.
    """
    count, dim = as_whole(count, "count", 0), as_whole(dim, "dim", 1)
    D = 2 * ((dim + 1) // 2)
    return _box_muller(uniform_stream(seed, 0, count * D).reshape(count, D), dim)


def sample_sphere(seed: int, count: int, dim: int, radius: float) -> np.ndarray:
    """(count, dim) points uniform on the sphere of the given radius."""
    radius = as_scalar(radius, "radius")
    g = sample_gaussians(seed, count, dim)
    nrm = np.sqrt(np.sum(g * g, axis=1))
    nrm[nrm == 0.0] = 1.0
    return radius * g / nrm[:, None]


def sample_ball(seed: int, count: int, dim: int, radius: float) -> np.ndarray:
    """(count, dim) points uniform in the ball; one extra draw per sample
    sets the radius as radius * u^(1/dim)."""
    radius = as_scalar(radius, "radius")
    count, dim = as_whole(count, "count", 0), as_whole(dim, "dim", 1)
    D = 2 * ((dim + 1) // 2) + 1
    u = uniform_stream(seed, 0, count * D).reshape(count, D)
    g = _box_muller(u[:, :-1], dim)
    nrm = np.sqrt(np.sum(g * g, axis=1))
    nrm[nrm == 0.0] = 1.0
    scale = radius * u[:, -1] ** (1.0 / dim)
    return g * (scale / nrm)[:, None]


def _require_sign_search(n: int):
    if n > 20:
        raise DomainError("exhaustive sign search is limited to n <= 20")


def _worst_signs(w_bar: float, bundles, bases, Js) -> np.ndarray:
    # the worst pattern of every horizon h, from its bundle, its e^{A t_f} x0
    # (bases[h]) and its J(t_f) (Js[h]): each block of patterns is built
    # once, and each horizon takes one matmul and one weighted_energies
    # call on it. A (horizons, patterns, n) block would hold every
    # horizon's responses at once, for more memory and no less time.
    n = len(bases[0])
    shifts = np.arange(n - 1, -1, -1)
    total = 1 << n
    best, best_k = [-np.inf] * len(bundles), [0] * len(bundles)
    for start in range(0, total, _SIGN_BLOCK):
        k = np.arange(start, min(start + _SIGN_BLOCK, total))
        W = w_bar * (1.0 - 2.0 * ((k[:, None] >> shifts) & 1))
        for h, (bundle, base, J) in enumerate(zip(bundles, bases, Js)):
            # the direct sum of squares: the expanded quadratic in s cancels
            # when ||x0|| is large
            e = weighted_energies(bundle, base + W @ J.T)
            i = int(np.argmax(e))
            if e[i] > best[h]:
                best[h], best_k[h] = e[i], start + i
    return 1.0 - 2.0 * ((np.array(best_k)[:, None] >> shifts) & 1)


def worst_constant_sign(task: StabilizationTask, bundle: GramianBundle) -> np.ndarray:
    """The sign pattern s maximizing the energy of compensating w = w_bar*s.

    Exhaustive over the 2^n patterns (n <= 20); the disturbed energy is
    convex quadratic in the constant value, so the maximum over the
    amplitude box is attained at a vertex. Patterns are enumerated in
    ``itertools.product((1.0, -1.0), repeat=n)`` order, pattern k having
    s_j = 1 - 2 * bit (n-1-j) of k, in blocks of ``_SIGN_BLOCK`` rows:
    each block's responses are one matmul with J(t_f) = int_0^tf e^{As} ds,
    and its energies one ``weighted_energies`` call. Among equal energies
    the first pattern in that order wins. This is the search of
    ``bound_accuracy_rows`` on a grid of one horizon.
    """
    sys = bundle.system
    _require_sign_search(sys.n)
    J = cell_propagators(sys, task.t_f)[1]
    return _worst_signs(task.w_bar, [bundle], [bundle.state_transition @ task.x0], [J])[0]


def bound_accuracy_rows(sys: LtiSystem, x0: np.ndarray, w_bar: float,
                        tf_grid, seed: int = 0, cells: int = EVIDENCE_CELLS):
    """Ratio ||u_D||^2 / E_D_bound per horizon and disturbance class.

    Returns a list of dict rows, one per t_f of ``tf_grid`` in grid order
    (an empty grid gives none), with a ratio column for each of the
    constant, sinusoid and piecewise classes. The piecewise class of
    horizon i draws from the child seed ``derive_seed(seed, 1, i)``.

    The grid is one pass after ``build_bundles``: one ``block_expm`` of
    every horizon's t_f and t_f / cells gives J(t_f) for the sign search
    and the constant class and the cell propagators of the piecewise
    class, one more gives every sinusoid response, and the sign search
    builds each block of patterns once for all horizons. Every ratio is
    bit-for-bit what a horizon-by-horizon evaluation gives.

    Errors, first one wins: a failing bundle (``build_bundles``); an
    invalid x0 or w_bar; then, horizon by horizon, an x0 of the wrong
    length (DimensionError) or an overflowing E_D_bound (NumericalError);
    then an invalid seed or cell count; then n > 20 for the sign search.
    Every bound is checked before anything is drawn or searched.
    """
    bundles = build_bundles(sys, tf_grid)
    if not bundles:
        return []
    tasks = [StabilizationTask(x0=x0, t_f=b.t_f, w_bar=w_bar) for b in bundles]
    bounds = [disturbed_energy_bound(task, b).E_D_bound for task, b in zip(tasks, bundles)]
    w_bar, n, H = tasks[0].w_bar, sys.n, len(bundles)
    seeds = derive_seeds(seed, H, 1)
    values = piecewise_cell_values(seeds, w_bar,
                                   as_whole(cells, "piecewise_uniform cells", 1), n)
    _require_sign_search(n)

    ts = np.array([task.t_f for task in tasks])
    Phi, J = cell_propagators(sys, np.concatenate([ts, ts / values.shape[-2]]))
    bases = [b.state_transition @ task.x0 for task, b in zip(tasks, bundles)]
    signs = _worst_signs(w_bar, bundles, bases, J[:H])
    C, S, z0 = _sinusoid_exosystem(make_disturbance("sinusoid", w_bar, n))
    sinusoid = block_expm(sys.A, C, S, ts)[1]

    rows = []
    for h, (bundle, bound) in enumerate(zip(bundles, bounds)):
        responses = {
            "constant": fold_cells(w_bar * signs[h][None], Phi[h], J[h]),
            "sinusoid": sinusoid[h] @ z0,
            "piecewise": fold_cells(values[h], Phi[H + h], J[H + h]),
        }
        row = {"t_f": bundle.t_f}
        for kind, R in responses.items():
            row[f"ratio_{kind}"] = float(weighted_energies(bundle, bases[h] + R) / bound)
        rows.append(row)
    return rows


def _sweep_point(bundle: GramianBundle, rep: MetricReport, w_bar: float,
                 x0_dir: np.ndarray, samples: int, seed: int, cells: int):
    t_f, R, n = bundle.t_f, rep.R, bundle.system.n
    task_rep = StabilizationTask(x0=R * x0_dir, t_f=t_f, w_bar=w_bar)
    report = disturbed_energy_bound(task_rep, bundle)
    Phi_T = bundle.state_transition.T

    # additive evidence: the worst-case extra energy E_D_bound - E_N of
    # disturbed_energy_bound at every nonzero ball sample
    ball = sample_ball(derive_seed(seed, 2), samples, n, R)
    base = ball[np.any(ball != 0.0, axis=1)] @ Phi_T
    e_n, _, _, bound = energy_bound_rows(bundle, base, *disturbance_terms(bundle, w_bar))
    diff = bound - e_n

    # multiplicative evidence: energy ratios on the sphere, one seeded
    # piecewise draw per sample (the stream of derive_seed(seed, 4, i)),
    # flipped to the energy-increasing member of (w, -w), the responses
    # of a block of samples in one piecewise_response call
    sphere = sample_sphere(derive_seed(seed, 3), samples, n, R)
    seeds = derive_seeds(seed, samples, 4)
    block = max(1, _SAMPLE_BLOCK // (cells * n))
    ratio_min, ratio_max = np.inf, -np.inf
    for start in range(0, samples, block):
        values = piecewise_cell_values(seeds[start:start + block], w_bar, cells, n)
        resp = piecewise_response(bundle.system, values, t_f)
        base = sphere[start:start + block] @ Phi_T
        e_d = np.maximum(weighted_energies(bundle, base + resp),
                         weighted_energies(bundle, base - resp))
        ratio = weighted_energies(bundle, base) / e_d
        ratio_min = min(ratio_min, float(np.min(ratio)))
        ratio_max = max(ratio_max, float(np.max(ratio)))

    return {
        "R": float(R),
        "t_f": float(t_f),
        "H": rep.hardness,
        "r_A_bound": float(rep.r_A_bound),
        "r_M_bound": float(rep.r_M_bound),
        "E_N": report.E_N,
        "E_D_bound": report.E_D_bound,
        "diff_min": float(np.min(diff, initial=np.inf)),
        "diff_max": float(np.max(diff, initial=-np.inf)),
        "ratio_min": ratio_min,
        "ratio_max": ratio_max,
    }


def metrics_sweep_rows(sys: LtiSystem, x0_dir: np.ndarray, w_bar: float,
                       R_grid=DEFAULT_R_GRID, tf_grid=DEFAULT_TF_GRID,
                       samples: int = 500, seed: int = 0,
                       cells: int = EVIDENCE_CELLS):
    """Metric bounds plus sampled evidence over the (R, t_f) grid.

    Rows come back in grid order (t_f outer, R inner); the child seed of
    a point depends only on its grid indices. ``x0_dir`` fixes the
    direction of the representative initial state R * x0_dir reported in
    the E_N / E_D_bound columns.
    """
    samples, cells = as_whole(samples, "samples", 1), as_whole(cells, "cells", 1)
    x0_dir = as_vector(x0_dir, "x0")
    if not np.any(x0_dir):
        raise DomainError("x0 direction must be nonzero")
    with np.errstate(over="ignore"):
        nrm = float(np.sqrt(np.sum(x0_dir * x0_dir)))
    if nrm == 0.0 or not np.isfinite(nrm):
        # the squares underflow or overflow: the direction of x0 / max|x0|
        # is the same, and its norm lies in [1, sqrt(n)]
        x0_dir = x0_dir / np.max(np.abs(x0_dir))
        nrm = float(np.sqrt(np.sum(x0_dir * x0_dir)))
    x0_dir = x0_dir / nrm

    bundles = dict(zip(map(float, tf_grid), build_bundles(sys, tf_grid)))
    reports = {t_f: _metric_reports(bundle, w_bar, R_grid)
               for t_f, bundle in bundles.items()}
    return [_sweep_point(bundles[float(t_f)], rep, float(w_bar), x0_dir,
                         samples, derive_seed(seed, i, j), cells)
            for i, t_f in enumerate(tf_grid)
            for j, rep in enumerate(reports[float(t_f)])]
