"""Grid sweeps and sampled evidence behind the CLI commands.

Everything here is deterministic given (seed, grid): child seeds are
derived from the master seed and the grid/draw indices alone, never from
execution order, so sweeps parallelize across grid points without
changing a single output bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np

from .energy import (disturbed_energy_bound, disturbed_signal_energy,
                     energy_pair_for_response, nominal_energy)
from .errors import DomainError
from .gramian import GramianBundle, build_bundle
from .linalg import block_expm
from .metrics import metric_report
from .settings import DEFAULT_SETTINGS, NumericSettings
from .signals import derive_seed, make_disturbance, uniform_stream
from .synthesis import disturbance_response
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


def sample_gaussians(seed: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) standard normals via Box-Muller on the uniform stream.

    Sample i consumes draws [i*D, (i+1)*D) with D = 2*ceil(dim/2), so any
    sample can be regenerated in isolation.
    """
    pairs = (dim + 1) // 2
    D = 2 * pairs
    u = uniform_stream(seed, 0, count * D).reshape(count, D)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
    th = 2.0 * np.pi * u[:, 1::2]
    g = np.empty((count, D))
    g[:, 0::2] = r * np.cos(th)
    g[:, 1::2] = r * np.sin(th)
    return g[:, :dim]


def sample_sphere(seed: int, count: int, dim: int, radius: float) -> np.ndarray:
    """(count, dim) points uniform on the sphere of the given radius."""
    g = sample_gaussians(seed, count, dim)
    nrm = np.sqrt(np.sum(g * g, axis=1))
    nrm[nrm == 0.0] = 1.0
    return radius * g / nrm[:, None]


def sample_ball(seed: int, count: int, dim: int, radius: float) -> np.ndarray:
    """(count, dim) points uniform in the ball; one extra draw per sample
    sets the radius as radius * u^(1/dim)."""
    pairs = (dim + 1) // 2
    D = 2 * pairs + 1
    u = uniform_stream(seed, 0, count * D).reshape(count, D)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0:-1:2]))
    th = 2.0 * np.pi * u[:, 1:-1:2]
    g = np.empty((count, 2 * pairs))
    g[:, 0::2] = r * np.cos(th)
    g[:, 1::2] = r * np.sin(th)
    g = g[:, :dim]
    nrm = np.sqrt(np.sum(g * g, axis=1))
    nrm[nrm == 0.0] = 1.0
    scale = radius * u[:, -1] ** (1.0 / dim)
    return g * (scale / nrm)[:, None]


def transition_integral(sys: LtiSystem, t_f: float) -> np.ndarray:
    """int_0^tf e^{As} ds through one augmented exponential."""
    n = sys.n
    return block_expm(sys.A, np.eye(n), np.zeros((n, n)), t_f)[1]


def worst_constant_sign(sys: LtiSystem, task: StabilizationTask,
                        bundle: GramianBundle) -> np.ndarray:
    """The sign pattern s maximizing the energy of compensating w = w_bar*s.

    Exhaustive over the 2^n patterns; the disturbed energy is convex
    quadratic in the constant value, so the maximum over the amplitude
    box is attained at a vertex.
    """
    n = sys.n
    if n > 20:
        raise DomainError("exhaustive sign search is limited to n <= 20")
    V = transition_integral(sys, task.t_f)
    base = bundle.state_transition @ task.x0
    lam = bundle.spec.lambdas
    Ut = bundle.spec.U.T
    best, best_s = -np.inf, None
    for bits in product((1.0, -1.0), repeat=n):
        s = np.array(bits)
        h = np.sqrt(lam) * (Ut @ (base + V @ (task.w_bar * s)))
        e = float(np.sum(h * h))
        if e > best:
            best, best_s = e, s
    return best_s


def _class_signal(kind: str, sys: LtiSystem, task: StabilizationTask,
                  bundle: GramianBundle, seed: int, cells: int):
    if kind == "constant":
        s = worst_constant_sign(sys, task, bundle)
        return make_disturbance("constant_sign", task.w_bar, sys.n, sign_vector=s)
    if kind == "sinusoid":
        return make_disturbance("sinusoid", task.w_bar, sys.n)
    if kind == "piecewise":
        return make_disturbance("piecewise_uniform", task.w_bar, sys.n, seed=seed,
                                cells=cells, horizon=task.t_f)
    raise DomainError(f"unknown disturbance class {kind!r}")


def bound_accuracy_rows(sys: LtiSystem, x0: np.ndarray, w_bar: float,
                        tf_grid, classes=("constant", "sinusoid", "piecewise"),
                        seed: int = 0, cells: int = EVIDENCE_CELLS,
                        settings: NumericSettings = DEFAULT_SETTINGS):
    """Ratio ||u_D||^2 / E_D_bound per horizon and disturbance class.

    Returns a list of dict rows, one per t_f, with a ratio column per
    class. The piecewise class gets a child seed per horizon index.
    """
    rows = []
    for i, t_f in enumerate(tf_grid):
        bundle = build_bundle(sys, t_f, settings)
        task = StabilizationTask(x0=x0, t_f=float(t_f), w_bar=w_bar)
        bound = disturbed_energy_bound(sys, task, bundle).E_D_bound
        row = {"t_f": float(t_f)}
        for kind in classes:
            w = _class_signal(kind, sys, task, bundle, derive_seed(seed, 1, i), cells)
            e = disturbed_signal_energy(sys, task, bundle, w)
            row[f"ratio_{kind}"] = float(e / bound)
        rows.append(row)
    return rows


def _sweep_point(sys: LtiSystem, bundle: GramianBundle, w_bar: float, R: float,
                 x0_dir: np.ndarray, samples: int, seed: int, cells: int,
                 settings: NumericSettings):
    t_f = bundle.t_f
    rep = metric_report(sys, bundle, w_bar, R, settings)
    x0_rep = R * x0_dir
    task_rep = StabilizationTask(x0=x0_rep, t_f=t_f, w_bar=w_bar)
    e_n_rep = nominal_energy(sys, task_rep, bundle)
    e_bound_rep = disturbed_energy_bound(sys, task_rep, bundle).E_D_bound

    # additive evidence: worst-case extra energy over the ball
    ball = sample_ball(derive_seed(seed, 2), samples, sys.n, R)
    diff_min, diff_max = np.inf, -np.inf
    for x0 in ball:
        if not np.any(x0 != 0.0):
            continue
        task = StabilizationTask(x0=x0, t_f=t_f, w_bar=w_bar)
        r = disturbed_energy_bound(sys, task, bundle)
        d = r.E_D_bound - r.E_N
        diff_min = min(diff_min, d)
        diff_max = max(diff_max, d)

    # multiplicative evidence: energy ratios on the sphere, one seeded
    # draw per sample, flipped to the energy-increasing member of (w, -w)
    sphere = sample_sphere(derive_seed(seed, 3), samples, sys.n, R)
    ratio_min, ratio_max = np.inf, -np.inf
    for i, x0 in enumerate(sphere):
        task = StabilizationTask(x0=x0, t_f=t_f, w_bar=w_bar)
        w = make_disturbance("piecewise_uniform", w_bar, sys.n,
                             seed=derive_seed(seed, 4, i), cells=cells,
                             horizon=t_f)
        resp = disturbance_response(sys, w, t_f)
        e_plus, e_minus = energy_pair_for_response(bundle, task, resp)
        e_d = max(e_plus, e_minus)
        ratio = nominal_energy(sys, task, bundle) / e_d
        ratio_min = min(ratio_min, ratio)
        ratio_max = max(ratio_max, ratio)

    return {
        "R": float(R),
        "t_f": float(t_f),
        "H": float(R) / float(t_f),
        "r_A_bound": float(rep.r_A_bound),
        "r_M_bound": float(rep.r_M_bound),
        "E_N": float(e_n_rep),
        "E_D_bound": float(e_bound_rep),
        "diff_min": float(diff_min),
        "diff_max": float(diff_max),
        "ratio_min": float(ratio_min),
        "ratio_max": float(ratio_max),
    }


def metrics_sweep_rows(sys: LtiSystem, x0_dir: np.ndarray, w_bar: float,
                       R_grid=DEFAULT_R_GRID, tf_grid=DEFAULT_TF_GRID,
                       samples: int = 500, seed: int = 0,
                       cells: int = EVIDENCE_CELLS, workers: int = 1,
                       settings: NumericSettings = DEFAULT_SETTINGS):
    """Metric bounds plus sampled evidence over the (R, t_f) grid.

    Rows come back in grid order (t_f outer, R inner) regardless of the
    worker count; the child seed of a point depends only on its grid
    indices. ``x0_dir`` fixes the direction of the representative initial
    state R * x0_dir reported in the E_N / E_D_bound columns.
    """
    x0_dir = np.asarray(x0_dir, dtype=np.float64)
    nrm = float(np.sqrt(np.sum(x0_dir * x0_dir)))
    if nrm == 0.0:
        raise DomainError("x0 direction must be nonzero")
    x0_dir = x0_dir / nrm

    bundles = {float(t_f): build_bundle(sys, t_f, settings) for t_f in tf_grid}
    points = [(i, j, float(t_f), float(R))
              for i, t_f in enumerate(tf_grid) for j, R in enumerate(R_grid)]

    def run(pt):
        i, j, t_f, R = pt
        return _sweep_point(sys, bundles[t_f], w_bar, R, x0_dir, samples,
                            derive_seed(seed, i, j), cells, settings)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, points))
    else:
        rows = [run(pt) for pt in points]
    return rows
