"""Grid sweeps and sampled evidence behind the CLI commands.

Everything here is deterministic given (seed, grid): child seeds are
derived from the master seed and the grid/draw indices alone, never from
execution order. A grid point's sampled evidence is a few whole-array
operations over all of its samples at once.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as _k
from .energy import (_response_energy, disturbance_terms,
                     disturbed_energy_bound, nominal_energy)
from .errors import DomainError
from .gramian import GramianBundle, build_bundle
from .linalg import block_expm
from .metrics import MetricReport, _metric_reports
from .signals import derive_seed, derive_seeds, make_disturbance, uniform_stream
from .synthesis import _fold_cells, disturbance_response
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

    Exhaustive over the 2^n patterns (n <= 20); the disturbed energy is
    convex quadratic in the constant value, so the maximum over the
    amplitude box is attained at a vertex. Patterns are enumerated in
    ``itertools.product((1.0, -1.0), repeat=n)`` order, pattern k having
    s_j = 1 - 2 * bit (n-1-j) of k, in blocks of ``_SIGN_BLOCK`` rows:
    each block's energies ||L (e^{A t_f} x0 + w_bar V s)||^2, with
    L = diag(sqrt(lambda)) U^T, come from two matmuls. Among equal
    energies the first pattern in that order wins.
    """
    return _worst_constant(sys, task, bundle)[0]


def _worst_constant(sys: LtiSystem, task: StabilizationTask,
                    bundle: GramianBundle):
    # (worst sign pattern s, V = int_0^tf e^{As} ds); the constant-class
    # response of w_bar * s is V (w_bar s), so callers reuse V
    n = sys.n
    if n > 20:
        raise DomainError("exhaustive sign search is limited to n <= 20")
    V = transition_integral(sys, task.t_f)
    base = bundle.state_transition @ task.x0
    L = np.sqrt(bundle.spec.lambdas)[:, None] * bundle.spec.U.T
    shifts = np.arange(n - 1, -1, -1)
    total = 1 << n
    best, best_k = -np.inf, 0
    for start in range(0, total, _SIGN_BLOCK):
        k = np.arange(start, min(start + _SIGN_BLOCK, total))
        S = 1.0 - 2.0 * ((k[:, None] >> shifts) & 1)
        # the direct sum of squares: the expanded quadratic in s cancels
        # when ||x0|| is large
        H = (base + (task.w_bar * S) @ V.T) @ L.T
        e = np.einsum("ij,ij->i", H, H)
        i = int(np.argmax(e))
        if e[i] > best:
            best, best_k = e[i], start + i
    return 1.0 - 2.0 * ((best_k >> shifts) & 1), V


def _class_response(kind: str, sys: LtiSystem, task: StabilizationTask,
                    bundle: GramianBundle, seed: int, cells: int) -> np.ndarray:
    if kind == "constant":
        s, V = _worst_constant(sys, task, bundle)
        return V @ (task.w_bar * s)
    if kind == "sinusoid":
        w = make_disturbance("sinusoid", task.w_bar, sys.n)
    elif kind == "piecewise":
        w = make_disturbance("piecewise_uniform", task.w_bar, sys.n, seed=seed,
                             cells=cells, horizon=task.t_f)
    else:
        raise DomainError(f"unknown disturbance class {kind!r}")
    return disturbance_response(sys, w, task.t_f)


def bound_accuracy_rows(sys: LtiSystem, x0: np.ndarray, w_bar: float,
                        tf_grid, classes=("constant", "sinusoid", "piecewise"),
                        seed: int = 0, cells: int = EVIDENCE_CELLS):
    """Ratio ||u_D||^2 / E_D_bound per horizon and disturbance class.

    Returns a list of dict rows, one per t_f, with a ratio column per
    class. The piecewise class gets a child seed per horizon index.
    """
    rows = []
    for i, t_f in enumerate(tf_grid):
        bundle = build_bundle(sys, t_f)
        task = StabilizationTask(x0=x0, t_f=float(t_f), w_bar=w_bar)
        bound = disturbed_energy_bound(sys, task, bundle).E_D_bound
        row = {"t_f": float(t_f)}
        for kind in classes:
            R = _class_response(kind, sys, task, bundle, derive_seed(seed, 1, i), cells)
            row[f"ratio_{kind}"] = float(_response_energy(bundle, task, R) / bound)
        rows.append(row)
    return rows


def _row_energies(bundle: GramianBundle, X: np.ndarray) -> np.ndarray:
    # ||diag(sqrt(lambda)) U^T x||^2 for every row x of X
    H = np.sqrt(bundle.spec.lambdas) * (X @ bundle.spec.U)
    return np.sum(H * H, axis=1)


def _sweep_point(sys: LtiSystem, bundle: GramianBundle, rep: MetricReport,
                 w_bar: float, x0_dir: np.ndarray, samples: int, seed: int,
                 cells: int):
    t_f, R, n = bundle.t_f, rep.R, sys.n
    task_rep = StabilizationTask(x0=R * x0_dir, t_f=t_f, w_bar=w_bar)
    e_n_rep = nominal_energy(sys, task_rep, bundle)
    e_bound_rep = disturbed_energy_bound(sys, task_rep, bundle).E_D_bound
    Phi_T = bundle.state_transition.T

    # additive evidence: the worst-case extra energy E_D_bound - E_N of
    # disturbed_energy_bound at every nonzero ball sample, in its order of
    # operations: E_N + 2 q_bar ||p||_1 + c with p = diag(lambda) U^T Phi x0
    ball = sample_ball(derive_seed(seed, 2), samples, n, R)
    base = ball[np.any(ball != 0.0, axis=1)] @ Phi_T
    e_n = _row_energies(bundle, base)
    q_bar, c_term = disturbance_terms(bundle, w_bar)
    P = bundle.spec.lambdas * (base @ bundle.spec.U)
    diff = (e_n + 2.0 * q_bar * np.sum(np.abs(P), axis=1) + c_term) - e_n

    # multiplicative evidence: energy ratios on the sphere, one seeded
    # piecewise draw per sample (the stream of derive_seed(seed, 4, i)),
    # flipped to the energy-increasing member of (w, -w). The responses
    # are disturbance_response's cell fold, over a block of samples at once.
    sphere = sample_sphere(derive_seed(seed, 3), samples, n, R)
    seeds = derive_seeds(seed, samples, 4)
    Phi_d, J = block_expm(sys.A, np.eye(n), np.zeros((n, n)), t_f / cells)
    block = max(1, _SAMPLE_BLOCK // (cells * n))
    ratio_min, ratio_max = np.inf, -np.inf
    for start in range(0, samples, block):
        u = _k.splitmix_fill(seeds[start:start + block], 0, cells * n)
        values = (w_bar * (2.0 * u - 1.0)).reshape(-1, cells, n)
        resp = _fold_cells(values[:, ::-1] @ J.T, Phi_d)
        base = sphere[start:start + block] @ Phi_T
        e_d = np.maximum(_row_energies(bundle, base + resp),
                         _row_energies(bundle, base - resp))
        ratio = _row_energies(bundle, base) / e_d
        ratio_min = min(ratio_min, float(np.min(ratio)))
        ratio_max = max(ratio_max, float(np.max(ratio)))

    return {
        "R": float(R),
        "t_f": float(t_f),
        "H": float(R) / float(t_f),
        "r_A_bound": float(rep.r_A_bound),
        "r_M_bound": float(rep.r_M_bound),
        "E_N": float(e_n_rep),
        "E_D_bound": float(e_bound_rep),
        "diff_min": float(np.min(diff, initial=np.inf)),
        "diff_max": float(np.max(diff, initial=-np.inf)),
        "ratio_min": ratio_min,
        "ratio_max": ratio_max,
    }


def metrics_sweep_rows(sys: LtiSystem, x0_dir: np.ndarray, w_bar: float,
                       R_grid=DEFAULT_R_GRID, tf_grid=DEFAULT_TF_GRID,
                       samples: int = 500, seed: int = 0,
                       cells: int = EVIDENCE_CELLS, workers: int = 1):
    """Metric bounds plus sampled evidence over the (R, t_f) grid.

    Rows come back in grid order (t_f outer, R inner); the child seed of
    a point depends only on its grid indices. ``x0_dir`` fixes the
    direction of the representative initial state R * x0_dir reported in
    the E_N / E_D_bound columns. ``workers`` is accepted for compatibility
    and has no effect: each point is a few whole-array operations.
    """
    samples, cells = int(samples), int(cells)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if cells < 1:
        raise DomainError("cells must be >= 1")
    x0_dir = np.asarray(x0_dir, dtype=np.float64)
    nrm = float(np.sqrt(np.sum(x0_dir * x0_dir)))
    if nrm == 0.0:
        raise DomainError("x0 direction must be nonzero")
    x0_dir = x0_dir / nrm

    bundles = {float(t_f): build_bundle(sys, t_f) for t_f in tf_grid}
    reports = {t_f: _metric_reports(sys, bundle, w_bar, R_grid)
               for t_f, bundle in bundles.items()}
    return [_sweep_point(sys, bundles[float(t_f)], rep, float(w_bar), x0_dir,
                         samples, derive_seed(seed, i, j), cells)
            for i, t_f in enumerate(tf_grid)
            for j, rep in enumerate(reports[float(t_f)])]
