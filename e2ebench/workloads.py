"""The three benchmark workloads: seeded inputs, CLI arguments, output checks.

Each workload writes its inputs (a config JSON and, for ``horizons``, a
model JSON) from the input seed alone, so the program sees only files.
The input seed also fixes the x0 vector(s) and distcost's own ``--seed``.
Generated configs set no ``settings`` and no ``workers`` keys.

Why these three:

- ``sweep``: ``metrics-sweep`` on ADMIRE over the default 4x4 (R, t_f)
  grid. The paper's headline artefact and the slowest command; time is in
  the many small n=3 disturbance responses and the random stream.
- ``stabilize``: ``stabilize`` on ADMIRE defaults, nominal plus the three
  disturbance classes. The closed-loop verification path: RK4, the control
  half-grid and trajectory CSV writing, which the other two never run.
- ``horizons``: ``bound-accuracy`` on a seeded controllable n=12, p=4 model
  over 12 horizons. Few large responses instead of many small ones, and
  the only workload where bundle builds and the 2^n sign search dominate.

Sizes are scaled so one CLI run takes about 2-3 s on a 2-CPU host, which
gives ten or more runs per measurement; every layer's time scales with
``samples`` (sweep) and ``steps`` (stabilize) except a few percent of
fixed cost, so the layer shares match the full-size commands.

Checks return a list of problems (empty when the run is correct) plus a
digest: the numbers compared against the reference outputs recorded at
the seed commit (see ``record_reference.py``).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

# input sizes; see the module docstring for what each workload stresses
SWEEP_SAMPLES = 50
STABILIZE_STEPS = 10000
STABILIZE_TF = 5.0
HORIZONS_N, HORIZONS_P = 12, 4
# log-spaced, like the command's default grid
HORIZONS_TF_GRID = tuple(float(v) for v in np.geomspace(0.25, 5.0, 12))

# the generated model must be far inside distcost's Gramian condition
# limit (1e14) at the shortest horizon
HORIZONS_COND_MAX = 1e10

# x0 vectors are drawn on the sphere of the default x0 = (5, -1, 3)
X0_NORM = float(np.sqrt(35.0))

# relative tolerance against the recorded reference outputs. Exact
# (closed-form) responses moved these outputs by at most 6e-11 in
# prototypes, so this is a pass/fail check, not a precision gate.
REFERENCE_RTOL = 1e-7
# stabilize: closed-form energy against the RK4/Simpson quadrature
ENERGY_RTOL = 1e-6
RESIDUAL_MAX = 1e-5

# references are recorded for input seeds 0..REFERENCE_SEEDS-1; a
# benchmark seed s uses input seed s % REFERENCE_SEEDS
REFERENCE_SEEDS = 32


def _rng(workload_index: int, input_seed: int) -> np.random.Generator:
    return np.random.default_rng([workload_index, input_seed])


def _direction(rng: np.random.Generator, n: int) -> list:
    g = rng.standard_normal(n)
    return [float(v) for v in X0_NORM * g / np.linalg.norm(g)]


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_csv(path: Path):
    rows = list(csv.reader(io.StringIO(path.read_text())))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _expm(M: np.ndarray) -> np.ndarray:
    # scaling and squaring with an 18-term Taylor series (||M/2^s|| <= 1/2)
    nrm = float(np.max(np.sum(np.abs(M), axis=1)))
    s = int(np.ceil(np.log2(nrm))) + 1 if nrm > 0.5 else 0
    X = M / 2.0 ** s
    E = np.eye(M.shape[0])
    T = np.eye(M.shape[0])
    for k in range(1, 19):
        T = T @ X / k
        E = E + T
    for _ in range(s):
        E = E @ E
    return E


def gramian_condition(A: np.ndarray, B: np.ndarray, t_f: float) -> float:
    """cond(W_B) over [0, t_f], from the Van Loan block exponential."""
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[:n, n:] = B @ B.T
    M[n:, n:] = -A.T
    E = _expm(M * t_f)
    W = E[:n, n:] @ E[:n, :n].T
    lam = np.linalg.eigvalsh(0.5 * (W + W.T))
    return float(lam[-1] / lam[0]) if lam[0] > 0.0 else np.inf


def _row_sum_argmax_steady(A: np.ndarray, t_max: float, points: int = 256) -> bool:
    # distcost integrates s -> ||e^{As}||_inf adaptively. Where the row
    # attaining the max changes, the integrand has a kink that the
    # adaptive rule may not resolve within its depth budget.
    step = _expm(A * (t_max / points))
    E = np.eye(A.shape[0])
    rows = set()
    for _ in range(points):
        E = E @ step
        rows.add(int(np.argmax(np.sum(np.abs(E), axis=1))))
    return len(rows) == 1


def horizons_model(rng: np.random.Generator):
    """Seeded controllable (A, B) for the ``horizons`` workload.

    A is Metzler (nonnegative off-diagonal), so e^{As} >= 0 entrywise and
    no entry of ||e^{As}||_inf crosses zero; a draw is kept when the
    maximising row never changes over the horizon grid and cond(W_B) at
    the shortest horizon is at most HORIZONS_COND_MAX. With Gaussian A,
    about a quarter of the draws made the norm integral fail on such
    kinks.
    """
    n, p = HORIZONS_N, HORIZONS_P
    while True:
        A = np.abs(rng.standard_normal((n, n))) / np.sqrt(n)
        A[np.diag_indices(n)] = -3.0 + 0.3 * rng.standard_normal(n)
        B = rng.standard_normal((n, p))
        if (gramian_condition(A, B, HORIZONS_TF_GRID[0]) <= HORIZONS_COND_MAX
                and _row_sum_argmax_steady(A, HORIZONS_TF_GRID[-1])):
            return A, B


class Workload:
    """One CLI command with seeded inputs and its output checks."""

    name = ""
    command = ""
    index = 0

    def make_inputs(self, input_seed: int, workdir: Path) -> dict:
        """Write the input files; return their paths and the input sizes."""
        raise NotImplementedError

    def check(self, outdir: Path):
        """(problems, digest) for one run's output directory."""
        raise NotImplementedError


class Sweep(Workload):
    name, command, index = "sweep", "metrics-sweep", 0

    def make_inputs(self, input_seed, workdir):
        rng = _rng(self.index, input_seed)
        cfg = {"model": "admire", "x0": _direction(rng, 3),
               "samples": SWEEP_SAMPLES, "seed": _program_seed(rng)}
        _write_json(workdir / "config.json", cfg)
        return {"config": str(workdir / "config.json"), "model": "admire",
                "sizes": {"n": 3, "p": 4, "grid": "4x4 default (R, t_f)",
                          "samples": SWEEP_SAMPLES, "cells": "default"}}

    def check(self, outdir):
        problems = []
        summary = json.loads((outdir / "summary.json").read_text())
        for flag, ok in summary["containment"].items():
            if ok is not True:
                problems.append(f"containment flag {flag} is {ok}")
        header, rows = _read_csv(outdir / "metrics.csv")
        if len(rows) != 16:
            problems.append(f"metrics.csv has {len(rows)} rows, expected 16")
        return problems, {"metrics.csv": {"header": header, "rows": rows}}


class Stabilize(Workload):
    name, command, index = "stabilize", "stabilize", 1
    # trajectory rows compared with the reference: ends and quarter points
    DIGEST_ROWS = (0, STABILIZE_STEPS // 4, STABILIZE_STEPS // 2,
                   3 * STABILIZE_STEPS // 4, STABILIZE_STEPS)

    def make_inputs(self, input_seed, workdir):
        rng = _rng(self.index, input_seed)
        cfg = {"model": "admire", "x0": _direction(rng, 3), "tf": STABILIZE_TF,
               "steps": STABILIZE_STEPS, "seed": _program_seed(rng)}
        _write_json(workdir / "config.json", cfg)
        return {"config": str(workdir / "config.json"), "model": "admire",
                "sizes": {"n": 3, "p": 4, "t_f": STABILIZE_TF,
                          "steps": STABILIZE_STEPS,
                          "runs": "nominal + constant, sinusoid, piecewise"}}

    def check(self, outdir):
        problems = []
        summary = json.loads((outdir / "summary.json").read_text())
        digest = {"E_N": summary["E_N"], "E_D_bound": summary["E_D_bound"], "runs": {}}
        for run in summary["runs"]:
            name = run["name"]
            if not run["terminal_residual"] <= RESIDUAL_MAX:
                problems.append(f"{name}: terminal_residual {run['terminal_residual']:.3e}")
            ec, eq = run["energy_closed_form"], run["energy_quadrature"]
            if not abs(eq - ec) <= ENERGY_RTOL * abs(ec):
                problems.append(f"{name}: energy_quadrature {eq!r} vs closed form {ec!r}")
            lines = (outdir / f"traj_{name}.csv").read_text().splitlines()
            if len(lines) != STABILIZE_STEPS + 2:
                problems.append(f"traj_{name}.csv has {len(lines)} lines")
                continue
            digest["runs"][name] = {
                "energy_closed_form": ec, "energy_quadrature": eq,
                "bound_ratio": run.get("bound_ratio", 1.0),
                "header": lines[0].split(","),
                "traj_rows": [[float(v) for v in lines[j + 1].split(",")]
                              for j in self.DIGEST_ROWS]}
        if len(summary["runs"]) != 4:
            problems.append(f"{len(summary['runs'])} runs in summary.json, expected 4")
        return problems, digest


class Horizons(Workload):
    name, command, index = "horizons", "bound-accuracy", 2

    def make_inputs(self, input_seed, workdir):
        rng = _rng(self.index, input_seed)
        A, B = horizons_model(rng)
        model = {"name": f"random{input_seed}", "n": HORIZONS_N, "p": HORIZONS_P,
                 "A": A.tolist(), "B": B.tolist()}
        _write_json(workdir / "model.json", model)
        cfg = {"model": str(workdir / "model.json"), "x0": _direction(rng, HORIZONS_N),
               "tf_grid": list(HORIZONS_TF_GRID), "seed": _program_seed(rng)}
        _write_json(workdir / "config.json", cfg)
        return {"config": str(workdir / "config.json"), "model": str(workdir / "model.json"),
                "sizes": {"n": HORIZONS_N, "p": HORIZONS_P,
                          "horizons": len(HORIZONS_TF_GRID),
                          "t_f": [HORIZONS_TF_GRID[0], HORIZONS_TF_GRID[-1]],
                          "sign_patterns": 2 ** HORIZONS_N, "cells": "default"}}

    def check(self, outdir):
        problems = []
        header, rows = _read_csv(outdir / "bound_accuracy.csv")
        if len(rows) != len(HORIZONS_TF_GRID):
            problems.append(f"bound_accuracy.csv has {len(rows)} rows")
        for row in rows:
            for col, v in zip(header, row):
                if col.startswith("ratio_") and not 0.0 < v <= 1.0:
                    problems.append(f"t_f={row[0]!r}: {col} = {v!r} outside (0, 1]")
        return problems, {"bound_accuracy.csv": {"header": header, "rows": rows}}


WORKLOADS = {w.name: w for w in (Sweep(), Stabilize(), Horizons())}


def input_digest(inputs: dict) -> str:
    """sha256 over the generated input files, so a reference is only
    compared against outputs of the very inputs it was recorded from."""
    h = hashlib.sha256()
    for key in ("config", "model"):
        path = Path(inputs[key])
        if path.is_file():
            data = json.loads(path.read_text())
            data.pop("model", None)      # holds a work-dir path
            h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()


def compare(got, ref, rtol: float = REFERENCE_RTOL, path: str = "") -> list:
    """Mismatches between a digest and its reference, numbers to rtol.

    Trajectory rows compare each column against the column's largest
    reference magnitude, since states reach ~1e-12 at t_f.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        out = []
        for k in ref:
            if k == "traj_rows":
                out += _compare_rows(got[k], ref[k], rtol, f"{path}.{k}")
            else:
                out += compare(got[k], ref[k], rtol, f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length mismatch"]
        return [p for i, (g, r) in enumerate(zip(got, ref))
                for p in compare(g, r, rtol, f"{path}[{i}]")]
    if isinstance(ref, float):
        if not abs(got - ref) <= rtol * abs(ref):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]


def _compare_rows(got, ref, rtol, path):
    if len(got) != len(ref) or any(len(g) != len(r) for g, r in zip(got, ref)):
        return [f"{path}: shape mismatch"]
    scale = np.max(np.abs(np.asarray(ref)), axis=0)
    out = []
    for i, (g, r) in enumerate(zip(got, ref)):
        for j, (a, b) in enumerate(zip(g, r)):
            if not abs(a - b) <= rtol * max(abs(b), scale[j]):
                out.append(f"{path}[{i}][{j}]: {a!r} != reference {b!r}")
    return out
