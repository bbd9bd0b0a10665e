"""Command-line front end: experiment runs as CSV/JSON data files.

Five subcommands: ``stabilize`` (closed-loop trajectories per disturbance
class), ``bound-accuracy`` (energy-ratio table over horizons),
``metrics-sweep`` (bounds plus sampled evidence over an (R, t_f) grid),
``energy`` (one-shot report), ``model`` (inspect/validate a model file).

Configuration comes from flags plus an optional JSON config file; flags
win. Exit codes: 0 success, 2 invalid configuration, 3 parse failure
(model or config JSON), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .energy import disturbed_energy_bound, disturbed_signal_energy
from .errors import (ConfigError, DimensionError, DomainError, ModelParseError,
                     NumericalError, ValidationError)
from .gramian import build_bundle
from .linalg import as_scalar, as_whole
from .models import builtin_models, load_model
from .signals import derive_seed, make_disturbance
from .simulate import csv_text, simulate_closed_loop, trajectory_to_csv
from .sweeps import (DEFAULT_ACCURACY_TF_GRID, DEFAULT_R_GRID, DEFAULT_TF_GRID,
                     EVIDENCE_CELLS, bound_accuracy_rows, metrics_sweep_rows,
                     worst_constant_sign)
from .synthesis import disturbed_control
from .systems import LtiSystem, StabilizationTask

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_CONFIG_KEYS = {"model", "x0", "tf", "wbar", "R_grid", "tf_grid", "steps",
                "seed", "out", "samples", "cells", "disturbances"}

_DISTURBANCE_KEYS = {"name", "kind", "wbar", "sign_vector", "amplitudes",
                     "frequencies", "phases", "cells", "seed"}

_DEFAULT_DISTURBANCES = ({"name": "constant", "kind": "constant_sign"},
                         {"name": "sinusoid", "kind": "sinusoid"},
                         {"name": "piecewise", "kind": "piecewise_uniform"})


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header, rows) -> None:
    _atomic_write(path, csv_text(header, [[row[k] for k in header] for row in rows]))


def _parse_float_list(text: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}") from exc
    if not vals:
        raise ConfigError(f"expected a nonempty number list, got {text!r}")
    return vals


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _float_tuple(values, key: str) -> tuple:
    # a flag's comma-separated text or a config file's JSON list
    if isinstance(values, str):
        return _parse_float_list(values)
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ConfigError(f"{key} must be a nonempty number list")
    return vals


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


class RunConfig:
    """Merged flag/file configuration for one command invocation."""

    def __init__(self, args):
        cfg = _load_config(args.config) if args.config else {}
        self.model_src = _pick(args.model, cfg, "model", "admire")
        if not isinstance(self.model_src, str):
            raise ConfigError(f"model must be a name or a path, got {self.model_src!r}")
        default_tf_grid = (DEFAULT_ACCURACY_TF_GRID if args.command == "bound-accuracy"
                           else DEFAULT_TF_GRID)
        try:
            self.x0 = np.array(_float_tuple(_pick(args.x0, cfg, "x0", "5,-1,3"), "x0"))
            self.t_f = float(_pick(args.tf, cfg, "tf", 5.0))
            self.w_bar = float(_pick(args.wbar, cfg, "wbar", 1.0))
            self.R_grid = _float_tuple(
                _pick(getattr(args, "R_grid", None), cfg, "R_grid", DEFAULT_R_GRID),
                "R_grid")
            self.tf_grid = _float_tuple(
                _pick(getattr(args, "tf_grid", None), cfg, "tf_grid", default_tf_grid),
                "tf_grid")
            self.steps = as_whole(_pick(args.steps, cfg, "steps", 5000), "steps")
            self.seed = as_whole(_pick(args.seed, cfg, "seed", 0), "seed")
            self.out = str(_pick(args.out, cfg, "out", "."))
            self.samples = as_whole(cfg.get("samples", 500), "samples")
            default_cells = EVIDENCE_CELLS
            if args.command == "stabilize":
                # piecewise cells default to an even divisor of the step
                # count, so the integrator sees cell-constant stage values
                default_cells = 1000 if self.steps % 1000 == 0 else self.steps
            self.cells = as_whole(cfg.get("cells", default_cells), "cells")
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        self.disturbances = cfg.get("disturbances", list(_DEFAULT_DISTURBANCES))
        if not isinstance(self.disturbances, list):
            raise ConfigError("disturbances must be a list of objects")
        for key, grid in (("tf_grid", self.tf_grid), ("R_grid", self.R_grid)):
            for v in grid:
                as_scalar(v, f"{key} entry", positive=True)
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")

    def load_system(self) -> LtiSystem:
        builtins = builtin_models()
        if self.model_src in builtins:
            return builtins[self.model_src]()
        return load_model(self.model_src)

    def outdir(self) -> str:
        os.makedirs(self.out, exist_ok=True)
        return self.out

    def echo(self) -> dict:
        return {"model": self.model_src, "x0": [float(v) for v in self.x0],
                "tf": self.t_f, "wbar": self.w_bar, "steps": self.steps,
                "seed": self.seed}


def _signal_from_spec(spec: dict, sys_: LtiSystem, task: StabilizationTask,
                      bundle, default_cells: int, master_seed: int, index: int):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"disturbance spec must be an object with a 'kind': {spec!r}")
    unknown = set(spec) - _DISTURBANCE_KEYS
    if unknown:
        raise ConfigError(f"unknown disturbance keys: {sorted(unknown)}")
    kind = spec["kind"]
    w_bar = float(spec.get("wbar", task.w_bar))
    sign = spec.get("sign_vector")
    if kind == "constant_sign" and sign is None:
        # the worst pattern depends on the amplitude, so search at the
        # spec's own
        sign = worst_constant_sign(sys_, dataclasses.replace(task, w_bar=w_bar), bundle)
    return make_disturbance(kind, w_bar, sys_.n, sign_vector=sign,
                            amplitudes=spec.get("amplitudes"),
                            frequencies=spec.get("frequencies"),
                            phases=spec.get("phases"),
                            cells=spec.get("cells", default_cells),
                            seed=spec.get("seed", derive_seed(master_seed, 5, index)),
                            horizon=task.t_f)


def _run_name(spec: dict, index: int) -> str:
    name = str(spec.get("name", spec.get("kind", f"run{index}")))
    if not name or not all(ch.isalnum() or ch in "_-" for ch in name):
        raise ConfigError(f"disturbance name {name!r} is not filename-safe")
    return name


def _resolve_runs(cfg: RunConfig, sys_: LtiSystem, task: StabilizationTask,
                  bundle) -> list:
    # (name, signal) per configured disturbance, every one checked before
    # stabilize writes its first file: each name owns traj_<name>.csv
    runs, taken = [], {"nominal"}
    for i, spec in enumerate(cfg.disturbances):
        try:
            w = _signal_from_spec(spec, sys_, task, bundle, cfg.cells, cfg.seed, i)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"malformed disturbance spec {spec!r}: {exc}") from exc
        name = _run_name(spec, i)
        if name in taken:
            raise ConfigError(f"disturbance name {name!r} is repeated or reserved")
        taken.add(name)
        runs.append((name, w))
    return runs


def cmd_stabilize(cfg: RunConfig) -> int:
    sys_ = cfg.load_system()
    task = StabilizationTask(x0=cfg.x0, t_f=cfg.t_f, w_bar=cfg.w_bar)
    bundle = build_bundle(sys_, cfg.t_f)
    bound = disturbed_energy_bound(sys_, task, bundle)
    resolved = _resolve_runs(cfg, sys_, task, bundle)
    outdir = cfg.outdir()

    runs = []
    for name, w in [("nominal", None), *resolved]:
        control = disturbed_control(sys_, task, bundle, w)
        traj = simulate_closed_loop(sys_, task, control, w, cfg.steps)
        _atomic_write(os.path.join(outdir, f"traj_{name}.csv"), trajectory_to_csv(traj))
        run = {"name": name, "kind": "zero" if w is None else w.kind,
               "terminal_residual": traj.terminal_residual,
               "energy_quadrature": traj.energy, "energy_closed_form": bound.E_N}
        if w is not None:
            e_d = disturbed_signal_energy(sys_, task, bundle, w)
            run.update(energy_closed_form=e_d, bound_ratio=e_d / bound.E_D_bound)
        runs.append(run)

    summary = {"command": "stabilize", "config": cfg.echo(),
               "E_N": bound.E_N, "E_D_bound": bound.E_D_bound, "runs": runs}
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def cmd_bound_accuracy(cfg: RunConfig) -> int:
    sys_ = cfg.load_system()
    rows = bound_accuracy_rows(sys_, cfg.x0, cfg.w_bar, cfg.tf_grid,
                               seed=cfg.seed, cells=cfg.cells)
    outdir = cfg.outdir()
    header = ["t_f", "ratio_constant", "ratio_sinusoid", "ratio_piecewise"]
    _write_csv(os.path.join(outdir, "bound_accuracy.csv"), header, rows)
    summary = {"command": "bound-accuracy", "config": cfg.echo(),
               "tf_grid": list(cfg.tf_grid), "rows": len(rows)}
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def cmd_metrics_sweep(cfg: RunConfig) -> int:
    sys_ = cfg.load_system()
    rows = metrics_sweep_rows(sys_, cfg.x0, cfg.w_bar, cfg.R_grid, cfg.tf_grid,
                              samples=cfg.samples, seed=cfg.seed,
                              cells=cfg.cells)
    outdir = cfg.outdir()
    header = ["R", "t_f", "H", "r_A_bound", "r_M_bound", "E_N", "E_D_bound",
              "diff_min", "diff_max", "ratio_min", "ratio_max"]
    _write_csv(os.path.join(outdir, "metrics.csv"), header, rows)
    summary = {"command": "metrics-sweep", "config": cfg.echo(),
               "R_grid": list(cfg.R_grid), "tf_grid": list(cfg.tf_grid),
               "samples": cfg.samples, "rows": len(rows),
               "containment": {"diff_le_r_A": all(r["diff_max"] <= r["r_A_bound"] for r in rows),
                               "ratio_ge_r_M": all(r["ratio_min"] >= r["r_M_bound"] for r in rows)}}
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    sys_ = cfg.load_system()
    task = StabilizationTask(x0=cfg.x0, t_f=cfg.t_f, w_bar=cfg.w_bar)
    bundle = build_bundle(sys_, cfg.t_f)
    report = disturbed_energy_bound(sys_, task, bundle)
    payload = {"command": "energy", "config": cfg.echo(),
               "E_N": report.E_N, "E_D_bound": report.E_D_bound,
               "q_bar": report.q_bar, "cross_term": report.cross_term,
               "c_term": report.c_term,
               "witness_q": [float(v) for v in report.witness_q]}
    _write_json(os.path.join(cfg.outdir(), "energy.json"), payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_model(cfg: RunConfig) -> int:
    sys_ = cfg.load_system()
    payload = {"name": sys_.name, "n": sys_.n, "p": sys_.p,
               "A": [[float(v) for v in row] for row in sys_.A],
               "B": [[float(v) for v in row] for row in sys_.B]}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="builtin model name or model JSON path")
    common.add_argument("--x0", help="initial state, comma-separated")
    common.add_argument("--tf", type=float, help="final time")
    common.add_argument("--wbar", type=float, help="disturbance amplitude bound")
    common.add_argument("--R-grid", dest="R_grid", help="initial-radius grid, comma-separated")
    common.add_argument("--tf-grid", dest="tf_grid", help="final-time grid, comma-separated")
    common.add_argument("--steps", type=int, help="integrator step count")
    common.add_argument("--seed", type=int, help="master seed for all draws")
    common.add_argument("--out", help="output directory")
    common.add_argument("--config", help="JSON config file (flags win)")

    parser = argparse.ArgumentParser(
        prog="distcost",
        description="Minimum-energy stabilization under bounded disturbances: "
                    "controls, energy bounds, cost-of-disturbance metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("stabilize", parents=[common],
                   help="synthesize controls and write closed-loop trajectories")
    sub.add_parser("bound-accuracy", parents=[common],
                   help="energy-ratio table over a final-time grid")
    sub.add_parser("metrics-sweep", parents=[common],
                   help="metric bounds plus sampled evidence over an (R, t_f) grid")
    sub.add_parser("energy", parents=[common],
                   help="one-shot energy report for (model, x0, t_f, w_bar)")
    sub.add_parser("model", parents=[common],
                   help="validate a model and print its normalized JSON")
    return parser


_COMMANDS = {"stabilize": cmd_stabilize, "bound-accuracy": cmd_bound_accuracy,
             "metrics-sweep": cmd_metrics_sweep, "energy": cmd_energy,
             "model": cmd_model}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(args)
    return _COMMANDS[args.command](cfg)


def entry(argv=None) -> int:
    try:
        return main(argv)
    except (ConfigError, ValidationError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(entry())
