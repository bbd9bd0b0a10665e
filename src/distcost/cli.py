"""Command-line front end: experiment runs as CSV/JSON data files.

Five subcommands: ``stabilize`` (closed-loop trajectories per disturbance
class), ``bound-accuracy`` (energy-ratio table over horizons),
``metrics-sweep`` (bounds plus sampled evidence over an (R, t_f) grid),
``energy`` (one-shot report), ``model`` (inspect/validate a model file).

Configuration comes from flags plus an optional JSON config file; flags
win. A command takes only the keys it reads: ``_KEYS`` declares each
key's resolver, flag help and per-command defaults. ``_commit`` writes
a command's files, and creates its output directory, all or none.
Exit codes: 0 success, 2 invalid configuration, a run too large for
memory, an output directory or file or standard output that cannot be
created or written, 3 parse failure (model or config JSON), 4 numerical
failure. ``entry`` and ``main`` return the code; ``script``, the process
entry, ends the process with it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .energy import disturbed_energy_bound, disturbed_signal_energy
from .errors import ConfigError, DistcostError, ModelParseError, NumericalError
from .gramian import build_bundle
from .linalg import as_whole
from .models import _model_text, builtin_models, load_model
from .signals import KIND_PARAMETERS, derive_seed, make_disturbance
from .simulate import csv_text, simulate_closed_loop, trajectory_to_csv
from .sweeps import (DEFAULT_ACCURACY_TF_GRID, DEFAULT_R_GRID, DEFAULT_TF_GRID,
                     EVIDENCE_CELLS, bound_accuracy_rows, metrics_sweep_rows,
                     worst_constant_sign)
from .synthesis import disturbed_control
from .systems import LtiSystem, StabilizationTask

EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

def _remove(paths) -> None:
    for path in paths:
        with contextlib.suppress(FileNotFoundError, NotADirectoryError):
            os.remove(path)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _table_text(rows) -> str:
    # the columns are the rows' keys, declared once by the row builder
    header = list(rows[0])
    return csv_text(header, [[row[k] for k in header] for row in rows])


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
    return cfg


def _number(value) -> float:
    # float(True) is 1.0, but a JSON true or false is no number
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _float_tuple(values, key: str) -> tuple:
    # a flag's comma-separated text or a config file's JSON list
    if isinstance(values, str):
        values = [tok for tok in values.replace(" ", "").split(",") if tok]
    vals = tuple(_number(v) for v in values)
    if not vals:
        raise ConfigError(f"{key} must be a nonempty number list")
    return vals


def _whole(key: str):
    # a flag's text names the integer its JSON value would: "5000.0" and
    # "1e3" read as floats, while integer text stays an exact int
    def resolve(value):
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                value = float(value)
        return as_whole(value, key)
    return resolve


def _of_type(kind: type, what: str):
    # a JSON value used as is: str() would let "model": 5 through as a path
    def check(value):
        if not isinstance(value, kind):
            raise ConfigError(f"expected {what}, got {value!r}")
        return value
    return check


def _on(commands: str, default) -> dict:
    return dict.fromkeys(commands.split(), default)


class _PerRun(list):
    # a list default that is also a callable one: each run gets its own
    # copy, down to the run dicts, so no edit reaches the next run
    def __call__(self, resolved):
        return [dict(run) for run in self]


# key: (resolver, flag help or None, {command: default}), one row per key
# and the one declaration of it. A command reads the keys it has a
# default for, in table order (_COMMAND_OPTIONS); any other exits 2, so
# no value a run ignores can be set. A key with help is also the flag
# --key with "_" as "-"; samples, cells and disturbances are config-only.
# A resolver turns a flag's text or a config file's JSON value into the
# value the command reads; ValueError, TypeError and OverflowError mark a
# malformed one. A callable default takes the values resolved before it.
_KEYS = {
    "model": (_of_type(str, "a model name or path"), "builtin model name or model JSON path",
              _on("stabilize bound-accuracy metrics-sweep energy model", "admire")),
    "x0": (lambda v: _float_tuple(v, "x0"), "initial state, comma-separated",
           _on("stabilize bound-accuracy metrics-sweep energy", (5.0, -1.0, 3.0))),
    "tf": (_number, "final time", _on("stabilize energy", 5.0)),
    "wbar": (_number, "disturbance amplitude bound",
             _on("stabilize bound-accuracy metrics-sweep energy", 1.0)),
    "R_grid": (lambda v: _float_tuple(v, "R_grid"), "initial-radius grid, comma-separated",
               {"metrics-sweep": DEFAULT_R_GRID}),
    "tf_grid": (lambda v: _float_tuple(v, "tf_grid"), "final-time grid, comma-separated",
                {"bound-accuracy": DEFAULT_ACCURACY_TF_GRID,
                 "metrics-sweep": DEFAULT_TF_GRID}),
    "steps": (_whole("steps"), "integrator step count", {"stabilize": 5000}),
    "seed": (_whole("seed"), "master seed for all draws",
             _on("stabilize bound-accuracy metrics-sweep", 0)),
    "out": (str, "output directory", _on("stabilize bound-accuracy metrics-sweep energy", ".")),
    "samples": (_whole("samples"), None, {"metrics-sweep": 500}),
    # stabilize's piecewise cells default to a divisor of the step count:
    # the cell and step grids must nest, so that each step is exact
    "cells": (_whole("cells"), None,
              {"stabilize": lambda r: 1000 if r["steps"] % 1000 == 0 else r["steps"],
               **_on("bound-accuracy metrics-sweep", EVIDENCE_CELLS)}),
    "disturbances": (_of_type(list, "a list of disturbance objects"), None,
                     {"stabilize": _PerRun([{"name": "constant", "kind": "constant_sign"},
                                            {"name": "sinusoid", "kind": "sinusoid"},
                                            {"name": "piecewise", "kind": "piecewise_uniform"}])}),
}


class RunConfig:
    """The command's keys of ``_COMMAND_OPTIONS`` as attributes, each
    resolved from its flag, else the config file, else its default."""

    def __init__(self, args):
        keys = _COMMAND_OPTIONS[args.command]
        cfg = _load_config(args.config) if args.config else {}
        foreign = sorted(set(cfg) - set(keys))
        if foreign:
            raise ConfigError(f"{args.command} reads no config key {', '.join(foreign)}")
        resolved = {}
        try:
            for key in keys:
                resolve, _, defaults = _KEYS[key]
                value = getattr(args, key, None)
                if value is None:
                    default = defaults[args.command]
                    value = cfg.get(key, default(resolved) if callable(default) else default)
                resolved[key] = resolve(value)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"malformed {key} value: {exc}") from exc
        vars(self).update(resolved)

    def load_system(self) -> LtiSystem:
        builtins = builtin_models()
        if self.model in builtins:
            return builtins[self.model]()
        return load_model(self.model)

    def echo(self) -> dict:
        """Every value the command read, bar the output directory."""
        return {k: v for k, v in vars(self).items() if k != "out"}


def _signal_from_spec(spec: dict, task: StabilizationTask, bundle,
                      default_cells: int, master_seed: int, index: int):
    # a spec is a name, a kind, an amplitude and that kind's parameters
    # (make_disturbance rejects any other key), but never a horizon: a
    # piecewise grid always spans [0, t_f]
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"disturbance spec must be an object with a 'kind': {spec!r}")
    if "horizon" in spec:
        raise ConfigError("a disturbance spec takes no horizon; cells span [0, tf]")
    kind = spec["kind"]
    w_bar = _number(spec.get("wbar", task.w_bar))
    params = {k: v for k, v in spec.items() if k not in ("name", "kind", "wbar")}
    takes = KIND_PARAMETERS.get(kind, {})
    if "horizon" in takes:
        params = {"cells": default_cells, "seed": derive_seed(master_seed, 5, index),
                  **params, "horizon": task.t_f}
    if "sign_vector" in takes and params.get("sign_vector") is None:
        # the worst pattern depends on the amplitude, so search at the
        # spec's own
        params["sign_vector"] = worst_constant_sign(
            dataclasses.replace(task, w_bar=w_bar), bundle)
    return make_disturbance(kind, w_bar, bundle.system.n, **params)


def _run_name(spec: dict, index: int) -> str:
    name = str(spec.get("name", spec.get("kind", f"run{index}")))
    if not name or not all(ch.isalnum() or ch in "_-" for ch in name):
        raise ConfigError(f"disturbance name {name!r} is not filename-safe")
    return name


def _resolve_runs(cfg: RunConfig, task: StabilizationTask, bundle) -> list:
    # (name, signal) per configured disturbance, every one checked before
    # stabilize writes its first file: each name owns traj_<name>.csv
    runs, taken = [], {"nominal"}
    for i, spec in enumerate(cfg.disturbances):
        try:
            w = _signal_from_spec(spec, task, bundle, cfg.cells, cfg.seed, i)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"malformed disturbance spec {spec!r}: {exc}") from exc
        name = _run_name(spec, i)
        if name in taken:
            raise ConfigError(f"disturbance name {name!r} is repeated or reserved")
        taken.add(name)
        runs.append((name, w))
    return runs


def _write_failure(what: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write {what}: {exc.strerror or exc}")


def _print(text: str) -> None:
    try:
        print(text, end="")
    except OSError as exc:
        raise _write_failure("standard output", exc) from exc


def _commit(outdir: str, files) -> None:
    """Write a run's files into outdir, all or none: each (name, content)
    is a text, or a function of no arguments called just before its file's
    temporary is written, so at most one file's text exists at a time.

    outdir and its missing parents are created first. Every file goes to a
    temporary, and only once every temporary exists are they renamed into
    place. An earlier run's file of the same name is first moved aside, and
    deleted only once every rename has succeeded. On a failure every
    temporary and every file already renamed is removed, the files moved
    aside are put back, the directories made here are removed, and the
    first error is raised, a failed mkdir, write or rename as ConfigError.
    """
    paths = [os.path.join(outdir, name) for name, _ in files]
    tmps = [f"{path}.tmp{os.getpid()}" for path in paths]
    renamed, kept, made, head = [], [], [], outdir
    while head and not os.path.exists(head):  # the missing levels, deepest first
        made, head = [*made, head], os.path.dirname(head)
    try:
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from exc
        for (_, content), tmp, path in zip(files, tmps, paths):
            # the loop drops each text before it makes the next
            if callable(content):
                content = content()
            try:
                with open(tmp, "w") as fh:
                    fh.write(content)
            except OSError as exc:
                raise _write_failure(f"output file {path}", exc) from exc
        # (aside, path) of every earlier file moved aside; a directory
        # stays where it is, and the rename onto it fails below
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):
                continue
            aside = f"{path}.old{os.getpid()}"
            try:
                os.replace(path, aside)
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise _write_failure(f"output file {path}", exc) from exc
            kept.append((aside, path))
        for tmp, path in zip(tmps, paths):
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise _write_failure(f"output file {path}", exc) from exc
            renamed.append(path)
    except BaseException:
        _remove(tmps + renamed)
        for aside, path in kept:
            with contextlib.suppress(OSError):
                os.replace(aside, path)
        for path in made:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    _remove(aside for aside, _ in kept)


def cmd_stabilize(cfg: RunConfig) -> int:
    """synthesize controls and write closed-loop trajectories

    Each run is simulated just before _commit writes its file, after every
    disturbance spec is resolved, so one trajectory is alive at a time."""
    task = StabilizationTask(x0=cfg.x0, t_f=cfg.tf, w_bar=cfg.wbar)
    bundle = build_bundle(cfg.load_system(), cfg.tf)
    bound = disturbed_energy_bound(task, bundle)
    summary = {"command": "stabilize", "config": cfg.echo(),
               "E_N": bound.E_N, "E_D_bound": bound.E_D_bound, "runs": []}

    def simulate(name, w):
        control = disturbed_control(task, bundle, w)
        traj = simulate_closed_loop(control, w, cfg.steps)
        run = {"name": name, "kind": "zero" if w is None else w.kind,
               "terminal_residual": traj.terminal_residual,
               "energy_quadrature": traj.energy, "energy_closed_form": bound.E_N}
        if w is not None:
            e_d = disturbed_signal_energy(task, bundle, w)
            run.update(energy_closed_form=e_d, bound_ratio=e_d / bound.E_D_bound)
        summary["runs"].append(run)
        return trajectory_to_csv(traj)

    _commit(cfg.out, [*((f"traj_{name}.csv", lambda name=name, w=w: simulate(name, w))
                        for name, w in [("nominal", None), *_resolve_runs(cfg, task, bundle)]),
                      ("summary.json", lambda: _json_text(summary))])
    return 0


def cmd_bound_accuracy(cfg: RunConfig) -> int:
    """energy-ratio table over a final-time grid"""
    sys_ = cfg.load_system()
    rows = bound_accuracy_rows(sys_, cfg.x0, cfg.wbar, cfg.tf_grid,
                               seed=cfg.seed, cells=cfg.cells)
    summary = {"command": "bound-accuracy", "config": cfg.echo(), "rows": len(rows)}
    _commit(cfg.out, [("bound_accuracy.csv", _table_text(rows)),
                      ("summary.json", _json_text(summary))])
    return 0


def cmd_metrics_sweep(cfg: RunConfig) -> int:
    """metric bounds plus sampled evidence over an (R, t_f) grid"""
    sys_ = cfg.load_system()
    rows = metrics_sweep_rows(sys_, cfg.x0, cfg.wbar, cfg.R_grid, cfg.tf_grid,
                              samples=cfg.samples, seed=cfg.seed,
                              cells=cfg.cells)
    summary = {"command": "metrics-sweep", "config": cfg.echo(), "rows": len(rows),
               "containment": {"diff_le_r_A": all(r["diff_max"] <= r["r_A_bound"] for r in rows),
                               "ratio_ge_r_M": all(r["ratio_min"] >= r["r_M_bound"] for r in rows)}}
    _commit(cfg.out, [("metrics.csv", _table_text(rows)),
                      ("summary.json", _json_text(summary))])
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    """one-shot energy report for (model, x0, t_f, w_bar)"""
    task = StabilizationTask(x0=cfg.x0, t_f=cfg.tf, w_bar=cfg.wbar)
    report = disturbed_energy_bound(task, build_bundle(cfg.load_system(), cfg.tf))
    payload = {"command": "energy", "config": cfg.echo(),
               **vars(report), "witness_q": report.witness_q.tolist()}
    text = _json_text(payload)
    _commit(cfg.out, [("energy.json", text)])
    _print(text)
    return 0


def cmd_model(cfg: RunConfig) -> int:
    """validate a model and print its normalized JSON"""
    _print(_model_text(cfg.load_system()))
    return 0


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write of its own text; help and usage on
        # stdout go through _print instead, whose failure exits 2
        if message and file is not None and file is sys.stdout:
            return _print(message)
        super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distcost",
        description="Minimum-energy stabilization under bounded disturbances: "
                    "controls, energy bounds, cost-of-disturbance metrics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, keys in _COMMAND_OPTIONS.items():
        # no prefix matching: bound-accuracy would read --tf as --tf-grid
        cmd = sub.add_parser(command, help=_COMMANDS[command].__doc__.partition("\n")[0],
                             allow_abbrev=False)
        for key in keys:
            if _KEYS[key][1] is not None:
                cmd.add_argument("--" + key.replace("_", "-"), dest=key,
                                 help=_KEYS[key][1])
        cmd.add_argument("--config", help="JSON config file (flags win)")
    return parser


_COMMANDS = {"stabilize": cmd_stabilize, "bound-accuracy": cmd_bound_accuracy,
             "metrics-sweep": cmd_metrics_sweep, "energy": cmd_energy,
             "model": cmd_model}

# the keys each command reads, as flags or config-file keys
_COMMAND_OPTIONS = {command: tuple(key for key, (_, _, defaults) in _KEYS.items()
                                   if command in defaults)
                    for command in _COMMANDS}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(args)
    return _COMMANDS[args.command](cfg)


def entry(argv=None) -> int:
    try:
        return main(argv)
    except DistcostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_PARSE if isinstance(exc, ModelParseError)
                else EXIT_NUMERIC if isinstance(exc, NumericalError) else EXIT_CONFIG)
    except MemoryError as exc:
        # a configuration whose arrays this host cannot hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


def script() -> None:
    """Run ``entry`` on the process's arguments and end the process with
    its code: the process entry of ``distcost`` and ``python -m distcost``.

    stdout and stderr are flushed, then ``os._exit`` skips the
    interpreter's teardown (atexit handlers, module and garbage cleanup),
    about 20 ms of a process that imported numpy. A run that succeeded but
    whose output cannot be flushed exits 2 with one error line, --help
    too; a failed run keeps its code and its own error line.
    """
    try:
        code = entry()
    except SystemExit as exc:  # argparse's exit after --help or a usage error
        code = exc.code
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code == 0:
                print(f"error: {_write_failure('standard output', exc)}", file=sys.stderr)
                code = EXIT_CONFIG
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(code)
