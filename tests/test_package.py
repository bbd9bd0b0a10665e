import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import distcost


def test_every_exported_name_resolves():
    missing = [name for name in distcost.__all__ if not hasattr(distcost, name)]
    assert missing == []
    assert len(set(distcost.__all__)) == len(distcost.__all__)


PUBLIC_API = [
    "ConfigError", "ControlSignal", "DimensionError", "DistcostError",
    "DisturbanceSignal", "DomainError", "EnergyReport", "GramianBundle",
    "IllConditionedError", "LtiSystem", "MetricReport", "ModelParseError",
    "NumericalError", "SpectralDecomposition", "StabilizationTask", "Trajectory",
    "ValidationError", "__version__", "admire", "build_bundle", "build_bundles",
    "builtin_models", "controllability_rank", "derive_seed", "disturbance_response",
    "disturbed_control", "disturbed_energy_bound", "disturbed_signal_energy", "expm",
    "hardness", "load_model", "make_disturbance", "metric_report", "nominal_control",
    "nominal_energy", "save_model", "simulate_closed_loop", "trajectory_to_csv",
    "uniform_stream",
]

# single-stage twins of the bundle and the metric report, helpers no
# caller needs, the blocked, two-module eigen stage that _inverse_factors
# replaced, and the adaptive Simpson norm integral's settings, by the
# module that held them
REMOVED = {
    "gramian": ["controllability_gramian", "norm_integral", "_NODE_BLOCK", "_expms",
                "_checked_eigs", "_condition_checked", "_assemble", "_NORM_INTEGRAL_TOL",
                "_ADAPTIVE_DEPTH", "_inf_norms"],
    "linalg": ["_SYMMETRY_TOL", "norm", "sym_eig", "_sym_eigs", "_JACOBI_OFF_TOL",
               "_JACOBI_MAX_SWEEPS"],
    "metrics": ["additive_metric_bound", "multiplicative_metric_bound"],
    "simulate": ["_rk4", "_disturbance_stages"],
}


def test_public_api_is_pinned():
    assert sorted(distcost.__all__) == PUBLIC_API


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(f"distcost.{module}")
    for name in REMOVED[module]:
        assert not hasattr(distcost, name), name
        assert not hasattr(mod, name), name
        assert name not in mod.__all__, name


def test_bundle_has_no_inverse_field():
    # the energies and metrics read W_B^{-1} through its factors, spec
    fields = [f.name for f in dataclasses.fields(distcost.GramianBundle)]
    assert fields == ["W_B", "spec", "t_f", "v_bar_unit", "state_transition", "system"]


# __main__ is left out: importing it runs the argument parser
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(distcost.__path__)
                    if m.name != "__main__")


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"distcost.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_cli_import_loads_no_process_pool():
    # the writers run in the calling process: multiprocessing and
    # concurrent.futures would add tens of milliseconds to every start
    code = ("import sys, distcost.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(distcost.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_first_csv_text_loads_no_module():
    # building the writer's tables on first use imports nothing: numpy's
    # lazily loaded submodules, such as numpy.ma behind np.unique, cost a
    # fresh process about 15 ms and 1 MB
    code = "\n".join([
        "import sys, numpy as np, distcost.cli",
        "from distcost import simulate",
        "loaded = set(sys.modules)",
        "simulate.csv_text(['a', 'b'], np.array([[0.5, -3e-7], [2.0 ** -30, 1e300]]))",
        "print(sorted(set(sys.modules) - loaded))",
    ])
    src = os.path.dirname(os.path.dirname(distcost.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_shortest_decimal_table_is_built_on_first_use():
    # import leaves the Dragonbox table and the layout tables unbuilt;
    # the first csv_text call builds the entries of the exponent fields it
    # meets, and a later call on the same values reuses them without
    # building any
    code = "\n".join([
        "import numpy as np, distcost",
        "from distcost import _kernels, simulate",
        "print(np.count_nonzero(_kernels._TABLE), simulate._layout_tables.cache_info().currsize)",
        "built = []",
        "column = _kernels._table_column",
        "_kernels._table_column = lambda j: built.append(j) or column(j)",
        "table = np.array([[0.5, -3e-7, 1e300], [2.0, 7.0, 0.0]])",
        "text = simulate.csv_text(['a', 'b', 'c'], table)",
        "first, G = len(built), _kernels._TABLE",
        "assert simulate.csv_text(['a', 'b', 'c'], table) == text",
        "print(first, len(built), _kernels._TABLE is G, int(np.count_nonzero(G[2])))",
    ])
    src = os.path.dirname(os.path.dirname(distcost.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[:2] == ["0", "0"]
    first, total, same, entries = int(out[2]), int(out[3]), out[4], int(out[5])
    assert 0 < first == total == entries and same == "True"
