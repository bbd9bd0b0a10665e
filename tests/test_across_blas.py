"""Across BLAS kernels the outputs differ only at rounding level, the
contract README's paragraph on output bytes states.

Four commands run twice in fresh interpreters: once on the kernels
OpenBLAS selects for this CPU, once under ``OPENBLAS_CORETYPE=Prescott``,
its oldest x86-64 kernels, which sum products in another order. The
variable is set for the child processes alone. Where numpy's BLAS is not
OpenBLAS it does nothing, and the two runs agree byte for byte.

Every number agrees within KAPPA_EPS relative. Two kinds of value sit at
rounding level, where a relative bound means nothing, and get an absolute
floor instead: ``terminal_residual`` (relative to ||x0||, so its floor is
1) and every trajectory column (floor: the column's largest magnitude).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import distcost

# 512 eps, about 1.1e-13: ordinary values moved by at most 1.2e-14
# relative, and rounding-level ones by 1.3e-14 of their floor, when this
# was measured on an AVX-512 host under Prescott and Sandybridge
KAPPA_EPS = 512 * np.finfo(np.float64).eps

COMMANDS = {
    "stabilize": ["stabilize", "--steps", "200"],
    "bound-accuracy": ["bound-accuracy"],
    "metrics-sweep": ["metrics-sweep", "--tf-grid", "0.5,2", "--R-grid", "10,100"],
    "energy": ["energy"],
}


def run_both(argv, base):
    """{kernels: (stdout, out directory)} for the selected and the
    Prescott kernels, the two children running side by side."""
    src = os.path.dirname(os.path.dirname(distcost.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    procs = {}
    for kernels, child_env in (("selected", env),
                               ("Prescott", dict(env, OPENBLAS_CORETYPE="Prescott"))):
        out = base / kernels
        procs[kernels] = out, subprocess.Popen(
            [sys.executable, "-m", "distcost", *argv, "--out", str(out)],
            env=child_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    runs = {}
    for kernels, (out, proc) in procs.items():
        stdout, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
        runs[kernels] = stdout, out
    return runs


def assert_close(a, b, floor, where):
    # equal, both NaN, or within KAPPA_EPS of the larger magnitude or floor
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, where
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        ok = ((a == b) | (np.abs(a - b) <= KAPPA_EPS * scale)
              | (np.isnan(a) & np.isnan(b)))
    bad = np.flatnonzero(~ok)
    assert bad.size == 0, (f"{where}: {a.ravel()[bad[0]]!r} against "
                           f"{b.ravel()[bad[0]]!r} (at flat index {bad[0]})")


def assert_json_close(a, b, where):
    if isinstance(a, dict):
        assert isinstance(b, dict) and list(a) == list(b), where
        for key in a:
            assert_json_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_json_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and isinstance(b, float):
        floor = 1.0 if where.endswith(".terminal_residual") else 0.0
        assert_close(a, b, floor, where)
    else:
        assert type(a) is type(b) and a == b, where


def assert_csv_close(a, b, where):
    head_a, head_b = a.read_text().split("\n", 1)[0], b.read_text().split("\n", 1)[0]
    assert head_a == head_b, where
    A = np.loadtxt(a, delimiter=",", skiprows=1, ndmin=2)
    B = np.loadtxt(b, delimiter=",", skiprows=1, ndmin=2)
    assert A.shape == B.shape, where
    trajectory = a.name.startswith("traj_")
    for j, column in enumerate(head_a.split(",")):
        floor = np.max(np.abs(A[:, j])) if trajectory and A.size else 0.0
        assert_close(A[:, j], B[:, j], floor, f"{where} column {column}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_values_agree_across_blas_kernels(tmp_path, command):
    runs = run_both(COMMANDS[command], tmp_path)
    (stdout_a, out_a), (stdout_b, out_b) = runs["selected"], runs["Prescott"]
    if stdout_a:
        assert_json_close(json.loads(stdout_a), json.loads(stdout_b), "stdout")
    else:
        assert stdout_b == ""
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        if name.endswith(".csv"):
            assert_csv_close(out_a / name, out_b / name, name)
        else:
            assert_json_close(json.loads((out_a / name).read_text()),
                              json.loads((out_b / name).read_text()), name)
