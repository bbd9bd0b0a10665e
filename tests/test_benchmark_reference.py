"""The benchmark workloads against their recorded reference outputs.

Runs each of the three e2ebench workloads once in process for the input
seeds 0-7, a fixed prefix of the recorded ones, and checks every run with
the workload's own checks and against ``e2ebench/reference.json`` at the
benchmark's tolerance. A change that moves a benchmark output past that
tolerance fails here, before the benchmark itself runs. Reads
``e2ebench/`` only: the inputs and outputs go to a temporary directory.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from distcost.cli import entry

BENCH = Path(__file__).resolve().parent.parent / "e2ebench"
SEEDS = range(8)


def _load_workloads():
    # imported from its file without writing bytecode beside it
    spec = importlib.util.spec_from_file_location("e2ebench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.fixture(scope="module")
def references():
    return json.loads((BENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_matches_reference(tmp_path, capsys, references, name, seed):
    wl = workloads.WORKLOADS[name]
    inputs = wl.make_inputs(seed, tmp_path)
    ref = references[name][str(seed)]
    assert ref["inputs"] == workloads.input_digest(inputs)
    out = tmp_path / "out"
    assert entry([wl.command, "--config", inputs["config"], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    problems, digest = wl.check(out)
    assert problems == []
    assert workloads.compare(digest, ref["digest"]) == []
