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
    # the trajectory writers fork by hand: multiprocessing and
    # concurrent.futures would add tens of milliseconds to every start
    code = ("import sys, distcost.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(distcost.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
