"""Every layer the benchmark tracer wraps still names a function.

``e2ebench/tracer.py`` reports a layer that no longer resolves as 0
calls, so a refactor that renames or deletes a traced function unbinds
its layer without any error. The six layers listed in ``STALE`` are
already known to bind nothing and await their removal from the tracer;
no other layer may join them. Loads ``e2ebench/tracer.py`` without
editing it, and traces one short in-process ``stabilize`` run.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"

STALE = {"gramian.norm_integral", "linalg.sym_eig", "energy.energy_pair_for_response",
         "kernels.rk4_core", "kernels.propagate_gain_grid",
         "kernels.weighted_transition_sum"}


def _load_tracer():
    # imported from its file without writing bytecode beside it
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_only_known_stale_layers_are_unbound():
    tracer = _load_tracer()
    unbound = {layer for layer, where in tracer.LAYERS.items()
               if tracer._resolve(*where) is None}
    assert unbound <= STALE
    assert tracer.ROOT not in unbound


def test_stabilize_calls_its_layers(tmp_path):
    # a layer can still resolve while stabilize stops calling it through a
    # patched binding, which leaves its per-layer split blind
    from distcost import cli
    tracer = _load_tracer().Tracer()
    with tracer.installed():
        assert cli.entry(["stabilize", "--steps", "200", "--out", str(tmp_path)]) == 0
    layers = ("simulate.simulate_closed_loop", "synthesis.sample_half_grid",
              "simulate.trajectory_to_csv")
    assert all(tracer.calls[layer] >= 1 for layer in layers), tracer.calls
