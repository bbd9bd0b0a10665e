"""Per-layer spans for an in-process distcost run, recorded from outside.

The program itself is not edited. ``Tracer.installed()`` replaces every
``distcost`` module attribute (or class attribute) bound to one of the
functions in ``LAYERS`` with a timing wrapper, and puts the originals back
on exit. A function is patched under every name it is bound to, e.g.
``disturbance_response`` in ``synthesis``, ``energy`` and ``sweeps``, so
calls are caught whichever module makes them. A layer that no longer
exists reports 0 calls.

Each call is a span. A layer's ``s`` is inclusive busy time (outermost
activations only), ``self_s`` is span time minus the time of its direct
child spans. Summed over all layers, ``self_s`` equals the time spent
inside top-level spans, so self times plus ``unattributed_s`` equal the
traced wall. Spans are kept on one stack: the traced commands run on a
single thread (the generated configs set no ``workers``).
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# metric prefix -> (module, attribute path). Metric names may not start
# with "_", so distcost._kernels reports as "kernels".
LAYERS = {
    "gramian.build_bundle": ("distcost.gramian", "build_bundle"),
    "gramian.norm_integral": ("distcost.gramian", "norm_integral"),
    "linalg.expm": ("distcost.linalg", "expm"),
    "linalg.sym_eig": ("distcost.linalg", "sym_eig"),
    "synthesis.disturbance_response": ("distcost.synthesis", "disturbance_response"),
    "synthesis.sample_half_grid": ("distcost.synthesis", "ControlSignal.sample_half_grid"),
    "signals.make_disturbance": ("distcost.signals", "make_disturbance"),
    "signals.uniform_stream": ("distcost.signals", "uniform_stream"),
    "energy.nominal_energy": ("distcost.energy", "nominal_energy"),
    "energy.disturbed_energy_bound": ("distcost.energy", "disturbed_energy_bound"),
    "energy.disturbed_signal_energy": ("distcost.energy", "disturbed_signal_energy"),
    "energy.energy_pair_for_response": ("distcost.energy", "energy_pair_for_response"),
    "metrics.metric_report": ("distcost.metrics", "metric_report"),
    "sweeps.sample_ball": ("distcost.sweeps", "sample_ball"),
    "sweeps.sample_sphere": ("distcost.sweeps", "sample_sphere"),
    "sweeps.worst_constant_sign": ("distcost.sweeps", "worst_constant_sign"),
    "simulate.simulate_closed_loop": ("distcost.simulate", "simulate_closed_loop"),
    "simulate.trajectory_to_csv": ("distcost.simulate", "trajectory_to_csv"),
    "kernels.expm_core": ("distcost._kernels", "expm_core"),
    "kernels.jacobi_core": ("distcost._kernels", "jacobi_core"),
    "kernels.rk4_core": ("distcost._kernels", "rk4_core"),
    "kernels.propagate_gain_grid": ("distcost._kernels", "propagate_gain_grid"),
    "kernels.weighted_transition_sum": ("distcost._kernels", "weighted_transition_sum"),
    "kernels.splitmix_fill": ("distcost._kernels", "splitmix_fill"),
    "cli.main": ("distcost.cli", "main"),
}

# the root span: its self time is config handling, serialisation and any
# work done outside the other layers
ROOT = "cli.main"


def _splitmix_count(args, kwargs) -> int:
    return int(kwargs["count"] if "count" in kwargs else args[2])


# extra counters summed over calls: metric name -> (layer, f(args, kwargs))
COUNTERS = {"kernels.splitmix_fill.draws": ("kernels.splitmix_fill", _splitmix_count)}


def _resolve(module: str, path: str):
    """(owner, attribute name, function) for a dotted path, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _distcost_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "distcost" or name.startswith("distcost."))]


class Tracer:
    """Span accumulator; one instance per traced run."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.incl = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.top_s = 0.0
        self._stack = []               # [child seconds] per open span
        self._active = dict.fromkeys(LAYERS, 0)

    def _wrap(self, layer: str, fn):
        counters = [(name, f) for name, (owner, f) in COUNTERS.items() if owner == layer]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            self._active[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self._stack.pop()
                self._active[layer] -= 1
                self.calls[layer] += 1
                self.self_s[layer] += d - frame[0]
                if not self._active[layer]:
                    self.incl[layer] += d
                if self._stack:
                    self._stack[-1][0] += d
                else:
                    self.top_s += d
                for name, f in counters:
                    self.counters[name] += f(args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every distcost binding of every layer; restore on exit."""
        # resolve (and so import) every layer's module before patching, so
        # no module binds a wrapper at import time and keeps it afterwards
        found = {layer: _resolve(*where) for layer, where in LAYERS.items()}
        originals = {}                 # id(wrapper) -> (wrapper, original)
        patches = []
        try:
            for layer, hit in found.items():
                if hit is None:
                    continue
                owner, attr, fn = hit
                wrapper = self._wrap(layer, fn)
                originals[id(wrapper)] = (wrapper, fn)
                targets = [(owner, attr)]
                if not isinstance(owner, type):
                    targets = [(mod, name) for mod in _distcost_modules()
                               for name, value in list(vars(mod).items())
                               if value is fn]
                for tgt, name in targets:
                    patches.append((tgt, name, fn))
                    setattr(tgt, name, wrapper)
            yield self
        finally:
            for tgt, name, fn in patches:
                setattr(tgt, name, fn)
            # a module first imported while patched bound a wrapper
            for mod in _distcost_modules():
                for name, value in list(vars(mod).items()):
                    wrapper, fn = originals.get(id(value), (None, None))
                    if wrapper is value:
                        setattr(mod, name, fn)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer values for one traced run of ``wall_s`` seconds."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.incl[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out.update(self.counters)
        unattributed = wall_s - self.top_s
        covered = sum(v for k, v in self.self_s.items() if k != ROOT)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = unattributed
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        # identity the accounting rests on: all self time plus the time
        # outside every span is the whole traced wall
        total = sum(self.self_s.values()) + unattributed
        if abs(total - wall_s) > 1e-6 * max(wall_s, 1.0):
            raise RuntimeError(f"span accounting broken: {total} != {wall_s}")
        return out
