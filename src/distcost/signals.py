"""Disturbance signals and the deterministic random stream behind them.

Three concrete classes plus zero: a constant sign-pattern disturbance at
full amplitude, per-channel sinusoids, and a piecewise-constant signal
with i.i.d. uniform values per grid cell. ``KIND_PARAMETERS`` is the one
table of each kind's parameters. Zero and constant signals are a single
cell, so every kind but the sinusoid is a cell grid. Every signal
satisfies ||w(t)||_inf <= w_bar by construction.

Randomness is a counter-based splitmix64 stream (see ``uniform_stream``),
so any draw can be regenerated from (seed, index) alone and identical
seeds give bit-identical signals on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DomainError
from .linalg import as_scalar, as_whole

__all__ = ["DisturbanceSignal", "KIND_PARAMETERS", "make_disturbance", "uniform_stream",
           "derive_seed", "derive_seeds", "piecewise_cell_values", "as_seed"]

_MASK64 = (1 << 64) - 1


def as_seed(seed) -> int:
    """The integer a seed names, by the whole-number rule of ``as_whole``."""
    return as_whole(seed, "seed")


def uniform_stream(seed, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the splitmix64 stream for ``seed``.

    Draw i is mix64(seed + (i+1) * 0x9E3779B97F4A7C15) mapped to [0, 1)
    via the top 53 bits; mix64 is the standard splitmix64 finalizer
    (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27, multiply
    0x94D049BB133111EB, xor-shift 31). ``seed`` is an int, or a uint64
    vector of seeds giving one row of draws each.
    """
    start, count = as_whole(start, "start", 0), as_whole(count, "count", 0)
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(as_seed(seed) & _MASK64)
    return _k.splitmix_fill(seed, start, count)


def derive_seed(master: int, *indices: int) -> int:
    """Fold grid/draw indices into a child seed, deterministically.

    Each index is mixed in as child = mix64(child XOR mix64(child + index + 1)),
    evaluated in 64-bit wrapping arithmetic.
    """
    # a one-element array: uint64 array arithmetic wraps without warning
    z = np.array([as_seed(master) & _MASK64], dtype=np.uint64)
    for idx in indices:
        idx = as_whole(idx, "seed index")
        z = _k.mix64(z ^ _k.mix64(z + np.uint64((idx + 1) & _MASK64)))
    return int(z[0])


def derive_seeds(master: int, count: int, *indices: int) -> np.ndarray:
    """``derive_seed(master, *indices, k)`` for k = 0..count-1, as one
    uint64 vector."""
    z = np.uint64(derive_seed(master, *indices))
    k = np.arange(as_whole(count, "count", 0), dtype=np.uint64)
    return _k.mix64(z ^ _k.mix64(z + k + np.uint64(1)))


# each kind's parameters and their defaults; a None default is derived
# from w_bar and dim: all-plus signs, amplitudes w_bar, the default
# frequencies, zero phases
KIND_PARAMETERS = {
    "zero": {},
    "constant_sign": {"sign_vector": None},
    "sinusoid": {"amplitudes": None, "frequencies": None, "phases": None},
    "piecewise_uniform": {"cells": 1000, "seed": 0, "horizon": 1.0},
}


@dataclass(frozen=True)
class DisturbanceSignal:
    """A vector disturbance on [0, horizon] with ||w(t)||_inf <= w_bar.

    ``kind`` labels the class (a key of ``KIND_PARAMETERS``). A sinusoid
    carries its per-channel parameters; every other kind is a uniform
    cell grid over [0, horizon], constant inside each cell and taking the
    last cell's value at t = horizon. Zero and constant signals are one
    cell over all t >= 0 (horizon = inf); a sinusoid is defined there too.
    """

    kind: str
    w_bar: float
    dim: int
    horizon: float = np.inf
    amplitudes: np.ndarray | None = None
    frequencies: np.ndarray | None = None
    phases: np.ndarray | None = None
    cell_values: np.ndarray | None = None

    @property
    def cells(self) -> int:
        return 0 if self.cell_values is None else self.cell_values.shape[0]

    def require_cover(self, t_f: float):
        """Raise DomainError unless the signal is defined on all of [0, t_f]."""
        if t_f > self.horizon * (1.0 + 1e-12):
            raise DomainError(
                f"disturbance defined on [0, {self.horizon:g}] does not cover "
                f"t = {t_f:g}"
            )

    def aligned_cells(self, t_f: float) -> int:
        """How many whole cells span [0, t_f]; 0 when t_f falls inside a
        cell. A single cell is constant, so it counts as aligned with
        every t_f it covers."""
        if self.cells == 1:
            return 1
        frac = t_f / self.horizon * self.cells
        K = int(round(frac))
        return K if K >= 1 and abs(frac - K) <= 1e-9 * max(1.0, frac) else 0

    def eval(self, t) -> np.ndarray:
        """Value at scalar time t (vectorized over a 1-D array of times)."""
        taus = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if np.any(taus < -1e-12):
            raise DomainError("disturbance evaluated at negative time")
        self.require_cover(float(np.max(taus)) if taus.size else 0.0)
        out = self._values(taus)
        return out[0] if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def _values(self, taus: np.ndarray) -> np.ndarray:
        if self.cell_values is None:
            arg = np.outer(taus, self.frequencies) + self.phases
            return np.sin(arg) * self.amplitudes
        # cell k owns [k*d, (k+1)*d), last cell closed
        idx = np.clip((taus / self.horizon * self.cells).astype(np.int64),
                      0, self.cells - 1)
        return self.cell_values[idx]


def make_disturbance(kind: str, w_bar: float, dim: int, **params) -> DisturbanceSignal:
    """Construct one of the disturbance classes.

    Parameters
    ----------
    kind : a key of ``KIND_PARAMETERS``
        "zero", "constant_sign", "sinusoid" or "piecewise_uniform".
    w_bar : float
        Pointwise infinity-norm bound; amplitudes above it are rejected.
    dim : int
        Signal dimension (the state dimension n).
    **params
        The kind's parameters from ``KIND_PARAMETERS``: an absent one
        takes its default, any other raises DomainError. Sign entries
        lie in {-1, 0, +1} and frequencies are in rad/s. ``cells``
        uniform cells span [0, ``horizon``], cell k, channel c taking
        draw k*dim + c of the stream of ``seed`` (both whole numbers).
    """
    w_bar, dim = as_scalar(w_bar, "w_bar"), as_whole(dim, "dim", 1)
    if kind not in KIND_PARAMETERS:
        raise DomainError(f"unknown disturbance kind {kind!r}")
    foreign = sorted(set(params) - set(KIND_PARAMETERS[kind]))
    if foreign:
        raise DomainError(f"a {kind} disturbance takes no parameter {', '.join(foreign)}")
    p = {**KIND_PARAMETERS[kind], **params}

    # the per-channel vectors, with the defaults a None stands for; the
    # frequencies cycle when dim > 3
    derived = {"sign_vector": np.ones(dim), "amplitudes": np.full(dim, w_bar),
               "frequencies": np.resize([20.0, 27.0, 35.0], dim),
               "phases": np.zeros(dim)}
    for name in [k for k in p if k in derived]:
        arr = np.array(derived[name] if p[name] is None else p[name], dtype=np.float64)
        if arr.shape != (dim,):
            raise DomainError(f"{name} must have shape ({dim},)")
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be finite")
        arr.setflags(write=False)
        p[name] = arr

    if kind == "sinusoid":
        if np.any(np.abs(p["amplitudes"]) > w_bar * (1.0 + 1e-15)):
            raise DomainError("sinusoid amplitude exceeds w_bar")
        return DisturbanceSignal(kind=kind, w_bar=w_bar, dim=dim, **p)
    if kind == "piecewise_uniform":
        cells = as_whole(p["cells"], "piecewise_uniform cells", 1)
        horizon = as_scalar(p["horizon"], "piecewise_uniform horizon", positive=True)
        values = piecewise_cell_values(as_seed(p["seed"]), w_bar, cells, dim)
    else:
        s = p.get("sign_vector", np.zeros(dim))
        if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
            raise DomainError("sign_vector entries must lie in {-1, 0, +1}")
        horizon, values = np.inf, (w_bar * s)[None]
    values.setflags(write=False)
    return DisturbanceSignal(kind=kind, w_bar=w_bar, dim=dim, horizon=horizon,
                             cell_values=values)


def piecewise_cell_values(seed, w_bar: float, cells: int, dim: int) -> np.ndarray:
    """Cell values w_bar * (2u - 1) of a piecewise_uniform signal, (cells, dim).

    Cell k, channel c takes draw k*dim + c of the stream of ``seed``; a
    uint64 seed vector gives one (cells, dim) block per seed.
    """
    u = uniform_stream(seed, 0, cells * dim)
    return (w_bar * (2.0 * u - 1.0)).reshape(u.shape[:-1] + (cells, dim))

