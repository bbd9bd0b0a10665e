"""Disturbance signals and the deterministic random stream behind them.

Three concrete classes plus zero: a constant sign-pattern disturbance at
full amplitude, per-channel sinusoids, and a piecewise-constant signal
with i.i.d. uniform values per grid cell. Every signal satisfies
||w(t)||_inf <= w_bar by construction.

Randomness is a counter-based splitmix64 stream (see ``uniform_stream``),
so any draw can be regenerated from (seed, index) alone and identical
seeds give bit-identical signals on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DomainError

__all__ = ["DisturbanceSignal", "make_disturbance", "uniform_stream", "derive_seed",
           "derive_seeds", "piecewise_cell_values"]

_MASK64 = (1 << 64) - 1


def uniform_stream(seed, start: int, count: int) -> np.ndarray:
    """Draws [start, start+count) of the splitmix64 stream for ``seed``.

    Draw i is mix64(seed + (i+1) * 0x9E3779B97F4A7C15) mapped to [0, 1)
    via the top 53 bits; mix64 is the standard splitmix64 finalizer
    (xor-shift 30, multiply 0xBF58476D1CE4E5B9, xor-shift 27, multiply
    0x94D049BB133111EB, xor-shift 31). ``seed`` is an int, or a uint64
    vector of seeds giving one row of draws each.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if not isinstance(seed, np.ndarray):
        seed = np.uint64(int(seed) & _MASK64)
    return _k.splitmix_fill(seed, int(start), int(count))


def derive_seed(master: int, *indices: int) -> int:
    """Fold grid/draw indices into a child seed, deterministically.

    Each index is mixed in as child = mix64(child XOR mix64(child + index + 1)),
    evaluated in 64-bit wrapping arithmetic.
    """
    # a one-element array: uint64 array arithmetic wraps without warning
    z = np.array([int(master) & _MASK64], dtype=np.uint64)
    for idx in indices:
        z = _k.mix64(z ^ _k.mix64(z + np.uint64((int(idx) + 1) & _MASK64)))
    return int(z[0])


def derive_seeds(master: int, count: int, *indices: int) -> np.ndarray:
    """``derive_seed(master, *indices, k)`` for k = 0..count-1, as one
    uint64 vector."""
    z = np.uint64(derive_seed(master, *indices))
    k = np.arange(count, dtype=np.uint64)
    return _k.mix64(z ^ _k.mix64(z + k + np.uint64(1)))


@dataclass(frozen=True)
class DisturbanceSignal:
    """A vector disturbance on [0, horizon] with ||w(t)||_inf <= w_bar.

    ``kind`` is one of zero, constant_sign, sinusoid, piecewise_uniform.
    Analytic kinds are defined for all t >= 0 (horizon = inf); the
    piecewise kind owns a uniform cell grid over [0, horizon] and is
    constant inside each cell, taking the last cell's value at t = horizon.
    """

    kind: str
    w_bar: float
    dim: int
    horizon: float = np.inf
    sign_vector: np.ndarray | None = None
    amplitudes: np.ndarray | None = None
    frequencies: np.ndarray | None = None
    phases: np.ndarray | None = None
    cell_values: np.ndarray | None = None
    seed: int | None = None

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
        """How many whole piecewise cells span [0, t_f]; 0 when t_f falls
        inside a cell."""
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
        if self.kind == "zero":
            return np.zeros((taus.size, self.dim))
        if self.kind == "constant_sign":
            return np.broadcast_to(self.w_bar * self.sign_vector,
                                   (taus.size, self.dim)).copy()
        if self.kind == "sinusoid":
            arg = np.outer(taus, self.frequencies) + self.phases
            return np.sin(arg) * self.amplitudes
        # piecewise_uniform: cell k owns [k*d, (k+1)*d), last cell closed
        idx = np.clip((taus / self.horizon * self.cells).astype(np.int64),
                      0, self.cells - 1)
        return self.cell_values[idx]


def make_disturbance(kind: str, w_bar: float, dim: int, seed: int = 0,
                     sign_vector=None, amplitudes=None, frequencies=None,
                     phases=None, cells: int = 1000, horizon: float = 1.0,
                     ) -> DisturbanceSignal:
    """Construct one of the disturbance classes.

    Parameters
    ----------
    kind : {"zero", "constant_sign", "sinusoid", "piecewise_uniform"}
    w_bar : float
        Pointwise infinity-norm bound; amplitudes above it are rejected.
    dim : int
        Signal dimension (the state dimension n).
    seed : int
        Stream seed for piecewise_uniform; cell k, channel c consumes
        draw k*dim + c of the stream.
    sign_vector : entries in {-1, 0, +1}, constant_sign only.
    amplitudes, frequencies, phases : per-channel sinusoid parameters
        (rad/s for frequencies); amplitudes default to w_bar.
    cells, horizon : piecewise_uniform grid: ``cells`` uniform cells
        spanning [0, horizon].
    """
    w_bar = float(w_bar)
    if w_bar < 0.0 or not np.isfinite(w_bar):
        raise DomainError(f"w_bar must be nonnegative and finite, got {w_bar}")
    if dim < 1:
        raise DomainError("dim must be at least 1")

    if kind == "zero":
        return DisturbanceSignal(kind="zero", w_bar=w_bar, dim=dim)

    if kind == "constant_sign":
        s = np.asarray(sign_vector if sign_vector is not None else np.ones(dim),
                       dtype=np.float64)
        if s.shape != (dim,):
            raise DomainError(f"sign_vector must have shape ({dim},)")
        if not np.all(np.isin(s, (-1.0, 0.0, 1.0))):
            raise DomainError("sign_vector entries must lie in {-1, 0, +1}")
        s.setflags(write=False)
        return DisturbanceSignal(kind="constant_sign", w_bar=w_bar, dim=dim,
                                 sign_vector=s)

    if kind == "sinusoid":
        amp = np.asarray(amplitudes if amplitudes is not None else np.full(dim, w_bar),
                         dtype=np.float64)
        freq = np.asarray(frequencies if frequencies is not None
                          else _default_frequencies(dim), dtype=np.float64)
        ph = np.asarray(phases if phases is not None else np.zeros(dim),
                        dtype=np.float64)
        for name, arr in (("amplitudes", amp), ("frequencies", freq), ("phases", ph)):
            if arr.shape != (dim,):
                raise DomainError(f"{name} must have shape ({dim},)")
            if not np.all(np.isfinite(arr)):
                raise DomainError(f"{name} must be finite")
        if np.any(np.abs(amp) > w_bar * (1.0 + 1e-15)):
            raise DomainError("sinusoid amplitude exceeds w_bar")
        for a in (amp, freq, ph):
            a.setflags(write=False)
        return DisturbanceSignal(kind="sinusoid", w_bar=w_bar, dim=dim,
                                 amplitudes=amp, frequencies=freq, phases=ph)

    if kind == "piecewise_uniform":
        cells = int(cells)
        horizon = float(horizon)
        if cells < 1:
            raise DomainError("piecewise_uniform needs at least one cell")
        if not 0.0 < horizon < np.inf:
            raise DomainError(
                f"piecewise_uniform horizon must be positive and finite, got {horizon}")
        values = piecewise_cell_values(seed, w_bar, cells, dim)
        values.setflags(write=False)
        return DisturbanceSignal(kind="piecewise_uniform", w_bar=w_bar, dim=dim,
                                 horizon=horizon, cell_values=values, seed=int(seed))

    raise DomainError(f"unknown disturbance kind {kind!r}")


def piecewise_cell_values(seed, w_bar: float, cells: int, dim: int) -> np.ndarray:
    """Cell values w_bar * (2u - 1) of a piecewise_uniform signal, (cells, dim).

    Cell k, channel c takes draw k*dim + c of the stream of ``seed``; a
    uint64 seed vector gives one (cells, dim) block per seed.
    """
    u = uniform_stream(seed, 0, cells * dim)
    return (w_bar * (2.0 * u - 1.0)).reshape(u.shape[:-1] + (cells, dim))


def _default_frequencies(dim: int) -> np.ndarray:
    # per-channel high-frequency defaults, cycled when dim > 3
    base = np.array([20.0, 27.0, 35.0])
    return np.resize(base, dim)
