"""Closed-loop simulation by exact affine steps.

The control is u = -B^T y with y(t) = e^{A^T(t_f - t)} g, and every
disturbance class is the output of a linear exosystem, so a step of
width h is exactly affine (Van Loan, IEEE TAC 1978; Moler & Van Loan,
SIAM Review 2003): x_{k+1} = e^{Ah} x_k - W(h) y_{k+1} + F_k, with W(h)
the Gramian of horizon h and F_k = int_0^h e^{A(h - s)} w(t_k + s) ds.
The states are exact up to rounding at any step count, so ``steps`` sets
the sampling, not the accuracy; a cell grid must nest with the step
grid. The recurrence is one prefix scan (``linalg.linear_scan``), its
powers e^{A h 2^j} - I from one stacked exponential. The costates y come
from ``ControlSignal.costates``, and ``sample_half_grid`` gives the
controls and, by composite Simpson over its midpoints, the running
energy: a quadrature independent of the closed-form energies it checks.

``csv_text`` writes a trajectory as repr() text: Dragonbox's shortest
digits, with the point inserted as a digit, in four-digit groups that a
table turns into words of characters, one 32-byte record per value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from ._kernels import shortest_decimal
from .gramian import _gramians
from .linalg import as_whole, block_expm, expm, linear_scan
from .signals import DisturbanceSignal
from .synthesis import ControlSignal, _sinusoid_exosystem, piecewise_response

__all__ = ["Trajectory", "simulate_closed_loop", "trajectory_to_csv", "csv_text"]


@dataclass(frozen=True)
class Trajectory:
    """Simulation record on a uniform grid over [0, t_f].

    ``control_energy_running[j]`` is the composite-Simpson value of
    int_0^{t_j} ||u||_2^2 dt, so its last entry is the signal energy.
    """

    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    state_norms: np.ndarray
    control_energy_running: np.ndarray

    @property
    def terminal_residual(self) -> float:
        """||x(t_f)||_2 relative to ||x0||_2."""
        x0n = self.state_norms[0]
        return float(self.state_norms[-1] / x0n) if x0n > 0.0 else 0.0

    @property
    def energy(self) -> float:
        return float(self.control_energy_running[-1])


def _forcing(sys, w: DisturbanceSignal | None, times: np.ndarray):
    # F_k = int_0^h e^{A(h - s)} w(t_k + s) ds of every step: the
    # sinusoid's exosystem block applied to its state at t_k, or the
    # response of the cells of each step, a step holding whole cells or
    # lying inside one
    if w is None:
        return 0.0
    t_f, steps = times[-1], len(times) - 1
    h = t_f / steps
    w.require_cover(t_f)
    if w.cell_values is None:
        C, S, z = _sinusoid_exosystem(w, times[:-1])
        return z @ block_expm(sys.A, C, S, h)[1].T
    K = w.aligned_cells(t_f)
    fine = max(steps, K)
    if not K or fine % steps or fine % K:
        raise DomainError(f"piecewise disturbance of {w.cells} cells over [0, {w.horizon:g}] "
                          f"and {steps} steps over [0, {t_f:g}] do not nest: the cells must "
                          "end on step edges or the steps on cell edges")
    values = np.repeat(w.cell_values[:K], fine // K, axis=0)
    return piecewise_response(sys, values.reshape(steps, fine // steps, sys.n), h)


def _square_sums(A):
    # the squared norm of each row, its squares added left to right: the
    # bits of np.sum(A * A, axis=1) for rows of fewer than 8 entries, which
    # numpy adds in that order (it splits longer rows pairwise)
    out = A[:, 0] * A[:, 0]
    for j in range(1, A.shape[1]):
        out += A[:, j] * A[:, j]
    return out


def simulate_closed_loop(u: ControlSignal, w: DisturbanceSignal | None,
                         steps: int) -> Trajectory:
    """Integrate xdot = A x + B u(t) + w(t) from x0 over [0, t_f], with
    x0 and t_f the control's own ``u.task`` and (A, B) its ``u.system``.

    Parameters
    ----------
    u : ControlSignal
        Its ``costates`` at the step nodes drive the steps, and its
        ``sample_half_grid`` gives the controls and their running energy;
        a zero gain vector gives zero control.
    w : DisturbanceSignal or None
        None means no disturbance; else of dimension n (else
        DimensionError). A cell grid and the step grid must nest, and
        t_f must end a cell (else DomainError naming both counts).
    steps : int
        Number of uniform steps, each exact up to rounding, at least
        100; a float must be a whole number.

    Returns
    -------
    Trajectory
        States and controls on the step grid, state norms, and the
        running control energy (composite Simpson per step). Raises
        NumericalError when any of them is not finite.
    """
    steps = as_whole(steps, "steps", 100)
    sys, x0, t_f = u.system, u.task.x0, u.task.t_f
    if w is not None and w.dim != sys.n:
        raise DimensionError(f"disturbance dim {w.dim} does not match n = {sys.n}")
    h = t_f / steps

    U_half = u.sample_half_grid(steps)
    times = np.linspace(0.0, t_f, steps + 1)
    F = _forcing(sys, w, times)
    W = _gramians(sys, [h])[0][0]
    Y = u.costates(steps)[::-1]
    scales = h * 2.0 ** np.arange(steps.bit_length())
    D_pow = expm(sys.A * scales[:, None, None]) - np.eye(sys.n)
    X = linear_scan(np.vstack([x0, F - Y[1:] @ W]), D_pow)

    # squares that overflow are caught by the finiteness check below
    with np.errstate(over="ignore"):
        g = _square_sums(U_half)
        seg = (h / 6.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
        running = np.concatenate(([0.0], np.cumsum(seg)))
        norms = np.sqrt(_square_sums(X))

    controls = np.ascontiguousarray(U_half[::2])
    # finite norms mean finite states, a finite energy finite controls
    if not (np.isfinite(norms).all() and np.isfinite(running[-1])):
        raise NumericalError("closed-loop trajectory overflows: states, controls "
                             "or their energy are not finite")
    for arr in (times, X, controls, norms, running):
        arr.setflags(write=False)
    return Trajectory(times=times, states=X, controls=controls,
                      state_norms=norms, control_energy_running=running)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text, header t,x1..xn,u1..up,xnorm,energy; shortest-roundtrip decimals."""
    n = traj.states.shape[1]
    p = traj.controls.shape[1]
    header = ["t"]
    header += [f"x{i + 1}" for i in range(n)]
    header += [f"u{i + 1}" for i in range(p)]
    header += ["xnorm", "energy"]
    return csv_text(header, np.column_stack([traj.times, traj.states, traj.controls,
                                             traj.state_norms,
                                             traj.control_energy_running]))


def csv_text(header, table) -> str:
    """CSV text: the header line, one line per row of the float table, and
    a trailing newline.

    Every number is byte for byte repr() of the float: the shortest
    decimal that rounds back to it (the closest of equally short ones,
    <= 17 significant digits), written |x| = 0.d1d2... 10^p positionally
    for -4 < p <= 16 and as d.ddde+XX otherwise, with ".0" after whole
    numbers, and "-0.0", "inf", "-inf" and "nan" (for every NaN). The
    digits come from Dragonbox (``_kernels.shortest_decimal``), and the
    text is laid out for ``_FORMAT_BLOCK`` values at a time.
    """
    table = np.asarray(table, dtype=np.float64)
    parts = [",".join(header), "\n"]
    if not table.size:
        return "".join(parts) + "\n" * (table.shape[0] if table.ndim == 2 else 0)
    cols = table.shape[1]
    flat = table.ravel()
    for start in range(0, flat.size, _FORMAT_BLOCK):
        x = flat[start:start + _FORMAT_BLOCK]
        row_end = np.arange(start + 1, start + 1 + x.size) % cols == 0
        parts.append(_format_block(x, row_end).decode("ascii"))
    return "".join(parts)


# values per block of csv_text: about 3 MB of temporaries
_FORMAT_BLOCK = 1 << 13
_POW10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
_INF_NAN = np.array([int.from_bytes(text.rjust(8, b"\0"), "little")
                     for text in (b"inf", b"nan", b"-inf")], dtype=np.uint64)


@functools.cache
def _layout_tables():
    """The read-only tables of ``_format_block``, built on its first use.

    digits: the ASCII of the four decimal digits of 0..9999, the first in
    the low byte (row 0), or in the high half after "0000" (row 1; "0" OR
    a digit is the digit).

    At j = (k + 350) * 18 + nd, for |x| = f 10^k and f of nd digits:
    modulus and scale, such that R = (10 f - 9 (f mod modulus)) scale is
    f's digits with a 0 where the point goes, and a 0 after the point of a
    whole number; mark and suffix, the columns of ``marks`` and
    ``suffixes`` for x.

    marks: three words to XOR into R's 24 characters, right-aligned and
    led by "0"s, that turn the "0"s before the number into NUL, the one
    just before it into "-" for a negative x, and the point's into ".".

    suffixes: the exponent ("e-05" for p = -4, none for -4 < p <= 16) and
    the separator, "," or "\n".
    """
    d = np.meshgrid(*[np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)] * 4, indexing="ij")
    digits = np.stack(d, axis=-1).reshape(-1, 4).view("<u4").ravel().astype(np.uint64)
    digits = np.stack([digits, digits << np.uint64(32) | digits[0]])

    k, nd = np.arange(-350, 330)[:, None], np.arange(18)
    p = np.clip(k + nd, -330, 329)
    positional = (p > -4) & (p <= 16)
    # P digits before the point and r after it; exponent notation puts the
    # point after the first digit, and none after a lone digit
    P = np.where(positional, p, 1)
    r = nd - P
    lone = ~positional & (r == 0)
    modulus = _POW10[np.where(lone, 17, np.clip(r, 0, 17))].ravel()
    scale = _POW10[positional * np.clip(1 - r, 0, 17)].ravel()
    # the point's character and the number's first, "0" when P <= 0
    point = 23 - np.maximum(r, 1) + 2 * lone
    first = np.clip(point - np.maximum(P, 1), 0, 23)
    mark = ((first * 25 + point) * 2).astype(np.int16).ravel()
    suffix = ((p + 330) * 2).astype(np.int16).ravel()

    # column (first * 25 + point) * 2 + negative
    first, point, neg, col = np.ogrid[:24, :25, :2, :24]
    marks = np.where(col < first, ord("0"), 0)
    marks = np.where((col == first - 1) & (neg == 1), ord("0") ^ ord("-"), marks)
    marks = np.where(col == point, ord("0") ^ ord("."), marks).astype(np.uint8)
    marks = marks.reshape(-1, 24).view("<u8").T.copy()

    # column (p + 330) * 2 + row end: "e", the sign and the two or three
    # digits of |p - 1| (from its four), then the separator
    p = np.arange(-330, 330)
    e = np.abs(p - 1)
    length = np.where((p > -4) & (p <= 16), 0, 4 + (e >= 100)).astype(np.uint64)
    exponent = (((ord("e") | np.where(p > 0, ord("+"), ord("-")) << 8) * (length > 0))
                .astype(np.uint64) | digits[0, e] >> np.uint64(8) * (6 - length) << np.uint64(16))
    sep = np.array([ord(","), ord("\n")], dtype=np.uint64)
    suffixes = (exponent[:, None] | sep << np.uint64(8) * length[:, None]).ravel()

    tables = (digits, modulus, scale, mark, suffix, marks, suffixes)
    for t in tables:
        t.setflags(write=False)
    return tables


def _format_block(x, row_end) -> bytes:
    # repr() of each float of x, followed by "," or, at a row end, "\n".
    # Each value has a record of four little-endian words: R's 24
    # characters, then the suffix; marks turn every byte outside the text
    # into NUL, so the records' nonzero bytes are the text
    digits, modulus, scale, mark, suffix, marks, suffixes = _layout_tables()
    m = x.size
    words = np.empty((m, 4), dtype="<u8").T
    finite = np.isfinite(x)
    special = None if finite.all() else np.flatnonzero(~finite)
    f, k = shortest_decimal(x if special is None else np.where(finite, x, 0.0))
    # nd digits: t = floor(bit_length(f) log10 2) is nd or nd - 1, and
    # f as a float has f's bit length or, rounded up, one more
    t = ((((f | np.uint64(1)).astype(np.float64).view(np.int64) >> 52) - 1022) * 1233) >> 12
    j = (k + 350) * 18 + t + (f >= _POW10[t])
    R = f * np.uint64(10) - np.uint64(9) * (f % modulus[j])
    # R < 10^18 in groups: g0 of two digits (characters 6-7 of the field,
    # after "000000"), g1..g4 of four, in rows g0 g1 g3 g2 g4
    R = (R * scale[j]).view(np.int64)
    groups = np.empty((5, m), dtype=np.int64)
    halves = np.empty((2, m), dtype=np.int64)
    q = R // 10 ** 8
    np.subtract(R, q * 10 ** 8, out=halves[1])
    np.floor_divide(q, 10 ** 8, out=groups[0])
    np.subtract(q, groups[0] * 10 ** 8, out=halves[0])
    np.floor_divide(halves, 10 ** 4, out=groups[1:3])
    np.subtract(halves, groups[1:3] * 10 ** 4, out=groups[3:5])
    low, high = digits
    high.take(groups[0], out=words[0])
    np.bitwise_or(low[groups[1:3]], high[groups[3:5]], out=words[1:3])
    words[:3] ^= marks.take(mark[j] + np.signbit(x), axis=1)
    suffixes.take(suffix[j] + row_end, out=words[3])
    if special is not None:
        # x = 0 gave "0.0" and the separator
        words[:2, special] = 0
        words[2, special] = _INF_NAN[np.where(np.isnan(x[special]), 1, 2 * np.signbit(x[special]))]
    text = words.T.view(np.uint8).reshape(-1)
    return text[text != 0].tobytes()
