"""Closed-loop simulation by classical fixed-step Runge-Kutta.

Controls are evaluated on a half-step grid shared with the RK4 stages
(no interpolation), and discontinuous disturbances contribute their own
cell's value at every stage of a step, including the right endpoint, so
a piecewise-constant signal aligned with the step grid is integrated at
full fourth order.

One RK4 step on xdot = A x + f(t) is exactly affine, x_{k+1} = T x_k + F_k:
    M = hA,  T = I + M + M^2/2 + M^3/6 + M^4/24,
    F_k = (h/6) [(I + M + M^2/2 + M^3/4) f_L + (4I + 2M + M^2/2) f_mid + f_R]
with f = B u + w at the left, mid and right stages. T is RK4's degree-4
polynomial, not e^{hA}, so this is still RK4 with its O(h^4) error and
an independent check of the closed-form energies. The recurrence runs as
one prefix scan (``linalg.linear_scan``) in log2(steps) batched passes,
each adding in place. The controls come from
``ControlSignal.sample_half_grid``, whose input-free recurrence doubles
its states instead.

``csv_text`` writes a trajectory as repr() text: Schubfach's shortest
digits, split into four-digit groups that a table turns into characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DimensionError, DomainError, NumericalError
from ._kernels import shortest_decimal
from .linalg import as_whole, linear_scan
from .signals import DisturbanceSignal
from .synthesis import ControlSignal, _check_x0
from .systems import StabilizationTask

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


def _disturbance_stages(w: DisturbanceSignal, t_f: float, steps: int,
                        n: int) -> np.ndarray:
    if w is None:
        return np.zeros((steps, 3, n))
    w.require_cover(t_f)
    K = w.aligned_cells(t_f)
    if K and steps % K == 0:
        # step grid refines the cell grid: every stage of a step sees
        # the step's own cell value, jumps land exactly on step edges
        cell_of_step = np.repeat(np.arange(K), steps // K)
        vals = w.cell_values[cell_of_step]
        return np.repeat(vals[:, None, :], 3, axis=1)
    # sinusoids and unaligned grids: pointwise sampling; integration
    # order degrades at interior jumps
    h = t_f / steps
    t_left = np.linspace(0.0, t_f, steps + 1)[:-1]
    left = w._values(t_left)
    mid = w._values(t_left + 0.5 * h)
    right = w._values(t_left + h)
    return np.stack([left, mid, right], axis=1)


def _rk4(A, B, x0, h, U_half, w_stages):
    # the affine RK4 recurrence of the module docstring; U_half is u on the
    # half-step grid, w_stages the (left, mid, right) w of each step. T is
    # kept as I + D, since rounding I + D would repeat one error per step.
    steps = w_stages.shape[0]
    I = np.eye(A.shape[0])
    M = h * A
    M2 = M @ M
    M3 = M2 @ M
    D = M + M2 / 2.0 + M3 / 6.0 + (M2 @ M2) / 24.0
    P_left = I + M + M2 / 2.0 + M3 / 4.0
    P_mid = 4.0 * I + 2.0 * M + M2 / 2.0
    f = U_half @ B.T
    F = (h / 6.0) * ((f[0:-1:2] + w_stages[:, 0]) @ P_left.T
                     + (f[1::2] + w_stages[:, 1]) @ P_mid.T
                     + f[2::2] + w_stages[:, 2])

    # T is a polynomial, not an exponential, so its powers T^(2^j) - I
    # come only by doubling: (I + D)^2 - I = 2D + D^2
    D_pow = list(accumulate(range(steps.bit_length() - 1),
                            lambda Dj, _: 2.0 * Dj + Dj @ Dj, initial=D))
    return linear_scan(np.vstack([x0, F]), D_pow)


def simulate_closed_loop(task: StabilizationTask, u: ControlSignal,
                         w: DisturbanceSignal | None, steps: int) -> Trajectory:
    """Integrate xdot = A x + B u(t) + w(t) from x0 over [0, t_f], with
    (A, B) the control's own ``u.system``.

    Parameters
    ----------
    task : StabilizationTask
        x0 must have the system's dimension n (else DimensionError).
    u : ControlSignal
        Sampled on the half-step grid by its ``sample_half_grid``. It must
        be built for the task's horizon (else DomainError); a zero gain
        vector gives zero control.
    w : DisturbanceSignal or None
        None means no disturbance; else of dimension n (else
        DimensionError).
    steps : int
        Uniform RK4 step count, at least 100; a float must be a whole
        number.

    Returns
    -------
    Trajectory
        States and controls on the step grid, state norms, and the
        running control energy (composite Simpson per step). Raises
        NumericalError when any of them is not finite.
    """
    steps = as_whole(steps, "steps", 100)
    sys = u.system
    _check_x0(task, sys.n)
    if w is not None and w.dim != sys.n:
        raise DimensionError(f"disturbance dim {w.dim} does not match n = {sys.n}")
    t_f = task.t_f
    h = t_f / steps

    if abs(u.t_f - t_f) > 1e-12 * max(1.0, t_f):
        raise DomainError(
            f"control defined on [0, {u.t_f:g}] does not match horizon {t_f:g}"
        )
    U_half = u.sample_half_grid(steps)
    w_stages = _disturbance_stages(w, t_f, steps, sys.n)
    X = _rk4(sys.A, sys.B, task.x0, h, U_half, w_stages)

    # squares that overflow are caught by the finiteness check below
    with np.errstate(over="ignore"):
        g = np.sum(U_half * U_half, axis=1)
        seg = (h / 6.0) * (g[0:-1:2] + 4.0 * g[1::2] + g[2::2])
        running = np.concatenate(([0.0], np.cumsum(seg)))
        norms = np.sqrt(np.sum(X * X, axis=1))

    times = np.linspace(0.0, t_f, steps + 1)
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
    digits come from Schubfach (``_kernels.shortest_decimal``), and the
    text is laid out for ``_FORMAT_BLOCK`` values at a time.
    """
    table = np.asarray(table, dtype=np.float64)
    parts = [",".join(header), "\n"]
    if not table.size:
        return "".join(parts) + "\n" * (table.shape[0] if table.ndim == 2 else 0)
    cols = table.shape[1]
    flat = table.ravel()
    scratch = _format_scratch(min(_FORMAT_BLOCK, flat.size))
    for start in range(0, flat.size, _FORMAT_BLOCK):
        x = flat[start:start + _FORMAT_BLOCK]
        row_end = np.arange(start + 1, start + 1 + x.size) % cols == 0
        parts.append(_format_block(x, row_end, *scratch).decode("ascii"))
    return "".join(parts)


# values per block of csv_text: about 4 MB of scratch arrays with the
# kernel's temporaries
_FORMAT_BLOCK = 1 << 13
_POW10 = np.array([10 ** j for j in range(20)], dtype=np.uint64)
_COLUMNS = np.arange(22)[:, None]
_PLACES = np.arange(1, 22, dtype=np.uint8)[:, None]
_INF_NAN = np.frombuffer(b"infnan", dtype=np.uint8).reshape(2, 3)
# row i: the four decimal digits of i, most significant first
_GROUP_DIGITS = np.stack(
    np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij", copy=False),
    axis=-1).reshape(10 ** 4, 4)


def _format_scratch(block):
    # a block's buffers, one column per value. Text rows: "-", the number
    # (22), "e" and the exponent or inf/nan (5), the separator; the mask
    # picks each column's characters. Digit rows: a pad, 21 digits, a "0"
    # pad. Group rows: 4-digit groups (5), scratch (2).
    text = np.empty((29, block), dtype=np.uint8)
    text[0] = ord("-")
    mask = np.empty((29, block), dtype=bool)
    mask[28] = True
    digits = np.full((23, block), ord("0"), dtype=np.uint8)
    groups = np.empty((7, block), dtype=np.uint64)
    return text, mask, digits, groups


def _divmod(a, d, quotient, remainder):
    # a // d and a % d into the two outputs: floor_divide by a scalar is
    # vectorised, numpy's divmod and remainder are not
    q = a // d
    quotient[...] = q
    np.subtract(a, q * d, out=remainder, casting="unsafe")


def _format_block(x, row_end, text, mask, digits, groups) -> bytes:
    # repr() of each float of x, followed by "," or, at a row end, "\n"
    m, block = x.size, text.shape[1]
    flat = text.reshape(-1)
    text, mask, digits, groups = text[:, :m], mask[:, :m], digits[:, :m], groups[:, :m]
    finite = np.isfinite(x)
    f, e = shortest_decimal(np.where(finite, x, 0.0))
    # |x| = 0.d1d2... 10^p; positional for -4 < p <= 16, where 0 < |x| < 1
    # reads "0.", -p zeros and the digits
    nd = np.searchsorted(_POW10, f, side="right")
    p = e + nd
    positional = (p > -4) & (p <= 16)
    zeros = positional * np.maximum(1 - p, 0)
    # 21 digits: those 1 - p zeros, the digits of f, trailing zeros; a
    # 5-digit head and a 16-digit tail, in 4-digit groups, each read from
    # the table as its four digits
    F = f * _POW10[17 - nd]
    cut = _POW10[12 + zeros]
    head = F // cut
    _divmod(head, 10 ** 4, digits[1], groups[0])
    _divmod((F - head * cut) * _POW10[4 - zeros], 10 ** 8, groups[5], groups[6])
    _divmod(groups[5:7], 10 ** 4, groups[1:5:2], groups[2:5:2])
    digits[2:22].reshape(5, 4, m)[...] = np.take(
        _GROUP_DIGITS, groups[0:5], axis=0).transpose(0, 2, 1)
    # the number: the digits up to the last nonzero one, with "." after
    # the first `point` of them; positionally at least one digit on
    # either side of it, in exponent notation no "." after a lone digit
    end = ((digits[1:22] != 0) * _PLACES).max(axis=0)
    digits[1:22] += ord("0")
    point = np.where(positional & (p > 0), p, 1)
    length = np.where(positional, np.maximum(end + 1, point + 2), end + (end > 1))
    length *= finite
    number = text[1:23]
    np.subtract(digits[1:23], digits[0:22], out=number)
    number *= _COLUMNS < point
    number += digits[0:22]
    flat[(point + 1) * block + np.arange(m)] = ord(".")
    # "e", the sign and two or three digits of p - 1 (a two-digit one
    # times 10, so that its digits come first), or inf and nan
    exponent = np.abs(p - 1)
    big = exponent >= 100
    np.multiply(exponent, 10 - 9 * big, out=groups[5], casting="unsafe")
    _divmod(groups[5], 100, text[25], groups[6])
    _divmod(groups[6], 10, text[26], text[27])
    text[25:28] += ord("0")
    text[23] = ord("e")
    np.add(2 * (p < 1), ord("+"), out=text[24], casting="unsafe")
    suffix = ~positional * (4 + big)
    special = np.flatnonzero(~finite)
    if special.size:
        nan = np.isnan(x[special])
        text[23:26, special] = _INF_NAN[nan.astype(np.intp)].T
        suffix[special] = 3
    np.subtract(ord(","), (ord(",") - ord("\n")) * row_end, out=text[28], casting="unsafe")
    np.logical_and(np.signbit(x), x == x, out=mask[0])
    np.less(_COLUMNS, length, out=mask[1:23])
    np.less(_COLUMNS[:5], suffix, out=mask[23:28])
    return text.T[mask.T].tobytes()
