"""Hot numerical kernels with optional JIT compilation.

Every kernel here except splitmix_fill is written as a plain loop-level
numpy function so the same source runs under numba's nopython mode or
as-is. When numba imports cleanly (and DISTCOST_DISABLE_NUMBA is unset)
the public names point at compiled versions; otherwise they point at the
raw functions. The raw functions stay reachable through PY_IMPLS so
benchmarks/bench_kernels.py can time both paths against each other.
splitmix_fill is whole-array uint64 numpy and has a single build.

Kernels take C-contiguous float64 arrays and do no validation; the
wrappers in linalg/gramian/synthesis own the error checking.
"""

import os

import numpy as np

# degree-13 Pade coefficients for expm, scaling threshold from the
# standard scaling-and-squaring error analysis
_PADE_THETA = 5.371920351148152
_B0 = 64764752532480000.0
_B1 = 32382376266240000.0
_B2 = 7771770303897600.0
_B3 = 1187353796428800.0
_B4 = 129060195264000.0
_B5 = 10559470521600.0
_B6 = 670442572800.0
_B7 = 33522128640.0
_B8 = 1323241920.0
_B9 = 40840800.0
_B10 = 960960.0
_B11 = 16380.0
_B12 = 182.0
_B13 = 1.0

# splitmix64 mixing constants
_SM_GOLD = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_SM_S1 = np.uint64(30)
_SM_S2 = np.uint64(27)
_SM_S3 = np.uint64(31)
_SM_S11 = np.uint64(11)
_SM_INV53 = 2.0 ** -53


def _expm(M):
    # scaling and squaring with a fixed degree-13 Pade approximant
    n = M.shape[0]
    eta = 0.0
    for j in range(n):
        colsum = 0.0
        for i in range(n):
            colsum += abs(M[i, j])
        if colsum > eta:
            eta = colsum
    s = 0
    if eta > _PADE_THETA:
        s = int(np.ceil(np.log2(eta / _PADE_THETA)))
    Ms = M / (2.0 ** s)
    I = np.eye(n)
    M2 = Ms @ Ms
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = Ms @ (M6 @ (_B13 * M6 + _B11 * M4 + _B9 * M2)
              + _B7 * M6 + _B5 * M4 + _B3 * M2 + _B1 * I)
    V = (M6 @ (_B12 * M6 + _B10 * M4 + _B8 * M2)
         + _B6 * M6 + _B4 * M4 + _B2 * M2 + _B0 * I)
    E = np.ascontiguousarray(np.linalg.solve(V - U, V + U))
    for _ in range(s):
        E = E @ E
    return E


def _jacobi(S, off_tol, max_sweeps):
    # cyclic Jacobi on a symmetric matrix; S is clobbered, caller copies.
    # Returns (diag, V, off, sweeps, thresh); convergence means off <= thresh.
    n = S.shape[0]
    V = np.eye(n)
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            fro2 += S[i, j] * S[i, j]
    thresh = off_tol * np.sqrt(fro2)

    off2 = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                off2 += S[i, j] * S[i, j]
    off = np.sqrt(off2)

    sweeps = 0
    while off > thresh and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = S[p, q]
                if apq == 0.0:
                    continue
                tau = (S[q, q] - S[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                for k in range(n):
                    skp = S[k, p]
                    skq = S[k, q]
                    S[k, p] = c * skp - sn * skq
                    S[k, q] = sn * skp + c * skq
                for k in range(n):
                    spk = S[p, k]
                    sqk = S[q, k]
                    S[p, k] = c * spk - sn * sqk
                    S[q, k] = sn * spk + c * sqk
                for k in range(n):
                    vkp = V[k, p]
                    vkq = V[k, q]
                    V[k, p] = c * vkp - sn * vkq
                    V[k, q] = sn * vkp + c * vkq
        sweeps += 1
        off2 = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    off2 += S[i, j] * S[i, j]
        off = np.sqrt(off2)

    diag = np.empty(n)
    for i in range(n):
        diag[i] = S[i, i]
    return diag, V, off, sweeps, thresh


def _rk4(A, B, x0, h, u_stages, w_stages):
    # classical RK4 for xdot = A x + B u(t) + w(t) on a uniform grid.
    # u_stages/w_stages hold the (left, mid, right) stage inputs per step,
    # so discontinuous signals keep their own-cell value at step endpoints.
    steps = u_stages.shape[0]
    n = A.shape[0]
    X = np.empty((steps + 1, n))
    X[0] = x0
    x = x0.copy()
    for k in range(steps):
        k1 = A @ x + B @ u_stages[k, 0] + w_stages[k, 0]
        k2 = A @ (x + 0.5 * h * k1) + B @ u_stages[k, 1] + w_stages[k, 1]
        k3 = A @ (x + 0.5 * h * k2) + B @ u_stages[k, 1] + w_stages[k, 1]
        k4 = A @ (x + h * k3) + B @ u_stages[k, 2] + w_stages[k, 2]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        X[k + 1] = x
    return X


def _propagate_gain_grid(E, seeds, cp, g, n_nodes):
    # Y[j] = Phi_j @ g with Phi_j the node-j transition factor, built by
    # backward recurrence Y[j] = E @ Y[j+1] from Y[last] = g. Every cp
    # nodes the recurrence is reseeded from a fresh matrix in seeds so
    # rounding drift stays bounded; seeds[c] corresponds to a backward
    # offset of (c+1)*cp nodes.
    n = g.shape[0]
    Y = np.empty((n_nodes, n))
    Y[n_nodes - 1] = g
    for k_back in range(1, n_nodes):
        j = n_nodes - 1 - k_back
        if cp > 0 and k_back % cp == 0:
            Y[j] = seeds[k_back // cp - 1] @ g
        else:
            Y[j] = E @ Y[j + 1]
    return Y


def _splitmix_fill(seed, start, count):
    # counter-based splitmix64: draw i is mix(seed + (i+1)*GOLD), mapped
    # to [0, 1) through the top 53 bits. Stateless, so any subrange of a
    # stream can be generated independently; uint64 ops wrap mod 2^64.
    z = seed + (np.arange(count, dtype=np.uint64) + np.uint64(start + 1)) * _SM_GOLD
    z = (z ^ (z >> _SM_S1)) * _SM_M1
    z = (z ^ (z >> _SM_S2)) * _SM_M2
    z = z ^ (z >> _SM_S3)
    return (z >> _SM_S11).astype(np.float64) * _SM_INV53


def _env_flag_set(name):
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no", "off")


NUMBA_DISABLED_BY_ENV = _env_flag_set("DISTCOST_DISABLE_NUMBA")

USING_NUMBA = False
if not NUMBA_DISABLED_BY_ENV:
    try:
        from numba import njit as _njit
    except ImportError:
        _njit = None
    if _njit is not None:
        USING_NUMBA = True

PY_IMPLS = {
    "expm": _expm,
    "jacobi": _jacobi,
    "rk4": _rk4,
    "propagate_gain_grid": _propagate_gain_grid,
    "splitmix_fill": _splitmix_fill,
}

if USING_NUMBA:
    _jit = _njit(cache=True, nogil=True)
    expm_core = _jit(_expm)
    jacobi_core = _jit(_jacobi)
    rk4_core = _jit(_rk4)
    propagate_gain_grid = _jit(_propagate_gain_grid)
else:
    expm_core = _expm
    jacobi_core = _jacobi
    rk4_core = _rk4
    propagate_gain_grid = _propagate_gain_grid
# whole-array uint64 ops already run at native speed, so one build serves
splitmix_fill = _splitmix_fill


def warm_up():
    """Run every kernel once per production signature so the disk cache
    covers both the writable and the read-only array specializations."""
    M = np.array([[0.0, 1.0], [-1.0, -0.5]])
    expm_core(M)
    jacobi_core(np.array([[2.0, 1.0], [1.0, 2.0]]), 1e-12, 100)

    A_ro = M.copy()
    B_ro = np.array([[1.0], [0.0]])
    x0_ro = np.array([1.0, 0.0])
    g_ro = np.array([1.0, 2.0])
    for arr in (A_ro, B_ro, x0_ro, g_ro):
        arr.setflags(write=False)
    u_st = np.zeros((2, 3, 1))
    w_st = np.zeros((2, 3, 2))
    rk4_core(A_ro, B_ro, x0_ro, 0.5, u_st, w_st)
    rk4_core(M, B_ro.copy(), x0_ro.copy(), 0.5, u_st, w_st)

    E = expm_core(M * 0.25)
    seeds = np.empty((0, 2, 2))
    propagate_gain_grid(E, seeds, 256, g_ro, 5)
    propagate_gain_grid(E, seeds, 256, g_ro.copy(), 5)
    with np.errstate(over="ignore"):
        splitmix_fill(np.uint64(0), 0, 4)
