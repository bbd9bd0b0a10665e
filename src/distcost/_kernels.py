"""Hot numerical kernels with optional JIT compilation.

expm_core and jacobi_core are written as plain loop-level numpy functions
so the same source runs under numba's nopython mode or as-is. When numba
imports cleanly (and DISTCOST_DISABLE_NUMBA is unset) those names point
at compiled versions; otherwise they point at the raw functions. The raw
functions stay reachable through PY_IMPLS so benchmarks/bench_kernels.py
can time both paths against each other. splitmix_fill is whole-array
uint64 numpy and has a single build. RK4 and the control half-grid need
no kernel: they are batched numpy in simulate.py and synthesis.py.

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
    "splitmix_fill": _splitmix_fill,
}

if USING_NUMBA:
    _jit = _njit(cache=True, nogil=True)
    expm_core = _jit(_expm)
    jacobi_core = _jit(_jacobi)
else:
    expm_core = _expm
    jacobi_core = _jacobi
# whole-array uint64 ops already run at native speed, so one build serves
splitmix_fill = _splitmix_fill


def warm_up():
    """Run every kernel once so the jit builds are compiled (or loaded
    from the disk cache) before anything is timed."""
    expm_core(np.array([[0.0, 1.0], [-1.0, -0.5]]))
    jacobi_core(np.array([[2.0, 1.0], [1.0, 2.0]]), 1e-12, 100)
    with np.errstate(over="ignore"):
        splitmix_fill(np.uint64(0), 0, 4)
