"""Hot numerical kernels, one whole-array numpy implementation each.

expm_core is degree-13 Pade scaling and squaring, jacobi_core the cyclic
Jacobi eigensolve, and splitmix_fill the counter-based splitmix64
stream. RK4 and the control half-grid need no kernel: they are batched
numpy in simulate.py and synthesis.py.

Jacobi stops on the absolute test off(S) <= tol * ||S||_F, so on
ill-conditioned Gramians it is less accurate than numpy.linalg.eigh: at
cond(W_B) 3.4e9 it left E_N 6.0e-5 off a 60-digit truth, where eigh was
2.4e-7 off.

Kernels take C-contiguous float64 arrays and do no validation; the
wrappers in linalg/gramian/signals own the error checking.
"""

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


def expm_core(M):
    # scaling and squaring with a fixed degree-13 Pade approximant
    n = M.shape[0]
    eta = np.max(np.sum(np.abs(M), axis=0), initial=0.0)
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


def _off_norm(S):
    # Frobenius norm of the off-diagonal part, from the masked entries:
    # ||S||_F^2 - ||diag S||^2 would cancel catastrophically near convergence
    O = S - np.diag(np.diag(S))
    return np.sqrt(np.sum(O * O))


def jacobi_core(S, off_tol, max_sweeps):
    # cyclic Jacobi on a symmetric matrix; works on a copy of S.
    # Returns (diag, V, off, sweeps, thresh); convergence means off <= thresh.
    n = S.shape[0]
    # S on top of V in one buffer, so one column update rotates both
    SV = np.concatenate([S, np.eye(n)])
    S, V = SV[:n], SV[n:]
    thresh = off_tol * np.sqrt(np.sum(S * S))
    off = _off_norm(S)

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
                # columns of S and V, then rows of S; each pair is read
                # in full before either half is overwritten
                xp = SV[:, p].copy()
                xq = SV[:, q].copy()
                SV[:, p] = c * xp - sn * xq
                SV[:, q] = sn * xp + c * xq
                sp = S[p, :].copy()
                sq = S[q, :].copy()
                S[p, :] = c * sp - sn * sq
                S[q, :] = sn * sp + c * sq
        sweeps += 1
        off = _off_norm(S)

    return np.diag(S).copy(), V, off, sweeps, thresh


def mix64(z):
    # the splitmix64 finalizer on uint64 values; uint64 ops wrap mod 2^64
    z = (z ^ (z >> _SM_S1)) * _SM_M1
    z = (z ^ (z >> _SM_S2)) * _SM_M2
    return z ^ (z >> _SM_S3)


def splitmix_fill(seed, start, count):
    # counter-based splitmix64: draw i is mix(seed + (i+1)*GOLD), mapped
    # to [0, 1) through the top 53 bits. Stateless, so any subrange of a
    # stream can be generated independently. A uint64 vector of seeds
    # gives one row of draws per seed.
    seed = np.asarray(seed, dtype=np.uint64)[..., None]
    z = seed + (np.arange(count, dtype=np.uint64) + np.uint64(start + 1)) * _SM_GOLD
    return (mix64(z) >> _SM_S11).astype(np.float64) * _SM_INV53
