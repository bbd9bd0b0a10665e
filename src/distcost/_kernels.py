"""Hot numerical kernels, one whole-array numpy implementation each.

expm_core is degree-13 Pade scaling and squaring and jacobi_core the
cyclic Jacobi eigensolve, each on one (n, n) matrix or a (k, n, n) stack,
every matrix of a stack getting the bits it gets alone; splitmix_fill is
the counter-based splitmix64 stream. RK4 and the control half-grid need no
kernel: they are batched numpy in simulate.py and synthesis.py.

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

# the signs of the sine in the p and q halves of a Jacobi rotation
_SIGNS = np.array([1.0, -1.0])


def expm_core(M):
    # scaling and squaring with a fixed degree-13 Pade approximant, on one
    # (n, n) matrix or a (k, n, n) stack. Each matrix has its own scaling
    # exponent s and squaring j touches only the matrices with s >= j, so
    # every matrix of a stack gets the bits it would get alone.
    S = M.reshape((-1,) + M.shape[-2:])
    eta = np.sum(np.abs(S), axis=-2).max(axis=-1, initial=0.0)
    s = np.ceil(np.log2(np.maximum(eta, _PADE_THETA) / _PADE_THETA)).astype(np.int64)
    Ms = S / (2.0 ** s)[:, None, None]
    I = np.eye(S.shape[-1])
    M2 = Ms @ Ms
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = Ms @ (M6 @ (_B13 * M6 + _B11 * M4 + _B9 * M2)
              + _B7 * M6 + _B5 * M4 + _B3 * M2 + _B1 * I)
    V = (M6 @ (_B12 * M6 + _B10 * M4 + _B8 * M2)
         + _B6 * M6 + _B4 * M4 + _B2 * M2 + _B0 * I)
    E = np.ascontiguousarray(np.linalg.solve(V - U, V + U))
    for j in range(1, int(s.max(initial=0)) + 1):
        sq = s >= j
        if sq.all():
            E = E @ E
        else:
            E[sq] = E[sq] @ E[sq]
    return E.reshape(M.shape)


def _off_norm(S):
    # Frobenius norm of the off-diagonal part of each matrix of a stack,
    # from the masked entries: ||S||_F^2 - ||diag S||^2 would cancel
    # catastrophically near convergence
    O = S.copy()
    n = S.shape[-1]
    O.reshape(len(S), n * n)[:, ::n + 1] = 0.0
    return _frobenius(O)


def _frobenius(S):
    # each matrix summed as one flat run of n*n squares, the summation
    # order numpy gives a lone contiguous matrix
    F = S.reshape(len(S), S.shape[-1] ** 2)
    return np.sqrt(np.sum(F * F, axis=-1))


def _rotate(X, p, q, n):
    # one Jacobi rotation (p, q) of every S-over-V stack X[i] (2n x n);
    # each apq is nonzero
    S = X[:, :n]
    tau = (S[:, q, q] - S[:, p, p]) / (2.0 * S[:, p, q])
    # t = sign(tau) / (|tau| + sqrt(1 + tau^2)) with sign(-0) = +1, c =
    # 1 / sqrt(1 + t^2) and s = t c: the same bits as the two-branch form
    # of t, as negation is exact
    a = np.abs(tau)
    r = 1.0 / (a + np.sqrt(1.0 + a * a))
    c = 1.0 / np.sqrt(1.0 + r * r)
    sn = np.copysign(r * c, tau + 0.0)
    # columns p, q of S and V, then rows p, q of S, each pair read in
    # full before it is overwritten: new p = c x_p - s x_q and new q =
    # c x_q - (-s) x_p, which is s x_p + c x_q bit for bit
    cc = c[:, None, None]
    g = sn[:, None] * _SIGNS
    pq = slice(p, q + 1, q - p)
    cols = X[:, :, pq].copy()
    X[:, :, pq] = cc * cols - g[:, None, :] * cols[:, :, ::-1]
    rows = S[:, pq, :].copy()
    S[:, pq, :] = cc * rows - g[:, :, None] * rows[:, ::-1, :]


def jacobi_core(S, off_tol, max_sweeps):
    # cyclic Jacobi on one symmetric (n, n) matrix or a (k, n, n) stack;
    # works on a copy. Returns (diag, V, off, sweeps, thresh), one entry
    # per matrix; a matrix has converged when off <= thresh. Each matrix
    # has its own threshold and sweep count and is swept only while its
    # own off > thresh, and a rotation whose apq is exactly 0 is skipped
    # for that matrix alone, so every matrix of a stack gets the bits it
    # gets alone.
    lead, n = S.shape[:-2], S.shape[-1]
    k = int(np.prod(lead))
    S = S.reshape(k, n, n)
    # S on top of V in one buffer, so one column update rotates both
    SV = np.concatenate([S, np.broadcast_to(np.eye(n), S.shape)], axis=1)
    thresh = off_tol * _frobenius(S)
    off = _off_norm(S)
    sweeps = np.zeros(k, dtype=np.int64)

    while True:
        live = np.flatnonzero((off > thresh) & (sweeps < max_sweeps))
        if not live.size:
            break
        X = SV[live]
        for p in range(n - 1):
            for q in range(p + 1, n):
                nonzero = np.count_nonzero(X[:, p, q])
                if nonzero == len(X):
                    _rotate(X, p, q, n)
                elif nonzero:
                    nz = X[:, p, q] != 0.0
                    Y = X[nz]
                    _rotate(Y, p, q, n)
                    X[nz] = Y
        SV[live] = X
        sweeps[live] += 1
        off[live] = _off_norm(X[:, :n])

    diag = np.diagonal(SV[:, :n], axis1=1, axis2=2).copy()
    V = SV[:, n:]
    return (diag.reshape(lead + (n,)), V.reshape(lead + (n, n)),
            off.reshape(lead)[()], sweeps.reshape(lead)[()],
            thresh.reshape(lead)[()])


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
