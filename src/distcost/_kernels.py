"""Hot numerical kernels, one whole-array numpy implementation each.

expm_core is degree-13 Pade scaling and squaring and jacobi_core the
cyclic Jacobi eigensolve, each on one (n, n) matrix or a (k, n, n) stack,
every matrix of a stack getting the bits it gets alone; splitmix_fill is
the counter-based splitmix64 stream; shortest_decimal is Schubfach's
shortest round-trip decimal of each float of an array, the digits behind
the CSV writer. RK4 and the control half-grid need no kernel: they are
batched numpy in simulate.py and synthesis.py.

Jacobi stops on the absolute test off(S) <= tol * ||S||_F, so on
ill-conditioned Gramians it is less accurate than numpy.linalg.eigh: at
cond(W_B) 3.4e9 it left E_N 6.0e-5 off a 60-digit truth, where eigh was
2.4e-7 off.

Kernels take C-contiguous float64 arrays and do no validation; their
callers linalg.expm, gramian._inverse_factors (Jacobi's one caller) and
signals own the error checking.
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

# Schubfach: the decimal exponents k of the doubles, and a table of
# g(k) = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 split as
# g = g1 2^63 + g0, in rows (g0 lo, g1 lo, g0 hi, g1 hi, g1, h0): the
# 32-bit limbs, g1 itself and h0 = floor(log2 10^-k) + 2 in two's
# complement. g1 >= 2^62, so a zero g1 marks an entry not yet built;
# entries are built from Python ints on first use of their k, never at
# import.
_K_MIN = -324
_K_MAX = 292
_G_TABLE = None
_U1 = np.uint64(1)
_U2 = np.uint64(2)
_U10 = np.uint64(10)
_U32 = np.uint64(32)
_U52 = np.uint64(52)
_U63 = np.uint64(63)
_HIDDEN = np.uint64(1 << 52)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK52 = np.uint64((1 << 52) - 1)
_MASK63 = np.uint64((1 << 63) - 1)
# the steps from s to s + 1 and from sp10 to sp10 + 10, and the offsets
# of the regular interval's ends and of x from 4c (2^64 - 2 is -2)
_STEPS = np.array([[1], [10]], dtype=np.uint64)
_ENDS = np.array([[(1 << 64) - 2], [0], [2]], dtype=np.uint64)


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


def schubfach_g(e):
    # (g, r) for an int e, the g of k = -e: g = floor(10^e 2^-r) + 1 with
    # r = floor(log2 10^e) - 125, so 2^125 <= g < 2^126 and
    # (g - 1) 2^r <= 10^e < g 2^r
    p = 10 ** abs(e)
    if e >= 0:
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1, r
    r = -p.bit_length() - 125
    return (1 << -r) // p + 1, r


def _g_column(k):
    # the table column of k
    g, r = schubfach_g(-k)
    g0, g1 = g & ((1 << 63) - 1), g >> 63
    return g0 & 0xFFFFFFFF, g1 & 0xFFFFFFFF, g0 >> 32, g1 >> 32, g1, r + 127


def _g_columns(k):
    # the table columns of the k values, building the missing entries;
    # k's entry is column k mod 617, so negative k index from the end
    global _G_TABLE
    if _G_TABLE is None:
        _G_TABLE = np.zeros((6, _K_MAX - _K_MIN + 1), dtype=np.uint64)
    G = _G_TABLE.take(k, axis=1, mode="wrap")
    if np.count_nonzero(G[4]) < k.size:
        built = _G_TABLE[4].tolist()
        new = sorted(j for j in set(k.tolist()) if not built[j])
        cols = np.array([_g_column(j) for j in new], dtype=np.int64)
        _G_TABLE[:, new] = cols.T.view(np.uint64)
        G = _G_TABLE.take(k, axis=1, mode="wrap")
    return G


def _rop(G, cp):
    # Schubfach's rop(g cp 2^-127), g cp / 2^127 rounded to odd, for each
    # (3, m) cp against its column of G, as Java's DoubleToDecimal forms
    # it from g = g1 2^63 + g0. The high 64 bits of g0 cp and g1 cp come
    # from 32-bit limbs at once; for g0, g1 < 2^63 and cp < 2^59 the
    # middle sum stays below 2^32 + 2^59 + 2^63.
    lo, hi = G[0:2, None], G[2:4, None]
    cp_lo, cp_hi = cp & _MASK32, cp >> _U32
    x = lo * cp_lo
    x >>= _U32
    x += lo * cp_hi
    x += hi * cp_lo
    x >>= _U32
    x += hi * cp_hi
    z = G[4] * cp
    z >>= _U1
    z += x[0]
    vbp = x[1]
    vbp += z >> _U63
    vbp |= (z & _MASK63) != 0
    return vbp


def shortest_decimal(x):
    # Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    # 2020): (f, e) with |x| = f 10^e for a finite 1-D float64 array x,
    # where the digits of f, trailing zeros dropped, are the shortest
    # decimal that rounds back to x and, among equally short ones, the
    # closest, ties to even: the digits of repr(x). Zero gives (0, 0);
    # inf and NaN give unspecified values. Unlike Java's version, a
    # subnormal is not scaled by 10 and the one-digit-shorter test runs
    # from s >= 10, which gives repr's 5e-324 where Java prints 4.9e-324.
    bits = x.view(np.uint64)
    t = bits & _MASK52
    bq = (bits >> _U52).astype(np.int64) & 0x7FF
    c = t + (bq != 0) * _HIDDEN
    q = np.maximum(bq, 1) - 1075
    # c = 2^52 above the subnormals: the gap below x is half the gap above
    irregular = (t == 0) & (bq > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    # the rounding interval's lower end, x and its upper end, in quarters
    # of the spacing, scaled by 2^h and then by g(k) 2^-127
    G = _g_columns(k)
    cp = (c << _U2) + _ENDS
    cp[0] += irregular
    cp <<= q.astype(np.uint64) + G[5]
    vbl, vb, vbr = _rop(G, cp)
    # the ends of the interval round to x only when c is even
    odd = c & _U1
    vbl += odd
    vbr -= odd
    # s 10^k and (s + 1) 10^k bracket x, and so do sp10 10^k and
    # (sp10 + 10) 10^k, one digit shorter: a candidate wins when it is
    # the only one of its pair inside the interval
    s = vb >> _U2
    lower = s // _STEPS * _STEPS
    upper = lower + _STEPS
    uin = vbl <= lower << _U2
    alone = uin != (upper << _U2 <= vbr)
    pick = np.where(uin, lower, upper)
    # both s and s + 1 inside: the closer one, ties to even s
    closer = np.where(vb + (s & _U1) <= (s << _U2) + _U2, s, upper[0])
    f = np.where(alone[1] & (s >= _U10), pick[1], np.where(alone[0], pick[0], closer))
    zero = c == 0
    f[zero] = 0
    k[zero] = 0
    return f, k
