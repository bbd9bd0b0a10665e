"""Hot numerical kernels, one whole-array numpy implementation each.

expm_core is degree-13 Pade scaling and squaring and jacobi_core the
cyclic Jacobi eigensolve, each on one (n, n) matrix or a (k, n, n) stack,
every matrix of a stack getting the bits it gets alone; splitmix_fill is
the counter-based splitmix64 stream; shortest_decimal is Dragonbox's
shortest round-trip decimal of each float of an array, the digits behind
the CSV writer: one exact 64 x 128-bit product per value with a table of
phi, beta and k' per exponent field, and a power of two's digits read
from repr. The closed loop's exact steps and the control half-grid need
no kernel: they are batched numpy in simulate.py and synthesis.py.

Jacobi stops on the absolute test off(S) <= tol * ||S||_F, read from a
copy scaled by a power of two, so its outputs scale exactly with S. On
ill-conditioned Gramians it is less accurate than numpy.linalg.eigh: at
cond(W_B) 3.4e9 it left E_N 6.0e-5 off a 60-digit truth, where eigh was
2.4e-7 off.

Kernels take C-contiguous float64 arrays and do no validation; their
callers linalg.expm, gramian._inverse_factors (Jacobi's one caller) and
signals own the error checking.
"""

import math

import numpy as np

# degree-13 Pade coefficients for expm, b_j = (26 - j)! / (j! (13 - j)!),
# each exact as a double; scaling threshold from the standard
# scaling-and-squaring error analysis
_PADE_THETA = 5.371920351148152
_B = tuple(float(math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j)))
           for j in range(14))

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

# Dragonbox: per exponent field bq of a double, a table column holding
# the 128-bit power of ten phi = H 2^64 + L (10^k rounded up, for the k
# that scales x's rounding interval to a width of 100 to 1000) as (H, L,
# beta, the digits' exponent k'), then the power of two 2^(bq - 1023),
# whose interval is asymmetric, as repr's digits (f, k): (0, 0) for bq = 0
# and 2047. H >= 2^63, so a zero H marks an entry not yet built; entries
# are built from Python ints on first use of their bq, never at import.
_TABLE = np.zeros((6, 2048), dtype=np.uint64)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U52 = np.uint64(52)
_U64 = np.uint64(64)
_HIDDEN = np.uint64(1 << 52)
_MASK32 = np.uint64(0xFFFFFFFF)
_MASK52 = np.uint64((1 << 52) - 1)


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
    U = Ms @ (M6 @ (_B[13] * M6 + _B[11] * M4 + _B[9] * M2)
              + _B[7] * M6 + _B[5] * M4 + _B[3] * M2 + _B[1] * I)
    V = (M6 @ (_B[12] * M6 + _B[10] * M4 + _B[8] * M2)
         + _B[6] * M6 + _B[4] * M4 + _B[2] * M2 + _B[0] * I)
    E = np.ascontiguousarray(np.linalg.solve(V - U, V + U))
    for j in range(1, int(s.max(initial=0)) + 1):
        sq = s >= j
        E[sq] = E[sq] @ E[sq]
    return E.reshape(M.shape)


def _norms(S):
    # (||S||_F, off(S)) of each matrix of a stack, from a copy scaled by the
    # power of two that puts its largest entry in [1/2, 1): no square
    # overflows and both norms scale exactly with S. Each is one flat run
    # of n*n squares, numpy's order for a lone matrix; off(S) masks the
    # diagonal, as ||S||_F^2 - ||diag S||^2 cancels near convergence
    F = S.reshape(len(S), S.shape[-1] ** 2)
    _, e = np.frexp(np.max(np.abs(F), axis=-1, initial=0.0))
    F = np.ldexp(F, -e[:, None])
    F *= F
    whole = np.sqrt(np.sum(F, axis=-1))
    F[:, ::S.shape[-1] + 1] = 0.0
    return np.ldexp(whole, e), np.ldexp(np.sqrt(np.sum(F, axis=-1)), e)


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
    # gets alone. _norms is scale-free, so 2^j S gets the same V and
    # sweeps and 2^j times the rest, while no entry turns subnormal.
    lead, n = S.shape[:-2], S.shape[-1]
    k = int(np.prod(lead))
    S = S.reshape(k, n, n)
    # S on top of V in one buffer, so one column update rotates both
    SV = np.concatenate([S, np.broadcast_to(np.eye(n), S.shape)], axis=1)
    fro, off = _norms(S)
    thresh = off_tol * fro
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
        off[live] = _norms(X[:, :n])[1]

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


def dragonbox_phi(k):
    # (phi, E) for an int k: E = floor(log2 10^k) and phi =
    # ceil(10^k 2^(127 - E)), so 2^127 <= phi < 2^128
    E = (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k - 1).bit_length()
    num = 10 ** max(k, 0) << max(127 - E, 0)
    den = 10 ** max(-k, 0) << max(E - 127, 0)
    return -(-num // den), E


def _table_column(bq):
    # the table column of bq, from Dragonbox's formulas for binary64
    # (kappa = 2); e is the binary exponent of the significand's last bit
    e = max(bq, 1) - 1075
    minus_k = ((e * 315653) >> 20) - 2
    phi, E = dragonbox_phi(-minus_k)
    # repr(2^(bq - 1023)), positional or with an exponent, as (f, k)
    f, k = 0, 0
    if 0 < bq < 2047:
        digits, _, exp = repr(2.0 ** (bq - 1023)).partition("e")
        whole, _, frac = digits.partition(".")
        f = (whole + frac).rstrip("0")
        f, k = int(f), int(exp or 0) + len(whole) - len(f)
    column = (phi >> 64, phi & ((1 << 64) - 1), e + E, minus_k + 2, f, k)
    return [c & ((1 << 64) - 1) for c in column]


def _table_columns(bq):
    # the first four table rows at the bq values, building missing entries
    T = _TABLE[:4].take(bq, axis=1, mode="wrap")
    if not T[0].all():
        new = sorted(set(bq[T[0] == 0].tolist()))
        _TABLE[:, new] = np.array([_table_column(j) for j in new], dtype=np.uint64).T
        T = _TABLE[:4].take(bq, axis=1, mode="wrap")
    return T


def _umul_hi(a, b):
    # the high 64 bits of a b for uint64 a and b, from 32-bit limbs; no
    # partial sum exceeds 2^64 - 1
    a0, a1 = a & _MASK32, a >> _U32
    b0, b1 = b & _MASK32, b >> _U32
    mid = a1 * b0 + (a0 * b0 >> _U32)
    hi = a0 * b1 + (mid & _MASK32)
    return a1 * b1 + (mid >> _U32) + (hi >> _U32)


def _parity(two_f, bq, beta):
    # Dragonbox's compute_mul_parity: of two_f phi 2^beta / 2^128, the
    # parity of the integer part and whether the fraction is zero
    H, L = _TABLE[0, bq], _TABLE[1, bq]
    lo = two_f * L
    hi = two_f * H + _umul_hi(two_f, L)
    return (hi >> (_U64 - beta)) & _U1, ((hi << beta) | (lo >> (_U64 - beta))) == 0


def shortest_decimal(x):
    # Dragonbox (J. Jeon, "Dragonbox: a new floating-point binary-to-
    # decimal conversion algorithm", 2020), for round-to-nearest-even
    # reading: (f, k) with |x| = f 10^k for a finite 1-D float64 array x,
    # where f has no trailing zeros and its digits are the shortest
    # decimal that rounds back to x and, among equally short ones, the
    # closest, ties to even: the digits of repr(x). Zero gives (0, 0);
    # inf and NaN give unspecified values. One 64 x 128-bit product per
    # value, z below, decides all but one or two in a hundred; those take
    # a second product, on their own.
    bits = x.view(np.uint64)
    fc = bits & _MASK52
    bq = (bits >> _U52).astype(np.intp) & 0x7FF
    # zeros and powers of two, whose (f, k) the table holds
    bare = np.flatnonzero(fc == 0)
    fc |= (bq != 0) * _HIDDEN
    H, L, beta, k = _table_columns(bq)
    # x's rounding interval scaled by 10^(2 - k') is about delta wide;
    # its upper end z = floor(u phi / 2^128), u = (2 fc + 1) 2^beta, is
    # the high word of u H plus the carry of its low word and the high
    # word of u L
    delta = H >> (np.uint64(63) - beta)
    two_fc = fc << _U1
    u = (two_fc | _U1) << beta
    lo = u * H
    low = lo + _umul_hi(u, L)
    z = _umul_hi(u, H) + (low < lo)
    # 1000 s, the multiple of 1000 at or below z, is the answer (f = s,
    # one digit short) when it lies in the interval (z - delta, z], whose
    # ends belong to it only when fc is even
    s = z // 1000
    r = z - s * np.uint64(1000)
    big = r < delta
    odd = fc & _U1
    # 1000 s = z: the upper end when z is exact (low = 0)
    i = np.flatnonzero(big & (r == 0) & (low == 0) & (odd == 1))
    s[i] -= _U1
    r[i] = 1000
    big[i] = False
    # else f = 10 s + q, the multiple of 100 nearest x's scaled value,
    # about z - delta / 2: q counts the 100s above 1000 s, rounded half up
    dist = r - (delta >> _U1) + np.uint64(50)
    q = dist // 100
    f = s * np.uint64(10) + q
    # what z alone leaves open, settled by a product of the table's phi
    # with 2 fc - 1 or 2 fc: 1000 s at the lower end's integer part, inside
    # when the lower end's fraction is below delta's or equal with fc
    # even; and x's scaled value halfway between two multiples of 100 by
    # the estimate, rounded down when below it, or exactly on it onto an
    # odd f
    lower = np.flatnonzero(r == delta)
    half = np.flatnonzero((q * np.uint64(100) == dist) & ~big)
    if lower.size or half.size:
        i = np.concatenate([lower, half])
        par, exact = _parity(two_fc[i] - (np.arange(i.size) < lower.size), bq[i], beta[i])
        n = lower.size
        big[lower] = (par[:n] == 1) | (exact[:n] & (odd[lower] == 0))
        f[half] -= ((par[n:] != (dist[half] ^ np.uint64(50)) & _U1)
                    | (exact[n:] & (f[half] & _U1 == 1)))
    f = np.where(big, s, f)
    k = k.view(np.int64) + big
    # f = s can end in zeros: strip them, eight, four, two and one at a time
    i = np.flatnonzero(big & (s // 10 * np.uint64(10) == s))
    if i.size:
        fi, ki = f[i], k[i]
        for j in (8, 4, 2, 1):
            q = fi // 10 ** j
            hit = q * np.uint64(10 ** j) == fi
            fi = np.where(hit, q, fi)
            ki += j * hit
        f[i], k[i] = fi, ki
    i = bare[bq[bare] != 1]
    f[i] = _TABLE[4, bq[i]]
    k[i] = _TABLE[5, bq[i]].view(np.int64)
    return f, k
