"""High-precision reference values for the bound pipeline, in mpmath.

Test-only: each function takes float64 inputs (converted exactly) and
evaluates at ``dps`` decimal digits, so its result carries none of the
float64 pipeline's rounding and serves as the truth its tests compare
against.
"""

import math

import mpmath


def gramian(A, B, t_f, dps=50):
    """(W_B, e^{A t_f}) as mpmath matrices, from the Van Loan exponential
    of [[A, B B^T], [0, -A^T]] t_f: W_B = E12 E11^T and e^{A t_f} = E11."""
    n = len(A)
    with mpmath.workdps(dps):
        A = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in A])
        B = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in B])
        M = mpmath.zeros(2 * n, 2 * n)
        M[:n, :n] = A
        M[:n, n:] = B * B.T
        M[n:, n:] = -A.T
        E = mpmath.expm(M * mpmath.mpf(float(t_f)))
        E11, E12 = E[:n, :n], E[:n, n:]
        W = E12 * E11.T
        return (W + W.T) / 2, E11


def _form_min(Phi, W_inv):
    # lambda_min(Phi^T W_inv Phi) at the working precision
    K = Phi.T * W_inv * Phi
    return float(min(mpmath.eigsy((K + K.T) / 2, eigvals_only=True)))


def l_min(A, B, t_f, dps=50):
    """lambda_min(e^{A^T t_f} W_B^{-1} e^{A t_f}) as a float.

    Raises ValueError when W_B is not positive definite at this
    precision, so a lost Gramian is never returned as truth."""
    W, E11 = gramian(A, B, t_f, dps)
    with mpmath.workdps(dps):
        mpmath.cholesky(W)
        return _form_min(E11, mpmath.inverse(W))


def l_min_from_factors(U, lambdas, Phi, dps=40):
    """lambda_min(Phi^T U diag(lambdas) U^T Phi) as a float: the value
    that float64 factors of W_B^{-1} = U diag(lambdas) U^T and
    Phi = e^{A t_f} determine exactly."""
    with mpmath.workdps(dps):
        U = mpmath.matrix(U.tolist())
        Lam = mpmath.diag([mpmath.mpf(float(v)) for v in lambdas])
        return _form_min(mpmath.matrix(Phi.tolist()), U * Lam * U.T)


def norm_integral(A, t_f, dps=40):
    """(v, breakpoints): v = int_0^t_f ||e^{As}||_inf ds as a float, and the
    breakpoints of the integrand in (0, t_f) as floats in order, by the
    closed form of ``distcost.gramian`` evaluated at ``dps`` digits.

    The grid has spacing h = t_f / 2^k with 2^k >= ||A||_1 t_f, and nodes
    s0 = h 2^-b, h, 2h, ..., t_f, where b is half the working precision's
    bits. A node's key is the row attaining the norm, the first within
    n ulps of the maximum, and the signs of that row's entries, 0 within
    n ulps of zero; a 0 carries the last nonzero sign of its row's run.
    Every interval whose end keys conflict is bisected b times, depth
    first, and its midpoint is a breakpoint. On each panel the integral is
    sum_j |(J(e) - J(c))_ij| with J(t) = A^{-1} (e^{At} - I), so A must be
    nonsingular, as a stable A is. Every exponential is a Taylor sum at a
    width below 2^-20 / ||A||_1, squared up, and each node is the one
    before it times e^{Ah}.
    """
    n = len(A)
    norm = max(sum(abs(float(A[i][j])) for i in range(n)) for j in range(n))
    k = max(0, math.ceil(math.log2(norm) + math.log2(t_f))) if norm > 0 else 0
    with mpmath.workdps(dps):
        eps, bits = mpmath.eps, (mpmath.mp.prec + 1) // 2
        A = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in A])
        I = mpmath.eye(n)
        steps = {}

        def expm(w):
            if w not in steps:
                if w * norm < mpmath.ldexp(1, -20):
                    E = T = I
                    for j in range(1, 60):
                        T = T * A * (w / j)
                        E = E + T
                        if mpmath.mnorm(T, 1) < eps:
                            break
                    steps[w] = E
                else:
                    half = expm(w / 2)
                    steps[w] = half * half
            return steps[w]

        def key(E, carried=None):
            # (row, signs, carried signs); carried is the point before's key
            r = [sum(abs(E[i, j]) for j in range(n)) for i in range(n)]
            tiny = n * eps * max(r)
            row = next(i for i in range(n) if r[i] >= max(r) - tiny)
            sig = [0 if abs(E[row, j]) <= tiny else mpmath.sign(E[row, j]) for j in range(n)]
            if carried is None or carried[0] != row:
                return row, sig, sig
            return row, sig, [c if s == 0 else s for s, c in zip(sig, carried[2])]

        def conflict(ka, kb):
            return ka[0] != kb[0] or any(c * s < 0 for c, s in zip(ka[2], kb[1]))

        breaks = []  # (position, e^{A position}, row before it)

        def bisect(a, b, Ea, ka, kb, level):
            half = (b - a) / 2
            if level == bits:
                breaks.append((a + half, Ea * expm(half), ka[0]))
                return
            Em = Ea * expm(half)
            km = key(Em, ka)
            if conflict(ka, km):
                bisect(a, a + half, Ea, ka, km, level + 1)
            if conflict(km, kb):
                bisect(a + half, b, Em, km, kb, level + 1)

        h = mpmath.mpf(float(t_f)) / 2 ** k
        s0 = mpmath.ldexp(h, -bits)
        pos, E = [s0, h], [expm(s0), expm(h)]
        for j in range(2, 2 ** k + 1):
            pos.append(j * h)
            E.append(E[-1] * E[1])
        keys = [key(E[0])]
        for Ej in E[1:]:
            keys.append(key(Ej, keys[-1]))
        for j in range(len(E) - 1):
            if conflict(keys[j], keys[j + 1]):
                bisect(pos[j], pos[j + 1], E[j], keys[j], keys[j + 1], 0)
        A_inv = A ** -1
        total, before = mpmath.mpf(0), mpmath.zeros(n, n)
        for _, Ee, row in breaks + [(pos[-1], E[-1], keys[-1][0])]:
            J = A_inv * (Ee - I)
            total += sum(abs(J[row, j] - before[row, j]) for j in range(n))
            before = J
        return float(total), [float(c) for c, _, _ in breaks]
