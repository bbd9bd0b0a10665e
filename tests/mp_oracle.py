"""High-precision reference values for the bound pipeline, in mpmath.

Test-only: each function takes float64 inputs (converted exactly) and
evaluates at ``dps`` decimal digits, so its result carries none of the
float64 pipeline's rounding and serves as the truth its tests compare
against.
"""

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
