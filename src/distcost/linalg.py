"""Dense linear-algebra primitives: the matrix exponential, the stacked
symmetric eigensolve and the linear recurrence scan the rest of the
toolkit is written against.

Matrices and vectors are plain float64 ndarrays. Inputs are validated
once at this boundary (shape, finiteness) and the numerical work is done
by the kernels in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DimensionError, DomainError, NumericalError

__all__ = ["SpectralDecomposition", "as_matrix", "as_vector", "as_scalar", "as_whole",
           "expm", "block_expm", "linear_scan"]

# Jacobi stops when off(M) <= _JACOBI_OFF_TOL * ||M||_F, which leaves the
# eigenvalues accurate to about that relative level
_JACOBI_OFF_TOL = 1e-12
# cyclic Jacobi converges quadratically, so only a broken input hits this
_JACOBI_MAX_SWEEPS = 100


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    A = np.ascontiguousarray(np.asarray(M, dtype=np.float64))
    if A.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} contains non-finite entries")
    return A


def as_vector(x, name: str = "vector") -> np.ndarray:
    A = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if A.ndim != 1:
        raise DimensionError(f"{name} must be 1-dimensional, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} contains non-finite entries")
    return A


def as_scalar(x, name: str, positive: bool = False) -> float:
    """Coerce a horizon, amplitude or radius to a float, rejecting
    non-finite and negative values and, when ``positive``, zero."""
    x = float(x)
    if not np.isfinite(x) or x < 0.0 or (positive and x == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} must be {kind} and finite, got {x}")
    return x


def as_whole(x, name: str, minimum: int | None = None) -> int:
    """The integer a count, dimension or seed names. A float must be a
    whole number: 5.0 names 5, while 5.9, nan and inf raise DomainError,
    as do a boolean and a value below ``minimum``."""
    if isinstance(x, (bool, np.bool_)) or (
            isinstance(x, (float, np.floating)) and not float(x).is_integer()):
        raise DomainError(f"{name} must be a whole number, got {x!r}")
    n = int(x)
    if minimum is not None and n < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {n}")
    return n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenfactors of a symmetric matrix: M = U diag(lambdas) U^T.

    ``U`` has orthonormal columns and ``lambdas`` is sorted descending.
    """

    U: np.ndarray
    lambdas: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.U * self.lambdas) @ self.U.T

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Evaluate M @ v through the factors."""
        return self.U @ (self.lambdas * (self.U.T @ v))


def expm(M) -> np.ndarray:
    """Matrix exponential e^M by Pade scaling-and-squaring.

    Parameters
    ----------
    M : array_like
        One square matrix, shape (n, n), or a stack of them, shape
        (k, n, n), with finite entries.

    Returns
    -------
    ndarray
        e^M, or the stack of e^{M_i}, each bit-for-bit what that matrix
        gives alone; relative accuracy around 1e-12 in the infinity norm
        for well-conditioned inputs.
    """
    A = np.ascontiguousarray(np.asarray(M, dtype=np.float64))
    if A.ndim not in (2, 3):
        raise DimensionError(
            f"expm operand must be a matrix or a stack of matrices, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError("expm operand contains non-finite entries")
    if A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expm operand must be square, got shape {A.shape}")
    return _k.expm_core(A)


def block_expm(A, C, S, t):
    """Top block row of expm([[A, C], [0, S]] * t) (Van Loan, IEEE TAC 1978).

    With A n x n, C n x m and S m x m, returns the pair
    (e^{At}, int_0^t e^{A(t - s)} C e^{Ss} ds), both from one exponential
    of the (n + m) x (n + m) block-triangular matrix. A 1-D array of
    times gives a stack of each, from one stacked exponential.
    """
    n, m = np.shape(C)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = C
    M[n:, n:] = S
    E = expm(M * np.asarray(t)[..., None, None])
    return np.ascontiguousarray(E[..., :n, :n]), E[..., :n, n:]


def linear_scan(X: np.ndarray, D_pow) -> np.ndarray:
    """Every state of x_{k+1} = P x_k + X[k+1] from x_0 = X[0], row k of
    the result being x_k.

    An inclusive prefix scan (Hillis & Steele, CACM 1986): pass j adds to
    each row the row 2^j before it, carried by P^(2^j), so
    (len(X) - 1).bit_length() batched passes reach every row.
    ``D_pow[j]`` is P^(2^j) - I, not P^(2^j): for a near-identity P,
    forming P in floating point would round away the low bits of the
    small difference, and the scan would repeat that error at every
    state. A ``D_pow`` too short for X raises IndexError.
    """
    X = np.array(X, dtype=np.float64)
    for j in range((len(X) - 1).bit_length()):
        s = 1 << j
        X[s:] = X[s:] + X[:-s] + X[:-s] @ D_pow[j].T
    return X


def _sym_eigs(A: np.ndarray) -> list:
    """Cyclic Jacobi on each matrix of a symmetric (k, n, n) stack, all in
    one ``jacobi_core`` call: per matrix, the SpectralDecomposition
    (eigenvalues descending) or the NumericalError, with sweep count and
    best estimate, that matrix gives alone."""
    n = A.shape[-1]
    work = 0.5 * (A + np.swapaxes(A, -1, -2))
    diag, V, off, sweeps, thresh = _k.jacobi_core(work, _JACOBI_OFF_TOL,
                                                  _JACOBI_MAX_SWEEPS)
    out = []
    for d, Vi, off_i, sweeps_i, thresh_i in zip(diag, V, off, sweeps.tolist(), thresh):
        if off_i > thresh_i:
            out.append(NumericalError(
                f"Jacobi iteration did not converge in {sweeps_i} sweeps "
                f"(off-diagonal norm {off_i:.3e}, threshold {thresh_i:.3e})",
                estimate=d,
                error_bound=off_i,
                iterations=sweeps_i,
            ))
            continue
        order = np.argsort(-d, kind="stable")
        lam = d[order]
        U = np.ascontiguousarray(Vi[:, order])
        if n and np.max(np.abs(U.T @ U - np.eye(n))) > 1e-10 * n:
            out.append(NumericalError(
                "eigenvector matrix lost orthogonality", estimate=lam,
                iterations=sweeps_i))
            continue
        lam.setflags(write=False)
        U.setflags(write=False)
        out.append(SpectralDecomposition(U=U, lambdas=lam))
    return out
