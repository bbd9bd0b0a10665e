"""Dense linear-algebra primitives: the matrix exponential, the Van Loan
block exponential and the linear recurrence scan the rest of the toolkit
is written against, and the factors type SpectralDecomposition.

Matrices and vectors are plain float64 ndarrays. Inputs are validated
once at this boundary (shape, finiteness) and the numerical work is done
by the kernels in ``_kernels``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .errors import DimensionError, DomainError

__all__ = ["SpectralDecomposition", "as_matrix", "as_vector", "as_scalar", "as_whole",
           "expm", "block_expm", "linear_scan"]


def _checked(x, name: str, ndims: tuple, shape: str) -> np.ndarray:
    # the operand check of as_matrix, as_vector and expm
    A = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if A.ndim not in ndims:
        raise DimensionError(f"{name} must be {shape}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{name} contains non-finite entries")
    return A


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a C-contiguous float64 2-D array, rejecting non-finite entries."""
    return _checked(M, name, (2,), "2-dimensional")


def as_vector(x, name: str = "vector") -> np.ndarray:
    return _checked(x, name, (1,), "1-dimensional")


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
    as do a boolean and a value below ``minimum``. A count (any value
    with a ``minimum``) must also lie in numpy's index range; a seed has
    no minimum, and its callers wrap it to 64 bits."""
    if isinstance(x, (bool, np.bool_)) or (
            isinstance(x, (float, np.floating)) and not float(x).is_integer()):
        raise DomainError(f"{name} must be a whole number, got {x!r}")
    n = int(x)
    if minimum is not None and n < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {n}")
    top = np.iinfo(np.intp).max
    if minimum is not None and n > top:
        raise DomainError(f"{name} must be at most {top}, numpy's index range")
    return n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenfactors of a symmetric matrix: M = U diag(lambdas) U^T.

    ``U`` has orthonormal columns and ``lambdas`` is sorted descending.
    """

    U: np.ndarray
    lambdas: np.ndarray

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
    A = _checked(M, "expm operand", (2, 3), "a matrix or a stack of matrices")
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
    (len(X) - 1).bit_length() batched passes reach every row. Each pass
    forms its carry product first and then adds in place, in the order
    (x_i + x_{i-2^j}) + (P^(2^j) - I) x_{i-2^j}.
    ``D_pow[j]`` is P^(2^j) - I, not P^(2^j): for a near-identity P,
    forming P in floating point would round away the low bits of the
    small difference, and the scan would repeat that error at every
    state. A ``D_pow`` too short for X raises IndexError.
    """
    X = np.array(X, dtype=np.float64)
    for j in range((len(X) - 1).bit_length()):
        s = 1 << j
        carry = X[:-s] @ D_pow[j].T
        # numpy reads the overlapping X[:-s] as it was before the add
        np.add(X[s:], X[:-s], out=X[s:])
        X[s:] += carry
    return X
