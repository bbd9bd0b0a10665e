"""Dense linear-algebra primitives: matrix exponential, symmetric
eigendecomposition, and the vector/matrix norms the rest of the toolkit
is written against.

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
           "expm", "block_expm", "shifted_powers", "sym_eig", "norm"]

# Jacobi stops when off(M) <= _JACOBI_OFF_TOL * ||M||_F, which leaves the
# eigenvalues accurate to about that relative level
_JACOBI_OFF_TOL = 1e-12
# cyclic Jacobi converges quadratically, so only a broken input hits this
_JACOBI_MAX_SWEEPS = 100
# ||M - M^T||_inf above this times max|M| is rejected as not symmetric
_SYMMETRY_TOL = 1e-10


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
    as does a value below ``minimum``."""
    if isinstance(x, (float, np.floating)) and not float(x).is_integer():
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
        Square matrix with finite entries.

    Returns
    -------
    ndarray
        e^M, relative accuracy around 1e-12 in the infinity norm for
        well-conditioned inputs.
    """
    A = as_matrix(M, "expm operand")
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"expm operand must be square, got shape {A.shape}")
    return _k.expm_core(A)


def block_expm(A, C, S, t: float):
    """Top block row of expm([[A, C], [0, S]] * t) (Van Loan, IEEE TAC 1978).

    With A n x n, C n x m and S m x m, returns the pair
    (e^{At}, int_0^t e^{A(t - s)} C e^{Ss} ds), both from one exponential
    of the (n + m) x (n + m) block-triangular matrix.
    """
    n, m = np.shape(C)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = C
    M[n:, n:] = S
    E = expm(M * t)
    return np.ascontiguousarray(E[:n, :n]), E[:n, n:]


def shifted_powers(D: np.ndarray, count: int) -> np.ndarray:
    """Stack of (I + D)^j - I for j = 0, ..., count-1, shape (count, n, n).

    For a near-identity propagator I + D, forming I + D in floating point
    would round away the low bits of the small D, and that same error
    would then be repeated at every power; carrying the powers minus the
    identity keeps them. Built by doubling,
    (I + D_a)(I + D_b) - I = D_a + D_b + D_a D_b, so it takes log2(count)
    batched products instead of count - 1 single ones.
    """
    P = np.zeros((1,) + D.shape)
    Dk = D
    while True:
        P = np.concatenate([P, P + Dk + P @ Dk])
        if P.shape[0] >= count:
            return P[:count]
        Dk = 2.0 * Dk + Dk @ Dk


def sym_eig(M) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Parameters
    ----------
    M : array_like
        Symmetric matrix; asymmetry beyond ``_SYMMETRY_TOL`` (relative,
        infinity norm) is rejected.

    Returns
    -------
    SpectralDecomposition
        Eigenvalues descending; ties keep the order the sweep produced.

    Raises
    ------
    DomainError
        If the input is not symmetric within tolerance.
    NumericalError
        If the sweep budget is exhausted before the off-diagonal mass
        drops below threshold; carries the iteration count and the best
        eigenvalue estimate.
    """
    A = as_matrix(M, "sym_eig operand")
    n = A.shape[0]
    if n != A.shape[1]:
        raise DimensionError(f"sym_eig operand must be square, got shape {A.shape}")
    scale = np.max(np.abs(A)) if n else 0.0
    if scale > 0.0 and np.max(np.abs(A - A.T)) > _SYMMETRY_TOL * scale:
        raise DomainError("sym_eig operand is not symmetric within tolerance")

    work = 0.5 * (A + A.T)
    diag, V, off, sweeps, thresh = _k.jacobi_core(work, _JACOBI_OFF_TOL,
                                                  _JACOBI_MAX_SWEEPS)
    if off > thresh:
        raise NumericalError(
            f"Jacobi iteration did not converge in {sweeps} sweeps "
            f"(off-diagonal norm {off:.3e}, threshold {thresh:.3e})",
            estimate=diag,
            error_bound=off,
            iterations=sweeps,
        )
    order = np.argsort(-diag, kind="stable")
    lam = diag[order]
    U = np.ascontiguousarray(V[:, order])
    if n and np.max(np.abs(U.T @ U - np.eye(n))) > 1e-10 * n:
        raise NumericalError(
            "eigenvector matrix lost orthogonality", estimate=lam, iterations=sweeps
        )
    lam.setflags(write=False)
    U.setflags(write=False)
    return SpectralDecomposition(U=U, lambdas=lam)


def norm(a, kind: str = "two") -> float:
    """Vector p-norm or induced matrix norm.

    ``kind`` is one of ``one``, ``two``, ``inf``. For matrices, the
    one-norm is the max column absolute sum and the inf-norm the max row
    absolute sum; the induced two-norm is not provided.
    """
    A = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(A)):
        raise DomainError("norm operand contains non-finite entries")
    if A.ndim == 1:
        if kind == "one":
            return float(np.sum(np.abs(A)))
        if kind == "two":
            return float(np.sqrt(np.sum(A * A)))
        if kind == "inf":
            return float(np.max(np.abs(A))) if A.size else 0.0
    elif A.ndim == 2:
        if kind == "one":
            return float(np.max(np.sum(np.abs(A), axis=0)))
        if kind == "inf":
            return float(np.max(np.sum(np.abs(A), axis=1)))
        if kind == "two":
            raise DomainError("induced matrix two-norm is not supported")
    else:
        raise DimensionError(f"norm operand must be 1- or 2-dimensional, got {A.ndim}")
    raise DomainError(f"unknown norm kind {kind!r}")
