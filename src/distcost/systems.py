"""Core problem data: the LTI plant and the stabilization task."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .linalg import as_matrix, as_scalar, as_vector

# singular values of a staircase block below this, relative to B's or
# A's largest, count as zero
_CONTROLLABILITY_TOL = 1e-10


def controllability_rank(A: np.ndarray, B: np.ndarray, rel_tol: float) -> int:
    """Dimension of the controllable subspace of (A, B), the rank of
    [B, AB, ..., A^(n-1)B], by the orthogonal staircase form (Van Dooren,
    IEEE TAC 1981): each step counts the singular values of the current
    input block above rel_tol times B's largest (first step) or A's (later
    ones), and rotates the rest of A into their basis for the next block.
    The blocks keep the scale of A and B, where the columns A^k B grow
    like ||A||^k and blur that matrix's numerical rank.
    """
    rank, block, rest = 0, B, A
    tol, tol_A = rel_tol * np.linalg.norm(B, 2), rel_tol * np.linalg.norm(A, 2)
    while rest.size:
        U, sv, _ = np.linalg.svd(block)
        r = int(np.sum(sv > tol))
        if r == 0:
            break
        rank += r
        rotated = U.T @ rest @ U
        block, rest, tol = rotated[r:, :r], rotated[r:, r:], tol_A
    return rank


@dataclass(frozen=True)
class LtiSystem:
    """A controllable pair (A, B) for dynamics xdot = A x + B u (+ w).

    Controllability is checked at construction; an uncontrollable pair is
    rejected with the deficient rank in the message.
    """

    A: np.ndarray
    B: np.ndarray
    name: str = "lti"

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionError(
                f"B row count {B.shape[0]} does not match state dimension {A.shape[0]}"
            )
        rank = controllability_rank(A, B, _CONTROLLABILITY_TOL)
        if rank < A.shape[0]:
            raise ValidationError(
                f"(A, B) is not controllable: controllability matrix rank {rank} "
                f"< {A.shape[0]}"
            )
        A.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class StabilizationTask:
    """Drive x(0) = x0 to the origin at time t_f, disturbances bounded by w_bar.

    ``w_bar`` bounds the pointwise infinity norm of admissible disturbance
    signals; zero means the nominal, disturbance-free problem.
    """

    x0: np.ndarray
    t_f: float
    w_bar: float = 0.0

    def __post_init__(self):
        x0 = as_vector(self.x0, "x0")
        if not np.any(x0 != 0.0):
            raise ValidationError("x0 must be nonzero")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "t_f", as_scalar(self.t_f, "t_f", positive=True))
        object.__setattr__(self, "w_bar", as_scalar(self.w_bar, "w_bar"))
