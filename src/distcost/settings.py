"""Numeric tolerances and iteration budgets, threadable from the CLI.

Every tolerance used by the numerical core lives here so a run can override
them through a config file without touching call sites. All values are
defaults tuned for small dense systems (n up to ~10) in double precision.
Disturbance responses are closed forms (block-triangular exponentials, see
``synthesis.disturbance_response``) and take no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class NumericSettings:
    # symmetric eigensolver (cyclic Jacobi)
    jacobi_off_tol: float = 1e-12      # stop when off(M) <= tol * ||M||_F
    jacobi_max_sweeps: int = 100
    symmetry_tol: float = 1e-10        # input check: ||M - M^T||_inf <= tol * ||M||_inf

    # Gramian conditioning guard: lambda_max / lambda_min above this is an error
    gramian_condition_limit: float = 1e14

    # norm integral (adaptive Simpson): absolute tolerance is this times t_f
    norm_integral_tol: float = 1e-9
    adaptive_depth: int = 24

    # controllability rank: singular values below tol * sigma_max are zero
    controllability_tol: float = 1e-10


DEFAULT_SETTINGS = NumericSettings()


def settings_from_dict(overrides: dict, base: NumericSettings | None = None) -> NumericSettings:
    """Build settings from a dict of field overrides; unknown keys raise."""
    base = base or DEFAULT_SETTINGS
    names = {f.name for f in fields(NumericSettings)}
    unknown = set(overrides) - names
    if unknown:
        raise KeyError(f"unknown numeric settings: {sorted(unknown)}")
    return replace(base, **overrides)
