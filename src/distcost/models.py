"""Built-in model registry and JSON model files.

The flight-control example is a three-state, four-surface linearized
lateral model of the ADMIRE research aircraft; its matrices are the
registry's reference data and double as regression fixtures.

Model file format: a JSON object {"name", "n", "p", "A", "B"} with A and
B given row-major, either as nested rows or as flat arrays of length n*n
and n*p.
"""

from __future__ import annotations

import json
from sys import float_info

import numpy as np

from .errors import ModelParseError
from .systems import LtiSystem

__all__ = ["admire", "load_model", "save_model", "builtin_models"]

_ADMIRE_A = (
    (-0.9967, 0.0, 0.6176),
    (0.0, -0.5057, 0.0),
    (-0.0939, 0.0, -0.2127),
)
_ADMIRE_B = (
    (0.0, -4.2423, 4.2423, 1.4871),
    (1.6532, -1.2735, -1.2735, 0.0024),
    (0.0, -0.2805, 0.2805, -0.8823),
)


def admire() -> LtiSystem:
    """The ADMIRE lateral dynamics: 3 states, 4 control surfaces."""
    return LtiSystem(A=np.array(_ADMIRE_A), B=np.array(_ADMIRE_B), name="admire")


def builtin_models() -> dict:
    return {"admire": admire}


def _parse_matrix(obj, rows: int, cols: int, field: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise ModelParseError(f"field {field!r} must be an array")
    if obj and all(isinstance(r, list) for r in obj):
        if len(obj) != rows:
            raise ModelParseError(
                f"field {field!r} has {len(obj)} rows, expected {rows}"
            )
        for i, r in enumerate(obj):
            if len(r) != cols:
                raise ModelParseError(
                    f"row {i} of {field!r} has {len(r)} entries, expected {cols}"
                )
        obj = [v for r in obj for v in r]
    elif len(obj) != rows * cols:  # flat row-major
        raise ModelParseError(
            f"field {field!r} has {len(obj)} entries, expected {rows}x{cols}"
        )
    for k, v in enumerate(obj):
        entry = f"entry ({k // cols}, {k % cols}) of {field!r}"
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ModelParseError(f"{entry} is not a number")
        if not abs(v) <= float_info.max:  # nan, inf or an int past the floats
            raise ModelParseError(f"{entry} is not a finite float")
    return np.asarray(obj, dtype=np.float64).reshape(rows, cols)


def load_model(path) -> LtiSystem:
    """Read and validate a JSON model file.

    Raises ModelParseError naming the offending field or row on malformed
    input, and ValidationError (from LtiSystem) if the loaded pair is
    uncontrollable.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelParseError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelParseError("model file must hold a JSON object")
    for key in ("name", "n", "p", "A", "B"):
        if key not in doc:
            raise ModelParseError(f"model file is missing field {key!r}")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ModelParseError("field 'name' must be a nonempty string")
    n, p = doc["n"], doc["p"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelParseError("field 'n' must be a positive integer")
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ModelParseError("field 'p' must be a positive integer")
    A = _parse_matrix(doc["A"], n, n, "A")
    B = _parse_matrix(doc["B"], n, p, "B")
    return LtiSystem(A=A, B=B, name=name)


def _model_text(sys: LtiSystem) -> str:
    # the model document: save_model's file and `distcost model`'s stdout
    doc = {
        "name": sys.name,
        "n": sys.n,
        "p": sys.p,
        "A": [[float(v) for v in row] for row in sys.A],
        "B": [[float(v) for v in row] for row in sys.B],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(sys: LtiSystem, path) -> None:
    """Write a system as a JSON model file (nested row-major matrices)."""
    with open(path, "w") as fh:
        fh.write(_model_text(sys))
