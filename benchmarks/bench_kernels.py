"""Timing comparison: selected kernels vs the pure-numpy reference path.

Run as a script. With numba available (and DISTCOST_DISABLE_NUMBA unset)
the selected column is the jitted build; the reference column is always
the raw Python/numpy implementation of the same source.
"""

import time

import numpy as np

from distcost import _kernels
from distcost.models import admire


_SELECTED = {"expm": "expm_core", "jacobi": "jacobi_core",
             "splitmix_fill": "splitmix_fill"}


def _time(fn, args, repeat: int, copy_first: bool) -> float:
    # jacobi diagonalizes its argument in place, so it needs a fresh copy
    # per call or every run after the first converges immediately
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeat):
            if copy_first:
                fn(args[0].copy(), *args[1:])
            else:
                fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeat)
    return best


def _workloads():
    sys_ = admire()
    n = sys_.n
    rng = np.random.default_rng(1)

    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = sys_.A
    M[:n, n:] = sys_.B @ sys_.B.T
    M[n:, n:] = -sys_.A.T
    M *= 5.0
    yield "expm 6x6", "expm", (M,), 200

    S = rng.standard_normal((12, 12))
    S = 0.5 * (S + S.T)
    yield "jacobi 12x12", "jacobi", (S, 1e-12, 100), 100

    yield "splitmix 1e6 draws", "splitmix_fill", (np.uint64(7), np.uint64(0), 1_000_000), 5


def main() -> None:
    _kernels.warm_up()
    mode = "numba" if _kernels.USING_NUMBA else "numpy (fallback)"
    print(f"selected kernel build: {mode}")
    print(f"{'workload':<28} {'selected':>12} {'reference':>12} {'speedup':>9}")
    with np.errstate(over="ignore"):
        for label, name, args, repeat in _workloads():
            copy_first = name == "jacobi"
            sel = _time(getattr(_kernels, _SELECTED[name]), args, repeat, copy_first)
            ref = _time(_kernels.PY_IMPLS[name], args, repeat, copy_first)
            print(f"{label:<28} {sel * 1e3:>10.3f}ms {ref * 1e3:>10.3f}ms {ref / sel:>8.1f}x")


if __name__ == "__main__":
    main()
