"""Kernel-level checks: jit and pure-numpy builds must agree bitwise,
and both must match independent oracles."""

import numpy as np
import pytest
import scipy.linalg

from distcost import _kernels

rng = np.random.default_rng(42)


def _random_matrix(n, scale=1.0):
    return scale * rng.standard_normal((n, n))


class TestExpm:
    @pytest.mark.parametrize("n,scale", [(2, 0.1), (3, 1.0), (6, 5.0), (8, 40.0)])
    def test_matches_scipy(self, n, scale):
        for _ in range(5):
            M = _random_matrix(n, scale)
            ours = _kernels.expm_core(M)
            ref = scipy.linalg.expm(M)
            err = np.max(np.abs(ours - ref)) / max(1.0, np.max(np.abs(ref)))
            assert err < 1e-12

    def test_zero_matrix(self):
        E = _kernels.expm_core(np.zeros((4, 4)))
        assert np.max(np.abs(E - np.eye(4))) < 1e-15

    def test_nilpotent(self):
        # strictly upper triangular: the series terminates, so the only
        # error left is rounding in the rational solve
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        E = _kernels.expm_core(N)
        assert np.max(np.abs(E - np.array([[1.0, 1.0], [0.0, 1.0]]))) < 1e-15

    def test_inverse_property(self):
        M = _random_matrix(5, 2.0)
        P = _kernels.expm_core(M) @ _kernels.expm_core(-M)
        assert np.max(np.abs(P - np.eye(5))) < 1e-12

    def test_py_and_selected_agree_bitwise(self):
        M = _random_matrix(6, 10.0)
        a = _kernels.expm_core(M)
        b = _kernels.PY_IMPLS["expm"](M)
        assert np.array_equal(a, b)


class TestJacobi:
    def _sym(self, n, scale=1.0):
        S = _random_matrix(n, scale)
        return 0.5 * (S + S.T)

    @pytest.mark.parametrize("n", [2, 3, 6, 12])
    def test_reconstruction_and_orthogonality(self, n):
        S = self._sym(n, 3.0)
        diag, V, off, sweeps, thresh = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        assert off <= thresh
        assert np.max(np.abs(V @ np.diag(diag) @ V.T - S)) < 1e-12 * max(1.0, np.max(np.abs(S)))
        assert np.max(np.abs(V.T @ V - np.eye(n))) < 1e-13 * n

    def test_eigenvalues_match_numpy(self):
        S = self._sym(8, 2.0)
        diag, _, _, _, _ = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        ref = np.linalg.eigvalsh(S)
        assert np.max(np.abs(np.sort(diag) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_diagonal_input_converges_immediately(self):
        D = np.diag([3.0, 1.0, -2.0])
        diag, V, off, sweeps, _ = _kernels.jacobi_core(D.copy(), 1e-12, 100)
        assert off == 0.0
        assert np.array_equal(np.sort(diag), np.array([-2.0, 1.0, 3.0]))

    def test_py_and_selected_agree_bitwise(self):
        S = self._sym(6, 5.0)
        a = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        b = _kernels.PY_IMPLS["jacobi"](S.copy(), 1e-12, 100)
        for x, y in zip(a, b):
            assert np.array_equal(np.asarray(x), np.asarray(y))


class TestSplitmix:
    # reference: the first outputs of the widely published splitmix64
    # sequence for seed 0, mapped through (z >> 11) * 2**-53
    def test_reference_stream(self):
        with np.errstate(over="ignore"):
            out = _kernels.PY_IMPLS["splitmix_fill"](np.uint64(0), np.uint64(0), 3)
        expected = [(z >> 11) * 2.0**-53 for z in
                    (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)]
        assert np.array_equal(out, np.array(expected))

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    @pytest.mark.parametrize("start", [0, 17, 2**40])
    def test_matches_python_int_reference(self, seed, start):
        # splitmix64 spelled out in Python ints, masked to 64 bits by hand,
        # so the array version's wrapping uint64 arithmetic is checked
        # against arithmetic that cannot wrap silently
        mask = (1 << 64) - 1

        def draw(i):
            z = (seed + (start + i + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return ((z ^ (z >> 31)) >> 11) * 2.0**-53

        out = _kernels.splitmix_fill(np.uint64(seed), start, 300)
        assert np.array_equal(out, np.array([draw(i) for i in range(300)]))

    def test_py_and_selected_agree_bitwise(self):
        with np.errstate(over="ignore"):
            a = _kernels.splitmix_fill(np.uint64(12345), np.uint64(17), 64)
            b = _kernels.PY_IMPLS["splitmix_fill"](np.uint64(12345), np.uint64(17), 64)
        assert np.array_equal(a, b)

    def test_offset_slices_same_stream(self):
        with np.errstate(over="ignore"):
            whole = _kernels.splitmix_fill(np.uint64(9), np.uint64(0), 100)
            tail = _kernels.splitmix_fill(np.uint64(9), np.uint64(40), 60)
        assert np.array_equal(whole[40:], tail)

    def test_range(self):
        with np.errstate(over="ignore"):
            u = _kernels.splitmix_fill(np.uint64(3), np.uint64(0), 10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert 0.45 < np.mean(u) < 0.55
