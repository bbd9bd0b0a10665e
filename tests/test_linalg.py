import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import linalg
from distcost.errors import DimensionError, DomainError, NumericalError
from distcost.linalg import as_matrix, as_scalar, as_vector, expm, linear_scan

rng = np.random.default_rng(7)


def sym_eig(S):
    """The stacked Jacobi eigensolve on a stack of one."""
    return linalg._sym_eigs(S[None])[0]


class TestConversions:
    def test_as_matrix_copies_and_casts(self):
        M = as_matrix([[1, 2], [3, 4]], "M")
        assert M.dtype == np.float64 and M.flags["C_CONTIGUOUS"]

    def test_as_matrix_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0], "M")

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(DomainError):
            as_matrix([[np.nan, 0.0], [0.0, 1.0]], "M")

    def test_as_vector_rejects_inf(self):
        with pytest.raises(DomainError):
            as_vector([np.inf], "v")

    def test_as_scalar_returns_float(self):
        x = as_scalar(np.int64(3), "t_f", positive=True)
        assert x == 3.0 and type(x) is float
        assert as_scalar(0, "w_bar") == 0.0

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_as_scalar_rejects_negative_and_non_finite(self, bad):
        with pytest.raises(DomainError, match="w_bar must be nonnegative"):
            as_scalar(bad, "w_bar")

    def test_as_scalar_positive_rejects_zero(self):
        with pytest.raises(DomainError, match="t_f must be positive"):
            as_scalar(0.0, "t_f", positive=True)

    def test_as_scalar_keeps_conversion_errors(self):
        with pytest.raises(ValueError):
            as_scalar("abc", "R")
        with pytest.raises(TypeError):
            as_scalar(None, "R")


class TestExpm:
    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(4, 2, 3), (3,), (1, 2, 2, 2)],
                             ids=["nonsquare-stack", "1-D", "4-D"])
    def test_rejects_shape(self, shape):
        with pytest.raises(DimensionError):
            expm(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_anywhere_in_stack(self, bad):
        M = np.zeros((5, 3, 3))
        M[3, 2, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            expm(M)

    def test_stack_matches_each_matrix(self):
        scales = np.array([0.0, 0.3, 2.0, 9.0, 70.0, 1.0])
        stack = np.random.default_rng(3).standard_normal((6, 4, 4)) * scales[:, None, None]
        E = expm(stack)
        assert E.shape == stack.shape
        for M, Ei in zip(stack, E):
            assert np.array_equal(Ei, expm(M))
        assert expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)

    def test_matches_scipy_on_stiff_matrix(self):
        M = np.array([[-80.0, 100.0], [0.0, -0.1]])
        assert np.max(np.abs(expm(M) - scipy.linalg.expm(M))) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.floats(0.01, 20.0), st.integers(0, 2**32 - 1))
    def test_matches_scipy_property(self, n, scale, seed):
        # forward error grows with the conditioning of the exponential, so
        # the tolerance is loose; an algorithmic bug would miss by orders
        M = scale * np.random.default_rng(seed).standard_normal((n, n))
        ref = scipy.linalg.expm(M)
        err = np.max(np.abs(expm(M) - ref)) / max(1.0, np.max(np.abs(ref)))
        assert err < 1e-9

    def test_group_property(self):
        M = 2.0 * rng.standard_normal((5, 5))
        P = expm(M) @ expm(-M)
        assert np.max(np.abs(P - np.eye(5))) < 1e-12


def doubled_powers(D, count):
    # (I + D)^(2^j) - I for j < count, by (I + D)^2 - I = 2D + D^2
    D_pow = [D]
    while len(D_pow) < count:
        D_pow.append(2.0 * D_pow[-1] + D_pow[-1] @ D_pow[-1])
    return D_pow[:count]


class TestLinearScan:
    # lengths cover no pass (1); len(X) - 1 at a power of two (2, 3, 257),
    # where the last pass shifts by all of it; and len(X) - 1 just below
    # (255, 256) or well past (1000) one
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.sampled_from([1, 2, 3, 255, 256, 257, 1000]),
           st.floats(1e-4, 1e-2), st.integers(0, 2**32 - 1))
    def test_matches_sequential_recurrence(self, n, length, h, seed):
        rng_ = np.random.default_rng(seed)
        D = h * rng_.standard_normal((n, n)) / np.sqrt(n)
        X = rng_.standard_normal((length, n))
        ref = np.empty_like(X)
        ref[0] = X[0]
        for k in range(1, length):
            ref[k] = ref[k - 1] + D @ ref[k - 1] + X[k]
        got = linear_scan(X, doubled_powers(D, (length - 1).bit_length()))
        assert got.shape == X.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_leaves_input_unchanged(self):
        X = rng.standard_normal((9, 2))
        before = X.copy()
        linear_scan(X, doubled_powers(0.01 * np.eye(2), 4))
        assert np.array_equal(X, before)

    @pytest.mark.parametrize("length", [2, 256, 257])
    def test_too_few_powers_raise(self, length):
        X = rng.standard_normal((length, 2))
        short = doubled_powers(0.01 * np.eye(2), (length - 1).bit_length() - 1)
        with pytest.raises(IndexError):
            linear_scan(X, short)


class TestSymEig:
    def test_descending_order_and_reconstruction(self):
        S = rng.standard_normal((7, 7))
        S = 0.5 * (S + S.T)
        spec = sym_eig(S)
        assert np.all(np.diff(spec.lambdas) <= 0.0)
        assert np.max(np.abs(spec.reconstruct() - S)) < 1e-13 * max(1.0, np.max(np.abs(S)))

    def test_apply_equals_reconstruct_matvec(self):
        S = rng.standard_normal((5, 5))
        S = 0.5 * (S + S.T)
        spec = sym_eig(S)
        v = rng.standard_normal(5)
        assert np.max(np.abs(spec.apply(v) - spec.reconstruct() @ v)) < 1e-13

    def test_eigenvalues_match_numpy(self):
        S = rng.standard_normal((9, 9))
        S = 0.5 * (S + S.T)
        spec = sym_eig(S)
        ref = np.linalg.eigvalsh(S)[::-1]
        assert np.max(np.abs(spec.lambdas - ref)) < 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_outputs_readonly(self):
        S = np.eye(3)
        spec = sym_eig(S)
        with pytest.raises(ValueError):
            spec.U[0, 0] = 5.0

    def test_sweep_budget_exhaustion_raises_with_estimate(self, monkeypatch):
        # one cyclic sweep cannot annihilate the off-diagonal mass of a
        # dense 4 x 4 SPD matrix to 1e-12 of its norm
        G = np.array([[2.0, 1.0, 0.5, 0.2], [0.0, 1.5, 0.7, 0.3],
                      [0.0, 0.0, 1.2, 0.9], [0.0, 0.0, 0.0, 1.0]])
        S = G @ G.T
        monkeypatch.setattr(linalg, "_JACOBI_MAX_SWEEPS", 1)
        err = sym_eig(S)
        assert isinstance(err, NumericalError)
        assert err.iterations == 1
        assert err.estimate is not None and err.estimate.shape == (4,)
        assert err.error_bound > 0.0
