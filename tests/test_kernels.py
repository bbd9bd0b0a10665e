"""Kernel-level checks against independent oracles, of the whole-array
Jacobi against its scalar-loop reference, and of every stacked kernel
against the same kernel on one matrix at a time."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost import _kernels, gramian
from distcost.errors import NumericalError

rng = np.random.default_rng(42)


def _random_matrix(n, scale=1.0):
    return scale * rng.standard_normal((n, n))


def same_bits(a, b):
    """Equal dtype, shape and bytes: unlike array_equal, -0.0 != 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def jacobi_reference(S, off_tol, max_sweeps):
    """Cyclic Jacobi one scalar at a time; returns (diag, V, sweeps)."""
    n = S.shape[0]
    V = np.eye(n)
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            fro2 += S[i, j] * S[i, j]
    thresh = off_tol * np.sqrt(fro2)

    def off():
        off2 = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    off2 += S[i, j] * S[i, j]
        return np.sqrt(off2)

    sweeps = 0
    while off() > thresh and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = S[p, q]
                if apq == 0.0:
                    continue
                tau = (S[q, q] - S[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                sn = t * c
                for k in range(n):
                    skp, skq = S[k, p], S[k, q]
                    S[k, p] = c * skp - sn * skq
                    S[k, q] = sn * skp + c * skq
                for k in range(n):
                    spk, sqk = S[p, k], S[q, k]
                    S[p, k] = c * spk - sn * sqk
                    S[q, k] = sn * spk + c * sqk
                for k in range(n):
                    vkp, vkq = V[k, p], V[k, q]
                    V[k, p] = c * vkp - sn * vkq
                    V[k, q] = sn * vkp + c * vkq
        sweeps += 1
    return np.array([S[i, i] for i in range(n)]), V, sweeps


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

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_stack_is_bitwise_per_matrix(self, n):
        # scaling exponents from s = 0 (the zero matrix and small norms) to
        # s ~ 8 (norm ~1e3) in one stack: each matrix is squared only its
        # own s times, so it gets the bits it gets alone. Skew-symmetric
        # matrices keep e^M orthogonal, so nothing overflows.
        norms = [0.0, 0.5, 3.0, 40.0, 1e3, 0.1, 300.0]
        gen = np.random.default_rng(n)
        stack = []
        for c in norms:
            X = gen.standard_normal((n, n))
            X = X - X.T
            stack.append(c / max(np.max(np.sum(np.abs(X), axis=0)), 1.0) * X)
        E = _kernels.expm_core(np.stack(stack))
        assert np.max(np.abs(E[-1] @ E[-1].T - np.eye(n))) < 1e-10
        for M, Ei in zip(stack, E):
            assert np.array_equal(Ei, _kernels.expm_core(M))

    def test_empty_stack(self):
        assert _kernels.expm_core(np.zeros((0, 4, 4))).shape == (0, 4, 4)


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

    @pytest.mark.parametrize("apq", [-0.5, 0.5, -1e-300])
    def test_equal_diagonal_pivot_matches_scalar_loop_reference(self, apq):
        # equal diagonal entries give tau = 0, and a negative apq makes it
        # -0.0, which takes the tau >= 0 branch: t = +1, not -1
        S = np.array([[2.0, apq, 0.25], [apq, 2.0, -0.75], [0.25, -0.75, 2.0]])
        diag, V, _, sweeps, _ = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        ref_diag, ref_V, ref_sweeps = jacobi_reference(S.copy(), 1e-12, 100)
        assert sweeps == ref_sweeps
        assert same_bits(diag, ref_diag)
        assert same_bits(V, ref_V)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), graded=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_loop_reference(self, n, graded, seed):
        # random symmetric matrices, and graded SPD matrices D S D with
        # D spanning twelve decades, the shape of small-horizon Gramians
        r = np.random.default_rng(seed)
        X = r.standard_normal((n, n))
        if graded:
            d = 10.0 ** r.uniform(-6.0, 6.0, n)
            S = d[:, None] * (X @ X.T + n * np.eye(n)) * d[None, :]
        else:
            S = 0.5 * (X + X.T)
        diag, V, _, sweeps, _ = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        ref_diag, ref_V, ref_sweeps = jacobi_reference(S.copy(), 1e-12, 100)
        assert sweeps == ref_sweeps
        assert np.array_equal(diag, ref_diag)
        assert np.array_equal(V, ref_V)


def _graded_spd(gen, n):
    X = gen.standard_normal((n, n))
    d = 10.0 ** gen.uniform(-4.0, 4.0, n)
    return d[:, None] * (X @ X.T + n * np.eye(n)) * d[None, :]


def _with_zero_block(gen, n):
    # block diagonal: every rotation between the blocks meets an exactly
    # zero apq and is skipped, sweep after sweep
    S = _graded_spd(gen, n)
    h = n // 2
    S[:h, h:] = 0.0
    S[h:, :h] = 0.0
    return S


class TestJacobiStack:
    """jacobi_core on a (k, n, n) stack gives each matrix the diag, V,
    off, sweep count and threshold it gets alone, bit for bit."""

    def _assert_per_matrix(self, stack, max_sweeps=100):
        out = _kernels.jacobi_core(stack.copy(), 1e-12, max_sweeps)
        assert [np.shape(o)[:1] for o in out] == [(len(stack),)] * 5
        for i, S in enumerate(stack):
            alone = _kernels.jacobi_core(S.copy(), 1e-12, max_sweeps)
            for got, want in zip(out, alone):
                assert same_bits(got[i], want)
        return out

    @pytest.mark.parametrize("n", [1, 2, 3, 12])
    def test_members_match_lone_calls(self, n):
        gen = np.random.default_rng(n)
        X = gen.standard_normal((n, n))
        stack = np.stack([_graded_spd(gen, n), 0.5 * (X + X.T),
                          np.diag(gen.standard_normal(n)), _graded_spd(gen, n)])
        self._assert_per_matrix(stack)

    def test_diagonal_member_takes_no_sweeps(self):
        X = np.random.default_rng(5).standard_normal((12, 12))
        stack = np.stack([np.diag(np.arange(12.0) - 4.5), 0.5 * (X + X.T)])
        _, _, _, sweeps, _ = self._assert_per_matrix(stack)
        assert sweeps[0] == 0 and sweeps[1] >= 3

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_skipped_rotation_is_per_matrix(self, n):
        # the dense members rotate every (p, q); the block-diagonal one
        # skips the pairs whose apq is exactly 0
        gen = np.random.default_rng(n + 100)
        stack = np.stack([_graded_spd(gen, n), _with_zero_block(gen, n),
                          _graded_spd(gen, n)])
        self._assert_per_matrix(stack)

    def test_skipped_rotation_keeps_signed_zeros(self):
        # coordinate 1 is decoupled and its diagonal entry is -0.0: both of
        # its rotations are skipped, where a c = 1, s = 0 rotation would
        # turn that entry into +0.0
        S = np.array([[1.0, 0.0, 0.5], [0.0, -0.0, 0.0], [0.5, 0.0, 2.0]])
        X = np.random.default_rng(3).standard_normal((3, 3))
        diag = self._assert_per_matrix(np.stack([0.5 * (X + X.T), S]))[0]
        assert np.signbit(diag[1, 1])

    def test_sweep_budget_is_per_matrix(self):
        gen = np.random.default_rng(7)
        stack = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]), _graded_spd(gen, 4),
                          _with_zero_block(gen, 4)])
        _, _, off, sweeps, thresh = self._assert_per_matrix(stack, max_sweeps=1)
        assert list(sweeps) == [0, 1, 1]
        assert off[1] > thresh[1]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), kinds=st.lists(st.integers(0, 3), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_random_stacks(self, n, kinds, seed):
        gen = np.random.default_rng(seed)
        makers = [_graded_spd, _with_zero_block,
                  lambda g, n: np.diag(g.standard_normal(n)),
                  lambda g, n: (lambda X: 0.5 * (X + X.T))(g.standard_normal((n, n)))]
        self._assert_per_matrix(np.stack([makers[k](gen, n) for k in kinds]))

    def test_non_converging_member_keeps_its_own_diagnostics(self, monkeypatch):
        # one cyclic sweep cannot annihilate the off-diagonal mass of the
        # dense member; its stacked neighbour before it still converges.
        # The eigen stage of build_bundles reads the stacked call's
        # per-matrix diagnostics
        G = np.array([[2.0, 1.0, 0.5, 0.2], [0.0, 1.5, 0.7, 0.3],
                      [0.0, 0.0, 1.2, 0.9], [0.0, 0.0, 0.0, 1.0]])
        dense = G @ G.T
        diagonal = np.diag([4.0, 3.0, 2.0, 1.0])
        monkeypatch.setattr(gramian, "_JACOBI_MAX_SWEEPS", 1)
        stacks = []
        jacobi = _kernels.jacobi_core

        def recording_jacobi(S, off_tol, max_sweeps):
            stacks.append(jacobi(S, off_tol, max_sweeps))
            return stacks[-1]

        monkeypatch.setattr(_kernels, "jacobi_core", recording_jacobi)
        with pytest.raises(NumericalError) as lone:
            gramian._inverse_factors([dense], [2.0])
        with pytest.raises(NumericalError) as err:
            gramian._inverse_factors([diagonal, dense], [1.0, 2.0])
        lone, err = lone.value, err.value
        assert str(err) == str(lone)
        assert same_bits(err.estimate, lone.estimate)
        assert same_bits(err.error_bound, lone.error_bound)
        assert err.iterations == lone.iterations == 1
        # the diagonal member of the failed stack converged, with the bits
        # of the stack of it alone, whose factors the stage returns
        (alone,) = gramian._inverse_factors([diagonal], [1.0])
        diag, _, off, _, thresh = stacks[1]
        assert off[0] <= thresh[0]
        for got, own in zip(stacks[1], stacks[2]):
            assert same_bits(got[0], own[0])
        assert same_bits(alone.lambdas, 1.0 / np.sort(diag[0]))


class TestJacobiScale:
    """jacobi_core(2^k S) is 2^k jacobi_core(S) bit for bit, with the same
    V and sweep count: the stop test reads a power-of-two-normalised copy,
    so its squares neither overflow nor underflow at any scale of S."""

    @pytest.mark.parametrize("n", [2, 6, 12])
    def test_outputs_scale_exactly(self, n):
        # symmetric entries of magnitude 1e-3 to 1e3, random signs
        gen = np.random.default_rng(n)
        X = gen.choice([-1.0, 1.0], (3, n, n)) * 10.0 ** gen.uniform(-3.0, 3.0, (3, n, n))
        S = X + X.transpose(0, 2, 1)
        diag, V, off, sweeps, thresh = _kernels.jacobi_core(S.copy(), 1e-12, 100)
        assert np.all(off <= thresh) and np.all(sweeps >= 1)
        for k in (-600, -300, 300, 600):
            got = _kernels.jacobi_core(np.ldexp(S, k), 1e-12, 100)
            for have, want in zip(got, (np.ldexp(diag, k), V, np.ldexp(off, k), sweeps,
                                        np.ldexp(thresh, k))):
                assert same_bits(have, want)


class TestSplitmix:
    # reference: the first outputs of the widely published splitmix64
    # sequence for seed 0, mapped through (z >> 11) * 2**-53
    def test_reference_stream(self):
        with np.errstate(over="ignore"):
            out = _kernels.splitmix_fill(np.uint64(0), np.uint64(0), 3)
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

    @pytest.mark.parametrize("start", [0, 17, 2**40])
    def test_seed_vector_rows_match_single_seeds(self, start):
        seeds = [0, 12345, 2**64 - 1]
        rows = _kernels.splitmix_fill(np.array(seeds, dtype=np.uint64), start, 300)
        assert rows.shape == (3, 300)
        for seed, row in zip(seeds, rows):
            assert np.array_equal(row, _kernels.splitmix_fill(np.uint64(seed), start, 300))

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


class TestShortestDecimal:
    def test_table_entries_bracket_the_powers_of_ten(self):
        # every column's phi = H 2^64 + L is 10^k rounded up to 128 bits,
        # (phi - 1) 2^(E - 127) < 10^k <= phi 2^(E - 127) with
        # 2^127 <= phi < 2^128, and its delta = H >> (63 - beta), the
        # interval's width 2^e 10^k scaled to an integer, lies in
        # [100, 1000): for every exponent field of a finite double
        for bq in range(2047):
            H, L, beta, k = _kernels._table_column(bq)[:4]
            delta = H >> (63 - beta)
            k = 2 - (k - (1 << 64) if k >> 63 else k)
            phi, E = _kernels.dragonbox_phi(k)
            assert phi == H << 64 | L and 1 << 127 <= phi < 1 << 128
            # 10^k = p / q and 2^(E - 127) = a / b
            p, q = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
            a, b = (1 << max(E - 127, 0), 1 << max(127 - E, 0))
            assert (phi - 1) * a * q < p * b <= phi * a * q
            assert 100 <= delta < 1000

    def test_every_exponent_field_builds_its_column(self):
        # zero and subnormals (bq = 0) and inf and NaN (bq = 2047) too,
        # whose power-of-two digits are (0, 0); between them, the digits
        # (f, k) of 2^(bq - 1023) are repr's, with no trailing zeros
        from decimal import Decimal
        for bq in range(2048):
            column = _kernels._table_column(bq)
            assert len(column) == 6 and all(0 <= c < 1 << 64 for c in column)
            f, k = column[4], column[5] - (column[5] >> 63 << 64)
            if 0 < bq < 2047:
                assert f % 10 and Decimal(f).scaleb(k) == Decimal(repr(2.0 ** (bq - 1023)))
        assert _kernels._table_column(0)[4:] == _kernels._table_column(2047)[4:] == [0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_digits_and_exponent_of_repr(self, bits):
        from decimal import Decimal
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        x = x[np.isfinite(x)]
        f, e = _kernels.shortest_decimal(x)
        for v, fv, ev in zip(x.tolist(), f.tolist(), e.tolist()):
            got = Decimal(fv).scaleb(ev).normalize()
            assert got.as_tuple() == Decimal(repr(abs(v))).normalize().as_tuple()

    def test_zero_and_signs(self):
        # f has no trailing zeros; the sign is dropped
        f, e = _kernels.shortest_decimal(np.array([0.0, -0.0, 2.5, -2.5, 5e-324, 1e22, 100.0]))
        assert f.tolist() == [0, 0, 25, 25, 5, 1, 1]
        assert e.tolist() == [0, 0, -1, -1, -324, 22, 2]
