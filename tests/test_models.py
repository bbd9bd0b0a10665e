import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost.errors import ModelParseError, ValidationError
from distcost.models import admire, builtin_models, load_model, save_model
from distcost.systems import _CONTROLLABILITY_TOL, LtiSystem, controllability_rank

from conftest import metzler_system


class TestAdmire:
    def test_dimensions(self, jet):
        assert jet.n == 3 and jet.p == 4
        assert jet.name == "admire"

    def test_known_entries(self, jet):
        assert jet.A[0, 0] == -0.9967
        assert jet.A[2, 2] == -0.2127
        assert jet.B[0, 3] == 1.4871
        assert jet.B[2, 0] == 0.0

    def test_registry(self):
        assert set(builtin_models()) == {"admire"}


class TestRoundtrip:
    def test_save_then_load(self, jet, tmp_path):
        path = tmp_path / "jet.json"
        save_model(jet, path)
        back = load_model(path)
        assert back.name == jet.name
        assert np.array_equal(back.A, jet.A)
        assert np.array_equal(back.B, jet.B)

    def test_file_schema(self, jet, tmp_path):
        path = tmp_path / "jet.json"
        save_model(jet, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"name", "n", "p", "A", "B"}
        assert doc["n"] == 3 and doc["p"] == 4
        assert doc["A"][0][0] == -0.9967


class TestParse:
    def _write(self, tmp_path, doc):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        return path

    def _valid_doc(self):
        return {"name": "dblint", "n": 2, "p": 1,
                "A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}

    def test_nested_rows(self, tmp_path):
        sys = load_model(self._write(tmp_path, self._valid_doc()))
        assert sys.n == 2 and sys.p == 1

    def test_flat_row_major(self, tmp_path):
        doc = self._valid_doc()
        doc["A"] = [0.0, 1.0, 0.0, 0.0]
        doc["B"] = [0.0, 1.0]
        sys = load_model(self._write(tmp_path, doc))
        assert np.array_equal(sys.A, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_missing_field(self, tmp_path):
        doc = self._valid_doc()
        del doc["B"]
        with pytest.raises(ModelParseError):
            load_model(self._write(tmp_path, doc))

    def test_wrong_row_length(self, tmp_path):
        doc = self._valid_doc()
        doc["A"] = [[0.0, 1.0], [0.0]]
        with pytest.raises(ModelParseError):
            load_model(self._write(tmp_path, doc))

    def test_non_numeric_entry(self, tmp_path):
        doc = self._valid_doc()
        doc["A"][0][0] = "zero"
        with pytest.raises(ModelParseError):
            load_model(self._write(tmp_path, doc))

    def test_bool_entry_rejected(self, tmp_path):
        doc = self._valid_doc()
        doc["A"][0][0] = True
        with pytest.raises(ModelParseError):
            load_model(self._write(tmp_path, doc))

    # JSON's non-finite and overflowing numbers, which json.load reads as
    # nan, inf or an int no float can hold
    NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]

    @pytest.mark.parametrize("literal", NON_FINITE, ids=[v[:9] for v in NON_FINITE])
    def test_non_finite_entry_names_its_position(self, tmp_path, literal):
        path = tmp_path / "m.json"
        path.write_text('{"name": "dblint", "n": 2, "p": 1, "A": [0.0, 1.0, 0.0, %s], '
                        '"B": [[0.0], [1.0]]}' % literal)
        with pytest.raises(ModelParseError, match=r"entry \(1, 1\) of 'A' is not a finite"):
            load_model(path)
        path.write_text('{"name": "dblint", "n": 2, "p": 1, "A": [[0.0, 1.0], [0.0, 0.0]], '
                        '"B": [[0.0], [%s]]}' % literal)
        with pytest.raises(ModelParseError, match=r"entry \(1, 0\) of 'B' is not a finite"):
            load_model(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ModelParseError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelParseError):
            load_model(tmp_path / "absent.json")

    def test_uncontrollable_model_rejected(self, tmp_path):
        doc = {"name": "bad", "n": 2, "p": 1,
               "A": [[1.0, 0.0], [0.0, 2.0]], "B": [[0.0], [1.0]]}
        with pytest.raises(ValidationError):
            load_model(self._write(tmp_path, doc))

    def test_dimension_mismatch(self, tmp_path):
        doc = self._valid_doc()
        doc["n"] = 3
        with pytest.raises(ModelParseError):
            load_model(self._write(tmp_path, doc))


class TestSystemValidation:
    def test_uncontrollable_pair(self):
        with pytest.raises(ValidationError):
            LtiSystem(np.diag([1.0, 2.0]), np.array([[0.0], [1.0]]), name="u")

    def test_controllable_chain(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        B = np.array([[0.0], [1.0]])
        sys = LtiSystem(A, B, name="chain")
        assert sys.n == 2

    def test_matrices_readonly(self, jet):
        with pytest.raises(ValueError):
            jet.A[0, 0] = 0.0


def kalman_rank(A, B, rel_tol=_CONTROLLABILITY_TOL):
    """The numerical rank of [B, AB, ..., A^(n-1)B] by its singular values."""
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    return int(np.sum(sv > rel_tol * sv[0]))


class TestControllabilityRank:
    def test_horizons_recipe_at_n24_is_controllable(self):
        # the pair constructs, where the numerical rank of the Kalman
        # matrix, whose columns A^k B grow like ||A||^k, is one short
        sys_ = metzler_system(0, n=24, p=12)
        assert kalman_rank(sys_.A, sys_.B) == 23
        assert controllability_rank(sys_.A, sys_.B, _CONTROLLABILITY_TOL) == 24

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 4), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_known_controllable_dimension(self, n, k, p, decoupled, seed):
        # A = Q [[Ac, A12], [0, Au]] Q^T and B = Q [Bc; 0] with (Ac, Bc) a
        # random k-state pair and Q = diag(Qc, Qu) random orthogonal: the
        # controllable subspace has dimension k, also past a decoupled
        # stable mode and under scaling of A or B. Q keeps the zero blocks
        # exact. A rotation that mixes the two subspaces rounds the zero
        # coupling to about eps, which a long single-input chain
        # amplifies: in one such draw (n = 29, k = 16, p = 1) the block
        # after the chain is 1.0e-10 at 40 digits against a tolerance of
        # 1.8e-10, so the rounded pair has no clear numerical dimension
        k = min(k, n)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) / np.sqrt(n)
        A[k:, :k] = 0.0
        B = np.zeros((n, p))
        B[:k] = rng.standard_normal((k, p))
        Q = np.zeros((n, n))
        for block in (slice(0, k), slice(k, n)):
            m = block.stop - block.start
            Q[block, block] = np.linalg.qr(rng.standard_normal((m, m)))[0]
        A, B = Q @ A @ Q.T, Q @ B
        if decoupled:
            A = np.block([[A, np.zeros((n, 1))], [np.zeros((1, n)), -np.ones((1, 1))]])
            B = np.vstack([B, np.zeros((1, p))])
        for scale_A, scale_B in [(1.0, 1.0), (2.0 ** 40, 1.0), (1.0, 2.0 ** -40)]:
            assert controllability_rank(scale_A * A, scale_B * B, _CONTROLLABILITY_TOL) == k
        if k < A.shape[0]:
            with pytest.raises(ValidationError, match=f"rank {k} <"):
                LtiSystem(A, B)
        else:
            assert LtiSystem(A, B).n == k

    @pytest.mark.parametrize("n", [8, 16, 24, 32])
    def test_integrator_chain_is_full_rank(self, n):
        A = np.eye(n, k=1)
        B = np.eye(n)[:, -1:]
        assert controllability_rank(A, B, _CONTROLLABILITY_TOL) == n
        assert LtiSystem(A, B).n == n
