import json

import numpy as np
import pytest

from distcost.errors import ModelParseError, ValidationError
from distcost.models import admire, builtin_models, load_model, save_model
from distcost.systems import LtiSystem


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
