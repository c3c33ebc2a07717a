"""File-format tests: model JSON round-trips and dataset CSV I/O."""

import json
import warnings

import numpy as np
import pytest

from moefit.io import (
    FormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    read_covariates_csv,
    read_dataset_csv,
    save_model,
    write_csv,
    write_dataset_csv,
)
from moefit.inference import param_labels
from moefit.model import Dataset, ExpertDesign, MoeParams


def sample_theta():
    rng = np.random.default_rng(0)
    return MoeParams(
        family="gaussian",
        gating=np.vstack([rng.normal(size=(2, 3)), np.zeros(3)]),
        beta=rng.normal(size=(3, 3)),
        sigma2=rng.uniform(0.1, 2.0, size=3),
    )


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path):
        theta = sample_theta()
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        save_model(first, theta, fit_meta={"logQL": -12.345678901234567,
                                           "dim": 14, "bic": 99.9, "n": 100,
                                           "cycles": 7, "seed": 0,
                                           "converged": True,
                                           "degenerate": False})
        loaded, doc = load_model(first)
        save_model(second, loaded, fit_meta=doc.get("fit"),
                   covariance=doc.get("covariance"))
        assert first.read_bytes() == second.read_bytes()

    def test_coefficients_bit_exact(self, tmp_path):
        theta = sample_theta()
        path = tmp_path / "m.json"
        save_model(path, theta)
        loaded, _ = load_model(path)
        assert np.array_equal(loaded.gating, theta.gating)
        assert np.array_equal(loaded.beta, theta.beta)
        assert np.array_equal(loaded.sigma2, theta.sigma2)
        assert loaded.family == theta.family
        assert loaded.design.kind == theta.design.kind

    def test_multinomial_round_trip_keeps_K_and_design(self, tmp_path):
        rng = np.random.default_rng(1)
        theta = MoeParams(
            family="multinomial",
            gating=np.vstack([rng.normal(size=(1, 2)), np.zeros(2)]),
            beta=rng.normal(size=(2, 3, 4)),
            design=ExpertDesign("poly", 3),
            K=3,
        )
        theta.beta[:, 2] = 0.0
        path = tmp_path / "m.json"
        save_model(path, theta)
        loaded, _ = load_model(path)
        assert loaded.K == 3
        assert loaded.design.kind == "poly" and loaded.design.degree == 3
        assert np.array_equal(loaded.beta, theta.beta)

    def test_zero_reference_blocks_serialized(self):
        theta = sample_theta()
        doc = model_to_dict(theta)
        assert doc["gating"][-1] == [0.0, 0.0, 0.0]
        assert doc["g"] == 3 and doc["p"] == 2

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson", "multinomial"])
    def test_every_family_saves_loads_saves_byte_identical(self, tmp_path, family):
        rng = np.random.default_rng(4)
        multiclass = family == "multinomial"
        theta = MoeParams(
            family=family, gating=np.vstack([rng.normal(size=(1, 3)), np.zeros(3)]),
            beta=rng.normal(size=(2, 3, 3) if multiclass else (2, 3)),
            sigma2=rng.uniform(0.1, 2.0, size=2) if family == "gaussian" else None,
            K=3 if multiclass else None)
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(first, theta)
        save_model(second, load_model(first)[0])
        assert first.read_bytes() == second.read_bytes()

    # the declared shape of a 3 x 3 gating array is g = 3, p = 2
    @pytest.mark.parametrize("declared", [{"g": 5}, {"p": 7}, {"g": 5, "p": 7},
                                          {"g": "3"}],
                             ids=["g", "p", "g-and-p", "g-as-string"])
    def test_declared_shape_must_match_gating(self, declared):
        doc = model_to_dict(sample_theta())
        doc.update(declared)
        with pytest.raises(FormatError, match="do not match the 3 x 3 gating array"):
            model_from_dict(doc)

    # a one-component, one-covariate, three-class model: g = 1, p = 1, K = 3
    @pytest.mark.parametrize("edit", [
        {"g": True}, {"p": 1.0}, {"K": 3.0},
        {"expert_design": {"kind": "poly", "degree": 2.7}},
        {"expert_design": {"kind": "poly", "degree": True}},
        {"expert_design": {"kind": "raw", "degree": "3"}},
    ], ids=["g-boolean", "p-float", "K-float", "degree-float", "degree-boolean",
            "degree-string"])
    def test_integer_fields_must_be_json_integers(self, edit):
        theta = MoeParams(family="multinomial", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 3, 2)), K=3)
        doc = model_to_dict(theta)
        model_from_dict(doc)
        doc.update(edit)
        with pytest.raises(FormatError, match="not a JSON integer"):
            model_from_dict(doc)

    @pytest.mark.parametrize("key", ["g", "p"])
    def test_missing_declared_shape_rejected(self, key):
        doc = model_to_dict(sample_theta())
        del doc[key]
        with pytest.raises(FormatError, match="malformed model document"):
            model_from_dict(doc)

    def test_wrong_schema_version_rejected(self):
        doc = model_to_dict(sample_theta())
        doc["schema_version"] = 99
        with pytest.raises(FormatError, match="schema_version"):
            model_from_dict(doc)

    def test_missing_block_rejected(self):
        doc = model_to_dict(sample_theta())
        del doc["experts"]
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_covariance_block_round_trips(self, tmp_path):
        theta = sample_theta()
        labels = param_labels(theta)
        cov = {"order": labels, "matrix": (0.25 * np.eye(len(labels))).tolist()}
        path = tmp_path / "m.json"
        save_model(path, theta, covariance=cov)
        _, doc = load_model(path)
        assert doc["covariance"] == cov

    # one parameter short in the order, in the matrix, or in both; a
    # reordered manifest; a ragged matrix
    @pytest.mark.parametrize("cut", ["order", "matrix", "both", "swap", "ragged"])
    def test_mismatched_covariance_block_rejected(self, cut):
        theta = sample_theta()
        labels = param_labels(theta)
        matrix = np.eye(len(labels)).tolist()
        if cut in ("order", "both"):
            labels = labels[:-1]
        if cut in ("matrix", "both"):
            matrix = [row[:-1] for row in matrix[:-1]]
        if cut == "swap":
            labels[0], labels[1] = labels[1], labels[0]
        if cut == "ragged":
            matrix[0] = matrix[0][:-1]
        doc = model_to_dict(theta, covariance={"order": labels, "matrix": matrix})
        with pytest.raises(FormatError, match="covariance|malformed"):
            model_from_dict(doc)


class TestDatasetCsv:
    def test_real_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(20, 2)), rng.normal(size=20), "real")
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path, "real")
        assert np.array_equal(back.X, data.X)
        assert np.array_equal(back.y, data.y)

    def test_categorical_with_latents_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = Dataset(rng.normal(size=(15, 1)),
                       rng.integers(1, 4, size=15), "categorical", K=3,
                       z_true=rng.integers(1, 3, size=15))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path, "categorical", K=3)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.z_true, data.z_true)

    def test_header_names(self, tmp_path):
        data = Dataset(np.zeros((2, 3)), np.zeros(2), "real")
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,x3,y"

    def test_custom_column_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,resp\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        data = read_dataset_csv(path, "real", response_col="resp",
                                covariate_cols=["b"])
        assert np.array_equal(data.X, [[2.0], [5.0]])
        assert np.array_equal(data.y, [3.0, 6.0])

    def test_missing_response_column_named_in_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,value\n1.0,2.0\n")
        with pytest.raises(FormatError, match="'y'"):
            read_dataset_csv(path, "real")

    def test_missing_covariate_column_named_in_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n1.0,2.0\n")
        with pytest.raises(FormatError, match="x9"):
            read_dataset_csv(path, "real", covariate_cols=["x9"])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            read_dataset_csv(path, "real")

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        with pytest.raises(FormatError, match="malformed"):
            read_dataset_csv(path, "real")

    def test_infinite_latent_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y,z_true\n1.0,2.0,inf\n")
        with pytest.raises(FormatError, match="malformed"):
            read_dataset_csv(path, "real")

    @pytest.mark.parametrize("nl", ["\n", "\r\n"])
    def test_blank_lines_skipped(self, tmp_path, nl):
        path = tmp_path / "d.csv"
        path.write_bytes(nl.join(["x1,y", "", "1.0,2.0", "", "", "3.0,4.0", "", ""])
                         .encode())
        data = read_dataset_csv(path, "real")
        assert np.array_equal(data.X, [[1.0], [3.0]])
        assert np.array_equal(data.y, [2.0, 4.0])

    def test_quoted_cells_and_spaces_around_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('x1,x2,y\n"1.5", 2.0 ,"-3e2"\n')
        data = read_dataset_csv(path, "real")
        assert np.array_equal(data.X, [[1.5, 2.0]])
        assert np.array_equal(data.y, [-300.0])

    def test_extra_trailing_cells_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n1.0,2.0,9.0,oops\n3.0,4.0\n")
        data = read_dataset_csv(path, "real")
        assert np.array_equal(data.X, [[1.0], [3.0]])
        assert np.array_equal(data.y, [2.0, 4.0])

    def test_columns_found_by_name_in_a_reordered_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("z_true,y,x2,x1\n2,3.0,5.0,7.0\n1,4.0,6.0,8.0\n")
        data = read_dataset_csv(path, "real")
        assert np.array_equal(data.X, [[5.0, 7.0], [6.0, 8.0]])
        assert np.array_equal(data.y, [3.0, 4.0])
        assert np.array_equal(data.z_true, [2, 1])

    # a short row, a comment-like row and an empty cell; Python's float()
    # takes "1_000", the column parser does not
    @pytest.mark.parametrize("row", ["1.0", "#1,2", ",2.0", "1_000,2.0"])
    def test_unparseable_row_rejected(self, tmp_path, row):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,y\n1.0,2.0\n{row}\n")
        with pytest.raises(FormatError, match="malformed"):
            read_dataset_csv(path, "real")

    def test_latent_labels_truncate_to_integers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y,z_true\n1.0,2.0,2.0\n1.0,2.0,1.7\n")
        z = read_dataset_csv(path, "real").z_true
        assert np.issubdtype(z.dtype, np.integer)
        assert z.tolist() == [2, 1]

    @pytest.mark.parametrize("label", ["nan", "-inf"])
    def test_non_finite_latent_label_rejected(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,y,z_true\n1.0,2.0,1\n1.0,2.0,{label}\n")
        with pytest.raises(FormatError, match="malformed"):
            read_dataset_csv(path, "real")

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"])
    def test_header_only_file_reads_zero_rows_silently(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_bytes(f"x1,x2,y\n{body}".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = read_covariates_csv(path)
        assert X.shape == (0, 2)

    def test_write_csv_golden_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["k", "a", "b"],
                  [np.array([1, 2, 3]), np.array([-0.0, 1e16, 1e-05]),
                   np.array([5e-324, 0.1, np.nan])])
        assert path.read_bytes() == (b"k,a,b\r\n1,-0.0,5e-324\r\n"
                                     b"2,1e+16,0.1\r\n3,1e-05,nan\r\n")

    def test_write_csv_zero_rows_is_the_header_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["k", "a"], [np.array([], dtype=int), np.array([])])
        assert path.read_bytes() == b"k,a\r\n"
