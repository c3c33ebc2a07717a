"""File-format tests: model JSON round-trips and dataset CSV I/O."""

import json

import numpy as np
import pytest

from moefit.io import (
    FormatError,
    load_model,
    model_from_dict,
    model_to_dict,
    read_dataset_csv,
    save_model,
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
