"""End-to-end CLI tests: exit codes, determinism, and command flows."""

import csv
import json

import numpy as np
import pytest

from moefit.cli import _fit_config, build_parser, main
from moefit.estimation import FitConfig
from moefit.inference import param_labels
from moefit.io import load_model, save_model
from moefit.model import MoeParams


def run(argv, capsys=None):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture
def line_model(tmp_path):
    """A saved g=1 gaussian model y = 1 + 2x."""
    theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                      beta=np.array([[1.0, 2.0]]), sigma2=np.array([0.25]))
    path = tmp_path / "line.json"
    save_model(path, theta)
    return path


class TestSimulate:
    def test_three_class_writes_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "tc.csv"
        code = run(["simulate", "three-class", "--n", "1000", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x1", "x2", "y"]
        assert len(rows) == 1000
        sidecar = json.loads((tmp_path / "tc.csv.json").read_text())
        assert sidecar["seed"] == 1

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["simulate", "three-class", "--n", "200", "--seed", "3",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_n_exits_2_without_file(self, tmp_path, capsys):
        out = tmp_path / "tc.csv"
        code = run(["simulate", "three-class", "--n", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_moe_requires_model(self, tmp_path, capsys):
        code = run(["simulate", "moe", "--n", "10",
                    "--out", str(tmp_path / "m.csv")])
        assert code == 2

    def test_moe_from_model_file(self, tmp_path, line_model):
        out = tmp_path / "sample.csv"
        code = run(["simulate", "moe", "--n", "50", "--seed", "0",
                    "--model", str(line_model), "--x-low", "-2", "--x-high", "2",
                    "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x1", "y", "z_true"]
        assert len(rows) == 50

    def test_switch_signal_default_spec(self, tmp_path):
        out = tmp_path / "sig.csv"
        code = run(["simulate", "switch-signal", "--n", "550", "--seed", "0",
                    "--out", str(out)])
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 550

    def test_unknown_subcommand_exits_2(self):
        assert run(["simulate", "bogus", "--n", "5", "--out", "x.csv"]) == 2

    @pytest.mark.parametrize("spec", [
        {"breakpoints": [0.5], "coefs": [[1, 0, 0], [2, 0, 0]]},
        {"breakpoints": [0.5], "coefs": [1.0, [2, 0, 0]], "noise_sd": [1, 1]},
        {"breakpoints": [0.5], "coefs": [[1, 0], [2, 0]], "noise_sd": [1, 1]},
        [[0.5], [[1, 0, 0], [2, 0, 0]], [1, 1]],
    ], ids=["missing-key", "scalar-coefs", "short-coefs", "json-array"])
    def test_malformed_signal_spec_exits_2(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "sig.csv"
        assert run(["simulate", "switch-signal", "--n", "50",
                    "--signal-spec", str(path), "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [
        ["--x-low", "nan"],
        ["--x-low", "0,1,2"],
        ["--x-low", "2", "--x-high", "1"],
    ], ids=["nan", "wrong-count", "empty-box"])
    def test_bad_moe_box_exits_2(self, tmp_path, line_model, capsys, bounds):
        out = tmp_path / "m.csv"
        assert run(["simulate", "moe", "--n", "10", "--model", str(line_model),
                    "--out", str(out), *bounds]) == 2
        assert "error: --x-low" in capsys.readouterr().err
        assert not out.exists()


class TestFit:
    def simulate_line(self, tmp_path, line_model, n=200):
        data = tmp_path / "data.csv"
        assert run(["simulate", "moe", "--n", str(n), "--seed", "0",
                    "--model", str(line_model), "--x-low", "-2", "--x-high", "2",
                    "--out", str(data)]) == 0
        return data

    def test_fit_g1_recovers_line(self, tmp_path, line_model):
        data = self.simulate_line(tmp_path, line_model)
        out = tmp_path / "fit.json"
        code = run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--starts", "2", "--out", str(out)])
        assert code == 0
        theta, doc = load_model(out)
        assert theta.beta[0] == pytest.approx([1.0, 2.0], abs=0.15)
        assert doc["fit"]["converged"] is True

    def test_fit_rerun_byte_identical(self, tmp_path, line_model):
        data = self.simulate_line(tmp_path, line_model)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["fit", "--data", str(data), "--family", "gaussian",
                        "--g", "2", "--starts", "3", "--seed", "5",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fit_with_covariance_block(self, tmp_path, line_model):
        data = self.simulate_line(tmp_path, line_model)
        out = tmp_path / "fit.json"
        assert run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--with-covariance", "--out", str(out)]) == 0
        _, doc = load_model(out)
        assert doc["covariance"]["order"] == ["expert[1].b0", "expert[1].b1",
                                              "expert[1].sigma2"]
        cov = np.asarray(doc["covariance"]["matrix"])
        assert cov.shape == (3, 3)

    def test_infeasible_g_exits_2(self, tmp_path, line_model, capsys):
        data = self.simulate_line(tmp_path, line_model, n=10)
        out = tmp_path / "f.json"
        code = run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "8", "--starts", "10", "--out", str(out)])
        assert code == 2
        # one message, not one per start
        assert capsys.readouterr().err == (
            "error: need at least 16 rows to initialize g=8, have 10\n")
        assert not out.exists()

    def test_missing_data_file_exits_2(self, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--family", "gaussian", "--g", "1",
                    "--out", str(tmp_path / "f.json")])
        assert code == 2

    @pytest.mark.parametrize("command", ["fit", "select"])
    @pytest.mark.parametrize("flags", [["--threads", "0"], ["--threads", "-3"],
                                       ["--irls-max-inner", "0"],
                                       ["--rel-tol", "nan"], ["--rel-tol", "inf"]])
    def test_bad_fit_setting_exits_2(self, tmp_path, line_model, capsys,
                                     command, flags):
        data = self.simulate_line(tmp_path, line_model, n=50)
        out = tmp_path / "f.json"
        size = ["--g", "1"] if command == "fit" else ["--G", "1"]
        code = run([command, "--data", str(data), "--family", "gaussian",
                    *size, "--out", str(out), *flags])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_fit_flag_defaults_match_config(self, command):
        size = ["--g", "1"] if command == "fit" else ["--G", "1"]
        args = build_parser().parse_args([command, "--data", "d.csv", "--family",
                                          "gaussian", *size, "--out", "f.json"])
        assert _fit_config(args) == FitConfig()

    @pytest.mark.parametrize("g", ["0", "-1"])
    def test_g_below_one_exits_2(self, tmp_path, line_model, capsys, g):
        data = self.simulate_line(tmp_path, line_model, n=50)
        out = tmp_path / "f.json"
        assert run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", g, "--out", str(out)]) == 2
        assert "--g must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_poly_degree_exits_2(self, tmp_path, line_model, capsys):
        data = self.simulate_line(tmp_path, line_model, n=50)
        out = tmp_path / "f.json"
        code = run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--design", "poly:x", "--out", str(out)])
        assert code == 2
        assert "error: bad --design value 'poly:x'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_design_exits_2(self, tmp_path, line_model):
        data = self.simulate_line(tmp_path, line_model)
        code = run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--design", "cubic",
                    "--out", str(tmp_path / "f.json")])
        assert code == 2


class TestSelect:
    def test_no_eligible_fit_exits_3(self, tmp_path, capsys):
        # noise-free line data: the one g=1 fit floors its variance, so no g
        # is eligible and neither file is written
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n" + "".join(f"{x},{1.0 + 2.0 * x}\n" for x in range(20)))
        out, table = tmp_path / "best.json", tmp_path / "bic.csv"
        code = run(["select", "--data", str(data), "--family", "gaussian",
                    "--G", "1", "--starts", "2", "--out", str(out),
                    "--table", str(table)])
        assert code == 3
        assert capsys.readouterr().err == ("numerical failure: no eligible fit on "
                                           "grid 1..1 (g=1: degenerate)\n")
        assert not out.exists() and not table.exists()

    def test_g1_grid(self, tmp_path, line_model, capsys):
        data = tmp_path / "d.csv"
        assert run(["simulate", "moe", "--n", "150", "--seed", "0",
                    "--model", str(line_model), "--x-low", "-2", "--x-high", "2",
                    "--out", str(data)]) == 0
        out, table = tmp_path / "best.json", tmp_path / "bic.csv"
        code = run(["select", "--data", str(data), "--family", "gaussian",
                    "--G", "1", "--starts", "2", "--out", str(out),
                    "--table", str(table)])
        assert code == 0
        assert "selected g=1" in capsys.readouterr().out
        header, rows = read_csv(table)
        assert header == ["g", "logQL", "dim", "bic", "converged", "degenerate"]
        assert len(rows) == 1

    def test_four_regime_signal_selects_converged_g4_or_more(self, tmp_path, capsys):
        # the four-regime signal of acceptance criterion 8, at seed 0: every
        # g >= 3 fit must converge within the cycle cap to be BIC-eligible
        spec, data = tmp_path / "spec.json", tmp_path / "signal.csv"
        spec.write_text(json.dumps({
            "breakpoints": [0.25, 0.5, 0.75],
            "coefs": [[10.0, 0.0, 0.0], [-20.0, 80.0, -60.0],
                      [45.0, -40.0, 10.0], [-45.0, 60.0, 0.0]],
            "noise_sd": [1.5, 1.5, 1.5, 1.5]}))
        assert run(["simulate", "switch-signal", "--n", "550", "--seed", "0",
                    "--signal-spec", str(spec), "--out", str(data)]) == 0
        out, table = tmp_path / "best.json", tmp_path / "bic.csv"
        code = run(["select", "--data", str(data), "--family", "gaussian",
                    "--G", "5", "--design", "poly:2", "--starts", "2",
                    "--max-cycles", "100", "--rel-tol", "1e-6",
                    "--out", str(out), "--table", str(table)])
        assert code == 0
        _, rows = read_csv(table)
        assert [row[4] for row in rows if int(row[0]) >= 3] == ["1", "1", "1"]
        g = json.loads(out.read_text())["g"]
        assert g >= 4 and f"selected g={g} " in capsys.readouterr().out

    def test_missing_response_column_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,value\n1.0,2.0\n")
        code = run(["select", "--data", str(data), "--family", "gaussian",
                    "--G", "1", "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "'y'" in capsys.readouterr().err

    def test_invalid_G_exits_2(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n1.0,2.0\n")
        code = run(["select", "--data", str(data), "--family", "gaussian",
                    "--G", "0", "--out", str(tmp_path / "m.json")])
        assert code == 2


@pytest.mark.parametrize("column", ["collinear", "constant"])
@pytest.mark.parametrize("command", [["fit", "--g", "1"], ["fit", "--g", "2"],
                                     ["select", "--G", "3"]])
def test_rank_deficient_covariates_exit_2_once(tmp_path, capsys, column, command):
    # x2 = 2 x1, or x2 = 1 beside the intercept: the data cannot tell the
    # coefficients apart, so no fit is written and every start is skipped
    rng = np.random.default_rng(0)
    x1 = rng.uniform(-2.0, 2.0, size=60)
    x2 = 2.0 * x1 if column == "collinear" else np.ones(60)
    y = 1.0 + 2.0 * x1 + 0.3 * rng.normal(size=60)
    data = tmp_path / "d.csv"
    data.write_text("x1,x2,y\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n"
                                          for a, b, c in zip(x1, x2, y)))
    out, table = tmp_path / "m.json", tmp_path / "bic.csv"
    extra = ["--table", str(table)] if command[0] == "select" else []
    code = run([command[0], "--data", str(data), "--family", "gaussian", *command[1:],
                "--starts", "3", "--out", str(out), *extra])
    assert code == 2
    assert capsys.readouterr().err == ("error: expert design is rank-deficient: "
                                       "constant or collinear covariate columns\n")
    assert not out.exists() and not table.exists()


class TestPredict:
    def covariates_csv(self, tmp_path, xs):
        path = tmp_path / "x.csv"
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1"])
            for x in xs:
                w.writerow([repr(float(x))])
        return path

    def test_mean_is_linear_predictor(self, tmp_path, line_model):
        xs = [-1.0, 0.0, 0.5, 2.0]
        data = self.covariates_csv(tmp_path, xs)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "mean", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x1", "mean"]
        for (x, row) in zip(xs, rows):
            assert float(row[1]) == pytest.approx(1.0 + 2.0 * x, abs=1e-12)

    def test_variance_constant_for_g1(self, tmp_path, line_model):
        data = self.covariates_csv(tmp_path, [0.0, 1.0])
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "variance", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r[1]) == pytest.approx(0.25, abs=1e-12) for r in rows)

    def test_cluster_gate_labels(self, tmp_path):
        theta = MoeParams(family="gaussian",
                          gating=np.array([[0.0, 4.0], [0.0, 0.0]]),
                          beta=np.zeros((2, 2)), sigma2=np.ones(2))
        model = tmp_path / "m.json"
        save_model(model, theta)
        data = self.covariates_csv(tmp_path, [-2.0, 2.0])
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--mode", "cluster-gate", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x1", "gate_1", "gate_2", "label"]
        assert [r[-1] for r in rows] == ["2", "1"]

    def test_classify_header_and_labels(self, tmp_path):
        beta = np.zeros((1, 3, 2))
        beta[0, 1] = [2.0, 0.0]  # class 2 dominates everywhere
        theta = MoeParams(family="multinomial", gating=np.zeros((1, 2)),
                          beta=beta, K=3)
        model = tmp_path / "m.json"
        save_model(model, theta)
        data = self.covariates_csv(tmp_path, [0.0, 1.0])
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--mode", "classify", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x1", "post_1", "post_2", "post_3", "label"]
        assert all(r[-1] == "2" for r in rows)

    def test_cluster_posterior_needs_response(self, tmp_path):
        theta = MoeParams(family="gaussian", gating=np.zeros((2, 2)),
                          beta=np.array([[0.0, 0.0], [5.0, 0.0]]),
                          sigma2=np.ones(2))
        model = tmp_path / "m.json"
        save_model(model, theta)
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n0.0,0.1\n0.0,4.9\n")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--mode", "cluster-posterior", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[-1] for r in rows] == ["1", "2"]

    def test_mean_ci_requires_covariance(self, tmp_path, line_model, capsys):
        data = self.covariates_csv(tmp_path, [0.0])
        code = run(["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "mean-ci", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "with-covariance" in capsys.readouterr().err

    def test_mean_ci_requires_gaussian_experts(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.uniform(-2.0, 2.0, size=60)
        y = rng.random(60) < 1.0 / (1.0 + np.exp(-2.0 * x))
        data = tmp_path / "d.csv"
        data.write_text("x1,y\n" + "".join(f"{a!r},{b:d}\n"
                                           for a, b in zip(x.tolist(), y.tolist())))
        model, out = tmp_path / "m.json", tmp_path / "p.csv"
        assert run(["fit", "--data", str(data), "--family", "logistic", "--g", "1",
                    "--with-covariance", "--out", str(model)]) == 0
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--mode", "mean-ci", "--out", str(out)])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: regression functionals require gaussian experts\n")
        assert not out.exists()

    @pytest.mark.parametrize("family", ["multinomial", "logistic"])
    def test_mean_ci_refuses_the_family_before_the_covariance(self, tmp_path,
                                                              capsys, family):
        # a model saved without --with-covariance that the flag would not
        # help: the family refusal comes first
        beta = np.zeros((1, 3, 2)) if family == "multinomial" else np.zeros((1, 2))
        theta = MoeParams(family=family, gating=np.zeros((1, 2)), beta=beta,
                          K=3 if family == "multinomial" else None)
        model, out = tmp_path / "m.json", tmp_path / "p.csv"
        save_model(model, theta)
        code = run(["predict", "--model", str(model),
                    "--data", str(self.covariates_csv(tmp_path, [0.0, 1.0])),
                    "--mode", "mean-ci", "--out", str(out)])
        assert code == 2
        assert (capsys.readouterr().err
                == "error: regression functionals require gaussian experts\n")
        assert not out.exists()

    def test_covariate_count_mismatch_exits_2(self, tmp_path, line_model, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,y\n0.0,0.0,0.0\n")
        code = run(["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "mean", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "expects 1" in err

    @pytest.mark.parametrize("mode", ["cluster-gate", "mean", "variance", "mean-ci"])
    def test_header_only_file_writes_header_only(self, tmp_path, line_model, mode):
        theta, _ = load_model(line_model)
        labels = param_labels(theta)
        model = tmp_path / "cov.json"
        save_model(model, theta, covariance={
            "order": labels, "matrix": (0.01 * np.eye(len(labels))).tolist()})
        data = self.covariates_csv(tmp_path, [])
        out = tmp_path / "p.csv"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--mode", mode, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[0] == "x1" and rows == []

    # an empty file, a row without the covariate column, and a number that
    # Python's float() takes but the CSV reader does not
    @pytest.mark.parametrize("text", ["", "y,x1\n1.0\n", "x1\n1_000\n"],
                             ids=["empty", "short-row", "underscore-number"])
    def test_bad_covariate_file_exits_2(self, tmp_path, line_model, capsys, text):
        data = tmp_path / "d.csv"
        data.write_text(text)
        code = run(["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "mean", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture
def short_covariance_model(tmp_path):
    """A g=2 gaussian model file whose covariance block lacks its last
    parameter."""
    theta = MoeParams(family="gaussian", gating=np.array([[0.5, 1.0], [0.0, 0.0]]),
                      beta=np.array([[1.0, 2.0], [-1.0, 0.5]]), sigma2=np.ones(2))
    labels = param_labels(theta)[:-1]
    path = tmp_path / "short.json"
    save_model(path, theta, covariance={"order": labels,
                                        "matrix": np.eye(len(labels)).tolist()})
    return path


@pytest.mark.parametrize("command", ["predict", "summarize"])
def test_mismatched_covariance_exits_2(tmp_path, short_covariance_model, capsys,
                                       command):
    argv = ["--model", str(short_covariance_model)]
    if command == "predict":
        data = tmp_path / "x.csv"
        data.write_text("x1\n0.5\n")
        argv += ["--data", str(data), "--mode", "mean-ci",
                 "--out", str(tmp_path / "p.csv")]
    assert run([command] + argv) == 2
    assert "covariance block does not match" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "predict", "simulate"])
def test_json_array_model_exits_2(tmp_path, capsys, command):
    model = tmp_path / "model.json"
    model.write_text("[1, 2]\n")
    data = tmp_path / "x.csv"
    data.write_text("x1\n0.5\n")
    argv = {"summarize": ["summarize"],
            "predict": ["predict", "--data", str(data), "--mode", "mean"],
            "simulate": ["simulate", "moe", "--n", "5"]}[command]
    if command != "summarize":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert run(argv + ["--model", str(model)]) == 2
    assert "not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    ("fit", "--data"), ("fit", "--out"), ("select", "--table"),
    ("predict", "--model"), ("predict", "--data"), ("predict", "--out"),
    ("summarize", "--model"), ("three-class", "--out"),
    ("switch-signal", "--signal-spec"), ("moe", "--model"),
], ids=lambda v: v.lstrip("-"))
def test_directory_path_exits_2(tmp_path, line_model, capsys, command, flag):
    data = TestFit().simulate_line(tmp_path, line_model, n=50)
    out = str(tmp_path / "out")
    fit = ["--data", str(data), "--family", "gaussian", "--out", out]
    argv = {
        "fit": ["fit", "--g", "1", *fit],
        "select": ["select", "--G", "1", *fit],
        "predict": ["predict", "--model", str(line_model), "--data", str(data),
                    "--mode", "mean", "--out", out],
        "summarize": ["summarize", "--model", str(line_model)],
        "three-class": ["simulate", "three-class", "--n", "10", "--out", out],
        "switch-signal": ["simulate", "switch-signal", "--n", "50", "--out", out],
        "moe": ["simulate", "moe", "--n", "10", "--out", out],
    }[command]
    # the directory takes the flag's place: argparse keeps the last value
    assert run(argv + [flag, str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


class TestSummarize:
    def test_prints_model_shape(self, tmp_path, line_model, capsys):
        assert run(["summarize", "--model", str(line_model)]) == 0
        out = capsys.readouterr().out
        assert "family=gaussian" in out and "g=1" in out

    def test_missing_model_exits_2(self, tmp_path):
        assert run(["summarize", "--model", str(tmp_path / "no.json")]) == 2

    @pytest.mark.parametrize("fit_block", [
        {"logQL": 1.0},
        [1],
        "string-logQL",
    ], ids=["missing-dim", "array", "string-logQL"])
    def test_malformed_fit_block_exits_2(self, tmp_path, line_model, capsys,
                                         fit_block):
        doc = json.loads(line_model.read_text())
        if fit_block == "string-logQL":
            fit_block = {"logQL": "-1.5", "dim": 3, "bic": 10.0, "n": 50,
                         "cycles": 4, "seed": 0, "converged": True,
                         "degenerate": False}
        doc["fit"] = fit_block
        line_model.write_text(json.dumps(doc))
        assert run(["summarize", "--model", str(line_model)]) == 2
        err = capsys.readouterr().err
        assert "fit block" in err and str(line_model) in err

    def test_covariance_condition_saved_and_summarized(self, tmp_path, line_model,
                                                       capsys):
        data = TestFit().simulate_line(tmp_path, line_model, n=50)
        out = tmp_path / "f.json"
        assert run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--with-covariance", "--out", str(out)]) == 0
        condition = json.loads(out.read_text())["covariance"]["condition"]
        assert 1.0 <= condition < 1e4
        capsys.readouterr()
        assert run(["summarize", "--model", str(out)]) == 0
        assert f"bread condition number={condition:.3e}" in capsys.readouterr().out

    def test_mistyped_covariance_condition_exits_2(self, tmp_path, capsys):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.0, 2.0]]), sigma2=np.array([0.25]))
        labels = param_labels(theta)
        path = tmp_path / "m.json"
        save_model(path, theta, covariance={
            "order": labels, "matrix": np.eye(len(labels)).tolist(),
            "condition": "1e3"})
        assert run(["summarize", "--model", str(path)]) == 2
        assert "condition is not a number" in capsys.readouterr().err

    def test_saved_fit_block_summarized(self, tmp_path, line_model, capsys):
        data = TestFit().simulate_line(tmp_path, line_model, n=50)
        out = tmp_path / "f.json"
        assert run(["fit", "--data", str(data), "--family", "gaussian",
                    "--g", "1", "--out", str(out)]) == 0
        assert run(["summarize", "--model", str(out)]) == 0
        assert "dim=3" in capsys.readouterr().out
