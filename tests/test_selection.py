"""Selection tests: parameter counting, BIC arithmetic, and grid selection."""

import numpy as np
import pytest

import moefit.estimation as estimation
import moefit.selection as selection
from moefit.datagen import gen_moe_sample, uniform_box_sampler
from moefit.estimation import FitConfig, InfeasibleInitError
from moefit.model import Dataset, ExpertDesign, MoeParams
from moefit.selection import GFit, SelectionReport, bic, param_count, select_g


class TestParamCount:
    def test_paper_closed_form_spot_value(self):
        assert param_count(4, 2, "gaussian") == 25

    def test_gaussian_matches_closed_form_exhaustively(self):
        for g in range(1, 21):
            for p in range(0, 11):
                assert param_count(g, p, "gaussian") == (3 + 2 * p) * g - p - 1

    def test_gaussian_g1(self):
        for p in range(0, 6):
            assert param_count(1, p, "gaussian") == p + 2

    def test_multinomial_layout(self):
        assert param_count(4, 2, "multinomial", K=3) == 9 + 24

    def test_logistic_poisson(self):
        assert param_count(3, 2, "logistic") == 2 * 3 + 3 * 3
        assert param_count(3, 2, "poisson") == 2 * 3 + 3 * 3

    def test_poly_design_width(self):
        # quadratic-in-x1 experts: d=2 regardless of p
        design = ExpertDesign(kind="poly", degree=2)
        assert param_count(4, 1, "gaussian", design) == 3 * 2 + 4 * 4

    def test_multinomial_requires_K(self):
        with pytest.raises(ValueError):
            param_count(2, 1, "multinomial")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            param_count(2, 1, "gamma")


class TestBic:
    def test_hand_value(self):
        assert bic(-100.0, 5, 100) == pytest.approx(200 + 5 * np.log(100), abs=1e-10)
        assert bic(-100.0, 5, 100) == pytest.approx(223.02585, abs=1e-5)

    def test_penalty_vanishes_at_n1(self):
        assert bic(-7.0, 12, 1) == 14.0

    def test_monotone_in_dim(self):
        assert bic(-100.0, 5, 100) < bic(-100.0, 6, 100)

    def test_penalty_shape_conditions(self):
        # pen_n(g)/n -> 0 and the gap pen_n(g) - pen_n(g*) grows with n
        dim = lambda g: param_count(g, 2, "gaussian")
        ratios = [dim(3) * np.log(n) / n for n in (1e2, 1e4, 1e6)]
        assert ratios[0] > ratios[1] > ratios[2]
        gaps = [(dim(4) - dim(2)) * np.log(n) for n in (1e2, 1e4, 1e6)]
        assert gaps[0] < gaps[1] < gaps[2]


class TestSelectG:
    def test_grid_of_one(self):
        rng = np.random.default_rng(0)
        data = gen_moe_sample(
            MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                      beta=np.array([[1.0, 2.0]]), sigma2=np.array([1.0])),
            uniform_box_sampler([-2.0], [2.0]), 100, seed=1)
        report = select_g(data, 1, "gaussian")
        assert report.g_hat == 1
        assert [r.g for r in report.rows] == [1]

    def test_single_line_selects_one_component(self):
        truth = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.0, 2.0]]), sigma2=np.array([1.0]))
        config = FitConfig(n_starts=3, max_cycles=80, rel_tol=1e-5)
        hits = 0
        for seed in range(10):
            data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]),
                                  2000, seed=200 + seed)
            hits += select_g(data, 4, "gaussian", config=config).g_hat == 1
        assert hits >= 8

    def test_tie_breaks_to_smaller_g(self):
        rows = [
            GFit(g=2, q_hat=-50.0, dim=7, bic=100.0, converged=True,
                 degenerate=False, fit=object()),
            GFit(g=3, q_hat=-40.0, dim=12, bic=100.0, converged=True,
                 degenerate=False, fit=object()),
        ]
        eligible = [r for r in rows if r.eligible]
        best = min(r.bic for r in eligible)
        g_hat = min(r.g for r in eligible if r.bic <= best + 1e-12 * (1 + abs(best)))
        assert g_hat == 2

    def test_report_csv_shape(self, tmp_path):
        truth = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 150, seed=3)
        config = FitConfig(n_starts=2, max_cycles=60)
        report = select_g(data, 2, "gaussian", config=config)
        report.to_csv(tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "g,logQL,dim,bic,converged,degenerate"
        assert len(lines) == 3

    def test_report_csv_numbers_parse(self, tmp_path):
        truth = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 150, seed=3)
        report = select_g(data, 2, "gaussian", config=FitConfig(n_starts=2, max_cycles=60))
        report.to_csv(tmp_path / "t.csv")
        for line in (tmp_path / "t.csv").read_text().strip().splitlines()[1:]:
            cells = line.split(",")
            for cell in (cells[1], cells[3]):  # logQL, bic
                assert np.isfinite(float(cell))

    def test_invalid_grid_rejected(self):
        data = gen_moe_sample(
            MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                      beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0])),
            uniform_box_sampler([-2.0], [2.0]), 50, seed=4)
        with pytest.raises(ValueError):
            select_g(data, 0, "gaussian")

    def test_infeasible_g_row_not_selectable(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, size=(5, 1))
        data = Dataset(x, 1.0 + 2.0 * x[:, 0] + 0.1 * rng.normal(size=5), "real")
        report = select_g(data, 3, "gaussian", config=FitConfig(n_starts=2))
        row = report.rows[2]
        assert row.fit is None and not row.eligible
        assert row.error == "need at least 6 rows to initialize g=3, have 5"
        assert report.g_hat < 3

    def test_rank_deficient_designs(self, monkeypatch):
        # x2 = 2 x1: a raw expert design fails every g before any fit; a
        # quadratic design in x1 fits, and only the gate (g >= 2) sees x2
        rng = np.random.default_rng(5)
        x1 = rng.uniform(-2.0, 2.0, size=80)
        data = Dataset(np.column_stack([x1, 2.0 * x1]),
                       1.0 + x1 - 0.5 * x1 ** 2 + 0.2 * rng.normal(size=80), "real")
        starts = []
        original = estimation.multi_start_fit

        def counted(*args, **kwargs):
            starts.append(args[1])
            return original(*args, **kwargs)
        monkeypatch.setattr(selection, "multi_start_fit", counted)
        with pytest.raises(InfeasibleInitError, match="expert design"):
            select_g(data, 3, "gaussian", config=FitConfig(n_starts=2))
        assert starts == []
        report = select_g(data, 3, "gaussian", ExpertDesign("poly", 2),
                          FitConfig(n_starts=2))
        assert report.g_hat == 1 and starts == [1, 2, 3]
        assert [r.eligible for r in report.rows] == [True, False, False]
        assert all("gating design" in r.error for r in report.rows[1:])

    def test_degenerate_fits_not_selectable(self):
        report = SelectionReport(
            rows=[GFit(g=1, q_hat=-10.0, dim=3, bic=30.0, converged=True,
                       degenerate=False, fit=object()),
                  GFit(g=2, q_hat=500.0, dim=7, bic=-900.0, converged=True,
                       degenerate=True, fit=object())],
            g_hat=1)
        # the degenerate row has (meaninglessly) better BIC yet is ineligible
        assert not report.rows[1].eligible
        assert report.best().g == 1
