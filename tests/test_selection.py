"""Selection tests: parameter counting, BIC arithmetic, and grid selection."""

import numpy as np
import pytest

from moefit.datagen import gen_moe_sample, uniform_box_sampler
from moefit.estimation import FitConfig
from moefit.model import ExpertDesign, MoeParams
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
        assert report.grid == [1]
        assert len(report.rows) == 1

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

    def test_report_csv_shape(self):
        truth = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 150, seed=3)
        config = FitConfig(n_starts=2, max_cycles=60)
        report = select_g(data, 2, "gaussian", config=config)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "g,logQL,dim,bic,converged,degenerate"
        assert len(lines) == 3

    def test_report_csv_numbers_parse(self):
        truth = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 150, seed=3)
        report = select_g(data, 2, "gaussian", config=FitConfig(n_starts=2, max_cycles=60))
        for line in report.to_csv().strip().splitlines()[1:]:
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

    @pytest.mark.parametrize("n_threads", [0, -3])
    def test_bad_thread_count_rejected(self, n_threads):
        data = gen_moe_sample(
            MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                      beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0])),
            uniform_box_sampler([-2.0], [2.0]), 50, seed=4)
        with pytest.raises(ValueError, match="n_threads"):
            select_g(data, 2, "gaussian", n_threads=n_threads)

    def test_degenerate_fits_not_selectable(self):
        report = SelectionReport(
            rows=[GFit(g=1, q_hat=-10.0, dim=3, bic=30.0, converged=True,
                       degenerate=False, fit=object()),
                  GFit(g=2, q_hat=500.0, dim=7, bic=-900.0, converged=True,
                       degenerate=True, fit=object())],
            g_hat=1, grid=[1, 2])
        # the degenerate row has (meaninglessly) better BIC yet is ineligible
        assert not report.rows[1].eligible
        assert report.best().g == 1
