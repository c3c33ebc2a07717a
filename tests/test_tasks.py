"""Prediction tests: classification, clustering, and regression functionals."""

import numpy as np
import pytest

from moefit.datagen import gen_moe_sample, gen_three_class, uniform_box_sampler
from moefit.estimation import FitConfig, multi_start_fit
from moefit.model import (
    Dataset,
    ExpertDesign,
    ModelError,
    MoeParams,
    gate_log_probs,
    responsibilities,
)
from moefit.tasks import (
    class_posteriors,
    gate_labels,
    predict_mean,
    predict_mean_rows,
    predict_variance_rows,
)


def two_gauss(gate0=0.0, means=(0.0, 2.0), sigma2=(1.0, 1.0)):
    return MoeParams(
        family="gaussian",
        gating=np.array([[gate0, 0.0], [0.0, 0.0]]),
        beta=np.array([[means[0], 0.0], [means[1], 0.0]]),
        sigma2=np.array(sigma2, dtype=float),
    )


class TestClassifyMap:
    def test_uniform_posterior_tie_breaks_to_first_class(self):
        theta = MoeParams(family="multinomial", gating=np.zeros((1, 3)),
                          beta=np.zeros((1, 3, 3)), K=3)
        post = class_posteriors(np.array([[0.3, -0.7]]), theta)[0]
        assert np.argmax(post) + 1 == 1
        assert np.allclose(post, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_two_class_positive_score_picks_class_one(self):
        beta = np.zeros((1, 2, 3))
        beta[0, 0] = [0.5, 1.0, 0.0]  # class-1 score positive at x=(1, 0)
        theta = MoeParams(family="multinomial", gating=np.zeros((1, 3)),
                          beta=beta, K=2)
        post = class_posteriors(np.array([[1.0, 0.0]]), theta)[0]
        assert np.argmax(post) + 1 == 1
        assert post[0] > 0.5

    def test_score_shift_invariance(self):
        rng = np.random.default_rng(11)
        beta = rng.normal(size=(2, 3, 3))
        theta = MoeParams(
            family="multinomial",
            gating=np.vstack([rng.normal(size=(1, 3)), np.zeros(3)]),
            beta=beta, K=3)
        shifted = MoeParams(family="multinomial", gating=theta.gating.copy(),
                            beta=beta + 0.0, K=3)
        shifted.beta[:, :, 0] += 5.0  # add the same constant to every class score
        X = rng.normal(size=(20, 2))
        a = class_posteriors(X, theta)
        b = class_posteriors(X, shifted)
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))
        assert np.allclose(a, b, atol=1e-10)

    def test_posterior_is_simplex_point(self):
        rng = np.random.default_rng(12)
        theta = MoeParams(
            family="multinomial",
            gating=np.vstack([rng.normal(size=(2, 3)), np.zeros(3)]),
            beta=rng.normal(size=(3, 4, 3)), K=4)
        post = class_posteriors(rng.normal(size=(50, 2)), theta)
        assert np.all(post >= 0)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_non_multinomial_rejected(self):
        theta = two_gauss()
        with pytest.raises(ModelError):
            class_posteriors(np.array([[0.0]]), theta)

    def test_ball_center_classified_as_inner_class(self):
        # end-to-end: fit the three-class model and classify the disk center
        data = gen_three_class(1500, seed=0)
        config = FitConfig(n_starts=3, seed=0, rel_tol=1e-4, max_cycles=60,
                           irls_max_inner=1)
        result = multi_start_fit(data, 4, "multinomial", ExpertDesign(), config)
        post = class_posteriors(np.array([[0.0, 0.0]]), result.theta)[0]
        assert np.argmax(post) + 1 == 2


class TestClusterPosterior:
    def test_g1_trivial(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.0, 2.0]]), sigma2=np.array([1.0]))
        tau = responsibilities(Dataset([[0.5]], [3.0], "real"), theta)[0]
        assert np.argmax(tau) + 1 == 1
        assert np.allclose(tau, [1.0])

    def test_hand_density_ratio(self):
        # equal gates, unit-variance experts with means 0 and 2, y = 0
        theta = two_gauss()
        tau = responsibilities(Dataset([[0.0]], [0.0], "real"), theta)[0]
        assert np.argmax(tau) + 1 == 1
        assert tau == pytest.approx([0.8807971, 0.1192029], abs=1e-6)

    def test_identical_experts_reduce_to_gate_rule(self):
        theta = MoeParams(
            family="gaussian",
            gating=np.array([[0.4, -1.2], [0.0, 0.0]]),
            beta=np.array([[1.0, 0.5], [1.0, 0.5]]),
            sigma2=np.array([1.3, 1.3]),
        )
        X = np.array([[-2.0], [0.0], [3.0]])
        tau = responsibilities(Dataset(X, np.full(3, 0.7), "real"), theta)
        gates = np.exp(gate_log_probs(X, theta.gating))
        assert np.array_equal(np.argmax(tau, axis=1) + 1, gate_labels(X, theta))
        assert np.allclose(tau, gates, atol=1e-12)


class TestClusterGate:
    def test_zero_gating_tie_breaks_to_first(self):
        theta = two_gauss()
        X = np.array([[7.0]])
        assert gate_labels(X, theta).tolist() == [1]
        assert np.allclose(np.exp(gate_log_probs(X, theta.gating))[0], [0.5, 0.5])

    def test_log3_intercept_always_component_one(self):
        theta = two_gauss(gate0=np.log(3.0))
        X = np.linspace(-5, 5, 11)[:, None]
        assert np.all(gate_labels(X, theta) == 1)
        assert np.allclose(np.exp(gate_log_probs(X, theta.gating))[:, 0], 0.75,
                           rtol=0, atol=1e-12)

    def test_gate_labels_matches_pointwise(self):
        rng = np.random.default_rng(13)
        theta = MoeParams(
            family="gaussian",
            gating=np.vstack([rng.normal(size=(2, 2)), np.zeros(2)]),
            beta=rng.normal(size=(3, 2)),
            sigma2=np.ones(3),
        )
        X = rng.normal(size=(40, 1))
        batch = gate_labels(X, theta)
        single = [int(np.argmax(gate_log_probs(x[None], theta.gating))) + 1 for x in X]
        assert np.array_equal(batch, single)


class TestPredictMean:
    def test_g1_is_linear_predictor(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.0, 2.0]]), sigma2=np.array([1.0]))
        assert predict_mean(np.array([0.7]), theta) == pytest.approx(2.4, abs=1e-12)

    def test_symmetric_means_cancel(self):
        theta = two_gauss(means=(3.0, -3.0))
        assert predict_mean(np.array([0.0]), theta) == pytest.approx(0.0, abs=1e-12)

    def test_weighted_mean_hand_value(self):
        theta = two_gauss(gate0=np.log(3.0), means=(0.0, 4.0))
        assert predict_mean(np.array([0.0]), theta) == pytest.approx(1.0, abs=1e-10)

    def test_non_gaussian_rejected(self):
        theta = MoeParams(family="poisson", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]))
        with pytest.raises(ModelError):
            predict_mean(np.array([0.0]), theta)

    def test_law_of_total_expectation(self):
        theta = MoeParams(
            family="gaussian",
            gating=np.array([[0.5, 1.0], [0.0, 0.0]]),
            beta=np.array([[1.0, 2.0], [-2.0, -1.0]]),
            sigma2=np.array([0.5, 1.5]),
        )
        data = gen_moe_sample(theta, uniform_box_sampler([-2.0], [2.0]),
                              20000, seed=5)
        model_mean = predict_mean_rows(data.X, theta).mean()
        mc_se = data.y.std(ddof=1) / np.sqrt(data.y.size)
        assert abs(model_mean - data.y.mean()) <= 3 * mc_se


class TestPredictVariance:
    def test_g1_is_sigma2(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.0, 2.0]]), sigma2=np.array([1.7]))
        assert predict_variance_rows(np.array([[0.3]]), theta)[0] == pytest.approx(
            1.7, abs=1e-12)

    def test_equal_gates_symmetric_means(self):
        # means ±a with common variance s gives a² + s
        theta = two_gauss(means=(2.5, -2.5), sigma2=(0.8, 0.8))
        assert predict_variance_rows(np.array([[0.0]]), theta)[0] == pytest.approx(
            2.5 ** 2 + 0.8, abs=1e-10)

    def test_nonnegative_on_grid(self):
        rng = np.random.default_rng(14)
        theta = MoeParams(
            family="gaussian",
            gating=np.vstack([rng.normal(size=(2, 2)) * 2, np.zeros(2)]),
            beta=rng.normal(size=(3, 2)) * 3,
            sigma2=rng.uniform(0.01, 2.0, size=3),
        )
        X = np.linspace(-10, 10, 10_000)[:, None]
        assert np.all(predict_variance_rows(X, theta) >= 0)

    def test_small_variance_under_large_means(self):
        # means 1e5 and 1e5 + 1e-3 with variance 1e-9: E[y^2] - m^2 loses
        # every digit of the answer to cancellation
        theta = MoeParams(family="gaussian", gating=np.array([[0.0, 1.0], [0.0, 0.0]]),
                          beta=np.array([[1e5, 0.0], [1e5 + 1e-3, 0.0]]),
                          sigma2=np.array([1e-9, 1e-9]))
        X = np.array([[-20.0], [-6.0], [-3.0], [-1.0], [0.0]])
        pi = 1.0 / (1.0 + np.exp(-X[:, 0]))
        gap = theta.beta[1, 0] - theta.beta[0, 0]
        exact = 1e-9 + pi * (1.0 - pi) * gap ** 2
        assert np.allclose(predict_variance_rows(X, theta), exact, rtol=1e-9, atol=0.0)

    def test_matches_monte_carlo_at_fixed_x(self):
        theta = MoeParams(
            family="gaussian",
            gating=np.array([[0.8, 0.5], [0.0, 0.0]]),
            beta=np.array([[1.0, 2.0], [-3.0, -1.0]]),
            sigma2=np.array([0.5, 2.0]),
        )
        x0 = 0.6
        data = gen_moe_sample(theta, uniform_box_sampler([x0], [x0]),
                              1_000_000, seed=6)
        mc_var = data.y.var(ddof=1)
        # MC standard error of the sample variance via the fourth moment
        dev = data.y - data.y.mean()
        se = np.sqrt((np.mean(dev ** 4) - mc_var ** 2) / data.y.size)
        assert abs(predict_variance_rows(np.array([[x0]]), theta)[0] - mc_var) <= 3 * se
