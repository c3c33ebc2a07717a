"""Inference tests: analytic scores, sandwich covariance, mean intervals."""

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.stats import norm

from moefit.datagen import gen_moe_sample, gen_three_class, uniform_box_sampler
from moefit.estimation import FitConfig, fit, initialize, multi_start_fit
from moefit.inference import (
    InferenceError,
    _scores,
    flatten_params,
    mean_ci,
    mean_ci_rows,
    param_labels,
    sandwich_covariance,
    score_matrix,
    score_vector,
    standard_errors,
    unflatten_params,
)
from moefit.model import (
    Dataset,
    ExpertDesign,
    MoeParams,
    free_class_cov,
    gate_log_probs,
    kron_gram,
    moe_log_density,
    responsibilities,
)
from moefit.tasks import predict_mean, predict_mean_rows


def random_theta(family, rng, g=2, p=1, K=3):
    gating = np.vstack([rng.normal(size=(g - 1, p + 1)), np.zeros(p + 1)])
    if family == "multinomial":
        beta = rng.normal(size=(g, K, p + 1)) * 0.7
        beta[:, K - 1] = 0.0
        return MoeParams(family=family, gating=gating, beta=beta, K=K)
    beta = rng.normal(size=(g, p + 1)) * 0.7
    sigma2 = rng.uniform(0.5, 2.0, size=g) if family == "gaussian" else None
    return MoeParams(family=family, gating=gating, beta=beta, sigma2=sigma2)


def random_obs(family, rng, p=1, K=3):
    x = rng.normal(size=p)
    if family == "gaussian":
        return rng.normal(), x
    if family == "logistic":
        return int(rng.integers(0, 2)), x
    if family == "poisson":
        return int(rng.poisson(2.0)), x
    return int(rng.integers(1, K + 1)), x


def central_diff(f, theta, h=1e-6):
    """Central differences of f over the free parameters of ``theta``, one
    per trailing column, each with a step of h (1 + |parameter|)."""
    vec = flatten_params(theta)
    cols = []
    for j in range(vec.size):
        step = h * (1.0 + abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += step
        dn[j] -= step
        cols.append((f(unflatten_params(theta, up))
                     - f(unflatten_params(theta, dn))) / (2.0 * step))
    return np.stack(cols, axis=-1)


def fd_score(y, x, theta):
    return central_diff(lambda t: moe_log_density(y, x, t), theta)


def fd_bread(data, theta):
    """Central differences of the analytic total score, symmetrized and
    averaged over rows: the reference for the analytic bread."""
    bread = central_diff(lambda t: score_matrix(data, t).sum(axis=0), theta)
    return 0.5 * (bread + bread.T) / data.n


def fd_mean_ci(x, theta, cov, level=0.95):
    """Delta-method interval from a central-difference gradient of
    predict_mean: the reference for the analytic mean_ci gradient."""
    grad = central_diff(lambda t: predict_mean(x, t), theta)
    m = predict_mean(x, theta)
    half = norm.ppf(0.5 * (1.0 + level)) * np.sqrt(max(grad @ cov @ grad, 0.0))
    return m - half, m + half


FAMILIES = ["gaussian", "logistic", "poisson", "multinomial"]


def loop_score_matrix(data, theta):
    """Per-row scores computed one component at a time, written out per
    family; the reference for the component-batched ``score_matrix``."""
    n, y = data.n, data.y
    tau = responsibilities(data, theta)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    Xt = np.column_stack([np.ones(n), data.X])
    Dt = np.column_stack([np.ones(n), theta.design.matrix(data.X)])
    cols = [(tau[:, z] - gates[:, z])[:, None] * Xt for z in range(theta.g - 1)]
    for z in range(theta.g):
        t = tau[:, z]
        if theta.family == "gaussian":
            s2 = theta.sigma2[z]
            resid = y - Dt @ theta.beta[z]
            cols.append((t * resid / s2)[:, None] * Dt)
            cols.append((t * (resid ** 2 / (2.0 * s2 ** 2) - 0.5 / s2))[:, None])
        elif theta.family == "logistic":
            pi = 1.0 / (1.0 + np.exp(-(Dt @ theta.beta[z])))
            cols.append((t * (y - pi))[:, None] * Dt)
        elif theta.family == "poisson":
            cols.append((t * (y - np.exp(Dt @ theta.beta[z])))[:, None] * Dt)
        else:
            scores = Dt @ theta.beta[z].T
            pi = np.exp(scores - scores.max(axis=1, keepdims=True))
            pi /= pi.sum(axis=1, keepdims=True)
            E = ((np.arange(1, theta.K + 1) == y[:, None]) - pi)[:, : theta.K - 1]
            cols.append((t[:, None, None] * E[:, :, None] * Dt[:, None, :]).reshape(n, -1))
    return np.concatenate(cols, axis=1)


class TestScoreVector:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(FAMILIES.index(family))
        for _ in range(50):
            theta = random_theta(family, rng)
            y, x = random_obs(family, rng)
            analytic = score_vector(y, x, theta)
            numeric = fd_score(y, x, theta)
            scale = np.maximum(np.abs(numeric), 1.0)
            assert np.max(np.abs(analytic - numeric) / scale) < 1e-5

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matrix_matches_component_loop(self, family):
        rng = np.random.default_rng(10 + FAMILIES.index(family))
        for g in (1, 3):
            theta = random_theta(family, rng, g=g, p=2)
            obs = [random_obs(family, rng, p=2) for _ in range(30)]
            data = Dataset(np.array([x for _, x in obs]), np.array([y for y, _ in obs]),
                           theta.response_kind(), K=theta.K)
            got, want = score_matrix(data, theta), loop_score_matrix(data, theta)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_g1_gaussian_classical_form(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.5, 1.5]]), sigma2=np.array([2.0]))
        x = np.array([0.8])
        y = 2.3
        resid = y - (0.5 + 1.5 * 0.8)
        got = score_vector(y, x, theta)
        want = np.array([resid / 2.0, resid * 0.8 / 2.0,
                         resid ** 2 / (2 * 4.0) - 0.5 / 2.0])
        assert np.allclose(got, want, atol=1e-12)

    def test_zero_total_score_at_maximizer(self):
        rng = np.random.default_rng(77)
        truth = MoeParams(family="gaussian",
                          gating=np.array([[1.5, 1.0], [0.0, 0.0]]),
                          beta=np.array([[1.0, 2.0], [-2.0, -1.0]]),
                          sigma2=np.array([0.3, 0.3]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 500, seed=1)
        config = FitConfig(n_starts=4, rel_tol=1e-10, max_cycles=500)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(), config)
        assert result.converged
        total = score_matrix(data, result.theta).sum(axis=0)
        assert np.max(np.abs(total)) <= 1e-4 * (1.0 + abs(result.q_hat))


class TestFlattenRoundTrip:
    @pytest.mark.parametrize("family",
                             ["gaussian", "logistic", "poisson", "multinomial"])
    def test_round_trip(self, family):
        rng = np.random.default_rng(5)
        theta = random_theta(family, rng, g=3, p=2)
        vec = flatten_params(theta)
        back = unflatten_params(theta, vec)
        assert np.array_equal(back.gating, theta.gating)
        assert np.array_equal(back.beta, theta.beta)
        assert len(param_labels(theta)) == vec.size


def block_diag_bread(data, theta):
    """sandwich_covariance's bread with its expert blocks laid out by
    scipy.linalg.block_diag, the reference for the package's numpy layout."""
    tau, gates, Xt, s, hess, S = _scores(data, theta)
    n, g = tau.shape
    q = (g - 1) * Xt.shape[1]
    gate = kron_gram(np.ones((1, n)), free_class_cov(tau.T[None])
                     - free_class_cov(gates.T[None]), Xt)[0]
    cross = np.hstack([
        ((np.eye(g)[z, :-1] - tau[:, :-1])[:, :, None] * Xt[:, None, :]).reshape(n, q).T
        @ (tau[:, z, None] * s[z]) for z in range(g)])
    experts = (block_diag(*(hess + np.einsum("zn,znm,znl->zml", tau.T, s, s)))
               - S[:, q:].T @ S[:, q:])
    bread = np.block([[gate, cross], [cross.T, experts]]) / n
    return 0.5 * (bread + bread.T)


class TestSandwichCovariance:
    @pytest.mark.parametrize("family,g", [("gaussian", 1), ("gaussian", 2),
                                          ("gaussian", 3), ("multinomial", 2)])
    def test_bread_equals_block_diag_oracle(self, family, g):
        rng = np.random.default_rng(40 + g)
        truth = random_theta(family, rng, g=g, p=2)
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0] * 2, [2.0] * 2), 200,
                              seed=g)
        assert np.array_equal(sandwich_covariance(data, truth).bread,
                              block_diag_bread(data, truth))

    def test_symmetry_and_nonnegative_diagonal(self):
        rng = np.random.default_rng(6)
        truth = random_theta("gaussian", rng)
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 300, seed=2)
        config = FitConfig(n_starts=3, max_cycles=200)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(), config)
        sw = sandwich_covariance(data, result.theta)
        assert np.allclose(sw.cov, sw.cov.T, atol=1e-10)
        assert np.all(np.diag(sw.cov) >= 0)
        assert np.allclose(sw.meat, sw.meat.T, atol=1e-8)
        assert np.linalg.eigvalsh(sw.meat).min() >= -1e-8

    def test_g1_matches_hc0_oracle(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 1))
        y = 1.0 + 2.0 * X[:, 0] + rng.normal(size=400) * (1 + 0.5 * np.abs(X[:, 0]))
        data = Dataset(X, y, "real")
        config = FitConfig()
        result = fit(data, initialize(data, 1, "gaussian", ExpertDesign(), 0, config),
                     config)
        sw = sandwich_covariance(data, result.theta)
        # classical HC0: (X'X)^-1 X' diag(e^2) X (X'X)^-1 for the coefficients
        Xt = np.column_stack([np.ones(400), X])
        e = y - Xt @ result.theta.beta[0]
        XtX_inv = np.linalg.inv(Xt.T @ Xt)
        hc0 = XtX_inv @ (Xt * (e ** 2)[:, None]).T @ Xt @ XtX_inv
        got = sw.cov[:2, :2]
        assert np.max(np.abs(got - hc0)) / np.max(np.abs(hc0)) < 1e-4

    def test_information_equality_when_well_specified(self):
        truth = MoeParams(family="gaussian",
                          gating=np.array([[1.0, 1.5], [0.0, 0.0]]),
                          beta=np.array([[2.0, 2.0], [-2.0, -1.0]]),
                          sigma2=np.array([0.4, 0.4]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 5000, seed=3)
        config = FitConfig(n_starts=4, rel_tol=1e-9, max_cycles=400)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(), config)
        sw = sandwich_covariance(data, result.theta)
        binv = np.linalg.inv(sw.bread)
        sandwich = binv @ sw.meat @ binv
        rel = np.linalg.norm(sandwich - (-binv)) / np.linalg.norm(binv)
        assert rel < 0.15

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", [1, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bread_matches_finite_differences(self, family, g):
        rng = np.random.default_rng(20 + FAMILIES.index(family))
        truth = random_theta(family, rng, g=g)
        if family == "gaussian":
            # low noise: a finite-difference bread's truncation error grows
            # as (h / sigma2)^2, so a step of 1e-5 would miss here
            truth.sigma2 = truth.sigma2 * 0.005
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 300, seed=1)
        result = multi_start_fit(data, g, family, ExpertDesign(),
                                 FitConfig(n_starts=1, max_cycles=200))
        bread = sandwich_covariance(data, result.theta).bread
        ref = fd_bread(data, result.theta)
        assert np.linalg.norm(bread - ref) <= 1e-5 * np.linalg.norm(ref)

    def test_condition_flags_near_singular_bread(self):
        # criterion 1's fit settings leave this g = 4 bread numerically
        # singular: its covariance entries move with the last bits of the fit
        data = gen_three_class(1000, seed=0)
        result = multi_start_fit(data, 4, "multinomial", ExpertDesign(), FitConfig(
            n_starts=1, rel_tol=2e-4, max_cycles=100, irls_max_inner=1))
        sw = sandwich_covariance(data, result.theta)
        assert sw.condition == np.linalg.cond(sw.bread) > 1e12

    def test_condition_of_well_posed_bread(self):
        truth = MoeParams(family="gaussian",
                          gating=np.array([[1.0, 1.5], [0.0, 0.0]]),
                          beta=np.array([[2.0, 2.0], [-2.0, -1.0]]),
                          sigma2=np.array([0.4, 0.4]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 300, seed=0)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(),
                                 FitConfig(n_starts=2, max_cycles=200))
        assert 1.0 <= sandwich_covariance(data, result.theta).condition < 1e4

    def test_labels_align_with_cov(self):
        rng = np.random.default_rng(8)
        truth = random_theta("gaussian", rng)
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 200, seed=4)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(),
                                 FitConfig(n_starts=2, max_cycles=100))
        sw = sandwich_covariance(data, result.theta)
        assert len(sw.labels) == sw.cov.shape[0] == sw.cov.shape[1]
        assert standard_errors(sw.cov).shape == (sw.cov.shape[0],)


class TestMeanCi:
    def fitted_g1(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(300, 1))
        y = 1.0 + 2.0 * X[:, 0] + rng.normal(size=300)
        data = Dataset(X, y, "real")
        config = FitConfig()
        result = fit(data, initialize(data, 1, "gaussian", ExpertDesign(), 0, config),
                     config)
        return data, result.theta

    def test_zero_covariance_degenerate_interval(self):
        _, theta = self.fitted_g1()
        dim = flatten_params(theta).size
        x = np.array([0.5])
        lo, hi = mean_ci(x, theta, np.zeros((dim, dim)))
        m = predict_mean(x, theta)
        assert lo == pytest.approx(m)
        assert hi == pytest.approx(m)

    def test_matches_ols_robust_ci(self):
        data, theta = self.fitted_g1()
        sw = sandwich_covariance(data, theta)
        x = np.array([0.7])
        lo, hi = mean_ci(x, theta, sw.cov, level=0.95)
        # delta-method oracle on the linear mean with the HC0 block
        from scipy.stats import norm
        xv = np.array([1.0, 0.7])
        se = np.sqrt(xv @ sw.cov[:2, :2] @ xv)
        m = predict_mean(x, theta)
        assert lo == pytest.approx(m - norm.ppf(0.975) * se, rel=1e-3)
        assert hi == pytest.approx(m + norm.ppf(0.975) * se, rel=1e-3)

    def test_quantile_matches_scipy(self):
        # zero mean and unit variance at x = 0, so the bounds are -/+ the quantile
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)), sigma2=np.ones(1))
        cov = np.diag([1.0, 0.0, 0.0])
        levels = np.random.default_rng(11).uniform(size=10_000)
        got = np.array([mean_ci_rows(np.zeros((1, 1)), theta, cov, level)[2][0]
                        for level in levels])
        want = norm.ppf(0.5 * (1.0 + levels))
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_wider_level_contains_narrower(self):
        data, theta = self.fitted_g1()
        sw = sandwich_covariance(data, theta)
        x = np.array([-0.4])
        lo95, hi95 = mean_ci(x, theta, sw.cov, level=0.95)
        lo99, hi99 = mean_ci(x, theta, sw.cov, level=0.99)
        assert lo99 < lo95 < hi95 < hi99

    def fitted_g3(self):
        truth = MoeParams(family="gaussian",
                          gating=np.array([[2.0, 3.0], [1.0, -2.0], [0.0, 0.0]]),
                          beta=np.array([[1.0, 2.0], [-2.0, -1.0], [0.5, 0.0]]),
                          sigma2=np.array([0.3, 0.2, 0.4]))
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 600, seed=5)
        result = multi_start_fit(data, 3, "gaussian", ExpertDesign(),
                                 FitConfig(n_starts=2, max_cycles=300))
        return result.theta, sandwich_covariance(data, result.theta).cov

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_match_finite_differences(self):
        theta, cov = self.fitted_g3()
        X = np.linspace(-2.0, 2.0, 17)[:, None]
        m, lo, hi = mean_ci_rows(X, theta, cov, level=0.9)
        assert np.array_equal(m, predict_mean_rows(X, theta))
        for i, x in enumerate(X):
            ref_lo, ref_hi = fd_mean_ci(x, theta, cov, level=0.9)
            half = 0.5 * (ref_hi - ref_lo)
            assert abs(lo[i] - ref_lo) <= 1e-6 * half
            assert abs(hi[i] - ref_hi) <= 1e-6 * half

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_one_row_view(self):
        theta, cov = self.fitted_g3()
        X = np.linspace(-2.0, 2.0, 9)[:, None]
        _, lo, hi = mean_ci_rows(X, theta, cov)
        for i, x in enumerate(X):
            # to rounding: BLAS may sum one row and a batch in other orders
            assert mean_ci(x, theta, cov) == pytest.approx((lo[i], hi[i]),
                                                           rel=1e-14, abs=1e-14)

    def test_non_gaussian_rejected(self):
        theta = MoeParams(family="logistic", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)))
        with pytest.raises(InferenceError):
            mean_ci(np.array([0.0]), theta, np.zeros((2, 2)))

    def test_bad_level_rejected(self):
        _, theta = self.fitted_g1()
        dim = flatten_params(theta).size
        with pytest.raises(ValueError):
            mean_ci(np.array([0.0]), theta, np.zeros((dim, dim)), level=1.5)
