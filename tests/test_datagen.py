"""Generator tests: three-class regions, mixture sampling, switching signal."""

import numpy as np
import pytest
from scipy.stats import kstest

from moefit.datagen import (
    SignalSpec,
    gen_moe_sample,
    gen_switch_signal,
    gen_three_class,
    signal_regime_of,
    three_class_labels,
    uniform_box_sampler,
)
from moefit.model import MoeParams, gate_log_probs


class TestThreeClass:
    def test_region_pointwise_values(self):
        pts = np.array([
            [0.0, 0.0],    # ball center
            [3.0, 3.0],    # right square
            [-3.0, 3.0],   # left square
            [4.9, -4.9],   # background corner
            [2.0, 0.0],    # on the ball boundary (included)
            [2.0, 2.0],    # on the square boundary (included, outside ball)
        ])
        assert three_class_labels(pts).tolist() == [2, 3, 3, 1, 2, 3]

    def test_class_proportions_match_areas(self):
        data = gen_three_class(100_000, seed=0)
        props = np.bincount(data.y, minlength=4)[1:] / data.y.size
        want = np.array([1 - 4 * np.pi / 100 - 8 / 100, 4 * np.pi / 100, 0.08])
        assert np.all(np.abs(props - want) < 0.01)

    def test_coordinates_uniform_ks(self):
        data = gen_three_class(100_000, seed=1)
        for j in range(2):
            stat = kstest(data.X[:, j], "uniform", args=(-5.0, 10.0)).statistic
            assert stat < 1.63 / np.sqrt(data.X.shape[0])

    def test_same_seed_identical(self):
        a = gen_three_class(500, seed=7)
        b = gen_three_class(500, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gen_three_class(0, seed=0)


class TestGenMoeSample:
    def test_floor_variance_reproduces_component_mean(self):
        theta = MoeParams(family="gaussian",
                          gating=np.array([[2.0, 0.0], [0.0, 0.0]]),
                          beta=np.array([[1.0, 2.0], [-1.0, 0.5]]),
                          sigma2=np.array([1e-12, 1e-12]))
        data = gen_moe_sample(theta, uniform_box_sampler([-1.0], [1.0]), 200, seed=0)
        Dt = np.column_stack([np.ones(200), data.X])
        mu = np.einsum("nd,nd->n", Dt, theta.beta[data.z_true - 1])
        assert np.max(np.abs(data.y - mu)) < 1e-4

    def test_g1_standard_normal_moments(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 0.0]]), sigma2=np.array([1.0]))
        data = gen_moe_sample(theta, uniform_box_sampler([-1.0], [1.0]),
                              100_000, seed=1)
        assert abs(data.y.mean()) < 0.02
        assert abs(data.y.var(ddof=1) - 1.0) < 0.03

    def test_latent_frequency_matches_gates(self):
        # resample y at a fixed x and compare Z frequencies to the gate vector
        theta = MoeParams(family="gaussian",
                          gating=np.array([[0.7, 1.1], [-0.3, 0.4], [0.0, 0.0]]),
                          beta=np.zeros((3, 2)), sigma2=np.ones(3))
        x0 = 0.5
        n = 20_000
        data = gen_moe_sample(theta, uniform_box_sampler([x0], [x0]), n, seed=2)
        gates = np.exp(gate_log_probs(np.array([[x0]]), theta.gating))[0]
        freq = np.bincount(data.z_true, minlength=4)[1:] / n
        se = np.sqrt(gates * (1 - gates) / n)
        assert np.all(np.abs(freq - gates) <= 3 * se)

    def test_hard_assignment_ols_recovers_coefficients(self):
        theta = MoeParams(family="gaussian",
                          gating=np.array([[0.3, 0.8], [0.0, 0.0]]),
                          beta=np.array([[1.0, 2.0], [-3.0, -1.5]]),
                          sigma2=np.array([0.5, 0.5]))
        data = gen_moe_sample(theta, uniform_box_sampler([-2.0], [2.0]),
                              10_000, seed=3)
        for z in (1, 2):
            mask = data.z_true == z
            Xt = np.column_stack([np.ones(mask.sum()), data.X[mask]])
            coef, *_ = np.linalg.lstsq(Xt, data.y[mask], rcond=None)
            resid = data.y[mask] - Xt @ coef
            s2 = resid @ resid / (mask.sum() - 2)
            cov = s2 * np.linalg.inv(Xt.T @ Xt)
            se = np.sqrt(np.diag(cov))
            assert np.all(np.abs(coef - theta.beta[z - 1]) <= 3 * se)

    def test_same_seed_identical(self):
        theta = MoeParams(family="poisson", gating=np.zeros((1, 2)),
                          beta=np.array([[0.5, 0.3]]))
        a = gen_moe_sample(theta, uniform_box_sampler([-1.0], [1.0]), 300, seed=4)
        b = gen_moe_sample(theta, uniform_box_sampler([-1.0], [1.0]), 300, seed=4)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z_true, b.z_true)

    # draws recorded before the samplers moved into the family table; the
    # random stream of every GLM family must stay exactly as it was
    PINNED_Z = [2, 1, 1, 2, 2, 1, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1, 1, 1, 1, 1]
    PINNED = {
        "logistic": [1, 1, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1],
        "poisson": [6, 0, 3, 6, 4, 5, 4, 10, 3, 5, 6, 2, 3, 5, 4, 4, 2, 2, 5, 2],
        "multinomial": [1, 1, 1, 1, 3, 1, 1, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 1, 1, 1],
    }

    @pytest.mark.parametrize("family", sorted(PINNED))
    def test_seeded_draw_pinned(self, family):
        gating = np.array([[0.5, 1.5], [0.0, 0.0]])
        beta = {
            "logistic": np.array([[0.3, 2.0], [-0.5, -1.5]]),
            "poisson": np.array([[0.8, 0.6], [1.5, -0.4]]),
            "multinomial": np.array([[[1.0, 2.0], [-0.5, 0.5], [0.0, 0.0]],
                                     [[0.2, -1.0], [0.7, 1.2], [0.0, 0.0]]]),
        }[family]
        theta = MoeParams(family=family, gating=gating, beta=beta,
                          K=3 if family == "multinomial" else None)
        data = gen_moe_sample(theta, uniform_box_sampler([-2.0], [2.0]), 20, seed=11)
        assert data.y.tolist() == self.PINNED[family]
        assert data.z_true.tolist() == self.PINNED_Z

    def test_bad_sampler_shape_rejected(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.0, 1.0]]), sigma2=np.array([1.0]))
        with pytest.raises(ValueError):
            gen_moe_sample(theta, lambda rng, n: rng.normal(size=(n, 3)), 10, seed=0)


class TestSwitchSignal:
    def test_zero_noise_lies_on_quadratics(self):
        spec = SignalSpec(noise_sd=(0.0,) * 8)
        data = gen_switch_signal(spec)
        t = data.X[:, 0]
        regime = signal_regime_of(t, spec) - 1
        coefs = np.asarray(spec.coefs)
        mean = coefs[regime, 0] + coefs[regime, 1] * t + coefs[regime, 2] * t ** 2
        assert np.array_equal(data.y, mean)

    def test_time_grid_and_regime_labels(self):
        spec = SignalSpec(n=100, breakpoints=(0.5,), coefs=((0, 0, 0), (1, 0, 0)),
                          noise_sd=(0.0, 0.0))
        data = gen_switch_signal(spec)
        assert data.X[0, 0] == 0.0 and data.X[-1, 0] == 1.0
        assert np.allclose(np.diff(data.X[:, 0]), 1 / 99)
        assert np.array_equal(data.z_true, np.where(data.X[:, 0] < 0.5, 1, 2))

    def test_same_seed_identical(self):
        a = gen_switch_signal(SignalSpec(seed=9))
        b = gen_switch_signal(SignalSpec(seed=9))
        assert np.array_equal(a.y, b.y)

    def test_per_regime_residual_sd_near_configured(self):
        spec = SignalSpec(n=4000, breakpoints=(0.25, 0.5, 0.75),
                          coefs=((1.0, 2.0, 0.0), (5.0, -1.0, 3.0),
                                 (2.0, 0.0, -2.0), (0.0, 4.0, 1.0)),
                          noise_sd=(1.0, 2.0, 0.5, 3.0), seed=10)
        data = gen_switch_signal(spec)
        t = data.X[:, 0]
        coefs = np.asarray(spec.coefs)
        for z in range(4):
            mask = data.z_true == z + 1
            assert mask.sum() >= 100
            mean = (coefs[z, 0] + coefs[z, 1] * t[mask]
                    + coefs[z, 2] * t[mask] ** 2)
            sd = np.std(data.y[mask] - mean, ddof=0)
            assert abs(sd - spec.noise_sd[z]) / spec.noise_sd[z] < 0.10

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SignalSpec(breakpoints=(0.5, 0.4))
        with pytest.raises(ValueError):
            SignalSpec(breakpoints=(0.0, 0.5))
        with pytest.raises(ValueError):
            SignalSpec(noise_sd=(-1.0,) + (4.0,) * 7)
        with pytest.raises(ValueError):
            SignalSpec(breakpoints=(0.5,), coefs=((0, 0, 0),), noise_sd=(1.0,))
        with pytest.raises(ValueError):
            SignalSpec(n=1)
