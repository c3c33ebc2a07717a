"""Acceptance suite: ten end-to-end criteria, one printed pass/fail line each.

Each test computes its verdict, prints a single summary line directly to the
terminal (bypassing pytest capture), and then asserts.  Heavy experiments run
once in session-scoped fixtures and are shared across criteria.
"""

import itertools
import sys
import time

import numpy as np
import pytest
from scipy.stats import norm

from moefit.datagen import (
    SignalSpec,
    gen_moe_sample,
    gen_switch_signal,
    gen_three_class,
    uniform_box_sampler,
)
from moefit.estimation import (
    FitConfig,
    fit,
    gating_curvature_hessian,
    gating_gram,
    gating_surrogate_value,
    initialize,
    multi_start_fit,
)
from moefit.inference import (
    flatten_params,
    param_labels,
    sandwich_covariance,
    score_matrix,
    score_vector,
    unflatten_params,
)
from moefit.model import (
    Dataset,
    ExpertDesign,
    MoeParams,
    gate_log_probs,
    log_quasi_likelihood,
    moe_log_density,
    permute_components,
    responsibilities,
)
from moefit.selection import param_count, select_g
from moefit.tasks import class_posteriors, gate_labels

# every fixture appends the Q_n traces of the fits it runs (criterion 2)
ALL_TRACES: list[np.ndarray] = []

_CAPMAN = None


@pytest.fixture(scope="session", autouse=True)
def _capture_manager(pytestconfig):
    global _CAPMAN
    _CAPMAN = pytestconfig.pluginmanager.getplugin("capturemanager")
    yield
    _CAPMAN = None


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{name}]: {verdict}"
    if detail:
        line += f"  ({detail})"
    if _CAPMAN is not None:
        # write through pytest's fd-level capture to the real terminal
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def trace_is_monotone(tr: np.ndarray) -> bool:
    tr = np.asarray(tr, dtype=float)
    if tr.size < 2:
        return True
    return bool(np.all(np.diff(tr) >= -1e-8 * (1.0 + np.abs(tr[:-1]))))


TWO_COMPONENT_TRUTH = MoeParams(
    family="gaussian",
    gating=np.array([[1.0, 1.5], [0.0, 0.0]]),
    beta=np.array([[1.0, 2.0], [-2.0, -1.0]]),
    sigma2=np.array([0.3, 0.3]),
)


@pytest.fixture(scope="session")
def three_class_runs():
    """Five seeded select-and-classify runs of the three-class experiment."""
    config = FitConfig(n_starts=10, seed=0, rel_tol=2e-4, max_cycles=100,
                       irls_max_inner=1)
    runs = []
    t0 = time.perf_counter()
    for seed in range(5):
        train = gen_three_class(1000, seed=seed)
        test = gen_three_class(2500, seed=10_000 + seed)
        rep = select_g(train, 9, "multinomial", config=config)
        for row in rep.rows:
            if row.fit is not None:
                ALL_TRACES.append(row.fit.q_trace)
        theta = rep.best().fit.theta
        acc = {}
        for split, data in (("train", train), ("test", test)):
            pred = np.argmax(class_posteriors(data.X, theta), axis=1) + 1
            acc[split] = float(np.mean(pred == data.y))
        runs.append({"g_hat": rep.g_hat, "train": acc["train"],
                     "test": acc["test"]})
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="session")
def bic_consistency_runs():
    config = FitConfig(n_starts=3, rel_tol=1e-5, max_cycles=150)
    g_hats = []
    t0 = time.perf_counter()
    for seed in range(10):
        data = gen_moe_sample(TWO_COMPONENT_TRUTH,
                              uniform_box_sampler([-2.0], [2.0]), 2000,
                              seed=300 + seed)
        rep = select_g(data, 4, "gaussian", config=config)
        for row in rep.rows:
            if row.fit is not None:
                ALL_TRACES.append(row.fit.q_trace)
        g_hats.append(rep.g_hat)
    return g_hats, time.perf_counter() - t0


@pytest.fixture(scope="session")
def coverage_runs():
    """200 replicates of CI coverage for the component-1 slope."""
    truth = TWO_COMPONENT_TRUTH
    true_slope = truth.beta[0, 1]
    hits = 0
    total = 0
    t0 = time.perf_counter()
    for rep in range(200):
        data = gen_moe_sample(truth, uniform_box_sampler([-2.0], [2.0]), 2000,
                              seed=5000 + rep)
        config = FitConfig(n_starts=4, seed=rep, rel_tol=1e-6, max_cycles=400)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(), config)
        ALL_TRACES.append(result.q_trace)
        if not result.converged or result.degenerate:
            continue
        # permutation alignment: order components to match the truth's betas
        best = min(itertools.permutations(range(2)),
                   key=lambda p: np.sum((result.theta.beta[list(p)]
                                         - truth.beta) ** 2))
        theta = permute_components(result.theta, list(best))
        sw = sandwich_covariance(data, theta)
        idx = sw.labels.index("expert[1].b1")
        est = flatten_params(theta)[idx]
        se = np.sqrt(sw.cov[idx, idx])
        z = norm.ppf(0.975)
        hits += est - z * se <= true_slope <= est + z * se
        total += 1
    return hits, total, time.perf_counter() - t0


@pytest.fixture(scope="session")
def segmentation_runs():
    """Ten seeded 4-regime segmentation experiments."""
    breakpoints = (0.25, 0.5, 0.75)
    base = dict(
        n=550,
        breakpoints=breakpoints,
        coefs=((10.0, 0.0, 0.0), (-20.0, 80.0, -60.0),
               (45.0, -40.0, 10.0), (-45.0, 60.0, 0.0)),
        noise_sd=(1.5, 1.5, 1.5, 1.5),
    )
    config_base = dict(n_starts=4, rel_tol=1e-6, max_cycles=300)
    successes = 0
    t0 = time.perf_counter()
    for seed in range(10):
        data = gen_switch_signal(SignalSpec(seed=seed, **base))
        config = FitConfig(seed=seed, **config_base)
        result = multi_start_fit(data, 4, "gaussian", ExpertDesign("poly", 2),
                                 config)
        ALL_TRACES.append(result.q_trace)
        labels = gate_labels(data.X, result.theta)
        # best permutation matching against the true regime labels
        best_agree, best_perm = -1.0, None
        for perm in itertools.permutations(range(1, 5)):
            mapped = np.asarray(perm)[labels - 1]
            agree = float(np.mean(mapped == data.z_true))
            if agree > best_agree:
                best_agree, best_perm = agree, perm
        mapped = np.asarray(best_perm)[labels - 1]
        t = data.X[:, 0]
        changes = np.flatnonzero(np.diff(mapped) != 0)
        found = 0.5 * (t[changes] + t[changes + 1])
        boundaries_ok = (found.size > 0 and all(
            np.min(np.abs(found - bp)) <= 0.03 for bp in breakpoints))
        successes += (best_agree >= 0.90) and boundaries_ok
    return successes, time.perf_counter() - t0


class TestAcceptance:
    def test_criterion_01_three_class_reproduction(self, three_class_runs):
        runs, elapsed = three_class_runs
        med_train = float(np.median([r["train"] for r in runs]))
        med_test = float(np.median([r["test"] for r in runs]))
        g_ok = all(3 <= r["g_hat"] <= 6 for r in runs)
        ok = med_train >= 0.88 and med_test >= 0.86 and g_ok and elapsed <= 300
        report(1, "three-class reproduction", ok,
               f"median train {med_train:.3f}, test {med_test:.3f}, "
               f"g_hat {[r['g_hat'] for r in runs]}, {elapsed:.0f}s")
        assert ok

    def test_criterion_02_monotone_ascent(self, three_class_runs,
                                          bic_consistency_runs,
                                          coverage_runs, segmentation_runs):
        bad = sum(not trace_is_monotone(tr) for tr in ALL_TRACES)
        ok = bad == 0 and len(ALL_TRACES) > 0
        report(2, "monotone ascent", ok,
               f"{len(ALL_TRACES)} traces, {bad} violations")
        assert ok

    def test_criterion_03_g1_ols_oracle(self):
        rng = np.random.default_rng(42)
        worst_coef = worst_var = 0.0
        for k in range(20):
            p = 1 if k % 2 == 0 else 3
            X = rng.normal(size=(200, p))
            coefs = rng.normal(size=p + 1)
            y = coefs[0] + X @ coefs[1:] + rng.normal(size=200)
            data = Dataset(X, y, "real")
            config = FitConfig()
            result = fit(data, initialize(data, 1, "gaussian", ExpertDesign(),
                                          0, config), config)
            ALL_TRACES.append(result.q_trace)
            Xt = np.column_stack([np.ones(200), X])
            ols, *_ = np.linalg.lstsq(Xt, y, rcond=None)
            mle_var = np.mean((y - Xt @ ols) ** 2)
            worst_coef = max(worst_coef,
                             float(np.max(np.abs(result.theta.beta[0] - ols))))
            worst_var = max(worst_var,
                            abs(result.theta.sigma2[0] - mle_var) / mle_var)
        ok = worst_coef < 1e-6 and worst_var < 1e-6
        report(3, "g=1 closed-form oracle", ok,
               f"max coef err {worst_coef:.2e}, max var rel err {worst_var:.2e}")
        assert ok

    def test_criterion_04_gradient_oracle(self):
        worst = 0.0
        families = ("gaussian", "logistic", "poisson", "multinomial")
        for family in families:
            rng = np.random.default_rng(families.index(family))
            for _ in range(50):
                g, p, K = 2, 1, 3
                gating = np.vstack([rng.normal(size=(g - 1, p + 1)),
                                    np.zeros(p + 1)])
                if family == "multinomial":
                    beta = rng.normal(size=(g, K, p + 1)) * 0.7
                    beta[:, K - 1] = 0.0
                    theta = MoeParams(family=family, gating=gating, beta=beta,
                                      K=K)
                    y = int(rng.integers(1, K + 1))
                else:
                    theta = MoeParams(
                        family=family, gating=gating,
                        beta=rng.normal(size=(g, p + 1)) * 0.7,
                        sigma2=(rng.uniform(0.5, 2.0, size=g)
                                if family == "gaussian" else None))
                    y = {"gaussian": rng.normal(),
                         "logistic": int(rng.integers(0, 2)),
                         "poisson": int(rng.poisson(2.0))}[family]
                x = rng.normal(size=p)
                vec = flatten_params(theta)
                numeric = np.empty(vec.size)
                for j in range(vec.size):
                    h = 1e-6 * (1.0 + abs(vec[j]))
                    up, dn = vec.copy(), vec.copy()
                    up[j] += h
                    dn[j] -= h
                    numeric[j] = (
                        moe_log_density(y, x, unflatten_params(theta, up))
                        - moe_log_density(y, x, unflatten_params(theta, dn))
                    ) / (2 * h)
                analytic = score_vector(y, x, theta)
                scale = np.maximum(np.abs(numeric), 1.0)
                worst = max(worst, float(np.max(np.abs(analytic - numeric)
                                                / scale)))
        # stationarity of the total score at a converged maximizer
        data = gen_moe_sample(TWO_COMPONENT_TRUTH,
                              uniform_box_sampler([-2.0], [2.0]), 500, seed=1)
        config = FitConfig(n_starts=4, rel_tol=1e-10, max_cycles=500)
        result = multi_start_fit(data, 2, "gaussian", ExpertDesign(), config)
        ALL_TRACES.append(result.q_trace)
        total = score_matrix(data, result.theta).sum(axis=0)
        stationary = (result.converged
                      and np.max(np.abs(total))
                      <= 1e-4 * (1.0 + abs(result.q_hat)))
        ok = worst < 1e-5 and stationary
        report(4, "analytic score oracle", ok,
               f"max FD rel err {worst:.2e}, "
               f"|total score| {np.max(np.abs(total)):.2e}")
        assert ok

    def test_criterion_05_minorizer_suite(self):
        rng = np.random.default_rng(99)
        anchor_err = 0.0
        domination_err = 0.0
        min_eig = np.inf
        for _ in range(20):
            g, p = 3, 1
            X = rng.normal(size=(3, p))
            y = rng.normal(size=3)
            data = Dataset(X, y, "real")
            theta = MoeParams(
                family="gaussian",
                gating=np.vstack([rng.normal(size=(g - 1, p + 1)),
                                  np.zeros(p + 1)]),
                beta=rng.normal(size=(g, p + 1)),
                sigma2=rng.uniform(0.5, 2.0, size=g))
            H = gating_gram(data)
            for z in range(g - 1):
                q0 = log_quasi_likelihood(data, theta)
                s0 = gating_surrogate_value(data, theta, z, theta.gating[z])
                anchor_err = max(anchor_err, abs(s0 - q0))
                for _ in range(20):
                    alpha = theta.gating[z] + rng.normal(size=p + 1)
                    s = gating_surrogate_value(data, theta, z, alpha)
                    moved = theta.copy()
                    moved.gating = theta.gating.copy()
                    moved.gating[z] = alpha
                    q = log_quasi_likelihood(data, moved)
                    domination_err = max(domination_err, s - q)
                curv = gating_curvature_hessian(data, theta, z)
                min_eig = min(min_eig,
                              float(np.linalg.eigvalsh(H / 4.0 + curv).min()))
        ok = anchor_err <= 1e-9 and domination_err <= 1e-9 and min_eig >= -1e-8
        report(5, "minorizer suite", ok,
               f"anchor err {anchor_err:.2e}, domination err "
               f"{domination_err:.2e}, min curvature eig {min_eig:.2e}")
        assert ok

    def test_criterion_06_bic_consistency(self, bic_consistency_runs):
        g_hats, elapsed = bic_consistency_runs
        hits = sum(g == 2 for g in g_hats)
        ok = hits >= 8 and elapsed <= 120
        report(6, "BIC consistency", ok,
               f"g_hat=2 in {hits}/10 seeds, {elapsed:.0f}s")
        assert ok

    def test_criterion_07_sandwich_coverage(self, coverage_runs):
        hits, total, elapsed = coverage_runs
        coverage = hits / total if total else 0.0
        ok = total >= 180 and 0.88 <= coverage <= 0.99 and elapsed <= 600
        report(7, "sandwich CI coverage", ok,
               f"{hits}/{total} = {coverage:.3f}, {elapsed:.0f}s")
        assert ok

    def test_criterion_08_segmentation(self, segmentation_runs):
        successes, elapsed = segmentation_runs
        ok = successes >= 8
        report(8, "switch-signal segmentation", ok,
               f"{successes}/10 seeds, {elapsed:.0f}s")
        assert ok

    def test_criterion_09_param_count_formula(self):
        ok = param_count(4, 2, "gaussian") == 25
        for g in range(1, 21):
            for p in range(0, 11):
                ok = ok and param_count(g, p, "gaussian") == (3 + 2 * p) * g - p - 1
        report(9, "parameter-count formula", ok, "g in [1,20], p in [0,10]")
        assert ok

    def test_criterion_10_simplex_and_determinism(self):
        rng = np.random.default_rng(7)
        ok = True
        # gate and responsibility rows are simplex points
        gating = np.vstack([rng.normal(size=(3, 3)) * 3, np.zeros(3)])
        gates = np.exp(gate_log_probs(rng.normal(size=(200, 2)) * 5, gating))
        ok &= bool(np.all(gates >= 0)
                   and np.allclose(gates.sum(axis=1), 1.0, atol=1e-12))
        theta = MoeParams(family="gaussian", gating=gating,
                          beta=rng.normal(size=(4, 3)),
                          sigma2=rng.uniform(0.5, 2.0, size=4))
        data = gen_moe_sample(theta, uniform_box_sampler([-2.0] * 2, [2.0] * 2),
                              500, seed=11)
        tau = responsibilities(data, theta)
        ok &= bool(np.all((tau >= 0) & (tau <= 1))
                   and np.allclose(tau.sum(axis=1), 1.0, atol=1e-12))
        # seeded generators are pure functions of their arguments
        a, b = gen_three_class(300, seed=5), gen_three_class(300, seed=5)
        ok &= np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        c = gen_moe_sample(theta, uniform_box_sampler([-2.0] * 2, [2.0] * 2),
                           500, seed=11)
        ok &= np.array_equal(c.X, data.X) and np.array_equal(c.y, data.y)
        s1, s2 = gen_switch_signal(SignalSpec(seed=3)), gen_switch_signal(
            SignalSpec(seed=3))
        ok &= np.array_equal(s1.y, s2.y)
        # three-class proportions match the region areas at n=1e5
        big = gen_three_class(100_000, seed=0)
        props = np.bincount(big.y, minlength=4)[1:] / big.y.size
        want = np.array([1 - 4 * np.pi / 100 - 0.08, 4 * np.pi / 100, 0.08])
        prop_err = float(np.max(np.abs(props - want)))
        ok &= prop_err < 0.01
        report(10, "simplex and determinism invariants", bool(ok),
               f"max proportion err {prop_err:.4f}")
        assert ok
