"""Property tests of ``fit`` over expert families, component counts, sample
sizes and covariate scales.  The examples are derandomized, so every run
tries the same inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moefit.estimation import EstimationError, FitConfig, fit, initialize
from moefit.model import FAMILIES, Dataset, ExpertDesign, responsibilities


def sample(family: str, n: int, scale: float, seed: int) -> Dataset:
    """n rows of two covariates of magnitude ``scale`` and a response of
    ``family`` that switches regime with the sign of the first covariate."""
    rng = np.random.default_rng(seed)
    X = scale * rng.uniform(-1.0, 1.0, size=(n, 2))
    u = X / scale
    eta = np.where(u[:, 0] > 0.0, 1.5 * u[:, 0] - u[:, 1], 0.5 - u[:, 0])
    if family == "gaussian":
        return Dataset(X, 3.0 * eta + 0.3 * rng.normal(size=n), "real")
    if family == "logistic":
        return Dataset(X, (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-2.0 * eta)))
                       .astype(int), "binary")
    if family == "poisson":
        return Dataset(X, rng.poisson(np.exp(eta)), "count")
    cuts = np.quantile(eta, [1 / 3, 2 / 3])
    return Dataset(X, np.searchsorted(cuts, eta) + 1, "categorical", K=3)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(family=st.sampled_from(FAMILIES), g=st.integers(1, 4),
       n=st.integers(8, 200), scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2**16))
def test_fit_ascends_or_raises(family, g, n, scale, seed):
    data = sample(family, n, scale, seed)
    config = FitConfig(max_cycles=20)
    try:
        result = fit(data, initialize(data, g, family, ExpertDesign(), seed, config),
                     config)
    except EstimationError:
        return
    q = result.q_trace
    assert np.all(np.isfinite(q))
    # no cycle loses more than the ascent guard's tolerance
    assert np.all(np.diff(q) >= -1e-10 * (1.0 + np.abs(q[:-1])))
    tau = responsibilities(data, result.theta)
    assert np.all(tau >= 0.0)
    assert np.allclose(tau.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
