"""Property tests of ``fit`` over expert families, component counts, sample
sizes and covariate scales, and of the dataset CSV round trip over arbitrary
finite floats.  The examples are derandomized, so every run tries the same
inputs."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moefit.estimation import EstimationError, FitConfig, fit, initialize
from moefit.io import read_dataset_csv, write_dataset_csv
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


# every finite float64: both zeros, subnormals and the extreme exponents
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw) -> Dataset:
    n = draw(st.integers(1, 12))
    X = draw(arrays(np.float64, (n, draw(st.integers(1, 3))), elements=finite))
    if draw(st.booleans()):
        return Dataset(X, draw(arrays(np.float64, n, elements=finite)), "real")
    return Dataset(X, draw(arrays(np.int64, n, elements=st.integers(1, 3))),
                   "categorical", K=3,
                   z_true=draw(arrays(np.int64, n, elements=st.integers(1, 4))))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=datasets())
def test_dataset_csv_round_trip_is_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path, data.kind, K=data.K)
    assert back.X.tobytes() == data.X.tobytes()
    assert back.y.tobytes() == data.y.tobytes()
    if data.z_true is not None:
        assert np.array_equal(back.z_true, data.z_true)
