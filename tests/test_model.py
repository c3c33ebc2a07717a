"""Model-core tests: gates, expert densities, mixture density, responsibilities."""

import re

import numpy as np
import pytest
from scipy import special, stats

from moefit.io import read_dataset_csv
from moefit.model import (
    EXPERT_FAMILIES,
    FAMILIES,
    Dataset,
    ExpertDesign,
    ModelError,
    MoeParams,
    check_compatible,
    expert_log_density_matrix,
    free_class_cov,
    gate_log_probs,
    kron_gram,
    log_quasi_likelihood,
    moe_log_density,
    moe_log_density_rows,
    outer_rows,
    permute_components,
    responsibilities,
    softmax,
)


def gate_row(x, gating):
    """Gate probabilities at one covariate point, by the batched gate_log_probs."""
    return np.exp(gate_log_probs(np.atleast_2d(x), gating))[0]


def expert_row(y, x, theta):
    """Expert 1's log density at one observation, by the batched matrix."""
    data = Dataset(np.atleast_2d(x), np.atleast_1d(y), theta.response_kind(), K=theta.K)
    return expert_log_density_matrix(data, theta)[0, 0]


def gaussian_pair(means=(0.0, 2.0), gate_intercept=0.0):
    """g=2, p=1 gaussian model with constant gates and constant means."""
    return MoeParams(
        family="gaussian",
        gating=np.array([[gate_intercept, 0.0], [0.0, 0.0]]),
        beta=np.array([[means[0], 0.0], [means[1], 0.0]]),
        sigma2=np.array([1.0, 1.0]),
    )


class TestGateProbs:
    def test_zero_coefficients_are_uniform(self):
        gating = np.zeros((2, 2))
        for x in ([0.0], [3.7], [-12.0]):
            assert np.allclose(gate_row(np.array(x), gating), [0.5, 0.5])

    def test_log3_intercept_gives_three_quarters(self):
        gating = np.array([[np.log(3.0), 0.0], [0.0, 0.0]])
        got = gate_row(np.array([1.23]), gating)
        assert np.allclose(got, [0.75, 0.25], atol=1e-12)

    def test_three_components_uniform(self):
        gating = np.zeros((3, 3))
        got = gate_row(np.array([0.4, -0.9]), gating)
        assert np.allclose(got, [1 / 3, 1 / 3, 1 / 3])

    def test_simplex_and_positivity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, p = rng.integers(1, 5), rng.integers(0, 4)
            gating = rng.normal(size=(g, p + 1)) * 3
            gating[-1] = 0.0
            probs = gate_row(rng.normal(size=p), gating)
            assert np.all(probs > 0)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_no_overflow_at_huge_scores(self):
        gating = np.array([[1e4, 0.0], [0.0, 0.0]])
        probs = gate_row(np.array([0.0]), gating)
        assert np.all(np.isfinite(probs))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ModelError):
            gate_row(np.array([1.0, 2.0]), np.zeros((2, 2)))

    def test_nonfinite_input_raises(self):
        with pytest.raises(ModelError):
            gate_row(np.array([np.nan]), np.zeros((2, 2)))


class TestExpertLogDensity:
    def test_standard_normal_at_mode(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)), sigma2=np.array([1.0]))
        got = expert_row(0.0, np.array([0.0]), theta)
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-12)

    def test_symmetric_logit(self):
        theta = MoeParams(family="logistic", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)))
        got = expert_row(1, np.array([0.0]), theta)
        assert got == pytest.approx(np.log(0.5), abs=1e-12)

    def test_poisson_rate_one_at_two(self):
        theta = MoeParams(family="poisson", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)))
        got = expert_row(2, np.array([0.0]), theta)
        assert got == pytest.approx(-1.0 - np.log(2.0), abs=1e-12)

    def test_multinomial_uniform_classes(self):
        theta = MoeParams(family="multinomial", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 3, 2)), K=3)
        for y in (1, 2, 3):
            got = expert_row(y, np.array([0.0]), theta)
            assert got == pytest.approx(np.log(1 / 3), abs=1e-12)

    def test_kind_mismatch_raises(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)), sigma2=np.array([1.0]))
        data = Dataset(np.array([[0.0]]), np.array([1]), "binary")
        with pytest.raises(ModelError):
            expert_log_density_matrix(data, theta)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ModelError):
            MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                      beta=np.zeros((1, 2)), sigma2=np.array([0.0]))

    def test_gaussian_density_integrates_to_one(self):
        from scipy.integrate import quad
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[1.5, -0.7]]), sigma2=np.array([0.49]))
        x = np.array([2.0])
        mu = 1.5 - 0.7 * 2.0
        sd = 0.7
        val, _ = quad(lambda y: np.exp(expert_row(y, x, theta)),
                      mu - 10 * sd, mu + 10 * sd)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_discrete_masses_sum_to_one(self):
        logit = MoeParams(family="logistic", gating=np.zeros((1, 2)),
                          beta=np.array([[0.3, -1.2]]))
        x = np.array([0.8])
        total = sum(np.exp(expert_row(y, x, logit)) for y in (0, 1))
        assert total == pytest.approx(1.0, abs=1e-14)

        multi = MoeParams(family="multinomial", gating=np.zeros((1, 2)),
                          beta=np.array([[[0.5, 1.0], [-0.4, 0.2], [0.0, 0.0]]]),
                          K=3)
        total = sum(np.exp(expert_row(y, x, multi)) for y in (1, 2, 3))
        assert total == pytest.approx(1.0, abs=1e-14)

        pois = MoeParams(family="poisson", gating=np.zeros((1, 2)),
                         beta=np.array([[1.0, 0.5]]))
        lam = np.exp(1.0 + 0.5 * 0.8)
        top = int(lam + 40 * np.sqrt(lam))
        total = sum(np.exp(expert_row(y, x, pois))
                    for y in range(top + 1))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestMoeLogDensity:
    def test_single_component_equals_expert(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.array([[0.4, 1.1]]), sigma2=np.array([2.0]))
        x, y = np.array([0.6]), 1.9
        assert moe_log_density(y, x, theta) == pytest.approx(
            expert_row(y, x, theta), abs=1e-14)

    def test_identical_experts_collapse(self):
        theta = MoeParams(family="gaussian",
                          gating=np.array([[1.3, -0.2], [0.0, 0.0]]),
                          beta=np.array([[0.4, 1.1], [0.4, 1.1]]),
                          sigma2=np.array([2.0, 2.0]))
        x, y = np.array([0.6]), 1.9
        assert moe_log_density(y, x, theta) == pytest.approx(
            expert_row(y, x, theta), abs=1e-12)

    def test_symmetric_two_mean_hand_value(self):
        theta = gaussian_pair(means=(0.0, 2.0))
        got = moe_log_density(1.0, np.array([0.0]), theta)
        want = -0.5 - 0.5 * np.log(2 * np.pi)  # log phi(1; 0, 1)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(-1.4189385, abs=1e-7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        theta = MoeParams(
            family="gaussian",
            gating=np.vstack([rng.normal(size=(2, 3)), np.zeros(3)]),
            beta=rng.normal(size=(3, 3)),
            sigma2=np.array([0.5, 1.0, 2.0]),
        )
        x = rng.normal(size=2)
        y = 0.7
        base = moe_log_density(y, x, theta)
        swapped = permute_components(theta, [2, 0, 1])
        assert moe_log_density(y, x, swapped) == pytest.approx(base, abs=1e-10)
        assert np.allclose(swapped.gating[-1], 0.0)


class TestLogQuasiLikelihood:
    def test_single_row(self):
        theta = gaussian_pair()
        data = Dataset(np.array([[0.3]]), np.array([0.5]), "real")
        assert log_quasi_likelihood(data, theta) == pytest.approx(
            moe_log_density(0.5, np.array([0.3]), theta), abs=1e-14)

    def test_copies_add(self):
        theta = gaussian_pair()
        row = Dataset(np.array([[0.3]]), np.array([0.5]), "real")
        rep = Dataset(np.tile([[0.3]], (7, 1)), np.full(7, 0.5), "real")
        assert log_quasi_likelihood(rep, theta) == pytest.approx(
            7 * log_quasi_likelihood(row, theta), rel=1e-14)

    def test_matches_per_row_oracle(self):
        rng = np.random.default_rng(11)
        theta = MoeParams(
            family="gaussian",
            gating=np.vstack([rng.normal(size=(1, 3)), np.zeros(3)]),
            beta=rng.normal(size=(2, 3)),
            sigma2=np.array([0.8, 1.3]),
        )
        data = Dataset(rng.normal(size=(10, 2)), rng.normal(size=10), "real")
        oracle = sum(moe_log_density(data.y[i], data.X[i], theta)
                     for i in range(10))
        assert log_quasi_likelihood(data, theta) == pytest.approx(oracle, abs=1e-12)


class TestResponsibilities:
    def test_single_component_all_ones(self):
        theta = MoeParams(family="gaussian", gating=np.zeros((1, 2)),
                          beta=np.zeros((1, 2)), sigma2=np.array([1.0]))
        data = Dataset(np.zeros((5, 1)), np.zeros(5), "real")
        assert np.array_equal(responsibilities(data, theta), np.ones((5, 1)))

    def test_identical_experts_return_gates(self):
        a = 0.75
        theta = MoeParams(
            family="gaussian",
            gating=np.array([[np.log(a / (1 - a)), 0.0], [0.0, 0.0]]),
            beta=np.zeros((2, 2)),
            sigma2=np.array([1.0, 1.0]),
        )
        data = Dataset(np.linspace(-2, 2, 6)[:, None], np.zeros(6), "real")
        tau = responsibilities(data, theta)
        assert np.allclose(tau, [a, 1 - a], atol=1e-12)

    def test_hand_density_ratio(self):
        theta = gaussian_pair(means=(0.0, 2.0))
        data = Dataset(np.array([[0.0]]), np.array([0.0]), "real")
        tau = responsibilities(data, theta)[0]
        want = np.array([1.0, np.exp(-2.0)]) / (1.0 + np.exp(-2.0))
        assert np.allclose(tau, want, atol=1e-12)
        assert np.allclose(tau, [0.8807971, 0.1192029], atol=1e-7)

    def test_row_stochastic_random(self):
        rng = np.random.default_rng(5)
        theta = MoeParams(
            family="poisson",
            gating=np.vstack([rng.normal(size=(2, 2)), np.zeros(2)]),
            beta=rng.normal(size=(3, 2)) * 0.5,
        )
        data = Dataset(rng.normal(size=(40, 1)), rng.poisson(2.0, size=40), "count")
        tau = responsibilities(data, theta)
        assert np.all((tau >= 0) & (tau <= 1))
        assert np.allclose(tau.sum(axis=1), 1.0, atol=1e-12)


class TestDatasetValidation:
    def test_binary_labels_checked(self):
        with pytest.raises(ModelError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), "binary")

    def test_categorical_needs_K(self):
        with pytest.raises(ModelError):
            Dataset(np.zeros((2, 1)), np.array([1, 2]), "categorical")

    def test_category_range_checked(self):
        with pytest.raises(ModelError):
            Dataset(np.zeros((2, 1)), np.array([1, 4]), "categorical", K=3)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ModelError):
            Dataset(np.zeros((0, 1)), np.zeros(0), "real")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["binary", "count", "categorical"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e20])
    def test_non_finite_integer_response_rejected(self, kind, bad):
        with pytest.raises(ModelError, match="finite"):
            Dataset(np.zeros((2, 1)), np.array([1.0, bad]), kind, K=3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_cell_in_csv_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y\n0.5,1\n0.7,nan\n")
        with pytest.raises(ModelError, match="finite"):
            read_dataset_csv(path, "count")


class TestExpertDesign:
    def test_poly_design_powers(self):
        d = ExpertDesign(kind="poly", degree=2)
        X = np.array([[0.5, 9.0], [2.0, -1.0]])
        got = d.matrix(X)
        assert np.allclose(got, [[0.5, 0.25], [2.0, 4.0]])
        assert d.width(2) == 2

    def test_raw_design_passthrough(self):
        d = ExpertDesign()
        X = np.array([[0.5, 9.0]])
        assert np.array_equal(d.matrix(X), X)
        assert d.width(2) == 2

    def test_bad_kind_rejected(self):
        with pytest.raises(ModelError):
            ExpertDesign(kind="spline")


def multinomial_params(K, beta_shape=(2, 3, 2)):
    return MoeParams(family="multinomial", gating=np.zeros((2, 2)),
                     beta=np.zeros(beta_shape), K=K)


def gaussian_params(g=2, beta=None, sigma2=(1.0, 1.0), gating=None):
    return MoeParams(family="gaussian",
                     gating=np.zeros((g, 2)) if gating is None else gating,
                     beta=np.zeros((g, 2)) if beta is None else beta,
                     sigma2=None if sigma2 is None else np.asarray(sigma2))


ZEROS = np.zeros((2, 1))
INVALID_INPUTS = {
    "poly-degree": (lambda: ExpertDesign("poly", 0), "degree must be >= 1"),
    "non-integer-count": (lambda: Dataset(ZEROS, [0.5, 1.0], "count"),
                          "count responses must be integers"),
    "row-counts": (lambda: Dataset(np.zeros((3, 1)), np.zeros(2), "real"),
                   "X and y row counts differ"),
    "non-finite-x": (lambda: Dataset([[np.nan], [0.0]], np.zeros(2), "real"),
                     "covariates must be finite"),
    "unknown-kind": (lambda: Dataset(ZEROS, [0, 1], "ordinal"),
                     "unknown response kind: 'ordinal'"),
    "non-finite-real-y": (lambda: Dataset(ZEROS, [0.0, np.inf], "real"),
                          "real responses must be finite"),
    "negative-count": (lambda: Dataset(ZEROS, [1, -1], "count"),
                       "count responses must be non-negative"),
    "non-finite-params": (lambda: gaussian_params(gating=[[np.nan, 0.0], [0.0, 0.0]]),
                          "parameters must be finite"),
    "K-missing": (lambda: multinomial_params(None), "multinomial experts require K >= 2"),
    "K-one": (lambda: multinomial_params(1, (2, 1, 2)),
              "multinomial experts require K >= 2"),
    "multinomial-beta": (lambda: multinomial_params(3, (2, 2, 2)),
                         "multinomial beta must have shape (g, K, d+1)"),
    "beta-rows": (lambda: gaussian_params(beta=np.zeros((3, 2))),
                  "beta must have shape (g, d+1)"),
    "sigma2-missing": (lambda: gaussian_params(sigma2=None),
                       "gaussian experts require sigma2"),
    "sigma2-shape": (lambda: gaussian_params(sigma2=(1.0, 1.0, 1.0)),
                     "sigma2 must have shape (g,)"),
    "p-mismatch": (lambda: check_compatible(Dataset(np.zeros((2, 2)), np.zeros(2), "real"),
                                            gaussian_params()),
                   "dataset has p=2 but model expects p=1"),
    "K-mismatch": (lambda: check_compatible(Dataset(ZEROS, [1, 2], "categorical", K=4),
                                            multinomial_params(3)),
                   "dataset K=4 but model K=3"),
    "permutation": (lambda: permute_components(gaussian_params(), [0, 0]),
                    "perm must be a permutation of 0..g-1"),
}


@pytest.mark.parametrize("case", list(INVALID_INPUTS))
def test_invalid_model_input_rejected(case):
    build, message = INVALID_INPUTS[case]
    with pytest.raises(ModelError, match=re.escape(message)):
        build()


def test_moe_log_density_rows_matches_scalar():
    theta = gaussian_pair()
    data = Dataset(np.array([[0.1], [0.9]]), np.array([1.0, -0.3]), "real")
    rows = moe_log_density_rows(data, theta)
    for i in range(2):
        assert rows[i] == pytest.approx(
            moe_log_density(data.y[i], data.X[i], theta), abs=1e-14)


class TestFamilyTable:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_log_density_matches_scipy(self, family):
        rng = np.random.default_rng(FAMILIES.index(family))
        fam = EXPERT_FAMILIES[family]
        g, n, K = 3, 40, 4
        sigma2 = rng.uniform(0.5, 2.0, size=g)
        if family == "multinomial":
            s = rng.normal(size=(g, K, n)) * 2.0
            y = rng.integers(1, K + 1, size=n)
            probs = special.softmax(s, axis=1)
            want = np.log(probs[:, y - 1, np.arange(n)])
        else:
            s = rng.normal(size=(g, n)) * 2.0
            if family == "gaussian":
                y = rng.normal(size=n) * 3.0
                want = stats.norm.logpdf(y, loc=s, scale=np.sqrt(sigma2)[:, None])
            elif family == "logistic":
                y = rng.integers(0, 2, size=n)
                want = stats.bernoulli.logpmf(y, special.expit(s))
            else:
                y = rng.poisson(3.0, size=n)
                want = stats.poisson.logpmf(y, np.exp(s))
        got = fam.log_density(s, y, sigma2)
        assert got.shape == (g, n)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("y", [np.arange(200_001), np.array([], dtype=int),
                                   np.array([3, 0, 3, 7, 0, 3, 12, 7])],
                             ids=["0..2e5", "empty", "repeated"])
    def test_poisson_log_factorial_matches_gammaln(self, y):
        # at s = 0 the density is -1 - log y!, so this compares log y! alone
        got = EXPERT_FAMILIES["poisson"].log_density(np.zeros((1, y.size)), y, None)
        want = -1.0 - special.gammaln(y + 1.0)
        assert got.shape == (1, y.size)
        assert np.all(np.abs(got[0] - want) <= 1e-14 * np.abs(want))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_layout_matches_parameter_shapes(self, family):
        fam = EXPERT_FAMILIES[family]
        K = 3 if fam.multiclass else None
        d = 2
        beta = np.zeros((2, K, d + 1) if fam.multiclass else (2, d + 1))
        free = fam.free_coefs(beta)
        assert free.shape == (2, fam.free_classes(K), d + 1)
        assert np.shares_memory(free, beta)
        assert fam.expert_dim(d, K) == free[0].size + fam.dispersion

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_matrix_is_component_major(self, family):
        # the posterior kernel reads whole component rows: (g, n), C order
        rng = np.random.default_rng(FAMILIES.index(family))
        fam = EXPERT_FAMILIES[family]
        g, n, K = 3, 7, 4
        y = {"real": rng.normal(size=n), "binary": rng.integers(0, 2, size=n),
             "count": rng.poisson(2.0, size=n),
             "categorical": rng.integers(1, K + 1, size=n)}[fam.kind]
        data = Dataset(rng.normal(size=(n, 1)), y, fam.kind,
                       K=K if fam.multiclass else None)
        theta = MoeParams(family=family, gating=np.zeros((g, 2)),
                          beta=rng.normal(size=(g, K, 2) if fam.multiclass else (g, 2)),
                          sigma2=np.ones(g) if fam.dispersion else None,
                          K=K if fam.multiclass else None)
        L = expert_log_density_matrix(data, theta)
        assert L.shape == (g, n)
        assert L.flags.c_contiguous

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_logistic_mean_matches_expit(self):
        # the sigmoid as exp(-softplus(-s)) never overflows; below s = -709
        # it is subnormal where expit flushes it to zero
        s = np.concatenate([np.random.default_rng(0).normal(size=10_000) * 10.0,
                            np.linspace(-800.0, 800.0, 1601), [-1e300, 1e300]])[None]
        got = EXPERT_FAMILIES["logistic"].mean(s)
        assert np.allclose(got, special.expit(s), rtol=4e-15, atol=1e-300)

    @pytest.mark.parametrize("family,extra", [
        ("gaussian", "K"), ("logistic", "K"), ("poisson", "K"),
        ("logistic", "sigma2"), ("poisson", "sigma2"), ("multinomial", "sigma2")])
    def test_parameters_of_other_families_rejected(self, family, extra):
        fam = EXPERT_FAMILIES[family]
        fields = {"K": 3 if fam.multiclass else None,
                  "sigma2": np.ones(2) if fam.dispersion else None}
        fields[extra] = 3 if extra == "K" else np.ones(2)
        beta = np.zeros((2, 3, 2) if fam.multiclass else (2, 2))
        with pytest.raises(ModelError, match=f"{family} experts take no {extra}"):
            MoeParams(family=family, gating=np.zeros((2, 2)), beta=beta, **fields)

    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError, match="unknown expert family"):
            MoeParams(family="gamma", gating=np.zeros((1, 2)),
                      beta=np.zeros((1, 2)))


class TestKronGram:
    """A fit passes ``kron_gram`` the ``outer_rows`` table it built once; the
    Grams must be those of ``kron_gram`` building the table itself, bit for
    bit, for each kind of weights a fit uses."""

    @staticmethod
    def cases(rng, n):
        """(W, V) pairs: gaussian unit V, ``free_class_cov`` V for K = 2..4
        and the gate's unit weights ``ones((1, n))``."""
        W = rng.uniform(0.0, 1.0, size=(3, n))
        yield W, np.ones((1, 1, 1, 1))
        for K in (2, 3, 4):
            yield W, free_class_cov(softmax(rng.normal(size=(3, K, n)), axis=1))
        yield np.ones((1, n)), free_class_cov(softmax(rng.normal(size=(1, 4, n)), axis=1))

    @pytest.mark.parametrize("seed", range(4))
    def test_precomputed_table_is_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        n = 40 + 97 * seed
        D = np.column_stack([np.ones(n), 3.0 * rng.normal(size=(n, 1 + seed % 3))])
        DD = outer_rows(D)
        for W, V in self.cases(rng, n):
            G = kron_gram(W, V, D, DD)
            assert np.array_equal(G, kron_gram(W, V, D))
            # and it is the weighted Kronecker sum it claims to be
            k, d = V.shape[1], D.shape[1]
            ref = np.einsum("bn,bijn,np,nq->bipjq", W, np.broadcast_to(
                V, (len(W), k, k, n)), D, D).reshape(len(W), k * d, k * d)
            assert np.allclose(G, ref, rtol=1e-12, atol=1e-12)
