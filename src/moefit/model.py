"""Core model evaluations for soft-max gated mixture-of-experts models.

Everything here is a pure function of immutable inputs: gating probabilities,
expert log densities and, through the one posterior kernel ``posterior``, the
mixture log density, the log-quasi-likelihood and the responsibilities.  All
density work happens in log space with max-subtraction stabilization.
``EXPERT_FAMILIES`` is the one table of family-specific kernels and layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np


class ModelError(ValueError):
    """Invalid model inputs (dimension mismatch, bad parameters, ...)."""


def logsumexp(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Max-stabilized log-sum-exp of ``a`` reduced over ``axis``."""
    m = a.max(axis=axis, keepdims=True)
    e = np.exp(a - m)
    s = e.sum(axis=axis, keepdims=True)
    np.log(s, out=s)
    s += m
    return s.squeeze(axis)


def softplus(u: np.ndarray) -> np.ndarray:
    """log(1 + e^u) as max(u, 0) + log1p(e^-|u|).  It never overflows, and
    numpy's exp and log1p are vectorized where its two-argument log-add-exp
    loops over scalars."""
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def softmax(a: np.ndarray, axis: int) -> np.ndarray:
    """Max-stabilized softmax along ``axis``: the multinomial inverse link."""
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class ExpertFamily:
    """Everything that differs between expert families.

    ``log_density(s, y, sigma2)`` maps linear predictors ``s`` to (g, n) log
    densities.  ``mean`` is the inverse link (class probabilities for
    multinomial experts); the links are canonical, so (y - mean) times the
    design row is both an expert's Newton gradient and its per-row score.
    ``mean_cov`` maps the mean to the per-row covariance of the free
    sufficient statistics, (g, k, k, n) for k free classes: with
    ``kron_gram`` it gives minus the Newton Hessian (times sigma2 for
    gaussian experts).  ``sample(rng, mean, sigma2)`` draws one response per
    row.  One expert has d+1 free coefficients per free class, plus sigma2
    with ``dispersion``.  Separated responses drive ``separable`` coefficients to
    infinity, so the Newton block caps them.
    """

    kind: str
    log_density: Callable
    mean: Callable
    mean_cov: Callable
    sample: Callable
    multiclass: bool = False
    dispersion: bool = False
    separable: bool = False

    def free_classes(self, K: int | None) -> int:
        """Free coefficient rows of one expert: K-1 (class K is pinned at
        zero) for multinomial experts, one otherwise."""
        if not self.multiclass:
            return 1
        if K is None or K < 2:
            raise ModelError("multinomial experts require K >= 2")
        return K - 1

    def expert_dim(self, d: int, K: int | None) -> int:
        """Free parameters of one expert with expert design width d."""
        return self.free_classes(K) * (d + 1) + int(self.dispersion)

    def free_coefs(self, a: np.ndarray) -> np.ndarray:
        """View of the free classes of per-component blocks ``a`` (g, ...),
        shape (g, free classes, ...)."""
        return a[:, :-1] if self.multiclass else a[:, None]

    def target(self, y: np.ndarray, K: int | None) -> np.ndarray:
        """The response on the scale of ``mean``: (K, n) class indicators
        for multinomial experts, ``y`` itself otherwise."""
        if self.multiclass:
            return (np.arange(1, K + 1)[:, None] == y[None, :]).astype(float)
        return y


def free_class_cov(P: np.ndarray) -> np.ndarray:
    """diag(P) - P P^T over the free classes (all but the last) of class
    probabilities ``P`` (b, K, n); shape (b, K-1, K-1, n)."""
    P = P[:, :-1]
    return P[:, :, None] * (np.eye(P.shape[1])[:, :, None] - P[:, None])


def outer_rows(D: np.ndarray) -> np.ndarray:
    """The outer products d_i d_i^T of design rows D (n, d), as (n, d*d)."""
    return (D[:, :, None] * D[:, None, :]).reshape(len(D), -1)


def kron_gram(W: np.ndarray, V: np.ndarray, D: np.ndarray,
              DD: np.ndarray | None = None) -> np.ndarray:
    """Weighted Kronecker Grams sum_i W[b, i] V[b, :, :, i] (x) d_i d_i^T,
    (b, k*d, k*d), for W (b, n), V (b, k, k, n) or broadcastable to it, and
    design rows D (n, d); rows and columns run class-major, as in a raveled
    free coefficient block (k, d).  ``DD`` is ``outer_rows(D)``, built here
    unless a caller that reuses D passes it."""
    (b, n), k, d = W.shape, V.shape[1], D.shape[1]
    DD = outer_rows(D) if DD is None else DD
    G = ((W[:, None, None, :] * V).reshape(-1, n) @ DD).reshape(b, k, k, d, d)
    return G.transpose(0, 1, 3, 2, 4).reshape(b, k * d, k * d)


def log_factorial(y: np.ndarray) -> np.ndarray:
    """log y! of the counts ``y`` (n,), one ``math.lgamma`` per distinct count."""
    u, inv = np.unique(y, return_inverse=True)
    return np.frompyfunc(math.lgamma, 1, 1)(u + 1.0).astype(float)[inv]


# Linear predictors arrive component-major: ``s`` is (g, n), or (g, K, n) for
# multinomial experts so that reductions over classes run across whole rows.
# The class axis is axis 1 in every layout (the sampler passes (n, K) rows).
EXPERT_FAMILIES = {
    "gaussian": ExpertFamily(
        kind="real",
        log_density=lambda s, y, sigma2: -0.5 * (
            np.log(2 * np.pi * sigma2)[:, None] + (y - s) ** 2 / sigma2[:, None]),
        mean=lambda s: s,
        mean_cov=lambda mu: np.ones_like(mu)[:, None, None],
        sample=lambda rng, mu, sigma2: mu + rng.standard_normal(len(mu)) * np.sqrt(sigma2),
        dispersion=True),
    "logistic": ExpertFamily(
        kind="binary",
        log_density=lambda s, y, sigma2: y * s - softplus(s),
        # the sigmoid 1 / (1 + e^-s), which never overflows
        mean=lambda s: np.exp(-softplus(-s)),
        mean_cov=lambda mu: (mu * (1.0 - mu))[:, None, None],
        sample=lambda rng, mu, sigma2: (rng.random(len(mu)) < mu).astype(int),
        separable=True),
    "poisson": ExpertFamily(
        kind="count",
        log_density=lambda s, y, sigma2: y * s - np.exp(s) - log_factorial(y),
        mean=np.exp,
        mean_cov=lambda mu: mu[:, None, None],
        sample=lambda rng, mu, sigma2: rng.poisson(mu)),
    "multinomial": ExpertFamily(
        kind="categorical",
        log_density=lambda s, y, sigma2: (
            s[:, y - 1, np.arange(y.size)] - logsumexp(s, axis=1)),
        mean=lambda s: softmax(s, axis=1),
        mean_cov=free_class_cov,
        # inverse-CDF draw of one class (1..K) per row
        sample=lambda rng, probs, sigma2: (
            np.cumsum(probs, axis=1) < rng.random(len(probs))[:, None]).sum(axis=1) + 1,
        multiclass=True,
        separable=True),
}

FAMILIES = tuple(EXPERT_FAMILIES)


def expert_family(name: str) -> ExpertFamily:
    """The table entry of the expert family called ``name``."""
    try:
        return EXPERT_FAMILIES[name]
    except KeyError:
        raise ModelError(f"unknown expert family: {name!r}") from None


@dataclass(frozen=True)
class ExpertDesign:
    """Transform from a raw covariate point to the expert design row.

    ``raw`` uses the covariates as-is (width p).  ``poly`` uses powers of the
    first covariate, x1, x1^2, ..., x1^degree (width degree); the gating
    always sees the raw covariates.
    """

    kind: str = "raw"
    degree: int = 2

    def __post_init__(self):
        if self.kind not in ("raw", "poly"):
            raise ModelError(f"unknown expert design kind: {self.kind!r}")
        if self.kind == "poly" and self.degree < 1:
            raise ModelError("polynomial design degree must be >= 1")

    def width(self, p: int) -> int:
        return p if self.kind == "raw" else self.degree

    def matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "raw":
            return X
        t = X[:, 0]
        return np.column_stack([t ** k for k in range(1, self.degree + 1)])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "degree": self.degree}

    @classmethod
    def from_dict(cls, d: dict) -> "ExpertDesign":
        return cls(kind=d["kind"], degree=d.get("degree", 2))


@dataclass
class Dataset:
    """n observations of p covariates plus a typed response.

    ``kind`` is one of real / binary / count / categorical; ``K`` is required
    for categorical responses (labels in 1..K).  ``z_true`` optionally carries
    latent generating labels from a simulator (1..g).
    """

    X: np.ndarray
    y: np.ndarray
    kind: str
    K: int | None = None
    z_true: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.kind == "real":
            self.y = np.asarray(self.y, dtype=float)
        else:
            self.y = np.asarray(self.y)
            if not np.issubdtype(self.y.dtype, np.integer):
                yf = np.asarray(self.y, dtype=float)
                # false for nan and inf too, so the cast below stays silent
                if not np.all(np.abs(yf) < 2.0 ** 63):
                    raise ModelError(f"{self.kind} responses must be finite "
                                     "and within the int64 range")
                yi = yf.astype(np.int64)
                if not np.all(yf == yi):
                    raise ModelError(f"{self.kind} responses must be integers")
                self.y = yi
        if self.X.shape[0] != self.y.shape[0]:
            raise ModelError("X and y row counts differ")
        if self.X.shape[0] < 1:
            raise ModelError("dataset must contain at least one row")
        if not np.all(np.isfinite(self.X)):
            raise ModelError("covariates must be finite")
        if self.kind not in ("real", "binary", "count", "categorical"):
            raise ModelError(f"unknown response kind: {self.kind!r}")
        if self.kind == "real" and not np.all(np.isfinite(self.y)):
            raise ModelError("real responses must be finite")
        if self.kind == "binary" and not np.all((self.y == 0) | (self.y == 1)):
            raise ModelError("binary responses must lie in {0, 1}")
        if self.kind == "count" and not np.all(self.y >= 0):
            raise ModelError("count responses must be non-negative")
        if self.kind == "categorical":
            if self.K is None or self.K < 2:
                raise ModelError("categorical data requires K >= 2")
            if not np.all((self.y >= 1) & (self.y <= self.K)):
                raise ModelError("category labels must lie in 1..K")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class MoeParams:
    """Full parameter vector of a g-component MoE model.

    gating has shape (g, p+1) with the last row pinned to zero (reference
    component).  For gaussian / logistic / poisson experts ``beta`` has shape
    (g, d+1) where d is the expert design width; for multinomial experts it
    has shape (g, K, d+1) with class K pinned to zero.  ``sigma2`` holds the
    g gaussian variances.
    """

    family: str
    gating: np.ndarray
    beta: np.ndarray
    design: ExpertDesign = field(default_factory=ExpertDesign)
    sigma2: np.ndarray | None = None
    K: int | None = None

    def __post_init__(self):
        fam = expert_family(self.family)
        self.gating = np.atleast_2d(np.asarray(self.gating, dtype=float))
        self.beta = np.asarray(self.beta, dtype=float)
        if not np.all(np.isfinite(self.gating)) or not np.all(np.isfinite(self.beta)):
            raise ModelError("parameters must be finite")
        g = self.gating.shape[0]
        for name, allowed in (("K", fam.multiclass), ("sigma2", fam.dispersion)):
            if getattr(self, name) is not None and not allowed:
                raise ModelError(f"{self.family} experts take no {name}")
        if fam.multiclass:
            fam.free_classes(self.K)  # raises unless K >= 2
            if self.beta.ndim != 3 or self.beta.shape[:2] != (g, self.K):
                raise ModelError("multinomial beta must have shape (g, K, d+1)")
        else:
            if self.beta.ndim != 2 or self.beta.shape[0] != g:
                raise ModelError("beta must have shape (g, d+1)")
        if fam.dispersion:
            if self.sigma2 is None:
                raise ModelError("gaussian experts require sigma2")
            self.sigma2 = np.asarray(self.sigma2, dtype=float)
            if self.sigma2.shape != (g,):
                raise ModelError("sigma2 must have shape (g,)")
            if not np.all(self.sigma2 > 0):
                raise ModelError("gaussian variances must be positive")

    @property
    def g(self) -> int:
        return self.gating.shape[0]

    @property
    def p(self) -> int:
        return self.gating.shape[1] - 1

    @property
    def expert_width(self) -> int:
        return self.design.width(self.p)

    def response_kind(self) -> str:
        return expert_family(self.family).kind

    def copy(self) -> "MoeParams":
        return replace(
            self,
            gating=self.gating.copy(),
            beta=self.beta.copy(),
            sigma2=None if self.sigma2 is None else self.sigma2.copy(),
        )


def add_intercept(A: np.ndarray) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return np.column_stack([np.ones(A.shape[0]), A])


def check_compatible(data: Dataset, theta: MoeParams) -> None:
    if data.p != theta.p:
        raise ModelError(f"dataset has p={data.p} but model expects p={theta.p}")
    if data.kind != theta.response_kind():
        raise ModelError(
            f"response kind {data.kind!r} does not match {theta.family!r} experts"
        )
    if expert_family(theta.family).multiclass and data.K != theta.K:
        raise ModelError(f"dataset K={data.K} but model K={theta.K}")


def gate_log_probs(X: np.ndarray, gating: np.ndarray) -> np.ndarray:
    """Log gating probabilities, shape (n, g)."""
    gating = np.atleast_2d(np.asarray(gating, dtype=float))
    Xt = add_intercept(X)
    if Xt.shape[1] != gating.shape[1]:
        raise ModelError(
            f"gating expects {gating.shape[1] - 1} covariates, got {Xt.shape[1] - 1}"
        )
    if not np.all(np.isfinite(Xt)):
        raise ModelError("covariates must be finite")
    S = Xt @ gating.T
    return S - logsumexp(S, axis=1)[:, None]


def expert_log_densities(fam: ExpertFamily, beta: np.ndarray, Dt: np.ndarray,
                         y: np.ndarray, sigma2) -> np.ndarray:
    """Log densities (b, n), C order, of the experts ``beta`` on the design
    ``Dt``: the one evaluation behind every expert log density of a fit."""
    return np.ascontiguousarray(fam.log_density(beta @ Dt.T, y, sigma2))


def expert_log_density_matrix(data: Dataset, theta: MoeParams) -> np.ndarray:
    """Per-component, per-row expert log densities, shape (g, n), C order."""
    check_compatible(data, theta)
    return expert_log_densities(expert_family(theta.family), theta.beta,
                                add_intercept(theta.design.matrix(data.X)),
                                data.y, theta.sigma2)


def joint_scores(data: Dataset, theta: MoeParams):
    """JS (2, g, n), the joint scores J = S + L over the gating scores S at
    ``theta``, and the expert log densities L (g, n)."""
    L = expert_log_density_matrix(data, theta)
    S = (add_intercept(data.X) @ theta.gating.T).T
    return np.stack([S + L, S]), L


def posterior(JS: np.ndarray):
    """The one posterior kernel: from JS (2, g, n), the responsibilities
    exp(J - lse J) (g, n) and the per-row mixture log densities lse J - lse S
    (n,), one log-sum-exp over components for both."""
    lse = logsumexp(JS, axis=1)
    return np.exp(JS[0] - lse[0]), lse[0] - lse[1]


def moe_log_density_rows(data: Dataset, theta: MoeParams) -> np.ndarray:
    """Per-row mixture log densities, shape (n,)."""
    return posterior(joint_scores(data, theta)[0])[1]


def moe_log_density(y, x: np.ndarray, theta: MoeParams) -> float:
    data = Dataset(np.atleast_2d(x), np.atleast_1d(y), theta.response_kind(), K=theta.K)
    return float(moe_log_density_rows(data, theta)[0])


def log_quasi_likelihood(data: Dataset, theta: MoeParams) -> float:
    """Sum of per-row mixture log densities."""
    return float(np.sum(moe_log_density_rows(data, theta)))


def responsibilities(data: Dataset, theta: MoeParams) -> np.ndarray:
    """Posterior component probabilities per row, shape (n, g), row-stochastic."""
    return posterior(joint_scores(data, theta)[0])[0].T


def permute_components(theta: MoeParams, perm) -> MoeParams:
    """Reorder components by ``perm`` and re-apply the reference normalization.

    The new last component's gating row is subtracted from every row so the
    reference block is exactly zero again; gate probabilities are unchanged.
    """
    perm = np.asarray(perm, dtype=int)
    if sorted(perm.tolist()) != list(range(theta.g)):
        raise ModelError("perm must be a permutation of 0..g-1")
    gating = theta.gating[perm]
    gating = gating - gating[-1][None, :]
    out = theta.copy()
    out.gating = gating
    out.beta = theta.beta[perm]
    if theta.sigma2 is not None:
        out.sigma2 = theta.sigma2[perm]
    return out


def canonical_order(theta: MoeParams) -> MoeParams:
    """``theta`` with its components sorted lexicographically by their expert
    coefficients, so that label-swapped copies of one model compare equal."""
    return permute_components(theta, np.lexsort(theta.beta.reshape(theta.g, -1).T[::-1]))
