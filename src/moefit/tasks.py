"""Prediction with fitted MoE models: classification, clustering, regression.

All argmax rules break ties toward the smallest index.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ModelError,
    MoeParams,
    add_intercept,
    expert_family,
    gate_log_probs,
)


def class_posteriors(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """P(Y = k | x) = sum_z pi_z(x) softmax_k(beta_z . d(x)) for every row
    and class, shape (n, K)."""
    if theta.family != "multinomial":
        raise ModelError("classification requires multinomial experts")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    gates = np.exp(gate_log_probs(X, theta.gating))  # (n, g)
    Dt = add_intercept(theta.design.matrix(X))
    probs = expert_family("multinomial").mean(theta.beta @ Dt.T)  # (g, K, n)
    post = np.einsum("ng,gkn->nk", gates, probs)
    return post / post.sum(axis=1, keepdims=True)


def gate_labels(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """Vectorized gate-argmax labels (1..g) for a batch of rows."""
    gates = np.exp(gate_log_probs(X, theta.gating))
    return np.argmax(gates, axis=1) + 1


def gate_means(X: np.ndarray, theta: MoeParams):
    """Gates pi (n, g), component means mu (n, g) and the gate-weighted mean
    m = sum_z pi_z mu_z (n,) of a gaussian-expert model at the rows of X."""
    if theta.family != "gaussian":
        raise ModelError("regression functionals require gaussian experts")
    gates = np.exp(gate_log_probs(X, theta.gating))
    mu = add_intercept(theta.design.matrix(X)) @ theta.beta.T
    return gates, mu, np.sum(gates * mu, axis=1)


def predict_mean_rows(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    return gate_means(X, theta)[2]


def predict_mean(x: np.ndarray, theta: MoeParams) -> float:
    """Gate-weighted conditional mean of the response at ``x``."""
    return float(predict_mean_rows(np.atleast_2d(x), theta)[0])


def predict_variance_rows(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """Gate-weighted variance of the response by the law of total variance,
    sum_z pi_z (sigma2_z + (mu_z - m)^2) with m the mean: a sum of
    non-negative terms, with no cancellation between large moments."""
    gates, mu, m = gate_means(X, theta)
    return np.sum(gates * (theta.sigma2[None, :] + (mu - m[:, None]) ** 2), axis=1)
