"""Prediction with fitted MoE models: classification, clustering, regression.

All argmax rules break ties toward the smallest index.
"""

from __future__ import annotations

import numpy as np

from .model import (
    ModelError,
    MoeParams,
    add_intercept,
    gate_log_probs,
    log_softmax,
    logsumexp,
)


def class_posteriors(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """P(Y = k | x) for every row and class, shape (n, K)."""
    if theta.family != "multinomial":
        raise ModelError("classification requires multinomial experts")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    lg = gate_log_probs(X, theta.gating)  # (n, g)
    Dt = add_intercept(theta.design.matrix(X))
    scores = np.einsum("nd,gkd->ngk", Dt, theta.beta)
    joint = lg[:, :, None] + log_softmax(scores, axis=2)  # (n, g, K)
    post = np.exp(logsumexp(joint, axis=1))
    return post / post.sum(axis=1, keepdims=True)


def gate_labels(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """Vectorized gate-argmax labels (1..g) for a batch of rows."""
    gates = np.exp(gate_log_probs(X, theta.gating))
    return np.argmax(gates, axis=1) + 1


def _component_means(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    if theta.family != "gaussian":
        raise ModelError("regression functionals require gaussian experts")
    Dt = add_intercept(theta.design.matrix(X))
    return Dt @ theta.beta.T  # (n, g)


def predict_mean_rows(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    gates = np.exp(gate_log_probs(X, theta.gating))
    return np.sum(gates * _component_means(X, theta), axis=1)


def predict_mean(x: np.ndarray, theta: MoeParams) -> float:
    """Gate-weighted conditional mean of the response at ``x``."""
    return float(predict_mean_rows(np.atleast_2d(x), theta)[0])


def predict_variance_rows(X: np.ndarray, theta: MoeParams) -> np.ndarray:
    """Gate-weighted variance of the response by the law of total variance,
    sum_z pi_z (sigma2_z + (mu_z - m)^2) with m the mean: a sum of
    non-negative terms, with no cancellation between large moments."""
    gates = np.exp(gate_log_probs(X, theta.gating))
    mu = _component_means(X, theta)
    m = np.sum(gates * mu, axis=1, keepdims=True)
    return np.sum(gates * (theta.sigma2[None, :] + (mu - m) ** 2), axis=1)
