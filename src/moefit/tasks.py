"""Prediction with fitted MoE models: classification, clustering, regression.

All argmax rules break ties toward the smallest index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    ModelError,
    MoeParams,
    add_intercept,
    gate_log_probs,
    log_softmax,
    logsumexp,
    responsibilities,
)


@dataclass
class Prediction:
    label: int | None = None        # class label (1..K) or component (1..g)
    posterior: np.ndarray | None = None
    mean: float | None = None
    variance: float | None = None


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


def classify_map(x: np.ndarray, theta: MoeParams) -> Prediction:
    """Plugin-MAP class label at a covariate point."""
    post = class_posteriors(np.atleast_2d(x), theta)[0]
    return Prediction(label=int(np.argmax(post)) + 1, posterior=post)


def cluster_posterior(x: np.ndarray, y, theta: MoeParams) -> Prediction:
    """Component assignment from the full responsibility of (x, y)."""
    data = Dataset(np.atleast_2d(x), np.atleast_1d(y), theta.response_kind(), K=theta.K)
    tau = responsibilities(data, theta)[0]
    return Prediction(label=int(np.argmax(tau)) + 1, posterior=tau)


def cluster_gate(x: np.ndarray, theta: MoeParams) -> Prediction:
    """Component assignment from the gate probabilities alone."""
    gates = np.exp(gate_log_probs(np.atleast_2d(x), theta.gating))[0]
    return Prediction(label=int(np.argmax(gates)) + 1, posterior=gates)


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
    gates = np.exp(gate_log_probs(X, theta.gating))
    mu = _component_means(X, theta)
    second = np.sum(gates * (mu ** 2 + theta.sigma2[None, :]), axis=1)
    var = second - np.sum(gates * mu, axis=1) ** 2
    tiny_neg = (var < 0) & (var > -1e-12)
    if np.any(tiny_neg):
        warnings.warn("clamping tiny negative predicted variance to 0")
        var = np.where(tiny_neg, 0.0, var)
    return var


def predict_variance(x: np.ndarray, theta: MoeParams) -> float:
    """Gate-weighted conditional variance of the response at ``x``."""
    return float(predict_variance_rows(np.atleast_2d(x), theta)[0])
