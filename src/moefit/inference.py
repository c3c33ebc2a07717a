"""Score vectors, sandwich covariance, and delta-method mean intervals.

Per-observation scores and the bread (average per-row Hessian) are analytic:
both come from each component's complete-data score, the bread through
Louis' identity.  Parameter ordering everywhere follows the serialized
layout: gating blocks 1..g-1, then expert blocks 1..g.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .model import (
    Dataset,
    MoeParams,
    add_intercept,
    check_compatible,
    expert_family,
    free_class_cov,
    gate_log_probs,
    kron_gram,
    responsibilities,
)
from .tasks import gate_means


class InferenceError(RuntimeError):
    pass


def param_labels(theta: MoeParams) -> list[str]:
    """Names of the free parameters in serialization order."""
    fam = expert_family(theta.family)
    labels = []
    for z in range(theta.g - 1):
        labels += [f"gate[{z + 1}].a{j}" for j in range(theta.p + 1)]
    d1 = theta.expert_width + 1
    for z in range(theta.g):
        for l in range(fam.free_classes(theta.K)):
            block = f"expert[{z + 1}]" + (f".class[{l + 1}]" if fam.multiclass else "")
            labels += [f"{block}.b{j}" for j in range(d1)]
        if fam.dispersion:
            labels += [f"expert[{z + 1}].sigma2"]
    return labels


def flatten_params(theta: MoeParams) -> np.ndarray:
    """Free parameters as one vector in serialization order."""
    fam = expert_family(theta.family)
    experts = [fam.free_coefs(theta.beta).reshape(theta.g, -1)]
    if fam.dispersion:
        experts.append(theta.sigma2[:, None])
    return np.concatenate([theta.gating[:-1].ravel(),
                           np.concatenate(experts, axis=1).ravel()])


def unflatten_params(theta: MoeParams, vec: np.ndarray) -> MoeParams:
    """Rebuild a MoeParams with the same shape as ``theta`` from ``vec``."""
    fam = expert_family(theta.family)
    vec = np.asarray(vec, dtype=float)
    n_gate = (theta.g - 1) * (theta.p + 1)
    m = fam.expert_dim(theta.expert_width, theta.K)
    if vec.size != n_gate + theta.g * m:
        raise InferenceError("parameter vector length mismatch")
    out = theta.copy()
    out.gating[:-1] = vec[:n_gate].reshape(theta.g - 1, theta.p + 1)
    experts = vec[n_gate:].reshape(theta.g, m)
    free = fam.free_coefs(out.beta)
    free[:] = experts[:, :free[0].size].reshape(free.shape)
    if fam.multiclass:
        out.beta[:, -1] = 0.0
    if fam.dispersion:
        out.sigma2[:] = experts[:, -1]
    return out


def _scores(data: Dataset, theta: MoeParams):
    """Responsibilities tau (n, g), gate probabilities pi (n, g), x-tilde,
    each expert's per-row score s (g, n, m), the sums over rows of tau_z
    times the Hessian of log f_z, (g, m, m), and the per-row scores S
    (n, dim) of the mixture log density.

    Expert z's coefficients score (y - mu_z) times the expert design row per
    free class (over sigma2 for gaussian experts, which add the sigma2
    score).  S scores gating block j with (tau_j - pi_j) x-tilde and expert
    block z with tau_z s_z.
    """
    check_compatible(data, theta)
    fam = expert_family(theta.family)
    n, g = data.n, theta.g
    tau = responsibilities(data, theta)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    Xt = add_intercept(data.X)
    Dt = add_intercept(theta.design.matrix(data.X))
    mu = fam.mean(theta.beta @ Dt.T)
    resid = fam.free_coefs(fam.target(data.y, theta.K) - mu)  # (g, k, n)
    W = tau.T / theta.sigma2[:, None] if fam.dispersion else tau.T
    E = resid / theta.sigma2[:, None, None] if fam.dispersion else resid
    s = [(E[..., None] * Dt).transpose(0, 2, 1, 3).reshape(g, n, -1)]
    hess = -kron_gram(W, fam.mean_cov(mu), Dt)
    if fam.dispersion:
        # d/ds2 = r^2/(2 s2^2) - 1/(2 s2); d2/db ds2 = -r d/s2^2;
        # d2/ds2^2 = 1/(2 s2^2) - r^2/s2^3, r being y - mu
        r, s2 = resid[:, 0], theta.sigma2[:, None]
        s.append((r ** 2 / (2.0 * s2 ** 2) - 0.5 / s2)[..., None])
        cross = -((W * r / s2) @ Dt)[:, :, None]
        ss = (tau.T * (0.5 / s2 ** 2 - r ** 2 / s2 ** 3)).sum(axis=1)[:, None, None]
        hess = np.block([[hess, cross], [cross.transpose(0, 2, 1), ss]])
    s = np.concatenate(s, axis=2)
    S = np.concatenate([((tau - gates)[:, :-1, None] * Xt[:, None, :]).reshape(n, -1),
                        (tau.T[:, :, None] * s).transpose(1, 0, 2).reshape(n, -1)], axis=1)
    return tau, gates, Xt, s, hess, S


def score_matrix(data: Dataset, theta: MoeParams) -> np.ndarray:
    """Analytic per-row gradients of the mixture log density, shape (n, dim)."""
    return _scores(data, theta)[-1]


def score_vector(y, x: np.ndarray, theta: MoeParams) -> np.ndarray:
    """Gradient of the mixture log density at one observation."""
    data = Dataset(np.atleast_2d(x), np.atleast_1d(y), theta.response_kind(), K=theta.K)
    return score_matrix(data, theta)[0]


@dataclass
class SandwichCovariance:
    bread: np.ndarray   # average per-row Hessian of the log density
    meat: np.ndarray    # average outer product of per-row scores
    cov: np.ndarray     # sampling covariance of theta-hat
    labels: list[str]
    # of the bread; near 1/eps its inverse, and so cov, is rounding noise
    condition: float


def sandwich_covariance(data: Dataset, theta: MoeParams) -> SandwichCovariance:
    """Bread-inverse meat bread-inverse covariance of the fitted parameters.

    The bread is the exact average Hessian of the per-row mixture log
    density, by Louis' identity: the tau-weighted Hessian of the
    complete-data log density a_z = log pi_z + log f_z plus the
    tau-covariance of its gradient.  That gradient minus the score S is
    (e_z - tau) (x) x-tilde over the free gating rows, and s_z in expert
    block z less tau_w s_w in every expert block w.  log pi_z has the
    gating Hessian -(diag pi - pi pi^T) (x) x-tilde x-tilde^T for every z,
    and gating and expert parameters do not mix in a_z.
    """
    tau, gates, Xt, s, hess, S = _scores(data, theta)
    n, g = tau.shape
    q = (g - 1) * Xt.shape[1]
    S_experts = S[:, q:]
    gate = kron_gram(np.ones((1, n)), free_class_cov(tau.T[None])
                     - free_class_cov(gates.T[None]), Xt)[0]
    cross = np.hstack([
        ((np.eye(g)[z, :-1] - tau[:, :-1])[:, :, None] * Xt[:, None, :]).reshape(n, q).T
        @ (tau[:, z, None] * s[z]) for z in range(g)])
    k = hess.shape[1]
    experts = np.zeros((g, k, g, k))  # block diagonal, one (k, k) block per component
    experts[np.arange(g), :, np.arange(g), :] = (
        hess + np.einsum("zn,znm,znl->zml", tau.T, s, s))
    experts = experts.reshape(g * k, g * k) - S_experts.T @ S_experts
    bread = np.block([[gate, cross], [cross.T, experts]]) / n
    meat = S.T @ S / n
    bread = 0.5 * (bread + bread.T)
    cond = float(np.linalg.cond(bread))
    try:
        binv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise InferenceError(
            f"bread matrix is singular (condition number {cond:.3e}); "
            "the fitted root may be non-isolated"
        ) from None
    cov = binv @ meat @ binv / data.n
    cov = 0.5 * (cov + cov.T)
    return SandwichCovariance(bread=bread, meat=meat, cov=cov,
                              labels=param_labels(theta), condition=cond)


def standard_errors(cov: np.ndarray) -> np.ndarray:
    """Root diagonal of covariance ``cov``; rounding below zero reads 0."""
    return np.sqrt(np.maximum(np.diag(cov), 0.0))


def mean_ci_rows(X: np.ndarray, theta: MoeParams, cov: np.ndarray,
                 level: float = 0.95):
    """Delta-method confidence intervals for the mean function at every row
    of ``X``; returns (mean, lower, upper), each (n,).

    For the mean m = sum_z pi_z mu_z, dm/d(gating row z) is
    pi_z (mu_z - m) x-tilde and dm/d(beta_z) is pi_z times the expert design
    row; m does not depend on sigma2.
    """
    if theta.family != "gaussian":
        raise InferenceError("mean intervals require gaussian experts")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    gates, mu, m = gate_means(X, theta)
    Dt = add_intercept(theta.design.matrix(X))
    dgate = (gates * (mu - m[:, None]))[:, :-1, None] * add_intercept(X)[:, None, :]
    dbeta = np.pad(gates[:, :, None] * Dt[:, None, :], ((0, 0), (0, 0), (0, 1)))
    grad = np.concatenate(
        [a.reshape(n, a.shape[1] * a.shape[2]) for a in (dgate, dbeta)], axis=1)
    var = np.einsum("ni,ij,nj->n", grad, cov, grad)
    half = NormalDist().inv_cdf(0.5 * (1.0 + level)) * np.sqrt(np.maximum(var, 0.0))
    return m, m - half, m + half


def mean_ci(x: np.ndarray, theta: MoeParams, cov: np.ndarray,
            level: float = 0.95) -> tuple[float, float]:
    """Delta-method confidence interval for the mean function at ``x``."""
    _, lo, hi = mean_ci_rows(np.atleast_2d(x), theta, cov, level)
    return float(lo[0]), float(hi[0])
