"""Score vectors, sandwich covariance, and delta-method mean intervals.

Per-observation scores are analytic.  The bread (average per-row Hessian) is
obtained by central finite differences of the analytic total score, which
keeps the meat exact while avoiding hand-derived Hessians for four expert
families.  Parameter ordering everywhere follows the serialized layout:
gating blocks 1..g-1, then expert blocks 1..g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .model import (
    Dataset,
    MoeParams,
    add_intercept,
    check_compatible,
    expert_family,
    gate_log_probs,
    responsibilities,
)
from .tasks import predict_mean

HESSIAN_FD_STEP = 1e-5


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


def score_matrix(data: Dataset, theta: MoeParams) -> np.ndarray:
    """Analytic per-row gradients of the mixture log density, shape (n, dim).

    The gating block z scores (tau_z - pi_z) x-tilde.  Every expert's
    coefficients score tau_z (y - mu_z) times the expert design row, mu_z
    being the family's mean (per free class for multinomial experts, and
    divided by sigma2 for gaussian experts).
    """
    check_compatible(data, theta)
    fam = expert_family(theta.family)
    n, g = data.n, theta.g
    tau = responsibilities(data, theta)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    Xt = add_intercept(data.X)
    Dt = add_intercept(theta.design.matrix(data.X))
    gating = ((tau - gates)[:, :-1, None] * Xt[:, None, :]).reshape(n, -1)
    resid = fam.target(data.y, theta.K) - fam.mean(theta.beta @ Dt.T)
    E = tau.T[:, None, :] * fam.free_coefs(resid)  # (g, free classes, n)
    sigma2_scores = []
    if fam.dispersion:
        s2 = theta.sigma2[:, None]
        E = E / s2[:, None]
        sigma2_scores = [(tau.T * (resid ** 2 / (2.0 * s2 ** 2) - 0.5 / s2)).T[:, :, None]]
    coef_scores = (E[..., None] * Dt).transpose(2, 0, 1, 3).reshape(n, g, -1)
    experts = np.concatenate([coef_scores] + sigma2_scores, axis=2)
    return np.concatenate([gating, experts.reshape(n, -1)], axis=1)


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


def _total_score(data: Dataset, theta: MoeParams, vec: np.ndarray) -> np.ndarray:
    return score_matrix(data, unflatten_params(theta, vec)).sum(axis=0)


def sandwich_covariance(data: Dataset, theta: MoeParams) -> SandwichCovariance:
    """Bread-inverse meat bread-inverse covariance of the fitted parameters."""
    vec = flatten_params(theta)
    dim = vec.size
    S = score_matrix(data, theta)
    meat = S.T @ S / data.n
    bread = np.empty((dim, dim))
    for j in range(dim):
        h = HESSIAN_FD_STEP * (1.0 + abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        bread[:, j] = (_total_score(data, theta, up) - _total_score(data, theta, dn)) / (2.0 * h)
    bread = 0.5 * (bread + bread.T) / data.n
    try:
        binv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(bread)
        raise InferenceError(
            f"bread matrix is singular (condition number {cond:.3e}); "
            "the fitted root may be non-isolated"
        ) from None
    cov = binv @ meat @ binv / data.n
    cov = 0.5 * (cov + cov.T)
    return SandwichCovariance(bread=bread, meat=meat, cov=cov,
                              labels=param_labels(theta))


def standard_errors(sw: SandwichCovariance) -> np.ndarray:
    return np.sqrt(np.maximum(np.diag(sw.cov), 0.0))


def mean_ci(x: np.ndarray, theta: MoeParams, cov: np.ndarray,
            level: float = 0.95) -> tuple[float, float]:
    """Delta-method confidence interval for the mean function at ``x``."""
    if theta.family != "gaussian":
        raise InferenceError("mean intervals require gaussian experts")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    vec = flatten_params(theta)
    grad = np.empty(vec.size)
    for j in range(vec.size):
        h = 1e-6 * (1.0 + abs(vec[j]))
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (predict_mean(x, unflatten_params(theta, up))
                   - predict_mean(x, unflatten_params(theta, dn))) / (2.0 * h)
    m = predict_mean(x, theta)
    var = float(grad @ cov @ grad)
    half = norm.ppf(0.5 * (1.0 + level)) * np.sqrt(max(var, 0.0))
    return m - half, m + half
