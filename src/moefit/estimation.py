"""Blockwise minorization-maximization fitting of MoE models.

One outer cycle sweeps the g-1 gating blocks and then the joint expert block.
Responsibilities are recomputed at the current iterate before every block
update, so each surrogate is anchored at the immediately preceding iterate and
the log-quasi-likelihood never decreases.  Gating blocks use the quadratic
curvature-bound update; gaussian expert blocks have closed-form weighted
least-squares solutions; GLM expert blocks use ascent-guarded Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs

from .model import (
    Dataset,
    ExpertDesign,
    ExpertFamily,
    MoeParams,
    add_intercept,
    check_compatible,
    expert_family,
    expert_log_density_matrix,
    gate_log_probs,
    kron_gram,
    log_quasi_likelihood,
    logsumexp,
    responsibilities,
)

STARVATION_FACTOR = 1e-12
# gaussian variances are floored at this fraction of the response variance
VARIANCE_FLOOR_FACTOR = 1e-10
GLM_COEF_CAP = 30.0
# hybrid gating acceleration: every outer cycle sweeps the gating blocks
# GATING_ROUNDS times, and each curvature-bound step is lengthened by doubling,
# up to GATING_STEP_CAP times, while it still improves the objective (factor 1
# is always the plain curvature-bound step)
GATING_ROUNDS = 3
GATING_STEP_CAP = 64.0


class EstimationError(RuntimeError):
    """Base class for fit failures."""


class RankDeficientError(EstimationError):
    """Singular design or weighted Gram matrix (constant/collinear columns)."""


class EmptyComponentError(EstimationError):
    """A component's total responsibility fell below the starvation threshold."""


class InfeasibleInitError(EstimationError):
    """Too few observations to initialize the requested number of components."""


@dataclass
class FitConfig:
    max_cycles: int = 1000
    rel_tol: float = 1e-8
    n_starts: int = 10
    seed: int = 0
    irls_max_inner: int = 25

    def __post_init__(self):
        if self.max_cycles < 1 or self.n_starts < 1:
            raise ValueError("max_cycles and n_starts must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass
class FitResult:
    theta: MoeParams
    q_trace: np.ndarray
    cycles_used: int
    converged: bool
    degenerate: bool
    seed_used: int

    @property
    def q_hat(self) -> float:
        return float(self.q_trace[-1])


def _psd_solver(A: np.ndarray, what: str):
    """Cholesky-factor A once; returns a function that solves A x = b."""
    try:
        c, lower = cho_factor(A)
    except np.linalg.LinAlgError:
        raise RankDeficientError(
            f"singular {what}: constant or collinear covariate columns"
        ) from None
    potrs, = get_lapack_funcs(("potrs",), (c,))
    return lambda b: potrs(c, b, lower=lower)[0]


def gating_gram(data: Dataset) -> np.ndarray:
    """H = sum of x-tilde outer products over the sample."""
    Xt = add_intercept(data.X)
    return Xt.T @ Xt


def _gating_direction(Xt: np.ndarray, solve_H, tau_z: np.ndarray,
                      gate_z: np.ndarray) -> np.ndarray:
    """Curvature-bound ascent direction of one gating block,
    4 H^-1 X-tilde^T (tau_z - pi_z), with ``solve_H`` applying H^-1."""
    return 4.0 * solve_H(Xt.T @ (tau_z - gate_z))


def gating_block_update(data: Dataset, theta: MoeParams, z: int,
                        H: np.ndarray | None = None,
                        tau: np.ndarray | None = None) -> np.ndarray:
    """Curvature-bound update of gating block z (0-based, z < g-1)."""
    if not 0 <= z < theta.g - 1:
        raise ValueError("gating block index must lie in [0, g-1)")
    solve_H = _psd_solver(gating_gram(data) if H is None else H,
                          "gating design Gram matrix")
    if tau is None:
        tau = responsibilities(data, theta)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    return theta.gating[z] + _gating_direction(add_intercept(data.X), solve_H,
                                               tau[:, z], gates[:, z])


def gating_surrogate_value(data: Dataset, theta: MoeParams, z: int,
                           alpha: np.ndarray) -> float:
    """Value of the quadratic block-z surrogate at gating row ``alpha``.

    Equals the log-quasi-likelihood when alpha is the current block (anchor)
    and lies below it elsewhere; used by the minorization test suite.
    """
    Xt = add_intercept(data.X)
    H = Xt.T @ Xt
    tau = responsibilities(data, theta)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    grad = Xt.T @ (tau[:, z] - gates[:, z])
    d = np.asarray(alpha, dtype=float) - theta.gating[z]
    return log_quasi_likelihood(data, theta) + d @ grad - 0.125 * d @ H @ d


def gating_curvature_hessian(data: Dataset, theta: MoeParams, z: int) -> np.ndarray:
    """Exact Hessian of the gating surrogate's smooth part at block z."""
    Xt = add_intercept(data.X)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    a = gates[:, z] * (1.0 - gates[:, z])
    return -(Xt * a[:, None]).T @ Xt


def variance_floor(data: Dataset) -> float:
    v = float(np.var(data.y.astype(float)))
    return VARIANCE_FLOOR_FACTOR * max(v, np.finfo(float).tiny)


def _check_starvation(tau: np.ndarray, n: int) -> None:
    col = tau.sum(axis=0)
    starved = np.where(col < n * STARVATION_FACTOR)[0]
    if starved.size:
        raise EmptyComponentError(
            f"component(s) {(starved + 1).tolist()} starved "
            f"(total responsibility below {n * STARVATION_FACTOR:.3e})"
        )


def gaussian_expert_block_update(data: Dataset, theta: MoeParams,
                                 floor: float,
                                 tau: np.ndarray | None = None):
    """Closed-form weighted LS update of all gaussian expert blocks.

    Returns (beta, sigma2, floored) where ``floored`` marks variance-floored
    components.
    """
    if theta.family != "gaussian":
        raise EstimationError("gaussian update requires gaussian experts")
    if tau is None:
        tau = responsibilities(data, theta)
    _check_starvation(tau, data.n)
    Dt = add_intercept(theta.design.matrix(data.X))
    y = data.y
    beta = np.empty_like(theta.beta)
    sigma2 = np.empty(theta.g)
    for z in range(theta.g):
        w = tau[:, z]
        G = (Dt * w[:, None]).T @ Dt
        b = Dt.T @ (w * y)
        beta[z] = _psd_solver(G, f"weighted Gram matrix of component {z + 1}")(b)
        resid = y - Dt @ beta[z]
        sigma2[z] = w @ resid ** 2 / w.sum()
    floored = sigma2 < floor
    return beta, np.where(floored, floor, sigma2), floored


class _GlmData(NamedTuple):
    """Design and response shared by a batch of weighted GLM expert fits.

    ``DtT`` is the transposed design, so expert scores come out as (b, n), or
    (b, K, n) for multinomial experts, and every reduction over classes or
    components runs across whole contiguous rows.
    """

    fam: ExpertFamily
    Dt: np.ndarray
    DtT: np.ndarray
    y: np.ndarray
    target: np.ndarray  # the response on the scale of the family's mean

    @classmethod
    def build(cls, family: str, Dt: np.ndarray, y: np.ndarray,
              K: int | None) -> "_GlmData":
        fam = expert_family(family)
        return cls(fam, Dt, np.ascontiguousarray(Dt.T), y, fam.target(y, K))


def _glm_ll(glm: _GlmData, W: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Weighted log-likelihoods of a batch of GLM experts, shape (b,).

    ``W`` holds one weight row per expert, (b, n); ``beta`` is (b, d+1), or
    (b, K, d+1) for multinomial experts with class K pinned at zero.
    """
    return np.einsum("bn,bn->b", W, glm.fam.log_density(beta @ glm.DtT, glm.y, None))


def _glm_grad_hess(glm: _GlmData, W: np.ndarray, beta: np.ndarray):
    """Gradients (b, m) and Hessians (b, m, m) of a batch of weighted expert
    log-likelihoods, m being the number of free coefficients per expert."""
    b, n = W.shape
    mu = glm.fam.mean(beta @ glm.DtT)
    resid = glm.fam.free_coefs(glm.target - mu)  # (b, free classes, n)
    grad = (W[:, None, :] * resid).reshape(-1, n) @ glm.Dt
    return grad.reshape(b, -1), -kron_gram(W, glm.fam.mean_cov(mu), glm.Dt)


def _newton_directions(A: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve A[i] x = grad[i] for the whole batch; singular rows give NaN."""
    try:
        return np.linalg.solve(A, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full_like(grad, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], grad[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _weighted_glm_fit(glm: _GlmData, W: np.ndarray, beta0: np.ndarray,
                      max_inner: int):
    """Newton steps with step-halving on a batch of weighted expert
    log-likelihoods, one expert per row of ``W`` and ``beta0``.

    The experts are independent: each Newton iteration solves all of them in
    one batched solve, and step-halving accepts or halves each one on its own
    log-likelihood.  An expert stops once its gradient vanishes, its step is
    not finite, or no halved step improves it.  Returns (beta, capped) where
    ``capped`` (b,) marks experts clipped at the separation cap on the
    linear-predictor scale.
    """
    beta = beta0.copy()
    ll = _glm_ll(glm, W, beta)
    active = np.ones(len(beta), dtype=bool)
    for _ in range(max_inner):
        idx = np.flatnonzero(active)
        grad, hess = _glm_grad_hess(glm, W[idx], beta[idx])
        moving = np.abs(grad).max(axis=1) >= 1e-9 * (1.0 + np.abs(ll[idx]))
        active[idx[~moving]] = False
        idx, grad, hess = idx[moving], grad[moving], hess[moving]
        delta = _newton_directions(-hess + 1e-10 * np.eye(hess.shape[1]), grad)
        finite = np.all(np.isfinite(delta), axis=1)
        active[idx[~finite]] = False
        idx, delta = idx[finite], delta[finite]
        if not idx.size:
            break
        delta = delta.reshape(len(idx), -1, glm.Dt.shape[1])  # per free class
        improved = np.zeros(len(idx), dtype=bool)
        pending = np.arange(len(idx))
        step = 1.0
        for _ in range(30):
            if not pending.size:
                break
            rows = idx[pending]
            cand = beta[rows]
            free = glm.fam.free_coefs(cand)
            free += step * delta[pending]
            ll_new = _glm_ll(glm, W[rows], cand)
            ll_old = ll[rows]
            ok = np.isfinite(ll_new) & (
                ll_new >= ll_old - 1e-12 * (1.0 + np.abs(ll_old)))
            improved[pending[ok]] = ll_new[ok] > ll_old[ok]
            beta[rows[ok]] = cand[ok]
            ll[rows[ok]] = ll_new[ok]
            pending = pending[~ok]
            step *= 0.5
        active[idx[~improved]] = False
        if not active.any():
            break
    capped = np.zeros(len(beta), dtype=bool)
    if glm.fam.separable:
        capped = np.abs(beta).reshape(len(beta), -1).max(axis=1) > GLM_COEF_CAP
        c = np.flatnonzero(capped)
        if c.size:
            # clipping keeps a pinned zero class at zero
            clipped = np.clip(beta[c], -GLM_COEF_CAP, GLM_COEF_CAP)
            # keep a clipped solution only if it still improves on the start
            keep = _glm_ll(glm, W[c], clipped) >= _glm_ll(glm, W[c], beta0[c])
            keep = keep.reshape((-1,) + (1,) * (beta.ndim - 1))
            beta[c] = np.where(keep, clipped, beta0[c])
    return beta, capped


def glm_expert_block_update(data: Dataset, theta: MoeParams,
                            config: FitConfig,
                            tau: np.ndarray | None = None):
    """Update all GLM expert blocks; returns (beta, any_capped)."""
    if theta.family == "gaussian":
        raise EstimationError("use gaussian_expert_block_update for gaussian experts")
    if tau is None:
        tau = responsibilities(data, theta)
    _check_starvation(tau, data.n)
    glm = _GlmData.build(theta.family, add_intercept(theta.design.matrix(data.X)),
                         data.y, theta.K)
    beta, capped = _weighted_glm_fit(glm, np.ascontiguousarray(tau.T),
                                     theta.beta, config.irls_max_inner)
    return beta, bool(capped.any())


def _joint(S: np.ndarray, L: np.ndarray):
    """Joint scores, responsibilities and objective value from gating scores
    and cached expert log densities, all laid out (g, n); returns
    (J, tau, q)."""
    J = S + L
    lse_joint = logsumexp(J)
    q = float(np.sum(lse_joint - logsumexp(S)))
    return J, np.exp(J - lse_joint), q


def fit(data: Dataset, init: MoeParams, config: FitConfig | None = None,
        seed_used: int = 0) -> FitResult:
    """Run the blockwise-MM algorithm from ``init`` until convergence.

    Expert parameters are fixed during the gating sweep, so the expert
    log-density matrix is computed once per cycle and every gating update and
    objective evaluation in the sweep reuses it.  Gating scores, expert log
    densities and their sum are held component-major, (g, n), so every
    log-sum-exp over components reduces across whole rows; the constant
    gating Gram matrix is factored once.  Each gating block step follows the
    curvature-bound direction, and its length is doubled as long as the
    objective keeps improving, which cuts cycle counts sharply while
    preserving monotone ascent.
    """
    config = config or FitConfig()
    check_compatible(data, init)
    theta = init.copy()
    g = theta.g
    # the gating Gram matrix is constant, so it is factored once per fit
    solve_H = (_psd_solver(gating_gram(data), "gating design Gram matrix")
               if g > 1 else None)
    gaussian = theta.family == "gaussian"
    floor = variance_floor(data) if gaussian else 0.0
    Xt = add_intercept(data.X)
    L = np.ascontiguousarray(expert_log_density_matrix(data, theta).T)
    S = np.ascontiguousarray((Xt @ theta.gating.T).T)
    J, tau, q = _joint(S, L)
    others = [np.delete(np.arange(g), z) for z in range(g - 1)]
    step_factor = np.ones(max(g - 1, 1))
    trial = np.empty(data.n)
    den = np.empty(data.n)
    trace = [q]
    converged = False
    degenerate = False
    cycle = 0
    for cycle in range(1, config.max_cycles + 1):
        try:
            q_cur = q
            for _ in range(GATING_ROUNDS if g > 1 else 0):
                for z in range(g - 1):
                    # only row z of the gating scores moves during this
                    # block update, so log-sum-exp over the other rows is
                    # fixed and each trial step costs two logaddexp passes
                    rest_s = logsumexp(S[others[z]])
                    rest_j = logsumexp(J[others[z]])
                    row0 = S[z].copy()
                    lse_s = np.logaddexp(rest_s, row0)
                    lse_j = np.logaddexp(rest_j, J[z])
                    q_cur = float(np.sum(lse_j - lse_s))
                    tau_z = np.exp(J[z] - lse_j)
                    gate_z = np.exp(row0 - lse_s)
                    direction = _gating_direction(Xt, solve_H, tau_z, gate_z)
                    drow = Xt @ direction
                    Lz = L[z]

                    def q_at(f):
                        np.add(row0, f * drow, out=trial)
                        np.logaddexp(rest_s, trial, out=den)
                        np.add(trial, Lz, out=trial)
                        np.logaddexp(rest_j, trial, out=trial)
                        np.subtract(trial, den, out=trial)
                        return float(trial.sum())

                    # start from the step length this block last accepted,
                    # shrinking toward the plain curvature-bound step (factor
                    # 1) whenever the longer step no longer improves
                    factor = step_factor[z]
                    q_new = q_at(factor)
                    while factor > 1.0 and not (
                            np.isfinite(q_new) and q_new > q_cur):
                        factor /= 2.0
                        q_new = q_at(factor)
                    if not np.isfinite(q_new) or q_new < q_cur - 1e-10 * (1.0 + abs(q_cur)):
                        # guard: never lose ground on the objective
                        step_factor[z] = 1.0
                        continue
                    while factor < GATING_STEP_CAP:
                        q_try = q_at(2.0 * factor)
                        if not np.isfinite(q_try) or q_try <= q_new:
                            break
                        factor *= 2.0
                        q_new = q_try
                    step_factor[z] = factor
                    S[z] = row0 + factor * drow
                    J[z] = S[z] + Lz
                    theta.gating[z] = theta.gating[z] + factor * direction
                    q_cur = q_new
            if g > 1:
                _, tau, q_cur = _joint(S, L)
            old_beta, old_L = theta.beta, L
            if gaussian:
                theta.beta, theta.sigma2, floored = gaussian_expert_block_update(
                    data, theta, floor, tau=tau.T)
                degenerate = bool(floored.any())
            else:
                theta.beta, _ = glm_expert_block_update(data, theta, config, tau=tau.T)
            L = np.ascontiguousarray(expert_log_density_matrix(data, theta).T)
            J, tau, q_new = _joint(S, L)
            # ascent guard: a capped/aborted GLM inner solve must not lose ground
            if not gaussian and q_new < q_cur - 1e-10 * (1.0 + abs(q_cur)):
                theta.beta, L = old_beta, old_L
                J, tau, q_new = _joint(S, L)
        except EstimationError as err:
            raise type(err)(f"cycle {cycle}: {err}") from err
        trace.append(q_new)
        if abs(q_new - q) <= config.rel_tol * (1.0 + abs(q)):
            converged = True
            q = q_new
            break
        q = q_new
    return FitResult(
        theta=theta,
        q_trace=np.asarray(trace),
        cycles_used=cycle,
        converged=converged,
        degenerate=degenerate,
        seed_used=seed_used,
    )


def _random_hard_partition(data: Dataset, g: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Random seeded hard partition of rows into g nonempty groups.

    g random rows seed a short k-means pass over the standardized (x, y)
    rows, so groups follow the joint geometry of covariates and response
    (separated regression lines land in separate groups; 1-D sorted inputs
    yield near-contiguous segments).  Emptied groups are reseeded with the
    row farthest from its current center, which keeps every group nonempty.
    """
    n = data.n
    if g == 1:
        return np.zeros(n, dtype=int)
    Z = np.column_stack([data.X, data.y.astype(float)])
    sd = Z.std(axis=0)
    Z = (Z - Z.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    centers = Z[rng.choice(n, size=g, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(6):
        d2 = ((Z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        for z in range(g):
            members = labels == z
            if not members.any():
                far = int(np.argmax(d2[np.arange(n), labels]))
                labels[far] = z
                centers[z] = Z[far]
            else:
                centers[z] = Z[members].mean(axis=0)
    return labels


def initialize(data: Dataset, g: int, family: str, design: ExpertDesign,
               seed: int, config: FitConfig | None = None) -> MoeParams:
    """Seeded initialization from a random hard partition of the rows.

    Each expert is fit to its partition group with hard weights and the
    gating starts uniform (all zeros).  g=1 is deterministic.
    """
    config = config or FitConfig()
    d = design.width(data.p)
    if data.n < g * (d + 1):
        raise InfeasibleInitError(
            f"need at least {g * (d + 1)} rows to initialize g={g}, have {data.n}"
        )
    rng = np.random.default_rng(seed)
    labels = _random_hard_partition(data, g, rng)
    Dt = add_intercept(design.matrix(data.X))
    K = data.K if expert_family(family).multiclass else None
    beta = np.zeros((g, d + 1) if K is None else (g, K, d + 1))
    sigma2 = None
    # hard 0/1 weights: every expert is fit to its own group
    W = (labels[None, :] == np.arange(g)[:, None]).astype(float)
    if family != "gaussian":
        # all GLM experts at once
        glm = _GlmData.build(family, Dt, data.y, K)
        beta, _ = _weighted_glm_fit(glm, W, beta, config.irls_max_inner)
    else:
        floor = variance_floor(data)
        sigma2 = np.ones(g)
        for z, w in enumerate(W):
            G = (Dt * w[:, None]).T @ Dt
            b = Dt.T @ (w * data.y)
            try:
                beta[z] = _psd_solver(G, "initialization Gram matrix")(b)
            except RankDeficientError:
                beta[z] = _psd_solver(G + 1e-8 * np.eye(d + 1), "ridged init Gram")(b)
            members = labels == z
            resid = data.y[members] - Dt[members] @ beta[z]
            sigma2[z] = max(float(np.mean(resid ** 2)), floor)
    gating = np.zeros((g, data.p + 1))
    return MoeParams(family=family, gating=gating, beta=beta, design=design,
                     sigma2=sigma2, K=K)


def multi_start_fit(data: Dataset, g: int, family: str,
                    design: ExpertDesign | None = None,
                    config: FitConfig | None = None,
                    n_threads: int = 1) -> FitResult:
    """Best-of-n_starts fit; seeds are config.seed, config.seed+1, ...

    The winner has the largest final log-quasi-likelihood, ties broken toward
    the lowest start index; the merge is deterministic regardless of how many
    threads ran the starts.
    """
    config = config or FitConfig()
    design = design or ExpertDesign()

    def run(k: int) -> FitResult | str:
        """Start k's fit, or the reason it failed."""
        seed_k = config.seed + k
        try:
            init = initialize(data, g, family, design, seed_k, config)
            return fit(data, init, config, seed_used=seed_k)
        except EstimationError as err:
            return f"start {k} (seed {seed_k}): {err}"

    if n_threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            outcomes = list(pool.map(run, range(config.n_starts)))
    else:
        outcomes = [run(k) for k in range(config.n_starts)]
    results = [(k, r) for k, r in enumerate(outcomes) if isinstance(r, FitResult)]
    failures = [r for r in outcomes if isinstance(r, str)]
    if not results:
        raise EstimationError("all starts failed:\n  " + "\n  ".join(failures))
    _, best = max(results, key=lambda kr: (kr[1].q_hat, -kr[0]))
    return best
