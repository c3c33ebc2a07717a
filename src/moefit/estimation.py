"""Blockwise minorization-maximization fitting of MoE models.

One outer cycle updates the g-1 free gating rows and then the joint expert
block, recomputing responsibilities at the current iterate before every block
update, so the log-quasi-likelihood never decreases.  GLM fits sweep the
gating rows with the quadratic curvature-bound update, gaussian fits take one
guarded Newton gate step; gaussian expert blocks are closed-form weighted
least squares, GLM expert blocks ascent-guarded Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Dataset,
    ExpertDesign,
    ExpertFamily,
    MoeParams,
    add_intercept,
    canonical_order,
    check_compatible,
    expert_family,
    expert_log_density_matrix,
    free_class_cov,
    gate_log_probs,
    joint_scores,
    kron_gram,
    log_quasi_likelihood,
    logsumexp,
    posterior,
)

STARVATION_FACTOR = 1e-12
# gaussian variances are floored at this fraction of the response variance
VARIANCE_FLOOR_FACTOR = 1e-10
GLM_COEF_CAP = 30.0
# every outer cycle of a GLM fit sweeps the gating blocks GATING_ROUNDS times,
# and _step_length lengthens each curvature-bound step up to GATING_STEP_CAP
# times; gaussian fits take a Newton gate step instead (see fit)
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
        if self.max_cycles < 1 or self.n_starts < 1 or self.irls_max_inner < 1:
            raise ValueError("max_cycles, n_starts and irls_max_inner must be >= 1")
        if not 0 < self.rel_tol < np.inf:
            raise ValueError("rel_tol must be positive and finite")


@dataclass
class FitResult:
    theta: MoeParams
    q_trace: np.ndarray
    cycles_used: int
    converged: bool
    degenerate: bool
    seed_used: int
    # "start k (seed s): reason" per failed start of multi_start_fit
    failed_starts: tuple[str, ...] = ()

    @property
    def q_hat(self) -> float:
        return float(self.q_trace[-1])


def _rank_deficient(what: str) -> RankDeficientError:
    return RankDeficientError(f"singular {what}: constant or collinear covariate columns")


def _cholesky_solve(A: np.ndarray, b: np.ndarray):
    """Solve A[i] x[i] = b[i] for a batch of symmetric positive-definite
    matrices A (k, m, m) by one batched Cholesky factorization, with vector
    (k, m) or matrix (k, m, r) right-hand sides b; returns (x, ok), where
    ``ok`` is False, and x NaN, for the matrices that are not positive
    definite.  This is the one linear solve of the fit."""
    ok = np.ones(len(A), dtype=bool)
    try:
        C = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        C = np.empty_like(A)
        for i, a in enumerate(A):
            try:
                C[i] = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                ok[i] = False
    x = np.full_like(b, np.nan)
    C = C[ok]
    rhs = b[ok] if b.ndim == 3 else b[ok, :, None]
    sol = np.linalg.solve(C.swapaxes(1, 2), np.linalg.solve(C, rhs))
    x[ok] = sol if b.ndim == 3 else sol[..., 0]
    return x, ok


def _weighted_least_squares(Dt: np.ndarray, y: np.ndarray, W: np.ndarray,
                            ridge: float = 0.0):
    """Weighted least squares of y on the design Dt, one fit per weight row
    of W (b, n), all at once.  Returns (beta (b, m), the weighted mean squared
    residuals (b,), ok (b,)); ``ok`` is False, and the fit NaN, where the
    weighted Gram matrix (plus ``ridge`` times the identity) is singular."""
    G = kron_gram(W, np.ones((1, 1, 1, 1)), Dt) + ridge * np.eye(Dt.shape[1])
    beta, ok = _cholesky_solve(G, (W * y) @ Dt)
    resid = y - beta @ Dt.T
    return beta, np.einsum("bn,bn->b", W, resid * resid) / W.sum(axis=1), ok


def gating_gram(data: Dataset) -> np.ndarray:
    """H = sum of x-tilde outer products over the sample."""
    Xt = add_intercept(data.X)
    return Xt.T @ Xt


def _gating_step_matrix(data: Dataset) -> np.ndarray:
    """M = 4 H^-1; the curvature-bound step of gating block z is
    M X-tilde^T (tau_z - pi_z)."""
    H = gating_gram(data)
    M, ok = _cholesky_solve(H[None], 4.0 * np.eye(len(H))[None])
    if not ok[0]:
        raise _rank_deficient("gating design Gram matrix")
    return M[0]


def _softplus(u: np.ndarray) -> np.ndarray:
    """log(1 + e^u) as max(u, 0) + log1p(e^-|u|).  It never overflows, and
    numpy's exp and log1p are vectorized where np.logaddexp loops over
    scalars."""
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def gating_line(JS: np.ndarray, z: int, others: np.ndarray):
    """Q_n along the step of gating row z, from log-odds.

    ``JS`` stacks the joint scores J = S + L and the gating scores S,
    shape (2, g, n); ``others`` lists the rows other than z.  With rest_j and
    rest_s the log-sum-exp of the other rows of J and S, rho = rest - row z
    are the log-odds of "not z" under the joint and under the gate.  Moving
    row z by x changes Q_n by sum softplus(rho_j - x) - sum softplus(rho_s - x),
    minus the same sum at x = 0, and tau_z and pi_z are exp(-softplus(rho)).
    Returns (tau_z - pi_z, gain), where gain(step, drow) is the change in Q_n
    when row z moves by step * drow.
    """
    if len(others) == 1:
        # the one other row is its own log-sum-exp, exactly
        rho = JS[:, others[0]] - JS[:, z]
    else:
        rho = logsumexp(JS[:, others], axis=1) - JS[:, z]

    def net(sp: np.ndarray) -> float:
        """sum softplus(rho_j - x) - sum softplus(rho_s - x)"""
        s = sp.sum(axis=1)
        return float(s[0] - s[1])

    sp = _softplus(rho)
    base = net(sp)
    p = np.exp(-sp)
    return p[0] - p[1], lambda step, drow: net(_softplus(rho - drow * step)) - base


def _step_length(gain, factor: float, tol: float):
    """The gating step-length rule: from the last accepted ``factor``, halve
    toward the plain curvature-bound step (factor 1) while ``gain(factor)``
    is not positive; reject the step (factor 0) if it loses more than
    ``tol``; then double, up to GATING_STEP_CAP, while Q_n still rises.
    Returns (factor, gain at factor)."""
    value = gain(factor)
    while factor > 1.0 and not (np.isfinite(value) and value > 0.0):
        factor /= 2.0
        value = gain(factor)
    if not np.isfinite(value) or value < -tol:
        # guard: never lose ground on the objective
        return 0.0, value
    while factor < GATING_STEP_CAP:
        trial = gain(2.0 * factor)
        if not np.isfinite(trial) or trial <= value:
            break
        factor, value = 2.0 * factor, trial
    return factor, value


def gating_block_update(data: Dataset, theta: MoeParams, z: int) -> np.ndarray:
    """Curvature-bound update of gating block z (0-based, z < g-1): the
    step that a GLM ``fit``'s sweep takes from ``theta`` at step factor 1."""
    if not 0 <= z < theta.g - 1:
        raise ValueError("gating block index must lie in [0, g-1)")
    JS, _ = joint_scores(data, theta)
    resid, _ = gating_line(JS, z, np.delete(np.arange(theta.g), z))
    return theta.gating[z] + _gating_step_matrix(data) @ (add_intercept(data.X).T @ resid)


def gating_surrogate_value(data: Dataset, theta: MoeParams, z: int,
                           alpha: np.ndarray) -> float:
    """Value of the quadratic block-z surrogate at gating row ``alpha``.

    Equals the log-quasi-likelihood when alpha is the current block (anchor)
    and lies below it elsewhere; used by the minorization test suite.
    """
    JS, _ = joint_scores(data, theta)
    resid, _ = gating_line(JS, z, np.delete(np.arange(theta.g), z))
    grad = add_intercept(data.X).T @ resid
    d = np.asarray(alpha, dtype=float) - theta.gating[z]
    return log_quasi_likelihood(data, theta) + d @ grad - 0.125 * d @ gating_gram(data) @ d


def gating_curvature_hessian(data: Dataset, theta: MoeParams, z: int) -> np.ndarray:
    """Exact Hessian of the gating surrogate's smooth part at block z."""
    Xt = add_intercept(data.X)
    gates = np.exp(gate_log_probs(data.X, theta.gating))
    a = gates[:, z] * (1.0 - gates[:, z])
    return -(Xt * a[:, None]).T @ Xt


def variance_floor(data: Dataset) -> float:
    # np.var's sums, bit for bit, without its call overhead (read every cycle)
    dev = data.y - np.add.reduce(data.y) / data.n
    v = float(np.add.reduce(dev * dev)) / data.n
    return VARIANCE_FLOOR_FACTOR * max(v, np.finfo(float).tiny)


def _check_starvation(W: np.ndarray, n: int) -> None:
    col = W.sum(axis=1)
    starved = np.where(col < n * STARVATION_FACTOR)[0]
    if starved.size:
        raise EmptyComponentError(
            f"component(s) {(starved + 1).tolist()} starved "
            f"(total responsibility below {n * STARVATION_FACTOR:.3e})"
        )


def gaussian_expert_block_update(data: Dataset, theta: MoeParams, W: np.ndarray,
                                 config: FitConfig | None = None):
    """Closed-form weighted LS update of all gaussian expert blocks, with the
    component-major weights ``W`` (g, n); the exact update needs no config.

    Returns (beta, sigma2, floored) where ``floored`` marks the components
    whose variance was raised to ``variance_floor(data)``.
    """
    _check_starvation(W, data.n)
    Dt = add_intercept(theta.design.matrix(data.X))
    beta, sigma2, ok = _weighted_least_squares(Dt, data.y, W)
    if not ok.all():
        z = int(np.flatnonzero(~ok)[0])
        raise _rank_deficient(f"weighted Gram matrix of component {z + 1}")
    floor = variance_floor(data)
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


def _weighted_glm_fit(glm: _GlmData, W: np.ndarray, beta0: np.ndarray,
                      max_inner: int):
    """Newton steps with step-halving on a batch of weighted expert
    log-likelihoods, one expert per row of ``W`` and ``beta0``.

    The experts are independent, and boolean masks track which still move.
    Each Newton iteration solves the whole batch in one batched solve; an
    expert stops once its gradient vanishes, its step is not finite, or no
    halved step improves it.  Step-halving prices each trial on the whole
    batch and accepts a ``pending`` expert on its own log-likelihood.
    Returns (beta, capped) where ``capped`` (b,) marks experts clipped at the
    separation cap on the linear-predictor scale.
    """
    beta = beta0.copy()
    ll = _glm_ll(glm, W, beta)
    active = np.ones(len(beta), dtype=bool)
    for _ in range(max_inner):
        grad, hess = _glm_grad_hess(glm, W, beta)
        # a system that is not positive definite gives a NaN step, which
        # stops only its own expert
        delta, _ = _cholesky_solve(-hess + 1e-10 * np.eye(hess.shape[1]), grad)
        active &= np.abs(grad).max(axis=1) >= 1e-9 * (1.0 + np.abs(ll))
        active &= np.all(np.isfinite(delta), axis=1)
        delta = delta.reshape(len(beta), -1, glm.Dt.shape[1])  # per free class
        improved = np.zeros_like(active)
        pending = active.copy()
        for step in 0.5 ** np.arange(30.0):
            if not pending.any():
                break
            cand = beta.copy()
            glm.fam.free_coefs(cand)[...] += step * delta
            # a trial step may overflow a poisson mean; np.isfinite below
            # rejects it
            with np.errstate(over="ignore"):
                ll_new = _glm_ll(glm, W, cand)
            ok = pending & np.isfinite(ll_new) & (
                ll_new >= ll - 1e-12 * (1.0 + np.abs(ll)))
            improved |= ok & (ll_new > ll)
            beta[ok], ll[ok] = cand[ok], ll_new[ok]
            pending &= ~ok
        active &= improved
        if not active.any():
            break
    capped = glm.fam.separable & (
        np.abs(beta).reshape(len(beta), -1).max(axis=1) > GLM_COEF_CAP)
    if capped.any():
        # clipping keeps a pinned zero class at zero
        clipped = np.clip(beta[capped], -GLM_COEF_CAP, GLM_COEF_CAP)
        # keep a clipped solution only if it still improves on the start
        keep = _glm_ll(glm, W[capped], clipped) >= _glm_ll(glm, W[capped], beta0[capped])
        keep = keep.reshape((-1,) + (1,) * (beta.ndim - 1))
        beta[capped] = np.where(keep, clipped, beta0[capped])
    return beta, capped


def glm_expert_block_update(data: Dataset, theta: MoeParams, W: np.ndarray,
                            config: FitConfig | None = None):
    """Newton update (``config.irls_max_inner`` steps at most) of all GLM
    expert blocks, with the component-major weights ``W`` (g, n); returns
    (beta, None, capped), ``capped`` marking experts clipped at GLM_COEF_CAP."""
    _check_starvation(W, data.n)
    glm = _GlmData.build(theta.family, add_intercept(theta.design.matrix(data.X)),
                         data.y, theta.K)
    beta, capped = _weighted_glm_fit(glm, W, theta.beta,
                                     (config or FitConfig()).irls_max_inner)
    return beta, None, capped


def _joint(JS: np.ndarray, L: np.ndarray):
    """Refresh JS[0] = S + L from the gating scores JS[1] and the cached expert
    log densities L (g, n); returns the posterior kernel's tau and Q_n."""
    np.add(JS[1], L, out=JS[0])
    tau, rows = posterior(JS)
    return tau, float(np.sum(rows))


def _newton_gate(JS: np.ndarray, L: np.ndarray, tau: np.ndarray, q: float,
                 Xt: np.ndarray, gating: np.ndarray):
    """One guarded Newton step of the g-1 free ``gating`` rows at once on the
    gate's EM surrogate sum tau log pi (the IRLS gate of Jordan & Jacobs
    1994), moving ``gating`` and the gating scores JS[1] in place.  Trial
    steps 1, 1/2, ... are priced through ``_joint``; the first that loses at
    most the ascent guard's tolerance is kept.  If none is, or the Hessian is
    not positive definite, nothing moves.  Returns tau and Q_n after the step."""
    S = JS[1]
    pi = np.exp(S - logsumexp(S))
    grad = (tau - pi)[:-1] @ Xt
    hess = kron_gram(np.ones((1, len(Xt))), free_class_cov(pi[None]), Xt)
    step, ok = _cholesky_solve(hess, grad.reshape(1, -1))
    if ok[0]:
        delta = step.reshape(grad.shape)
        drow = delta @ Xt.T
        start = S[:-1].copy()
        for t in 0.5 ** np.arange(30.0):
            np.add(start, t * drow, out=S[:-1])
            tau_t, q_t = _joint(JS, L)
            if q_t >= q - 1e-10 * (1.0 + abs(q)):
                gating[:-1] += t * delta
                return tau_t, q_t
        S[:-1] = start
        np.add(S, L, out=JS[0])
    return tau, q


def fit(data: Dataset, init: MoeParams, config: FitConfig | None = None,
        seed_used: int = 0) -> FitResult:
    """Run the blockwise-MM algorithm from ``init`` until convergence.

    Expert parameters are fixed during the gating update, so the expert
    log-density matrix is computed once per cycle and reused by every gating
    trial, which moves the posterior kernel's scores ``JS`` in place.

    Gaussian fits take one guarded Newton step per cycle over all g-1 free
    gating rows (``_newton_gate``).  GLM fits sweep the gating rows
    GATING_ROUNDS times per cycle, standing in for their one-step Newton
    expert block: each row steps along its curvature-bound direction (the
    gating Gram matrix inverted once), ``gating_line`` prices trial steps from
    log-odds, and ``_step_length`` doubles the step while Q_n keeps rising.

    The family's expert block is looked up when ``fit`` runs, so a wrapper
    set on its module name sees every call; one ascent guard serves both.
    """
    config = config or FitConfig()
    check_compatible(data, init)
    theta = init.copy()
    g = theta.g
    # the GLM sweep's step matrix; building it checks the gating design's rank
    M = _gating_step_matrix(data) if g > 1 else None
    gaussian = theta.family == "gaussian"
    block = gaussian_expert_block_update if gaussian else glm_expert_block_update
    Xt = add_intercept(data.X)
    JS, L = joint_scores(data, theta)
    J, S = JS  # views: the joint and the gating scores
    tau, q = _joint(JS, L)
    others = [np.delete(np.arange(g), z) for z in range(g - 1)]
    step_factor = np.ones(g - 1)
    trace = [q]
    converged = False
    degenerate = False
    cycle = 0
    for cycle in range(1, config.max_cycles + 1):
        try:
            # the guard's tolerance scale; comparisons use exact step gains
            q_cur = q
            if not gaussian:
                for _ in range(GATING_ROUNDS):
                    for z in range(g - 1):
                        resid, gain = gating_line(JS, z, others[z])
                        direction = M @ (Xt.T @ resid)
                        drow = Xt @ direction
                        factor, value = _step_length(
                            lambda step: gain(step, drow), step_factor[z],
                            1e-10 * (1.0 + abs(q_cur)))
                        step_factor[z] = max(factor, 1.0)
                        if factor:
                            S[z] += factor * drow
                            np.add(S[z], L[z], out=J[z])
                            theta.gating[z] = theta.gating[z] + factor * direction
                            q_cur += value
                tau, q_cur = _joint(JS, L)
            elif g > 1:
                tau, q_cur = _newton_gate(JS, L, tau, q, Xt, theta.gating)
            old = theta.beta, theta.sigma2, L
            theta.beta, theta.sigma2, flagged = block(data, theta, tau, config)
            L = expert_log_density_matrix(data, theta)
            tau, q_new = _joint(JS, L)
            # ascent guard: a capped or stalled Newton solve must not lose ground
            if q_new < q_cur - 1e-10 * (1.0 + abs(q_cur)):
                theta.beta, theta.sigma2, L = old
                tau, q_new = _joint(JS, L)
            else:
                degenerate = gaussian and bool(flagged.any())
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


def _check_init_rows(data: Dataset, g: int, design: ExpertDesign) -> None:
    """Raise InfeasibleInitError when the data have too few rows to fit each
    of g experts to its own group, or when the expert design, or for g > 1
    the gating design, has dependent columns once the intercept is added."""
    need = g * (design.width(data.p) + 1)
    if data.n < need:
        raise InfeasibleInitError(
            f"need at least {need} rows to initialize g={g}, have {data.n}")
    for name, D in (("expert", design.matrix(data.X)), ("gating", data.X))[:1 + (g > 1)]:
        if np.linalg.matrix_rank(add_intercept(D)) <= D.shape[1]:
            raise InfeasibleInitError(f"{name} design is rank-deficient: "
                                      "constant or collinear covariate columns")


def initialize(data: Dataset, g: int, family: str, design: ExpertDesign,
               seed: int, config: FitConfig | None = None) -> MoeParams:
    """Seeded start: the expert block on a random hard partition of the rows.

    From uniform gating (all zeros), zero coefficients and unit variances,
    the family's expert block fits each expert to its own group.  If a
    gaussian group's Gram matrix is singular, every group gets a 1e-8 ridge
    instead.  g=1 is deterministic.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    _check_init_rows(data, g, design)
    fam = expert_family(family)
    K = data.K if fam.multiclass else None
    d = design.width(data.p)
    theta = MoeParams(family=family, gating=np.zeros((g, data.p + 1)),
                      beta=np.zeros((g, d + 1) if K is None else (g, K, d + 1)),
                      design=design, sigma2=np.ones(g) if fam.dispersion else None, K=K)
    labels = _random_hard_partition(data, g, np.random.default_rng(seed))
    W = (labels[None, :] == np.arange(g)[:, None]).astype(float)
    block = gaussian_expert_block_update if fam.dispersion else glm_expert_block_update
    try:
        theta.beta, theta.sigma2, _ = block(data, theta, W, config)
    except RankDeficientError:
        beta, sigma2, ok = _weighted_least_squares(
            add_intercept(design.matrix(data.X)), data.y, W, ridge=1e-8)
        if not ok.all():
            raise _rank_deficient("ridged init Gram")
        theta.beta, theta.sigma2 = beta, np.maximum(sigma2, variance_floor(data))
    return theta


def multi_start_fit(data: Dataset, g: int, family: str,
                    design: ExpertDesign | None = None,
                    config: FitConfig | None = None) -> FitResult:
    """Best-of-n_starts fit; seeds are config.seed, config.seed+1, ...

    The starts run one after another.  The winner has the largest final
    log-quasi-likelihood, ties broken toward the lowest start index; its
    components are put in ``canonical_order``, so starts that reach one
    optimum under swapped labels return the same parameters, and it carries
    the failure messages of the other starts, in start order, in
    ``failed_starts``.  Data with too few rows for ``initialize``, or a
    rank-deficient design, raise one InfeasibleInitError before any start
    runs.
    """
    config = config or FitConfig()
    design = design or ExpertDesign()
    _check_init_rows(data, g, design)
    best, failures = None, []
    for k in range(config.n_starts):
        seed_k = config.seed + k
        try:
            init = initialize(data, g, family, design, seed_k, config)
            result = fit(data, init, config, seed_used=seed_k)
        except EstimationError as err:
            failures.append(f"start {k} (seed {seed_k}): {err}")
            continue
        if best is None or result.q_hat > best.q_hat:
            best = result
    if best is None:
        raise EstimationError("all starts failed:\n  " + "\n  ".join(failures))
    best.theta = canonical_order(best.theta)
    best.failed_starts = tuple(failures)
    return best
