"""Blockwise minorization-maximization fitting of MoE models.

One outer cycle updates the g-1 free gating rows and then the joint expert
block, recomputing responsibilities at the current iterate before every block
update, so the log-quasi-likelihood never decreases.  GLM fits sweep the
gating rows with the quadratic curvature-bound update, gaussian fits take one
guarded Newton gate step; gaussian expert blocks are closed-form weighted
least squares, GLM expert blocks ascent-guarded Newton steps.  Every fit with
g >= 2 extrapolates every two cycles (SQUAREM).
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
    expert_log_densities,
    free_class_cov,
    gate_log_probs,
    joint_scores,
    kron_gram,
    log_quasi_likelihood,
    logsumexp,
    outer_rows,
    posterior,
    softplus,
)
from .inference import flatten_params, unflatten_params

STARVATION_FACTOR = 1e-12
# gaussian variances are floored at this fraction of the response variance
VARIANCE_FLOOR_FACTOR = 1e-10
GLM_COEF_CAP = 30.0
# every outer cycle of a GLM fit sweeps the gating blocks GATING_ROUNDS times,
# and _step_length lengthens each curvature-bound step up to GATING_STEP_CAP
# times; gaussian fits take a Newton gate step instead (see fit)
GATING_ROUNDS = 3
GATING_STEP_CAP = 64.0
# the step length -alpha of a SQUAREM extrapolation is capped: uncapped,
# over-fitted gaussian gates run toward separation (gating rows near 8e5 on
# the switch signal), exp overflows and the sandwich is not finite, and at 8
# the bread's condition nears 1/eps; 4 keeps most of the cycles saved
SQUAREM_STEP_CAP = 4.0


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
    """Solve A[i] x[i] = b[i] for a batch of symmetric matrices A (k, m, m) and
    vector (k, m) or matrix (k, m, r) right-hand sides b; returns (x, ok).  If a
    batched Cholesky factorization accepts A, one LU solve solves the batch; if
    not, or if LU calls singular a matrix it accepted, each matrix is factored
    and solved alone, with x NaN and ``ok`` False where it is not positive
    definite.  This is the one linear solve of the fit."""
    ok = np.ones(len(A), dtype=bool)
    rhs = b if b.ndim == 3 else b[..., None]
    try:
        np.linalg.cholesky(A)
        return np.linalg.solve(A, rhs).reshape(b.shape), ok
    except np.linalg.LinAlgError:
        C = np.empty_like(A)
        for i, a in enumerate(A):
            try:
                C[i] = np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                ok[i] = False
    x = np.full_like(b, np.nan)
    sol = np.linalg.solve(C[ok].swapaxes(1, 2), np.linalg.solve(C[ok], rhs[ok]))
    x[ok] = sol.reshape(-1, *b.shape[1:])
    return x, ok


def _weighted_least_squares(fd: "_FitData", W: np.ndarray, ridge: float = 0.0):
    """Weighted least squares of y on the expert design, one fit per weight
    row of W (b, n), all at once.  Returns (beta (b, m), the weighted mean
    squared residuals (b,), ok (b,)); ``ok`` is False, and the fit NaN, where
    the weighted Gram matrix (plus ``ridge`` times the identity) is singular."""
    m = fd.Dt.shape[1]
    G = (W @ fd.DD).reshape(len(W), m, m)  # kron_gram with one class
    if ridge:
        G += ridge * np.eye(m)
    beta, ok = _cholesky_solve(G, (W * fd.y) @ fd.Dt)
    resid = fd.y - beta @ fd.Dt.T
    return beta, np.einsum("bn,bn->b", W, resid * resid) / W.sum(axis=1), ok


def gating_gram(data: Dataset) -> np.ndarray:
    """H = sum of x-tilde outer products over the sample."""
    Xt = add_intercept(data.X)
    return Xt.T @ Xt


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
    rho = logsumexp(JS[:, others], axis=1) - JS[:, z]

    def net(sp: np.ndarray) -> float:
        """sum softplus(rho_j - x) - sum softplus(rho_s - x)"""
        s = sp.sum(axis=1)
        return float(s[0] - s[1])

    sp = softplus(rho)
    base = net(sp)
    p = np.exp(-sp)
    return p[0] - p[1], lambda step, drow: net(softplus(rho - drow * step)) - base


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
    fd = _FitData.build(data, theta.family, theta.design, theta.g)
    JS, _ = joint_scores(data, theta)
    resid, _ = gating_line(JS, z, np.delete(np.arange(theta.g), z))
    return theta.gating[z] + fd.M @ (fd.Xt.T @ resid)


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
    return VARIANCE_FLOOR_FACTOR * max(float(np.var(data.y)), np.finfo(float).tiny)


def _check_starvation(W: np.ndarray, n: int) -> None:
    starved = np.flatnonzero(W.sum(axis=1) < n * STARVATION_FACTOR)
    if starved.size:
        raise EmptyComponentError(
            f"component(s) {(starved + 1).tolist()} starved "
            f"(total responsibility below {n * STARVATION_FACTOR:.3e})")


class _FitData(NamedTuple):
    """Constants of the fits of one g, family and design: the expert design ``Dt``,
    its transpose (scores come out (b, n) or (b, K, n), reduced along rows)
    and ``outer_rows`` table, the response and its ``target`` on the mean's
    scale, the variance floor, the gate's X-tilde, its table and weights, and
    for g > 1 M = 4 (X-tilde^T X-tilde)^-1, whose build checks the gating
    design's rank: gating row z's curvature-bound step is M X-tilde^T (tau_z - pi_z)."""

    fam: ExpertFamily
    Dt: np.ndarray
    DtT: np.ndarray
    DD: np.ndarray
    y: np.ndarray
    target: np.ndarray
    floor: float | None  # of a dispersion family
    Xt: np.ndarray
    XX: np.ndarray
    ones: np.ndarray  # (1, n)
    M: np.ndarray | None

    @classmethod
    def build(cls, data: Dataset, family: str, design: ExpertDesign, g: int) -> "_FitData":
        fam = expert_family(family)
        Dt, Xt = add_intercept(design.matrix(data.X)), add_intercept(data.X)
        M = None
        if g > 1:
            (M,), (ok,) = _cholesky_solve((Xt.T @ Xt)[None], 4.0 * np.eye(Xt.shape[1])[None])
            if not ok:
                raise _rank_deficient("gating design Gram matrix")
        return cls(fam, Dt, np.ascontiguousarray(Dt.T), outer_rows(Dt), data.y,
                   fam.target(data.y, data.K),
                   variance_floor(data) if fam.dispersion else None,
                   Xt, outer_rows(Xt), np.ones((1, data.n)), M)

    def log_densities(self, beta: np.ndarray, sigma2=None) -> np.ndarray:
        return expert_log_densities(self.fam, beta, self.Dt, self.y, sigma2)


def gaussian_expert_block_update(data: Dataset, theta: MoeParams, W: np.ndarray,
                                 config: FitConfig | None = None,
                                 fd: _FitData | None = None, L=None):
    """Closed-form weighted LS update of all gaussian expert blocks, with the
    component-major weights ``W`` (g, n); the exact update needs neither
    config nor the log densities ``L`` at ``theta``.  Returns (beta, sigma2,
    floored, L at the result), ``floored`` marking the variances floored."""
    _check_starvation(W, data.n)
    fd = fd or _FitData.build(data, theta.family, theta.design, theta.g)
    beta, sigma2, ok = _weighted_least_squares(fd, W)
    if not ok.all():
        z = int(np.flatnonzero(~ok)[0])
        raise _rank_deficient(f"weighted Gram matrix of component {z + 1}")
    floored = sigma2 < fd.floor
    sigma2 = np.where(floored, fd.floor, sigma2)
    return beta, sigma2, floored, fd.log_densities(beta, sigma2)


def _glm_ll(fd: _FitData, W: np.ndarray, beta: np.ndarray):
    """Log densities (b, n) and ``W``-weighted log-likelihoods (b,) of the
    experts ``beta``, (b, d+1) or, for multinomial experts, (b, K, d+1)."""
    L = fd.log_densities(beta)
    return L, np.einsum("bn,bn->b", W, L)


def _glm_grad_hess(fd: _FitData, W: np.ndarray, beta: np.ndarray):
    """Gradients (b, m) and Hessians (b, m, m) of a batch of weighted expert
    log-likelihoods, m being the number of free coefficients per expert."""
    b, n = W.shape
    mu = fd.fam.mean(beta @ fd.DtT)
    resid = fd.fam.free_coefs(fd.target - mu)  # (b, free classes, n)
    grad = (W[:, None, :] * resid).reshape(-1, n) @ fd.Dt
    return grad.reshape(b, -1), -kron_gram(W, fd.fam.mean_cov(mu), fd.Dt, fd.DD)


def _weighted_glm_fit(fd: _FitData, W: np.ndarray, beta0: np.ndarray,
                      L0: np.ndarray, max_inner: int):
    """Newton steps with step-halving on a batch of weighted expert
    log-likelihoods, one expert per row of ``W``, ``beta0`` and its ``L0``.

    The experts are independent, and boolean masks track which still move.
    Each Newton iteration solves the whole batch in one batched solve; an
    expert stops once its gradient vanishes, its step is not finite, or no
    halved step improves it.  Step-halving prices each trial on the whole
    batch and accepts a ``pending`` expert, with its row of log densities,
    on its own log-likelihood.  Returns (beta, L at beta, capped), ``capped``
    marking experts clipped at the separation cap on the linear-predictor scale.
    """
    ll0 = np.einsum("bn,bn->b", W, L0)
    beta, L, ll = beta0.copy(), L0.copy(), ll0.copy()
    active = np.ones(len(beta), dtype=bool)
    for _ in range(max_inner):
        grad, hess = _glm_grad_hess(fd, W, beta)
        # a system that is not positive definite gives a NaN step, which
        # stops only its own expert
        delta, _ = _cholesky_solve(-hess + 1e-10 * np.eye(hess.shape[1]), grad)
        active &= np.abs(grad).max(axis=1) >= 1e-9 * (1.0 + np.abs(ll))
        active &= np.all(np.isfinite(delta), axis=1)
        delta = delta.reshape(len(beta), -1, fd.Dt.shape[1])  # per free class
        improved = np.zeros_like(active)
        pending = active.copy()
        for step in 0.5 ** np.arange(30.0):
            if not pending.any():
                break
            cand = beta.copy()
            fd.fam.free_coefs(cand)[...] += step * delta
            # a trial step may overflow a poisson mean; np.isfinite below
            # rejects it
            with np.errstate(over="ignore"):
                L_new, ll_new = _glm_ll(fd, W, cand)
            ok = pending & np.isfinite(ll_new) & (
                ll_new >= ll - 1e-12 * (1.0 + np.abs(ll)))
            improved |= ok & (ll_new > ll)
            beta[ok], ll[ok], L[ok] = cand[ok], ll_new[ok], L_new[ok]
            pending &= ~ok
        active &= improved
        if not active.any():
            break
    capped = fd.fam.separable & (
        np.abs(beta).reshape(len(beta), -1).max(axis=1) > GLM_COEF_CAP)
    if capped.any():
        # clipping keeps a pinned zero class at zero; a clipped solution is
        # kept only if it still improves on the start
        beta[capped] = np.clip(beta[capped], -GLM_COEF_CAP, GLM_COEF_CAP)
        L_clip, ll_clip = _glm_ll(fd, W, beta)
        keep = capped & (ll_clip >= ll0)
        back = capped & ~keep
        L[keep], beta[back], L[back] = L_clip[keep], beta0[back], L0[back]
    return beta, L, capped


def glm_expert_block_update(data: Dataset, theta: MoeParams, W: np.ndarray,
                            config: FitConfig | None = None,
                            fd: _FitData | None = None, L=None):
    """Newton update (``config.irls_max_inner`` steps at most) of all GLM
    expert blocks, with the component-major weights ``W`` (g, n), from the
    log densities ``L`` at ``theta``; returns (beta, None, capped, L) with
    ``capped`` marking experts clipped at GLM_COEF_CAP and L at beta."""
    _check_starvation(W, data.n)
    fd = fd or _FitData.build(data, theta.family, theta.design, theta.g)
    L = fd.log_densities(theta.beta) if L is None else L
    beta, L, capped = _weighted_glm_fit(fd, W, theta.beta, L,
                                        (config or FitConfig()).irls_max_inner)
    return beta, None, capped, L


def _joint(JS: np.ndarray, L: np.ndarray, Xt: np.ndarray, gating: np.ndarray):
    """Price a point: the gating scores JS[1] = (X-tilde gating^T)^T, set from
    the rows as in ``joint_scores``, and JS[0] = S + L with the expert log
    densities L (g, n); returns the posterior kernel's (tau, lse S) and Q_n."""
    JS[1] = (Xt @ gating.T).T
    np.add(JS[1], L, out=JS[0])
    tau, rows, lse_s = posterior(JS)
    return (tau, lse_s), float(np.sum(rows))


def _newton_gate(JS: np.ndarray, L: np.ndarray, post: tuple, q: float,
                 fd: _FitData, gating: np.ndarray):
    """One guarded Newton step of the g-1 free ``gating`` rows at once on the
    gate's EM surrogate sum tau log pi (the IRLS gate of Jordan & Jacobs
    1994), moving ``gating`` and ``JS`` in place.  Trial steps 1, 1/2, ...
    are priced through ``_joint``; the first that loses at most the ascent
    guard's tolerance is kept.  If none is, ``_joint`` prices the rows again,
    restoring ``JS``; if the Hessian is not positive definite, nothing moves.
    ``post`` is ``_joint``'s (tau, lse S) at the current point; returns
    ``post`` and Q_n after the step."""
    pi = np.exp(JS[1] - post[1])
    grad = (post[0] - pi)[:-1] @ fd.Xt
    hess = kron_gram(fd.ones, free_class_cov(pi[None]), fd.Xt, fd.XX)
    step, ok = _cholesky_solve(hess, grad.reshape(1, -1))
    if ok[0]:
        delta = np.vstack([step.reshape(grad.shape), np.zeros(grad.shape[1])])
        for t in 0.5 ** np.arange(30.0):
            trial = gating + t * delta
            post_t, q_t = _joint(JS, L, fd.Xt, trial)
            if q_t >= q - 1e-10 * (1.0 + abs(q)):
                gating[...] = trial
                return post_t, q_t
        _joint(JS, L, fd.Xt, gating)
    return post, q


def _squarem(JS: np.ndarray, L: np.ndarray, post: tuple, q: float,
             fd: _FitData, theta: MoeParams, points: list):
    """One SQUAREM-3 extrapolation (Varadhan & Roland 2008) from the
    ``flatten_params`` points theta0, theta1, theta2 of two cycles, theta2
    being live: with r = theta1 - theta0, v = theta2 - 2 theta1 + theta0 and
    alpha = max(-|r|/|v|, -SQUAREM_STEP_CAP), theta' = theta0 - 2 alpha r +
    alpha^2 v.  theta' is refused if it is not finite, a variance is at or
    under the floor or a separable family's coefficient is past GLM_COEF_CAP;
    else it is bound live on ``theta``, priced through ``_joint`` (moving
    ``JS``) and kept if Q_n does not fall, else theta2, its ``JS`` and
    ``post`` are restored.  No step is tried when v = 0 or alpha >= -1.
    Returns (post, q, L, kept)."""
    t0, t1, t2 = points
    # an overflowing step is refused below, not reported
    with np.errstate(over="ignore", invalid="ignore"):
        r, v = t1 - t0, t2 - 2.0 * t1 + t0
        vn = np.sqrt(v @ v)
        alpha = max(-np.sqrt(r @ r) / vn, -SQUAREM_STEP_CAP) if vn > 0.0 else -1.0
        if alpha >= -1.0:
            return post, q, L, False
        t = t0 - 2.0 * alpha * r + alpha * alpha * v
        new = unflatten_params(theta, t)
        if not (np.isfinite(t).all() and (fd.floor is None or (new.sigma2 > fd.floor).all())
                and not (fd.fam.separable and np.abs(new.beta).max() > GLM_COEF_CAP)):
            return post, q, L, False
        old = theta.gating, theta.beta, theta.sigma2, JS.copy()
        theta.gating, theta.beta, theta.sigma2 = new.gating, new.beta, new.sigma2
        L_new = fd.log_densities(theta.beta, theta.sigma2)
        post_new, q_new = _joint(JS, L_new, fd.Xt, theta.gating)
    if q_new >= q:
        return post_new, q_new, L_new, True
    theta.gating, theta.beta, theta.sigma2, JS[...] = old
    return post, q, L, False


def fit(data: Dataset, init: MoeParams, config: FitConfig | None = None,
        seed_used: int = 0, fd: _FitData | None = None) -> FitResult:
    """Run the blockwise-MM algorithm from ``init`` until convergence.

    The data's constants (``_FitData``) are built once, unless passed as
    ``fd``, and give the start's expert log densities L.  L rides through the
    cycle: every gating trial reuses it, and the expert block starts from L
    and returns its update.  ``_joint`` prices every point, setting ``JS``
    from the gating rows, so every Q_n the fit records is the true one.

    Gaussian fits take one guarded Newton step per cycle over all g-1 free
    gating rows (``_newton_gate``).  GLM fits sweep the gating rows
    GATING_ROUNDS times per cycle, standing in for their one-step Newton
    expert block: each row steps along its curvature-bound direction (the
    bundle's ``M``), ``gating_line`` prices trial steps from log-odds, and
    ``_step_length`` doubles the step while Q_n keeps rising.
    For g >= 2, whatever the family, every two cycles are followed by a
    SQUAREM-3 extrapolation (``_squarem``), kept only if it does not lose
    Q_n; after a kept one, the next cycle runs from the extrapolated point
    and its result starts the next pair.  An extrapolation adds no
    ``q_trace`` entry, does not count toward ``max_cycles`` or
    ``cycles_used``, and never follows the last cycle.

    The family's expert block is looked up when ``fit`` runs, so a wrapper
    set on its module name sees every call; one ascent guard serves both.
    """
    config = config or FitConfig()
    check_compatible(data, init)
    theta = init.copy()
    g = theta.g
    fd = fd or _FitData.build(data, theta.family, theta.design, theta.g)
    dispersion, Xt, M = fd.fam.dispersion, fd.Xt, fd.M
    block = gaussian_expert_block_update if dispersion else glm_expert_block_update
    L = fd.log_densities(theta.beta, theta.sigma2)
    JS = np.empty((2, g, data.n))
    J, S = JS  # views: the joint and the gating scores
    post, q = _joint(JS, L, Xt, theta.gating)
    others = [np.delete(np.arange(g), z) for z in range(g - 1)]
    step_factor = np.ones(g - 1)
    points = [flatten_params(theta)]
    trace = [q]
    converged = False
    degenerate = False
    cycle = 0
    for cycle in range(1, config.max_cycles + 1):
        try:
            q_cur = q  # the ascent guard's reference, moved by the gate step
            if not dispersion:
                for _ in range(GATING_ROUNDS):
                    for z in range(g - 1):
                        resid, gain = gating_line(JS, z, others[z])
                        direction = M @ (Xt.T @ resid)
                        drow = Xt @ direction
                        factor, _ = _step_length(lambda step: gain(step, drow),
                                                 step_factor[z], 1e-10 * (1.0 + abs(q)))
                        step_factor[z] = max(factor, 1.0)
                        if factor:
                            S[z] += factor * drow
                            np.add(S[z], L[z], out=J[z])
                            theta.gating[z] = theta.gating[z] + factor * direction
                # the sweep adds each step to S; _joint sets S from the rows
                post, q_cur = _joint(JS, L, Xt, theta.gating)
            elif g > 1:
                post, q_cur = _newton_gate(JS, L, post, q, fd, theta.gating)
            old = theta.beta, theta.sigma2, L
            theta.beta, theta.sigma2, flagged, L = block(data, theta, post[0], config, fd, L)
            post, q_new = _joint(JS, L, Xt, theta.gating)
            # ascent guard: a capped or stalled Newton solve must not lose ground
            if q_new < q_cur - 1e-10 * (1.0 + abs(q_cur)):
                theta.beta, theta.sigma2, L = old
                post, q_new = _joint(JS, L, Xt, theta.gating)
            else:
                degenerate = dispersion and bool(flagged.any())
        except EstimationError as err:
            raise type(err)(f"cycle {cycle}: {err}") from err
        trace.append(q_new)
        if abs(q_new - q) <= config.rel_tol * (1.0 + abs(q)):
            converged = True
            q = q_new
            break
        q = q_new
        if g > 1:
            points.append(flatten_params(theta))
            if len(points) == 3 and cycle < config.max_cycles:
                post, q, L, kept = _squarem(JS, L, post, q, fd, theta, points)
                points = [] if kept else points[2:]
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
    for _ in range(6):
        d2 = ((Z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        counts = np.bincount(labels, minlength=g)
        if counts.all():
            # weighted bincount sums each group's rows in row order, as
            # Z[members].mean does, so the centers agree to the last bit
            centers = np.column_stack([np.bincount(labels, weights=col, minlength=g)
                                       for col in Z.T]) / counts[:, None]
            continue
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
               seed: int, config: FitConfig | None = None,
               fd: _FitData | None = None) -> MoeParams:
    """Seeded start: the expert block on a random hard partition of the rows.

    From uniform gating (all zeros), zero coefficients and unit variances,
    the family's expert block, with the fit's constants ``fd`` if given,
    fits each expert to its own group.  If a gaussian group's Gram matrix is
    singular, every group gets a 1e-8 ridge instead.  g=1 is deterministic.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    _check_init_rows(data, g, design)
    fd = fd or _FitData.build(data, family, design, g)
    K = data.K if fd.fam.multiclass else None
    d = design.width(data.p)
    theta = MoeParams(family=family, gating=np.zeros((g, data.p + 1)),
                      beta=np.zeros((g, d + 1) if K is None else (g, K, d + 1)),
                      design=design, sigma2=np.ones(g) if fd.fam.dispersion else None, K=K)
    labels = _random_hard_partition(data, g, np.random.default_rng(seed))
    W = (labels[None, :] == np.arange(g)[:, None]).astype(float)
    block = gaussian_expert_block_update if fd.fam.dispersion else glm_expert_block_update
    try:
        theta.beta, theta.sigma2, _, _ = block(data, theta, W, config, fd)
    except RankDeficientError:
        beta, sigma2, ok = _weighted_least_squares(fd, W, ridge=1e-8)
        if not ok.all():
            raise _rank_deficient("ridged init Gram")
        theta.beta, theta.sigma2 = beta, np.maximum(sigma2, fd.floor)
    return theta


def multi_start_fit(data: Dataset, g: int, family: str,
                    design: ExpertDesign | None = None,
                    config: FitConfig | None = None) -> FitResult:
    """Best-of-n_starts fit; seeds are config.seed, config.seed+1, ...

    The starts run one after another on one ``_FitData``.  The winner has
    the largest final log-quasi-likelihood, ties broken toward the lowest
    start index; it is put in ``canonical_order``, so starts that reach one
    optimum under swapped labels return the same parameters, and carries the
    other starts' failure messages, in start order, in ``failed_starts``.
    Data with too few rows for ``initialize``, or a rank-deficient design,
    raise one InfeasibleInitError, and a gating Gram matrix without a
    Cholesky factor one RankDeficientError, before any start runs.
    """
    config = config or FitConfig()
    design = design or ExpertDesign()
    _check_init_rows(data, g, design)
    fd = _FitData.build(data, family, design, g)
    best, failures = None, []
    for k in range(config.n_starts):
        seed_k = config.seed + k
        try:
            init = initialize(data, g, family, design, seed_k, config, fd=fd)
            result = fit(data, init, config, seed_used=seed_k, fd=fd)
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
