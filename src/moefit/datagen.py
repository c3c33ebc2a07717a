"""Seeded synthetic data generators.

All generators stream from a single numpy Generator (PCG64) so fixtures are
byte-identical across platforms for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, MoeParams, expert_family, gate_log_probs


def gen_three_class(n: int, seed: int) -> Dataset:
    """Two uniform covariates on [-5, 5]^2 with three deterministic regions.

    Class 2 inside the radius-2 ball at the origin; class 3 inside the
    rectangles [-4,-2]x[2,4] and [2,4]x[2,4] (boundaries included); class 1
    elsewhere.  The regions are disjoint.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-5.0, 5.0, size=(n, 2))
    y = three_class_labels(X)
    return Dataset(X, y, "categorical", K=3)


def three_class_labels(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(X)
    y = np.ones(X.shape[0], dtype=int)
    in_ball = np.hypot(X[:, 0], X[:, 1]) <= 2.0
    in_sq1 = (X[:, 0] >= -4) & (X[:, 0] <= -2) & (X[:, 1] >= 2) & (X[:, 1] <= 4)
    in_sq2 = (X[:, 0] >= 2) & (X[:, 0] <= 4) & (X[:, 1] >= 2) & (X[:, 1] <= 4)
    y[in_sq1 | in_sq2] = 3
    y[in_ball] = 2
    return y


def gen_moe_sample(theta: MoeParams, covariate_sampler, n: int, seed: int) -> Dataset:
    """Sample (x, y) pairs via the latent-label hierarchy; keeps z as z_true.

    ``covariate_sampler(rng, n)`` must return an (n, p) array.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    X = np.atleast_2d(np.asarray(covariate_sampler(rng, n), dtype=float))
    if X.shape != (n, theta.p):
        raise ValueError(f"covariate sampler must return shape ({n}, {theta.p})")
    gates = np.exp(gate_log_probs(X, theta.gating))
    # inverse-CDF draw of the latent component per row
    u = rng.random(n)
    z = (np.cumsum(gates, axis=1) < u[:, None]).sum(axis=1)
    fam = expert_family(theta.family)
    Dt = np.column_stack([np.ones(n), theta.design.matrix(X)])
    # each row's linear predictor under its own component: (n,), or (n, K)
    mu = fam.mean(np.einsum("nd,n...d->n...", Dt, theta.beta[z]))
    y = fam.sample(rng, mu, theta.sigma2[z] if fam.dispersion else None)
    return Dataset(X, y, fam.kind, K=theta.K, z_true=z + 1)


@dataclass
class SignalSpec:
    """Piecewise-quadratic signal on the unit time interval.

    ``coefs`` holds one (b0, b1, b2) triple per regime and ``noise_sd`` one
    standard deviation per regime; ``breakpoints`` are the g-1 interior regime
    boundaries.  Defaults sketch an 8-regime switching signal with mixed flat
    and curved segments and heteroscedastic noise.
    """

    n: int = 550
    breakpoints: tuple = (0.10, 0.16, 0.30, 0.42, 0.60, 0.72, 0.87)
    coefs: tuple = (
        (250.0, 0.0, 0.0),
        (260.0, 900.0, -2200.0),
        (570.0, -500.0, 300.0),
        (380.0, 400.0, -350.0),
        (520.0, -150.0, 50.0),
        (430.0, 350.0, -400.0),
        (440.0, -250.0, 100.0),
        (255.0, 0.0, 0.0),
    )
    noise_sd: tuple = (4.0, 12.0, 10.0, 8.0, 9.0, 10.0, 8.0, 4.0)
    seed: int = 0

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if bp.size and (np.any(np.diff(bp) <= 0) or bp.min() <= 0 or bp.max() >= 1):
            raise ValueError("breakpoints must be strictly increasing within (0, 1)")
        if np.shape(self.coefs) != (bp.size + 1, 3) or len(self.noise_sd) != bp.size + 1:
            raise ValueError("need one coefficient triple and noise sd per regime")
        if any(s < 0 for s in self.noise_sd):
            raise ValueError("noise sd must be non-negative")
        if self.n < 2:
            raise ValueError("n must be >= 2")


def signal_regime_of(t: np.ndarray, spec: SignalSpec) -> np.ndarray:
    """Regime index (1-based) of each time point."""
    return np.searchsorted(np.asarray(spec.breakpoints), t, side="right") + 1


def gen_switch_signal(spec: SignalSpec) -> Dataset:
    """Equally-spaced time points with per-regime quadratic means plus noise."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.n) / (spec.n - 1)
    regime = signal_regime_of(t, spec) - 1
    coefs = np.asarray(spec.coefs)
    mean = coefs[regime, 0] + coefs[regime, 1] * t + coefs[regime, 2] * t ** 2
    sd = np.asarray(spec.noise_sd)[regime]
    y = mean + rng.standard_normal(spec.n) * sd
    return Dataset(t[:, None], y, "real", z_true=regime + 1)


def uniform_box_sampler(low, high):
    """Covariate sampler drawing each coordinate uniformly from [low, high]."""
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))

    def sample(rng, n):
        return rng.uniform(low, high, size=(n, low.size))

    return sample
