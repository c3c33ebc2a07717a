"""Output checks, computed apart from moefit from its outputs and documents.

Every check raises ``CheckError`` with the cause when an output is wrong and
returns quietly otherwise.  Model documents are read as plain JSON and the
gate, mean, variance and class-posterior formulas are evaluated here with
numpy, so a check does not call back into the code it checks.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# criterion 8's four-regime switch signal
SIGNAL_BREAKPOINTS = (0.25, 0.5, 0.75)
BREAKPOINT_TOL = 0.03
SEGMENT_AGREEMENT = 0.90
# relative drop of Q between cycles that still counts as monotone (the
# acceptance suite uses the same tolerance)
MONOTONE_TOL = 1e-8


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- parameter counts and selection tables ------------------------------

def gaussian_dim(g: int, p: int, d: int | None = None) -> int:
    """Free parameters of a gaussian MoE: (3+2p)g - p - 1 for raw experts."""
    d = p if d is None else d
    return (g - 1) * (p + 1) + g * (d + 2)


def multinomial_dim(g: int, p: int, K: int) -> int:
    return (g - 1) * (p + 1) + g * (K - 1) * (p + 1)


def check_monotone(traces) -> None:
    require(len(traces) > 0, "no fit was observed")
    for i, tr in enumerate(traces):
        tr = np.asarray(tr, dtype=float)
        require(np.all(np.isfinite(tr)), f"fit {i}: non-finite Q trace")
        drops = np.diff(tr) < -MONOTONE_TOL * (1.0 + np.abs(tr[:-1]))
        require(not np.any(drops),
                f"fit {i}: Q trace decreases at cycle {int(np.argmax(drops)) + 1}")


def check_bic_rows(rows, n: int, dim_of) -> int:
    """Recompute every BIC as -2 logQL + dim ln n and the BIC choice.

    ``rows`` are (g, logQL, dim, bic, eligible) tuples with NaN for g values
    that have no fit; returns the g the table selects.
    """
    best = None
    for g, q, dim, b, eligible in rows:
        require(dim == dim_of(g), f"g={g}: dim {dim} != closed form {dim_of(g)}")
        if math.isnan(q):
            continue
        want = -2.0 * q + dim * math.log(n)
        require(abs(b - want) <= 1e-9 * (1.0 + abs(want)),
                f"g={g}: bic {b!r} != -2 logQL + dim ln n = {want!r}")
        if eligible and (best is None or want < best[1] - 1e-12 * (1.0 + abs(want))):
            best = (g, want)
    require(best is not None, "no eligible row")
    return best[0]


def parse_bic_table(text: str):
    """Parse the CLI ``--table`` CSV into check_bic_rows tuples."""
    lines = list(csv.reader(text.splitlines()))
    require(lines and lines[0] == ["g", "logQL", "dim", "bic", "converged",
                                   "degenerate"],
            f"unexpected table header {lines[0] if lines else None}")
    rows = []
    for rec in lines[1:]:
        g = int(rec[0])
        try:
            q = float(rec[1]) if rec[1] else math.nan
            b = float(rec[3]) if rec[3] else math.nan
        except ValueError:
            raise CheckError(f"table row g={g}: logQL/bic fields {rec[1]!r}, "
                             f"{rec[3]!r} are not numbers") from None
        rows.append((g, q, int(rec[2]), b,
                     rec[4] == "1" and rec[5] == "0" and not math.isnan(q)))
    return rows


# --- model documents evaluated with numpy -------------------------------

def _softmax(s: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def gate_probs(doc: dict, X: np.ndarray) -> np.ndarray:
    A = np.asarray(doc["gating"], dtype=float)
    Xt = np.column_stack([np.ones(len(X)), X])
    return _softmax(Xt @ A.T, axis=1)


def expert_design(doc: dict, X: np.ndarray) -> np.ndarray:
    design = doc["expert_design"]
    if design["kind"] == "raw":
        D = X
    else:
        D = np.column_stack([X[:, 0] ** k for k in range(1, design["degree"] + 1)])
    return np.column_stack([np.ones(len(X)), D])


def gaussian_moments(doc: dict, X: np.ndarray):
    """Gate-weighted mean and variance of a gaussian model at rows X."""
    gates = gate_probs(doc, X)
    mu = expert_design(doc, X) @ np.asarray(doc["experts"]["beta"]).T
    s2 = np.asarray(doc["experts"]["sigma2"])
    mean = np.sum(gates * mu, axis=1)
    var = np.sum(gates * (mu ** 2 + s2[None, :]), axis=1) - mean ** 2
    return mean, var


def class_posteriors(doc: dict, X: np.ndarray) -> np.ndarray:
    gates = gate_probs(doc, X)
    beta = np.asarray(doc["experts"]["beta"])          # (g, K, d+1)
    pk = _softmax(np.einsum("nd,gkd->ngk", expert_design(doc, X), beta), axis=2)
    return np.einsum("ng,ngk->nk", gates, pk)


def params_doc(theta) -> dict:
    """The model-document fields of a fitted MoeParams, for the checks."""
    doc = {"gating": theta.gating, "experts": {"beta": theta.beta},
           "expert_design": {"kind": theta.design.kind,
                             "degree": theta.design.degree}}
    if theta.sigma2 is not None:
        doc["experts"]["sigma2"] = theta.sigma2
    return doc


def close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


# --- CSV files ------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path}: no data rows")
    header, body = rows[0], rows[1:]
    try:
        cols = {h: np.array([float(r[j]) for r in body])
                for j, h in enumerate(header)}
    except (ValueError, IndexError) as err:
        raise CheckError(f"{path}: malformed row ({err})") from None
    return header, cols


# --- workload-specific checks ---------------------------------------------

def region_labels(X: np.ndarray) -> np.ndarray:
    """The three-class region rule: ball of radius 2 -> 2, the two squares
    [-4,-2]x[2,4] and [2,4]x[2,4] -> 3, elsewhere 1."""
    y = np.ones(len(X), dtype=int)
    sq = ((np.abs(X[:, 0]) >= 2) & (np.abs(X[:, 0]) <= 4)
          & (X[:, 1] >= 2) & (X[:, 1] <= 4))
    y[sq] = 3
    y[np.hypot(X[:, 0], X[:, 1]) <= 2.0] = 2
    return y


def check_posteriors(post: np.ndarray, doc: dict, X: np.ndarray) -> None:
    require(post.shape == (len(X), np.asarray(doc["experts"]["beta"]).shape[1]),
            f"posterior shape {post.shape}")
    require(np.allclose(post.sum(axis=1), 1.0, atol=1e-12),
            "posterior rows do not sum to 1")
    require(close(post, class_posteriors(doc, X), 1e-9),
            "class posteriors differ from the gate-weighted expert softmax")


def accuracy(labels: np.ndarray, X: np.ndarray) -> float:
    return float(np.mean(labels == region_labels(X)))


def segment_against(labels: np.ndarray, t: np.ndarray, z_true: np.ndarray) -> None:
    """Criterion 8's segmentation rule for component labels along time ``t``:
    best-permutation agreement with z_true at least 0.90, and a label change
    within 0.03 of every true breakpoint."""
    g = int(labels.max())
    require(g >= len(SIGNAL_BREAKPOINTS) + 1,
            f"segmentation uses {g} components, need "
            f"{len(SIGNAL_BREAKPOINTS) + 1}")
    best, mapped = -1.0, None
    for perm in itertools.permutations(range(1, g + 1)):
        m = np.asarray(perm)[labels - 1]
        agree = float(np.mean(m == z_true))
        if agree > best:
            best, mapped = agree, m
    changes = np.flatnonzero(np.diff(mapped) != 0)
    found = 0.5 * (t[changes] + t[changes + 1])
    require(best >= SEGMENT_AGREEMENT,
            f"agreement with z_true {best:.3f} < {SEGMENT_AGREEMENT}")
    for bp in SIGNAL_BREAKPOINTS:
        require(found.size and np.min(np.abs(found - bp)) <= BREAKPOINT_TOL,
                f"no label change within {BREAKPOINT_TOL} of breakpoint {bp} "
                f"(changes at {np.round(found, 3).tolist()})")


def hc0_covariance(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """White's HC0 covariance of the OLS coefficients."""
    Xt = np.column_stack([np.ones(len(X)), X])
    b, *_ = np.linalg.lstsq(Xt, y, rcond=None)
    e = y - Xt @ b
    bread = np.linalg.inv(Xt.T @ Xt)
    return bread @ (Xt.T * e ** 2) @ Xt @ bread


def check_hc0(cov_beta: np.ndarray, X: np.ndarray, y: np.ndarray) -> None:
    """The g=1 gaussian sandwich's beta block must equal HC0."""
    ref = hc0_covariance(X, y)
    err = float(np.max(np.abs(cov_beta - ref)) / np.max(np.abs(ref)))
    require(err <= 1e-8, f"sandwich beta block differs from HC0 by {err:.2e}")


def check_fit_truth(beta: np.ndarray, truth: np.ndarray, tol: float = 0.5) -> None:
    """Fitted expert coefficients near the truth, in either component order."""
    err = min(np.max(np.abs(beta[list(p)] - truth))
              for p in itertools.permutations(range(len(truth))))
    require(err <= tol, f"coefficients off the truth by {err:.3f}")


def check_criterion1(g_hats, accs) -> None:
    """Criterion 1 over a run's training sets: median held-out accuracy
    >= 0.86 and median g_hat in 3..6."""
    acc = float(np.median(accs))
    g = float(np.median(g_hats))
    require(acc >= 0.86, f"median held-out accuracy {acc:.3f} < 0.86")
    require(3 <= g <= 6, f"median g_hat {g} outside 3..6")


def check_signal(cols: dict, spec: dict) -> None:
    """A switch-signal CSV: uniform time grid, z_true from the breakpoints and
    every response within 8 noise sd of its regime's quadratic mean."""
    t = cols["x1"]
    n = len(t)
    require(np.allclose(t, np.arange(n) / (n - 1), rtol=0, atol=1e-15),
            "time grid is not uniform on [0, 1]")
    regime = np.searchsorted(spec["breakpoints"], t, side="right")
    require(np.array_equal(cols["z_true"].astype(int), regime + 1),
            "z_true does not follow the breakpoints")
    c = np.asarray(spec["coefs"])[regime]
    mean = c[:, 0] + c[:, 1] * t + c[:, 2] * t ** 2
    dev = np.max(np.abs(cols["y"] - mean) / np.asarray(spec["noise_sd"])[regime])
    require(dev < 8.0, f"a response lies {dev:.1f} noise sd from its regime mean")


def check_segmentation(doc: dict, t: np.ndarray, z_true: np.ndarray) -> None:
    """Gate-argmax labels of a model document segment the signal."""
    labels = np.argmax(gate_probs(doc, t[:, None]), axis=1) + 1
    segment_against(labels, t, z_true.astype(int))


def check_gate_output(pred: dict, doc: dict, X: np.ndarray) -> np.ndarray:
    """``predict --mode cluster-gate`` columns; returns the labels."""
    gates = gate_probs(doc, X)
    got = np.column_stack([pred[f"gate_{z + 1}"] for z in range(gates.shape[1])])
    require(close(got, gates, 1e-9), "gate columns differ from the softmax gates")
    labels = pred["label"].astype(int)
    require(np.array_equal(labels, np.argmax(gates, axis=1) + 1),
            "labels are not the gate argmax")
    return labels


def check_moment_output(mode: str, pred: dict, doc: dict) -> None:
    """``predict --mode mean | variance | mean-ci`` against the gate-weighted
    moments recomputed from the model document."""
    mean, var = gaussian_moments(doc, pred["x1"][:, None])
    if mode == "variance":
        require(close(pred["variance"], var, 1e-8),
                "variance differs from the gate-weighted recomputation")
        return
    require(close(pred["mean"], mean, 1e-9),
            "mean differs from the gate-weighted recomputation")
    if mode == "mean-ci":
        require(np.all(pred["lower"] <= pred["mean"])
                and np.all(pred["mean"] <= pred["upper"]),
                "mean-ci rows with mean outside [lower, upper]")
        require(np.all(pred["upper"] > pred["lower"]),
                "mean-ci interval of zero width")


def check_three_class_output(cols: dict, n: int) -> None:
    X = np.column_stack([cols["x1"], cols["x2"]])
    require(len(X) == n, f"{len(X)} rows, want {n}")
    require(np.all(np.abs(X) <= 5.0), "covariates outside [-5, 5]")
    require(np.array_equal(cols["y"].astype(int), region_labels(X)),
            "labels do not follow the region rule")


def check_classify_output(pred: dict, doc: dict) -> float:
    """``predict --mode classify`` rows; returns the accuracy."""
    X = np.column_stack([pred["x1"], pred["x2"]])
    post = np.column_stack([pred[f"post_{k}"] for k in (1, 2, 3)])
    check_posteriors(post, doc, X)
    labels = pred["label"].astype(int)
    require(np.array_equal(labels, np.argmax(post, axis=1) + 1),
            "labels are not the posterior argmax")
    return accuracy(labels, X)


def check_covariance(cov: np.ndarray, dim: int) -> None:
    require(cov.shape == (dim, dim), f"covariance shape {cov.shape} != {dim}")
    require(np.all(np.isfinite(cov)), "non-finite covariance")
    require(np.allclose(cov, cov.T, rtol=0, atol=1e-12 * np.abs(cov).max()),
            "covariance is not symmetric")
    require(np.all(np.diag(cov) > 0), "covariance diagonal is not positive")
