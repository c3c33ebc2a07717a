"""Component-count selection by BIC over a grid of candidate g values."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .estimation import (EstimationError, FitConfig, FitResult, _check_init_rows,
                         multi_start_fit)
from .model import Dataset, ExpertDesign, expert_family


class SelectionError(RuntimeError):
    """No eligible fit on the whole candidate grid."""


def param_count(g: int, p: int, family: str,
                design: ExpertDesign | None = None, K: int | None = None) -> int:
    """Number of free parameters of a g-component model.

    Gating contributes (g-1)(p+1); each expert contributes its family's
    layout with d the expert design width.
    """
    design = design or ExpertDesign()
    return (g - 1) * (p + 1) + g * expert_family(family).expert_dim(design.width(p), K)


def bic(q_hat: float, dim: int, n: int) -> float:
    """-2 * logQL + dim * ln(n); smaller is better."""
    return -2.0 * q_hat + dim * np.log(n)


@dataclass
class GFit:
    g: int
    q_hat: float
    dim: int
    bic: float
    converged: bool
    degenerate: bool
    fit: FitResult | None = None
    error: str | None = None

    @property
    def eligible(self) -> bool:
        return self.fit is not None and self.converged and not self.degenerate


@dataclass
class SelectionReport:
    rows: list[GFit]
    g_hat: int

    def best(self) -> GFit:
        return next(r for r in self.rows if r.g == self.g_hat)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("g,logQL,dim,bic,converged,degenerate\n")
        for r in self.rows:
            q = "" if r.fit is None else repr(float(r.q_hat))
            b = "" if r.fit is None else repr(float(r.bic))
            buf.write(f"{r.g},{q},{r.dim},{b},"
                      f"{int(r.converged)},{int(r.degenerate)}\n")
        return buf.getvalue()


def select_g(data: Dataset, G: int, family: str,
             design: ExpertDesign | None = None,
             config: FitConfig | None = None) -> SelectionReport:
    """Fit g = 1..G with multi-start and pick the smallest g at minimal BIC.

    Degenerate (variance-floored) and non-converged fits appear in the report
    but are never selectable.  A rank-deficient expert design fails every g,
    so it raises InfeasibleInitError before any fit; a rank-deficient gating
    design fails only g >= 2.
    """
    if G < 1:
        raise ValueError("G must be >= 1")
    design = design or ExpertDesign()
    config = config or FitConfig()
    _check_init_rows(data, 1, design)
    rows = []
    for g in range(1, G + 1):
        dim = param_count(g, data.p, family, design, data.K)
        try:
            result = multi_start_fit(data, g, family, design, config)
        except EstimationError as err:
            rows.append(GFit(g=g, q_hat=np.nan, dim=dim, bic=np.nan,
                             converged=False, degenerate=False, error=str(err)))
            continue
        rows.append(GFit(
            g=g,
            q_hat=result.q_hat,
            dim=dim,
            bic=bic(result.q_hat, dim, data.n),
            converged=result.converged,
            degenerate=result.degenerate,
            fit=result,
        ))
    eligible = [r for r in rows if r.eligible]
    if not eligible:
        detail = "; ".join(
            f"g={r.g}: " + (r.error or
                            ("degenerate" if r.degenerate else "not converged"))
            for r in rows)
        raise SelectionError(f"no eligible fit on grid 1..{G} ({detail})")
    best_bic = min(r.bic for r in eligible)
    g_hat = min(r.g for r in eligible if r.bic <= best_bic + 1e-12 * (1.0 + abs(best_bic)))
    return SelectionReport(rows=rows, g_hat=g_hat)
