"""Soft-max gated mixture-of-experts: estimation, selection, and inference."""

from .model import (
    Dataset,
    ExpertDesign,
    ModelError,
    MoeParams,
    log_quasi_likelihood,
    moe_log_density,
    responsibilities,
)
from .estimation import (
    EstimationError,
    FitConfig,
    FitResult,
    fit,
    initialize,
    multi_start_fit,
)
from .selection import SelectionReport, bic, param_count, select_g
from .inference import (SandwichCovariance, mean_ci, mean_ci_rows,
                        sandwich_covariance, score_vector)
from .tasks import (class_posteriors, gate_labels, predict_mean,
                    predict_mean_rows, predict_variance_rows)
from .datagen import SignalSpec, gen_moe_sample, gen_switch_signal, gen_three_class

__version__ = "0.1.0"
