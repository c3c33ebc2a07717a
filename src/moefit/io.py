"""File formats: CSV datasets and JSON model documents.

Datasets are plain comma-separated files with a mandatory header
(x1..xp, y[, z_true]); categorical responses are integers 1..K.  Models are
JSON with all coefficient blocks stored explicitly (including the zero
reference blocks) so that save -> load -> save is byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .inference import param_labels
from .model import Dataset, ExpertDesign, MoeParams

SCHEMA_VERSION = 1


class FormatError(ValueError):
    pass


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length ``columns`` under ``header``: integer columns as
    integers, every other column as repr(float), CRLF line endings.  No cell
    needs quoting (headers are generated and numbers hold no comma or quote),
    so the file is what ``csv.writer`` would write."""
    cells = [map(str, c.tolist()) if np.issubdtype(c.dtype, np.integer)
             else map(repr, c.astype(float).tolist()) for c in map(np.asarray, columns)]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    Path(path).write_text("\r\n".join(lines) + "\r\n", newline="")


def write_dataset_csv(path, data: Dataset) -> None:
    header = [f"x{j + 1}" for j in range(data.p)] + ["y"]
    columns = list(data.X.T) + [data.y]
    if data.z_true is not None:
        header.append("z_true")
        columns.append(np.asarray(data.z_true).astype(int))
    write_csv(path, header, columns)


def _read_columns(path: Path, response_col: str,
                  covariate_cols: list[str] | None, with_response: bool):
    """Covariates (n, p), and the response and z_true columns when
    ``with_response`` is set (z_true is None when the file has none).
    The header is parsed by ``csv`` and the body by numpy's C parser, which
    skips blank lines and takes double-quoted cells and spaces around numbers;
    any other bad cell (``#...``, ``1_000``, empty, missing) or a non-finite
    z_true is a malformed row.  z_true truncates like ``int(float(s))``."""
    with path.open() as fh:
        line = fh.readline()
        if not line:
            raise FormatError(f"{path}: empty file")
        header = next(csv.reader([line]))
        if with_response and response_col not in header:
            raise FormatError(f"{path}: missing response column {response_col!r} "
                              f"(found columns: {header})")
        if covariate_cols is None:
            covariate_cols = [c for c in header if c not in (response_col, "z_true")]
        missing = [c for c in covariate_cols if c not in header]
        if missing:
            raise FormatError(f"{path}: missing covariate column(s) {missing} "
                              f"(found columns: {header})")
        used = [header.index(c) for c in covariate_cols]
        if with_response:
            used += [header.index(c) for c in (response_col, "z_true") if c in header]
        # loadtxt warns on a body with no rows, so find the first one first
        start = fh.tell()
        while (line := fh.readline()) == "\n":
            start = fh.tell()
        fh.seek(start)
        try:
            cols = (np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None,
                               usecols=used) if line else np.empty((0, len(used))))
        except (ValueError, IndexError, OverflowError) as err:
            raise FormatError(f"{path}: malformed row ({err})") from None
    p = len(covariate_cols)
    X = np.ascontiguousarray(cols[:, :p])
    if not with_response:
        return X, None, None
    z = cols[:, p + 1] if len(used) > p + 1 else None
    # false for nan and inf too, so the cast below stays silent
    if z is not None and not np.all(np.abs(z) < 2.0 ** 63):
        raise FormatError(f"{path}: malformed row (z_true is nan, inf or beyond int64)")
    return X, cols[:, p].copy(), None if z is None else z.astype(int)


def read_dataset_csv(path, kind: str, K: int | None = None,
                     response_col: str = "y",
                     covariate_cols: list[str] | None = None) -> Dataset:
    X, y, z = _read_columns(Path(path), response_col, covariate_cols, True)
    return Dataset(X, y, kind, K=K, z_true=z)


def read_covariates_csv(path, response_col: str = "y",
                        covariate_cols: list[str] | None = None) -> np.ndarray:
    """The covariate columns of a dataset CSV, (n, p); the response column
    may be absent."""
    return _read_columns(Path(path), response_col, covariate_cols, False)[0]


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def model_to_dict(theta: MoeParams, fit_meta: dict | None = None,
                  covariance: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": theta.family,
        "g": theta.g,
        "p": theta.p,
        "expert_design": theta.design.to_dict(),
        "gating": theta.gating.tolist(),
        "experts": {"beta": theta.beta.tolist()},
    }
    if theta.K is not None:
        doc["K"] = theta.K
    if theta.sigma2 is not None:
        doc["experts"]["sigma2"] = theta.sigma2.tolist()
    if fit_meta:
        doc["fit"] = fit_meta
    if covariance:
        doc["covariance"] = covariance
    return doc


def model_from_dict(doc: dict) -> MoeParams:
    if not isinstance(doc, dict):
        raise FormatError("malformed model document: not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"unsupported model schema_version {doc.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    try:
        experts = doc["experts"]
        theta = MoeParams(
            family=doc["family"],
            gating=np.asarray(doc["gating"], dtype=float),
            beta=np.asarray(experts["beta"], dtype=float),
            design=ExpertDesign.from_dict(doc["expert_design"]),
            sigma2=(np.asarray(experts["sigma2"], dtype=float)
                    if "sigma2" in experts else None),
            K=doc.get("K"),
        )
        if (doc["g"], doc["p"]) != (theta.g, theta.p):
            raise FormatError(f"g={doc['g']!r}, p={doc['p']!r} do not match the "
                              f"{theta.g} x {theta.p + 1} gating array")
        # True == 1 and 3.0 == 3 pass the checks above; 3.0 would re-save as 3.0
        counts = dict(g=doc["g"], p=doc["p"], K=theta.K, degree=theta.design.degree)
        wrong = [f"{k}={v!r}" for k, v in counts.items()
                 if v is not None and type(v) is not int]
        if wrong:
            raise FormatError(f"not a JSON integer: {', '.join(wrong)}")
        if "covariance" in doc:
            labels = param_labels(theta)
            cov = doc["covariance"]
            shape = np.asarray(cov["matrix"], dtype=float).shape
            if cov["order"] != labels or shape != (len(labels), len(labels)):
                raise FormatError(f"covariance block does not match the model's "
                                  f"{len(labels)} parameters")
            if type(cov.get("condition", 0.0)) not in (int, float):
                raise FormatError("covariance condition is not a number")
    except (KeyError, TypeError, ValueError) as err:  # ModelError, FormatError too
        raise FormatError(f"malformed model document: {err}") from None
    return theta


def save_model(path, theta: MoeParams, fit_meta: dict | None = None,
               covariance: dict | None = None) -> None:
    write_json(path, model_to_dict(theta, fit_meta, covariance))


def load_model(path) -> tuple[MoeParams, dict]:
    doc = json.loads(Path(path).read_text())
    return model_from_dict(doc), doc
