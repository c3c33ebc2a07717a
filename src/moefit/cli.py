"""Command-line front door: simulate, fit, select, and predict.

Exit codes: 0 success, 2 usage/validation error, 3 numerical failure.
Every command is deterministic given its full argument list including --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import datagen, io, tasks
from .estimation import (EstimationError, FitConfig, InfeasibleInitError,
                         multi_start_fit)
from .inference import (InferenceError, mean_ci_rows, sandwich_covariance,
                        standard_errors)
from .model import (FAMILIES, ExpertDesign, ModelError, expert_family,
                    gate_log_probs, responsibilities)
from .selection import SelectionError, bic, param_count, select_g

EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


def _parse_design(text: str) -> ExpertDesign:
    if text == "raw":
        return ExpertDesign("raw")
    if text.startswith("poly:"):
        try:
            return ExpertDesign("poly", int(text.split(":", 1)[1]))
        except (ValueError, ModelError) as err:
            raise UsageError(f"bad --design value {text!r}: {err}") from None
    raise UsageError(f"--design must be 'raw' or 'poly:<degree>', got {text!r}")


# the fit-setting flags and the FitConfig fields they set
_FIT_FLAGS = {"--starts": "n_starts", "--seed": "seed", "--max-cycles": "max_cycles",
              "--rel-tol": "rel_tol", "--irls-max-inner": "irls_max_inner"}


def _fit_config(args) -> FitConfig:
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    return FitConfig(**{field: getattr(args, field) for field in _FIT_FLAGS.values()})


def _add_fit_flags(p):
    """The data, model and fit flags shared by ``fit`` and ``select``; the
    fit settings default to FitConfig's."""
    _add_data_flags(p)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--design", default="raw")
    p.add_argument("--out", required=True)
    p.add_argument("--with-covariance", action="store_true")
    for flag, field in _FIT_FLAGS.items():
        default = getattr(FitConfig, field)
        p.add_argument(flag, dest=field, type=type(default), default=default)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted (>= 1) but ignored: the starts always run "
                        "serially")


def _add_data_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--response-col", default="y")
    p.add_argument("--covariate-cols", default=None,
                   help="comma-separated covariate column names")


def _read_data(args, family: str, K: int | None):
    cols = args.covariate_cols.split(",") if args.covariate_cols else None
    return io.read_dataset_csv(
        args.data, expert_family(family).kind, K=K,
        response_col=args.response_col, covariate_cols=cols)


def _save_fit(args, result, data, design) -> None:
    """Save the fitted model with its fit summary to --out, and with
    --with-covariance its sandwich covariance too."""
    dim = param_count(result.theta.g, data.p, args.family, design, args.K)
    meta = {
        "logQL": result.q_hat,
        "dim": dim,
        "bic": bic(result.q_hat, dim, data.n),
        "n": data.n,
        "cycles": result.cycles_used,
        "seed": result.seed_used,
        "converged": result.converged,
        "degenerate": result.degenerate,
    }
    covariance = None
    if args.with_covariance:
        sw = sandwich_covariance(data, result.theta)
        covariance = {"order": sw.labels, "matrix": sw.cov.tolist(),
                      "condition": sw.condition}
    io.save_model(args.out, result.theta, meta, covariance)


def _box_bound(text: str, flag: str, p: int) -> list[float]:
    """One corner of simulate moe's covariate box: 1 value for every
    coordinate, or p values, all finite."""
    values = [float(v) for v in text.split(",")]
    if not np.all(np.isfinite(values)):
        raise UsageError(f"{flag} must be finite, got {text!r}")
    if len(values) not in (1, p):
        raise UsageError(f"{flag} needs 1 or {p} values, got {len(values)}")
    return values * p if len(values) == 1 else values


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.what == "three-class":
        data = datagen.gen_three_class(args.n, args.seed)
        params = {"generator": "three-class", "n": args.n, "seed": args.seed}
    elif args.what == "moe":
        if not args.model:
            raise UsageError("simulate moe requires --model")
        theta, _ = io.load_model(args.model)
        low = _box_bound(args.x_low, "--x-low", theta.p)
        high = _box_bound(args.x_high, "--x-high", theta.p)
        if any(lo > hi for lo, hi in zip(low, high)):
            raise UsageError("--x-low must not exceed --x-high")
        sampler = datagen.uniform_box_sampler(low, high)
        data = datagen.gen_moe_sample(theta, sampler, args.n, args.seed)
        params = {"generator": "moe", "model": str(args.model), "n": args.n,
                  "seed": args.seed, "x_low": low, "x_high": high}
    else:  # switch-signal
        if args.signal_spec:
            spec_doc = json.loads(Path(args.signal_spec).read_text())
            try:
                spec = datagen.SignalSpec(
                    n=args.n, seed=args.seed,
                    breakpoints=tuple(spec_doc["breakpoints"]),
                    coefs=tuple(tuple(c) for c in spec_doc["coefs"]),
                    noise_sd=tuple(spec_doc["noise_sd"]))
            except (KeyError, TypeError) as err:
                raise UsageError(f"malformed --signal-spec file: {err!r}") from None
        else:
            spec = datagen.SignalSpec(n=args.n, seed=args.seed)
        data = datagen.gen_switch_signal(spec)
        params = {"generator": "switch-signal", "n": args.n, "seed": args.seed,
                  "breakpoints": list(spec.breakpoints),
                  "coefs": [list(c) for c in spec.coefs],
                  "noise_sd": list(spec.noise_sd)}
    io.write_dataset_csv(args.out, data)
    io.write_sidecar_json(str(args.out) + ".json", params)
    return 0


def cmd_fit(args) -> int:
    if args.g < 1:
        raise UsageError("--g must be >= 1")
    design = _parse_design(args.design)
    data = _read_data(args, args.family, args.K)
    config = _fit_config(args)
    result = multi_start_fit(data, args.g, args.family, design, config)
    _save_fit(args, result, data, design)
    return 0


def cmd_select(args) -> int:
    if args.G < 1:
        raise UsageError("--G must be >= 1")
    design = _parse_design(args.design)
    data = _read_data(args, args.family, args.K)
    config = _fit_config(args)
    report = select_g(data, args.G, args.family, design, config)
    best = report.best()
    _save_fit(args, best.fit, data, design)
    if args.table:
        report.to_csv(args.table)
    print(f"selected g={report.g_hat}  logQL={best.q_hat:.6f}  "
          f"dim={best.dim}  bic={best.bic:.6f}")
    return 0


def cmd_predict(args) -> int:
    theta, doc = io.load_model(args.model)
    if args.mode == "cluster-posterior":
        data = _read_data(args, theta.family, theta.K)
        X = data.X
    else:
        cols = args.covariate_cols.split(",") if args.covariate_cols else None
        X = io.read_covariates_csv(args.data, args.response_col, cols)
    if X.shape[1] != theta.p:
        raise UsageError(
            f"model expects {theta.p} covariate column(s), data has {X.shape[1]}")
    header = [f"x{j + 1}" for j in range(theta.p)]
    columns = list(X.T)
    if args.mode in ("classify", "cluster-posterior", "cluster-gate"):
        if args.mode == "classify":
            probs = tasks.class_posteriors(X, theta)
        elif args.mode == "cluster-posterior":
            probs = responsibilities(data, theta)
        else:
            probs = np.exp(gate_log_probs(X, theta.gating))
        prefix = "gate" if args.mode == "cluster-gate" else "post"
        header += [f"{prefix}_{k + 1}" for k in range(probs.shape[1])] + ["label"]
        columns += list(probs.T) + [np.argmax(probs, axis=1) + 1]
    elif args.mode in ("mean", "variance"):
        predict = (tasks.predict_mean_rows if args.mode == "mean"
                   else tasks.predict_variance_rows)
        header += [args.mode]
        columns.append(predict(X, theta))
    else:  # mean-ci: gate_means refuses experts that are not gaussian first
        tasks.gate_means(X[:0], theta)
        if "covariance" not in doc:
            raise UsageError(
                "mean-ci requires a model saved with --with-covariance")
        cov = np.asarray(doc["covariance"]["matrix"])
        header += ["mean", "lower", "upper"]
        columns += mean_ci_rows(X, theta, cov, args.level)
    io.write_csv(args.out, header, columns)
    return 0


# the fit summary that _save_fit writes: each key and its JSON types (a
# JSON true is a bool, not an int)
_FIT_BLOCK = {"logQL": (int, float), "dim": (int,), "bic": (int, float),
              "n": (int,), "cycles": (int,), "seed": (int,),
              "converged": (bool,), "degenerate": (bool,)}


def cmd_summarize(args) -> int:
    theta, doc = io.load_model(args.model)
    print(f"family={theta.family}  g={theta.g}  p={theta.p}"
          + (f"  K={theta.K}" if theta.K else ""))
    print(f"expert design: {theta.design.kind}"
          + (f" (degree {theta.design.degree})" if theta.design.kind == "poly" else ""))
    if "fit" in doc:
        f = doc["fit"]
        bad = [key for key, types in _FIT_BLOCK.items()
               if not isinstance(f, dict) or type(f.get(key)) not in types]
        if bad:
            raise io.FormatError(
                f"{args.model}: fit block has missing or mistyped keys {bad}")
        print(f"logQL={f['logQL']:.6f}  dim={f['dim']}  bic={f['bic']:.6f}  "
              f"n={f['n']}  cycles={f['cycles']}  converged={f['converged']}  "
              f"degenerate={f['degenerate']}  seed={f['seed']}")
    if "covariance" in doc:
        if "condition" in doc["covariance"]:
            print(f"bread condition number={doc['covariance']['condition']:.3e}")
        ses = standard_errors(np.asarray(doc["covariance"]["matrix"]))
        for label, se in zip(doc["covariance"]["order"], ses):
            print(f"  se[{label}] = {se:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moefit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    p.add_argument("what", choices=["three-class", "moe", "switch-signal"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--model", default=None, help="model JSON for 'moe'")
    p.add_argument("--x-low", default="0.0")
    p.add_argument("--x-high", default="1.0")
    p.add_argument("--signal-spec", default=None,
                   help="JSON file with breakpoints/coefs/noise_sd")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a model with a fixed g")
    p.add_argument("--g", type=int, required=True)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("select", help="select g by BIC over 1..G")
    p.add_argument("--G", type=int, required=True)
    p.add_argument("--table", default=None, help="per-g BIC table CSV path")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("predict", help="batch prediction from a fitted model")
    p.add_argument("--model", required=True)
    _add_data_flags(p)
    p.add_argument("--mode", required=True,
                   choices=["classify", "cluster-posterior", "cluster-gate",
                            "mean", "variance", "mean-ci"])
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("summarize", help="print a model file summary")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_summarize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        return args.func(args)
    except (UsageError, io.FormatError, ModelError, ValueError, OSError,
            InfeasibleInitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (EstimationError, SelectionError, InferenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
