"""The three benchmark workloads: set-up, rounds of operations, and checks.

A workload's ``setup`` builds what every round shares; ``ops(r)`` yields the
operations of round ``r`` in order.  Each ``Op`` is timed around ``run`` only;
its ``check`` runs afterwards, raises ``CheckError`` when an output is wrong
and returns a digest of the numeric results (used to prove that a traced
round computes exactly what the untraced round did).  Inputs of round ``r``
come from ``round_seed(seed, r, k)``, so a seed fixes every input of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from checks import require


def round_seed(seed: int, r: int, k: int = 0) -> int:
    return int(np.random.SeedSequence([seed, r, k]).generate_state(1)[0])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, (bytes, bytearray)):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def file_digest(*paths) -> str:
    return digest(*[Path(p).read_bytes() for p in paths])


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    rows: int = 0
    # the known program fault this operation fails on until it is mended
    fault: str | None = None


@dataclass
class Fits:
    """Every FitResult returned by ``moefit.estimation.fit`` during an op.

    The collector wraps ``fit`` at each module attribute that refers to it, so
    it sees every start of every multi-start fit, also on pool threads.
    """
    results: list = field(default_factory=list)

    def wrap(self, fn):
        def collected(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append(result)
            return result
        return collected

    def traces(self):
        return [r.q_trace for r in self.results]


class Workload:
    name = ""

    def __init__(self, moefit, fits: Fits, work: Path, seed: int):
        self.m = moefit
        self.fits = fits
        self.work = work
        self.seed = seed
        self.run_stats: list = []

    def setup(self) -> None:
        """Build what every round shares; called several times."""

    def ops(self, r: int):
        raise NotImplementedError

    def check_run(self) -> None:
        """Checks over all operations of the run."""


# --- three-class-select -----------------------------------------------------

class ThreeClassSelect(Workload):
    """Criterion 1: multinomial select_g, then held-out class posteriors."""

    name = "three-class-select"
    N_TRAIN = 500
    N_TEST = 2500
    G = 5

    def _config(self):
        return self.m.estimation.FitConfig(
            n_starts=1, seed=0, rel_tol=2e-4, max_cycles=100, irls_max_inner=1)

    def _inputs(self, r):
        gen = self.m.datagen.gen_three_class
        return (gen(self.N_TRAIN, round_seed(self.seed, r, 0)),
                gen(self.N_TEST, round_seed(self.seed, r, 1)))

    def setup(self):
        train, test = self._inputs(0)
        require(np.array_equal(checks.region_labels(test.X),
                               self.m.datagen.three_class_labels(test.X)),
                "region rule disagrees with datagen.three_class_labels")

    def ops(self, r):
        m = self.m
        train, test = self._inputs(r)
        state = {}

        def select():
            return m.selection.select_g(train, self.G, "multinomial",
                                        config=self._config())

        def check_select(rep):
            checks.check_monotone(self.fits.traces())
            rows = [(row.g, row.q_hat, row.dim, row.bic, row.eligible)
                    for row in rep.rows]
            g_best = checks.check_bic_rows(
                rows, train.n, lambda g: checks.multinomial_dim(g, 2, 3))
            require(rep.g_hat == g_best,
                    f"g_hat {rep.g_hat} != BIC choice {g_best}")
            state["theta"] = rep.best().fit.theta
            state["g_hat"] = rep.g_hat
            return digest(rep.g_hat, [row.q_hat for row in rep.rows])

        yield Op("select", select, check_select)

        def classify():
            return m.tasks.class_posteriors(test.X, state["theta"])

        def check_classify(post):
            doc = checks.params_doc(state["theta"])
            checks.check_posteriors(post, doc, test.X)
            acc = checks.accuracy(np.argmax(post, axis=1) + 1, test.X)
            self.run_stats.append((state["g_hat"], acc))
            return digest(post)

        yield Op("class-posteriors", classify, check_classify, rows=self.N_TEST)

    def check_run(self):
        # criterion 1 judges medians over training sets; one training set
        # with a single start per g can land below 0.86
        require(self.run_stats, "no class-posteriors operation passed its checks")
        checks.check_criterion1(*zip(*self.run_stats))


# --- gaussian-bic-sandwich --------------------------------------------------

class GaussianBicSandwich(Workload):
    """Criteria 6 and 7: gaussian select_g, then a fit + sandwich replicate."""

    name = "gaussian-bic-sandwich"
    N_SELECT = 500
    N_REPLICATE = 2000

    def setup(self):
        m = self.m
        self.truth = m.model.MoeParams(
            family="gaussian",
            gating=np.array([[1.0, 1.5], [0.0, 0.0]]),
            beta=np.array([[1.0, 2.0], [-2.0, -1.0]]),
            sigma2=np.array([0.3, 0.3]))
        self.sampler = m.datagen.uniform_box_sampler([-2.0], [2.0])
        self._sample(self.N_SELECT, round_seed(self.seed, 0, 0))

    def _sample(self, n, s):
        return self.m.datagen.gen_moe_sample(self.truth, self.sampler, n, s)

    def ops(self, r):
        m = self.m
        FitConfig = m.estimation.FitConfig
        data = self._sample(self.N_SELECT, round_seed(self.seed, r, 0))

        def select():
            return m.selection.select_g(
                data, 4, "gaussian",
                config=FitConfig(n_starts=3, rel_tol=1e-5, max_cycles=150))

        def check_select(rep):
            checks.check_monotone(self.fits.traces())
            rows = [(row.g, row.q_hat, row.dim, row.bic, row.eligible)
                    for row in rep.rows]
            g_best = checks.check_bic_rows(
                rows, data.n, lambda g: checks.gaussian_dim(g, 1))
            require(rep.g_hat == g_best,
                    f"g_hat {rep.g_hat} != BIC choice {g_best}")
            self.run_stats.append(rep.g_hat)
            return digest(rep.g_hat, [row.q_hat for row in rep.rows])

        yield Op("select", select, check_select)

        rep_data = self._sample(self.N_REPLICATE, round_seed(self.seed, r, 1))
        state = {}

        def fit():
            return m.estimation.multi_start_fit(
                rep_data, 2, "gaussian", m.model.ExpertDesign(),
                FitConfig(n_starts=4, seed=0, rel_tol=1e-6, max_cycles=400))

        def check_fit(res):
            checks.check_monotone(self.fits.traces())
            require(len(self.fits.results) == 4,
                    f"{len(self.fits.results)} starts seen, want 4")
            require(res.q_hat == max(f.q_hat for f in self.fits.results),
                    "winner is not the start with the largest Q")
            checks.check_fit_truth(res.theta.beta, self.truth.beta)
            state["theta"] = res.theta
            return digest(res.q_trace, res.theta.gating, res.theta.beta,
                          res.theta.sigma2)

        yield Op("fit", fit, check_fit)

        def sandwich():
            return m.inference.sandwich_covariance(rep_data, state["theta"])

        def check_sandwich(sw):
            checks.check_covariance(sw.cov, checks.gaussian_dim(2, 1))
            return digest(sw.cov)

        yield Op("sandwich", sandwich, check_sandwich)

        hc_data = self._sample(self.N_REPLICATE, round_seed(self.seed, r, 99))

        def hc0():
            fit1 = m.estimation.multi_start_fit(
                hc_data, 1, "gaussian", m.model.ExpertDesign(),
                FitConfig(n_starts=1))
            return m.inference.sandwich_covariance(hc_data, fit1.theta)

        def check_hc0(sw):
            idx = [sw.labels.index("expert[1].b0"), sw.labels.index("expert[1].b1")]
            checks.check_hc0(sw.cov[np.ix_(idx, idx)], hc_data.X, hc_data.y)
            return digest(sw.cov)

        yield Op("sandwich-g1", hc0, check_hc0)

    def check_run(self):
        # criterion 6's rule: BIC picks g = 2 in at least 8 of 10 data sets;
        # at n = 500 about one data set in 200 gives g_hat = 3
        require(self.run_stats, "no select operation passed its checks")
        share = self.run_stats.count(2) / len(self.run_stats)
        require(share >= 0.8, f"g_hat = 2 in only {share:.0%} of the selects")


# --- cli-segment-predict ----------------------------------------------------

SIGNAL_SPEC = {
    "breakpoints": list(checks.SIGNAL_BREAKPOINTS),
    "coefs": [[10.0, 0.0, 0.0], [-20.0, 80.0, -60.0],
              [45.0, -40.0, 10.0], [-45.0, 60.0, 0.0]],
    "noise_sd": [1.5, 1.5, 1.5, 1.5],
}
# fit, select and cluster-gate run on this signal whatever the seed, so each
# passes or fails the same way in every run: select and cluster-gate fail on
# every input today (see README), and on signals drawn from other seeds about
# one g = 4 fit in sixty merges two regimes, which criterion 8 tolerates
FIXED_SIGNAL_SEED = 0
SEGMENT_FLAGS = ["--max-cycles", "100", "--rel-tol", "1e-6", "--threads", "2"]


class CliSegmentPredict(Workload):
    """Criterion 8 and the prediction modes through ``moefit.cli.main``."""

    name = "cli-segment-predict"
    N_SIGNAL = 550
    N_GRID = 128
    N_CLASSIFY = 50000
    N_SETUP_TRAIN = 1000

    def cli(self, *argv):
        """``moefit.cli.main`` in-process; returns (exit code, its output)."""
        out = _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = self.m.cli.main([str(a) for a in argv])
        return rc, out.getvalue()

    def cli_op(self, *argv):
        return lambda: self.cli(*argv)

    def _ok(self, res, what):
        rc, text = res
        require(rc == 0, f"{what} exited {rc}: {text.strip()[-300:]}")
        return text

    def setup(self):
        w = self.work
        self.spec = w / "spec.json"
        self.spec.write_text(json.dumps(SIGNAL_SPEC))
        self.grid = w / "grid.csv"
        self.grid.write_text("x1\n" + "".join(
            f"{t!r}\n" for t in (np.arange(self.N_GRID) / (self.N_GRID - 1)).tolist()))
        self.fixed = w / "fixed.csv"
        self._ok(self.cli("simulate", "switch-signal", "--n", self.N_SIGNAL,
                          "--seed", FIXED_SIGNAL_SEED, "--signal-spec", self.spec,
                          "--out", self.fixed), "simulate fixed signal")
        train = w / "train3.csv"
        self.mn_model = w / "multinomial.json"
        self._ok(self.cli("simulate", "three-class", "--n", self.N_SETUP_TRAIN,
                          "--seed", round_seed(self.seed, 0, 7), "--out", train),
                 "simulate training set")
        self._ok(self.cli("fit", "--data", train, "--family", "multinomial",
                          "--K", "3", "--g", "4", "--starts", "3", "--threads", "2",
                          "--max-cycles", "100", "--rel-tol", "2e-4",
                          "--irls-max-inner", "1", "--out", self.mn_model),
                 "set-up multinomial fit")
        self.mn_doc = json.loads(self.mn_model.read_text())
        self.fits.results.clear()

    def ops(self, r):
        w = self.work
        s = round_seed(self.seed, r, 0)
        sig, fit_json = w / "sig.csv", w / "fit.json"
        sel_json, table = w / "select.json", w / "table.csv"
        tc = w / "three-class.csv"
        out = {mode: w / f"pred-{mode}.csv"
               for mode in ("cluster-gate", "mean", "variance", "mean-ci", "classify")}
        selected = {}

        def csv_cols(path):
            return checks.read_csv(path)[1]

        def doc(path):
            return json.loads(Path(path).read_text())

        def check_signal(res):
            self._ok(res, "simulate switch-signal")
            checks.check_signal(csv_cols(sig), SIGNAL_SPEC)
            return file_digest(sig)

        yield Op("simulate-signal",
                 self.cli_op("simulate", "switch-signal", "--n", self.N_SIGNAL,
                             "--seed", s, "--signal-spec", self.spec, "--out", sig),
                 check_signal, rows=self.N_SIGNAL)

        def check_fit(res):
            self._ok(res, "fit")
            checks.check_monotone(self.fits.traces())
            model = doc(fit_json)
            require(model["g"] == 4, f"fit has g={model['g']}")
            checks.check_covariance(np.asarray(model["covariance"]["matrix"]),
                                    checks.gaussian_dim(4, 1, 2))
            cols = csv_cols(self.fixed)
            checks.check_segmentation(model, cols["x1"], cols["z_true"])
            return file_digest(fit_json)

        yield Op("fit",
                 self.cli_op("fit", "--data", self.fixed, "--family", "gaussian",
                             "--g", "4", "--design", "poly:2", "--with-covariance",
                             "--seed", FIXED_SIGNAL_SEED, "--starts", "4",
                             *SEGMENT_FLAGS, "--out", fit_json),
                 check_fit)

        def check_select(res):
            text = self._ok(res, "select")
            checks.check_monotone(self.fits.traces())
            selected["starts"] = [(f.theta.g, f.converged) for f in self.fits.results]
            rows = checks.parse_bic_table(table.read_text())
            g_best = checks.check_bic_rows(
                rows, self.N_SIGNAL, lambda g: checks.gaussian_dim(g, 1, 2))
            g = doc(sel_json)["g"]
            require(g == g_best and f"selected g={g_best} " in text,
                    f"selected g={g} but the table's BIC choice is {g_best}")
            return file_digest(sel_json, table)

        yield Op("select",
                 self.cli_op("select", "--data", self.fixed, "--family", "gaussian",
                             "--G", "5", "--design", "poly:2",
                             "--seed", FIXED_SIGNAL_SEED, "--starts", "2",
                             *SEGMENT_FLAGS, "--table", table, "--out", sel_json),
                 check_select, fault="a")

        def predict(model, data, mode):
            return self.cli_op("predict", "--model", model, "--data", data,
                               "--mode", mode, "--out", out[mode])

        def check_gate(res):
            self._ok(res, "predict cluster-gate")
            model, cols = doc(sel_json), csv_cols(self.fixed)
            labels = checks.check_gate_output(csv_cols(out["cluster-gate"]), model,
                                              cols["x1"][:, None])
            big = [conv for g, conv in selected.get("starts", []) if g >= 3]
            require(model["g"] >= 4,
                    f"selected model has g={model['g']}, the segmentation needs "
                    f"g >= 4; {big.count(False)} of {len(big)} select starts with "
                    "g >= 3 stopped at --max-cycles without meeting --rel-tol")
            checks.segment_against(labels, cols["x1"], cols["z_true"].astype(int))
            return file_digest(out["cluster-gate"])

        yield Op("predict-cluster-gate",
                 predict(sel_json, self.fixed, "cluster-gate"), check_gate,
                 fault="b")

        def check_moment(mode):
            def check(res):
                self._ok(res, f"predict {mode}")
                checks.check_moment_output(mode, csv_cols(out[mode]), doc(fit_json))
                return file_digest(out[mode])
            return check

        for mode in ("mean", "variance"):
            yield Op(f"predict-{mode}", predict(fit_json, sig, mode),
                     check_moment(mode))
        yield Op("predict-mean-ci", predict(fit_json, self.grid, "mean-ci"),
                 check_moment("mean-ci"), rows=self.N_GRID)

        def check_three_class(res):
            self._ok(res, "simulate three-class")
            checks.check_three_class_output(csv_cols(tc), self.N_CLASSIFY)
            return file_digest(tc)

        yield Op("simulate-three-class",
                 self.cli_op("simulate", "three-class", "--n", self.N_CLASSIFY,
                             "--seed", s, "--out", tc),
                 check_three_class, rows=self.N_CLASSIFY)

        def check_classify(res):
            self._ok(res, "predict classify")
            self.run_stats.append(checks.check_classify_output(
                csv_cols(out["classify"]), self.mn_doc))
            return file_digest(out["classify"])

        yield Op("predict-classify", predict(self.mn_model, tc, "classify"),
                 check_classify, rows=self.N_CLASSIFY)

    def check_run(self):
        # one set-up model serves every round
        require(self.run_stats, "no classify operation passed its checks")
        require(min(self.run_stats) >= 0.86,
                f"classify accuracy {min(self.run_stats):.3f} < 0.86")


WORKLOADS = {w.name: w for w in (ThreeClassSelect, GaussianBicSandwich,
                                 CliSegmentPredict)}
