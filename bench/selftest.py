"""Self-test of the benchmark: its checks, its determinism and the CLI pool.

    python3 bench/selftest.py

Every output check must pass on a correct output and reject a deliberately
wrong one; two benchmark runs with one seed must give identical results; and
``moefit fit --threads 2`` must write the same model bytes as ``--threads 1``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run  # sets the thread environment before numpy does any work

moefit = run.load_moefit()

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import SIGNAL_SPEC, WORKLOADS  # noqa: E402

from moefit import cli, datagen, io  # noqa: E402
from moefit.estimation import FitConfig, multi_start_fit  # noqa: E402
from moefit.inference import sandwich_covariance  # noqa: E402
from moefit.model import ExpertDesign  # noqa: E402
from moefit.selection import select_g  # noqa: E402
from moefit.tasks import class_posteriors  # noqa: E402


def cli_quiet(*argv):
    with open(os.devnull, "w") as null:
        stdout, sys.stdout = sys.stdout, null
        try:
            return cli.main([str(a) for a in argv])
        finally:
            sys.stdout = stdout


class ChecksRejectWrongOutputs(unittest.TestCase):
    """Each check passes the program's output and rejects a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = Path(tempfile.mkdtemp(dir=run.OUT))
        cls.train = datagen.gen_three_class(600, seed=5)
        cls.test = datagen.gen_three_class(800, seed=6)
        config = FitConfig(n_starts=1, rel_tol=2e-4, max_cycles=100,
                           irls_max_inner=1)
        cls.report = select_g(cls.train, 4, "multinomial", config=config)
        cls.mn = cls.report.best().fit.theta
        spec = datagen.SignalSpec(n=550, seed=3, breakpoints=tuple(
            SIGNAL_SPEC["breakpoints"]), coefs=tuple(map(tuple, SIGNAL_SPEC["coefs"])),
            noise_sd=tuple(SIGNAL_SPEC["noise_sd"]))
        cls.signal = datagen.gen_switch_signal(spec)
        cls.seg = multi_start_fit(cls.signal, 4, "gaussian", ExpertDesign("poly", 2),
                                  FitConfig(n_starts=4, seed=3, rel_tol=1e-6,
                                            max_cycles=100))

    @classmethod
    def tearDownClass(cls):
        for p in cls.tmp.iterdir():
            p.unlink()
        cls.tmp.rmdir()

    def assertRejects(self, fn, *args):
        with self.assertRaises(CheckError):
            fn(*args)

    def test_monotone(self):
        good = [r.fit.q_trace for r in self.report.rows if r.fit]
        checks.check_monotone(good)
        bad = good[-1].copy()
        bad[len(bad) // 2] += 1.0
        self.assertRejects(checks.check_monotone, good + [bad])
        self.assertRejects(checks.check_monotone, [])

    def test_bic_rows(self):
        rows = [(r.g, r.q_hat, r.dim, r.bic, r.eligible) for r in self.report.rows]

        def dim(g):
            return checks.multinomial_dim(g, 2, 3)

        self.assertEqual(checks.check_bic_rows(rows, self.train.n, dim),
                         self.report.g_hat)
        g, q, d, b, e = rows[1]
        self.assertRejects(checks.check_bic_rows,
                           rows[:1] + [(g, q, d, b + 1e-3, e)] + rows[2:],
                           self.train.n, dim)
        self.assertRejects(checks.check_bic_rows, rows, self.train.n,
                           lambda g: dim(g) + 1)

    def test_bic_table(self):
        bic = 20.0 + 4 * np.log(50)
        table = "g,logQL,dim,bic,converged,degenerate\n1,-10.0,4,{},1,0\n"
        (row,) = checks.parse_bic_table(table.format(repr(float(bic))))
        self.assertEqual(checks.check_bic_rows([row], 50, lambda g: 4), 1)
        # the np.float64 repr that SelectionReport.to_csv writes under numpy 2
        self.assertRejects(checks.parse_bic_table, table.format(repr(bic)))
        self.assertRejects(checks.parse_bic_table,
                           table.replace("logQL", "q").format(repr(float(bic))))

    def test_posteriors_and_accuracy(self):
        post = class_posteriors(self.test.X, self.mn)
        doc = checks.params_doc(self.mn)
        checks.check_posteriors(post, doc, self.test.X)
        bad = self.mn.copy()
        bad.beta[0, 0, 0] += 1e-3
        self.assertRejects(checks.check_posteriors, post,
                           checks.params_doc(bad), self.test.X)
        labels = np.argmax(post, axis=1) + 1
        acc = checks.accuracy(labels, self.test.X)
        self.assertEqual(checks.accuracy(self.test.y, self.test.X), 1.0)
        perm = np.random.default_rng(0).permutation(labels)
        self.assertLess(checks.accuracy(perm, self.test.X), acc)
        checks.check_criterion1([4, 4, 5], [0.88, 0.9, 0.87])
        self.assertRejects(checks.check_criterion1, [4, 4, 5], [0.88, 0.85, 0.8])
        self.assertRejects(checks.check_criterion1, [2, 2, 4], [0.9, 0.9, 0.9])

    def test_classify_output(self):
        path = self.tmp / "m.json"
        io.save_model(path, self.mn)
        data = self.tmp / "x.csv"
        io.write_dataset_csv(data, self.test)
        out = self.tmp / "c.csv"
        self.assertEqual(cli_quiet("predict", "--model", path, "--data", data,
                                   "--mode", "classify", "--out", out), 0)
        doc = json.loads(path.read_text())
        _, cols = checks.read_csv(out)
        checks.check_classify_output(cols, doc)
        permuted = dict(cols, label=np.random.default_rng(1).permutation(cols["label"]))
        self.assertRejects(checks.check_classify_output, permuted, doc)
        _, sim = checks.read_csv(data)
        checks.check_three_class_output(sim, self.test.n)
        self.assertRejects(checks.check_three_class_output,
                           dict(sim, y=np.roll(sim["y"], 1)), self.test.n)

    def test_signal_and_segmentation(self):
        t, y = self.signal.X[:, 0], self.signal.y
        cols = {"x1": t, "y": y, "z_true": self.signal.z_true.astype(float)}
        checks.check_signal(cols, SIGNAL_SPEC)
        self.assertRejects(checks.check_signal,
                           dict(cols, z_true=np.roll(cols["z_true"], 20)), SIGNAL_SPEC)
        self.assertRejects(checks.check_signal, dict(cols, y=y + 100.0), SIGNAL_SPEC)
        doc = checks.params_doc(self.seg.theta)
        checks.check_segmentation(doc, t, self.signal.z_true)
        bad = self.seg.theta.copy()
        bad.gating[:, 1] *= 0.5          # moves every regime boundary
        self.assertRejects(checks.check_segmentation, checks.params_doc(bad), t,
                           self.signal.z_true)

    def test_gate_and_moment_outputs(self):
        path = self.tmp / "seg.json"
        io.save_model(path, self.seg.theta)
        doc = json.loads(path.read_text())
        data = self.tmp / "sig.csv"
        io.write_dataset_csv(data, self.signal)
        cols = {}
        for mode in ("cluster-gate", "mean", "variance"):
            out = self.tmp / f"{mode}.csv"
            self.assertEqual(cli_quiet("predict", "--model", path, "--data", data,
                                       "--mode", mode, "--out", out), 0)
            cols[mode] = checks.read_csv(out)[1]
        X = self.signal.X
        checks.check_gate_output(cols["cluster-gate"], doc, X)
        self.assertRejects(checks.check_gate_output,
                           dict(cols["cluster-gate"],
                                label=cols["cluster-gate"]["label"][::-1]), doc, X)
        bad = json.loads(json.dumps(doc))
        bad["experts"]["beta"][0][1] += 1e-4
        for mode in ("mean", "variance"):
            checks.check_moment_output(mode, cols[mode], doc)
            self.assertRejects(checks.check_moment_output, mode, cols[mode], bad)
        mean = cols["mean"]["mean"]
        ci = {"x1": X[:, 0], "mean": mean, "lower": mean - 1.0, "upper": mean + 1.0}
        checks.check_moment_output("mean-ci", ci, doc)
        self.assertRejects(checks.check_moment_output, "mean-ci",
                           dict(ci, lower=mean + 0.5), doc)

    def test_sandwich_hc0_and_covariance(self):
        data = datagen.gen_moe_sample(
            moefit.model.MoeParams(family="gaussian",
                                   gating=np.array([[1.0, 1.5], [0.0, 0.0]]),
                                   beta=np.array([[1.0, 2.0], [-2.0, -1.0]]),
                                   sigma2=np.array([0.3, 0.3])),
            datagen.uniform_box_sampler([-2.0], [2.0]), 800, seed=9)
        fit1 = multi_start_fit(data, 1, "gaussian", config=FitConfig(n_starts=1))
        sw = sandwich_covariance(data, fit1.theta)
        idx = [sw.labels.index("expert[1].b0"), sw.labels.index("expert[1].b1")]
        block = sw.cov[np.ix_(idx, idx)]
        checks.check_hc0(block, data.X, data.y)
        self.assertRejects(checks.check_hc0, block * (1 + 1e-6), data.X, data.y)
        checks.check_covariance(sw.cov, checks.gaussian_dim(1, 1))
        self.assertRejects(checks.check_covariance, sw.cov, checks.gaussian_dim(2, 1))
        skew = sw.cov.copy()
        skew[0, 1] += 1e-3
        self.assertRejects(checks.check_covariance, skew, 3)
        checks.check_fit_truth(np.array([[-2.0, -1.1], [1.0, 2.0]]),
                               np.array([[1.0, 2.0], [-2.0, -1.0]]))
        self.assertRejects(checks.check_fit_truth, np.array([[1.0, 2.0], [1.0, 2.0]]),
                           np.array([[1.0, 2.0], [-2.0, -1.0]]))


class Determinism(unittest.TestCase):
    def bench_digests(self, workload, seed):
        with tempfile.NamedTemporaryFile(dir=run.OUT, suffix=".json") as fh:
            subprocess.run([sys.executable, str(run.BENCH / "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--records", fh.name],
                           check=True, stdout=subprocess.DEVNULL, cwd=run.ROOT)
            # drop the times; keep round, kind, failure and result digest
            return [rec[:2] + rec[3:] for rec in json.loads(Path(fh.name).read_text())]

    def test_same_seed_same_results(self):
        # one round per run: q_hat / g_hat digests, prediction file bytes
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = self.bench_digests(workload, 4)
                self.assertEqual(first, self.bench_digests(workload, 4))
                self.assertTrue(all(d for _, _, failure, d in first if not failure))

    def test_threaded_fit_matches_serial(self):
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            tmp = Path(tmp)
            spec = tmp / "spec.json"
            spec.write_text(json.dumps(SIGNAL_SPEC))
            sig = tmp / "sig.csv"
            self.assertEqual(cli_quiet("simulate", "switch-signal", "--n", 550,
                                       "--seed", 2, "--signal-spec", spec,
                                       "--out", sig), 0)
            models = []
            for threads in (1, 2):
                out = tmp / f"fit{threads}.json"
                self.assertEqual(cli_quiet(
                    "fit", "--data", sig, "--family", "gaussian", "--g", 4,
                    "--design", "poly:2", "--with-covariance", "--starts", 4,
                    "--max-cycles", 100, "--rel-tol", "1e-6", "--seed", 2,
                    "--threads", threads, "--out", out), 0)
                models.append(out.read_bytes())
            self.assertEqual(models[0], models[1])


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main(verbosity=2)
