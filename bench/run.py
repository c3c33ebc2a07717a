"""Benchmark of moefit: model selection, sandwich inference and the CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload three-class-select --seed 1 --seconds 30 --trace 0

The program under test is the checkout's ``src/moefit``.  A run sets up the
workload three times, each time importing moefit afresh in a child
interpreter (median reported as ``setup_s``), then runs whole rounds
of the workload's operations until the next round would end after
``--seconds``.  Every operation's output is checked.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  A traced run runs every round twice, untraced and with every
public moefit function wrapped, requires identical numeric results, and
reports the tracing overhead.
"""

from __future__ import annotations

import os

# one process, at most nproc threads in all: BLAS stays single-threaded and
# the only extra threads are the CLI's two-thread start pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MOEFIT_THREADS", None)

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUPS = 3
# run in a fresh interpreter: the seconds that importing moefit and its CLI take
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import moefit.cli; "
                "print(time.perf_counter() - t)")


def load_moefit():
    """Import the checkout's moefit, and nothing installed elsewhere."""
    if not (SRC / "moefit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'moefit'} not found; run from a "
                         "checkout that holds the moefit sources")
    sys.path.insert(0, str(SRC))
    import moefit
    import moefit.cli  # noqa: F401  (the package does not import it)
    if Path(moefit.__file__).resolve().parent != (SRC / "moefit").resolve():
        raise SystemExit(f"error: imported moefit from {moefit.__file__}")
    return moefit


def import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout)


@dataclass
class Record:
    round: int
    kind: str
    seconds: float
    rows: int
    fault: str | None
    failure: str | None
    digest: str | None


class Runner:
    def __init__(self, workload, tracer=None):
        self.w = workload
        self.tracer = tracer
        self.records: list[Record] = []
        self.round_times: list[float] = []

    def run_round(self, r: int) -> float:
        if self.tracer is not None:
            self.tracer.install()
        try:
            total = sum(self._run_op(r, op) for op in self.w.ops(r))
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.round_times.append(total)
        return total

    def _run_op(self, r: int, op) -> float:
        self.w.fits.results.clear()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        failure = dig = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            elapsed = time.perf_counter() - t0
            failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            elapsed = time.perf_counter() - t0
            try:
                dig = op.check(out)
            except AssertionError as err:
                failure = str(err)
        self.records.append(Record(r, op.kind, elapsed, op.rows, op.fault,
                                   failure, dig))
        return elapsed


def run_for(seconds: float, step) -> None:
    """Call ``step(r)`` for r = 0, 1, ... while the next call is expected to
    end within ``seconds``; always at least once."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step(len(times))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return


def op_stats(records):
    """Count, mean and median seconds, and rows/s per operation kind."""
    kinds = {}
    for rec in records:
        kinds.setdefault(rec.kind, []).append(rec)
    out = {}
    for kind, recs in kinds.items():
        secs = [rec.seconds for rec in recs]
        mean = statistics.fmean(secs)
        rows = recs[0].rows
        out[kind] = (len(secs), mean, statistics.median(secs),
                     rows / mean if rows else None)
    return out


def print_ops(stats):
    print(f"{'operation':24s} {'n':>4s} {'mean_s':>10s} {'median_s':>10s} "
          f"{'rows/s':>10s}")
    for kind, (n, mean, med, rps) in stats.items():
        print(f"{kind:24s} {n:4d} {mean:10.4f} {med:10.4f} "
              f"{'' if rps is None else f'{rps:10.0f}'}")


# the per-operation figures of the workload descriptions: metric name, the
# operation kinds it covers, and whether it is a time or a throughput
OP_METRICS = [
    ("select_s", ("select",), "s"),
    ("fit_s", ("fit",), "s"),
    ("sandwich_s", ("sandwich",), "s"),
    ("predict_rows_per_s", ("class-posteriors", "predict-classify"), "rows/s"),
    ("mean_ci_rows_per_s", ("predict-mean-ci",), "rows/s"),
    ("simulate_rows_per_s", ("simulate-three-class",), "rows/s"),
]


def print_op_metrics(stats):
    for name, kinds, unit in OP_METRICS:
        for kind in kinds:
            if kind in stats:
                _, mean, _, rps = stats[kind]
                value = mean if unit == "s" else rps
                print(f"{name} {value:.6g} {unit} ({kind})")


def report_failures(records):
    counts = {}
    for rec in records:
        if rec.failure:
            key = (rec.kind, rec.fault, rec.failure)
            counts[key] = counts.get(key, 0) + 1
    for (kind, fault, failure), n in counts.items():
        tag = f"known fault ({fault})" if fault else "UNEXPECTED"
        print(f"FAILED {kind} x{n}, {tag}: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--records", default=None,
                    help="write every operation's time, failure and result "
                         "digest to this JSON file")
    args = ap.parse_args(argv)

    moefit = load_moefit()
    from spans import Tracer, layer_metrics, patch
    from workloads import WORKLOADS, Fits

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    fits = Fits()
    undo = patch(moefit, "estimation", "fit", fits.wrap)
    try:
        wl = WORKLOADS[args.workload](moefit, fits, work, args.seed)
        # one set-up: import moefit in a fresh interpreter, then build the
        # workload's shared inputs; setup_s is the median of three
        setup_times = []
        for _ in range(SETUPS):
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(t_import + time.perf_counter() - t0)
        setup_s = statistics.median(setup_times)

        runner = Runner(wl)
        correct = True
        if not args.trace:
            run_for(args.seconds, runner.run_round)
        else:
            # each round runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels from the overhead
            tracer = Tracer(moefit)
            traced = Runner(wl, tracer)

            def pair(r):
                first, second = (runner, traced) if r % 2 == 0 else (traced, runner)
                first.run_round(r)
                second.run_round(r)

            run_for(args.seconds, pair)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path)
            same = ([(rec.failure, rec.digest) for rec in runner.records]
                    == [(rec.failure, rec.digest) for rec in traced.records])
            if not same:
                print("ERROR: traced rounds computed different results")
                correct = False
        try:
            wl.check_run()
        except AssertionError as err:
            print(f"ERROR: {err}")
            correct = False
    finally:
        undo()
        shutil.rmtree(work, ignore_errors=True)

    records = runner.records
    stats = op_stats(records)
    print_ops(stats)
    print_op_metrics(stats)
    report_failures(records)
    # an operation that fails on a known, named program fault (see README) is
    # counted as failed; a failure anywhere else makes the run incorrect
    if any(rec.failure and not rec.fault for rec in records):
        correct = False
    attempted = len(records)
    failed = sum(1 for rec in records if rec.failure)
    if args.records:
        Path(args.records).write_text(json.dumps(
            [[rec.round, rec.kind, rec.seconds, rec.failure, rec.digest]
             for rec in records]))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        round_times, traced_times = runner.round_times, traced.round_times
        n = len(round_times)
        layer = layer_metrics(tracer.spans, n)
        overhead = (sum(traced_times) - sum(round_times)) / n
        layer["trace.overhead_s"] = (overhead, "s/round")
        layer["trace.overhead_share"] = (overhead / (sum(round_times) / n), "ratio")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        print(f"tracing overhead: {overhead:.4f} s per round "
              f"({100 * layer['trace.overhead_share'][0]:.1f}%) over {n} rounds")
        for name, (value, unit) in layer.items():
            if name.startswith("layer.") or value:
                print(f"  {name:52s} {value:14.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "select_s": {"value": stats["select"][1], "unit": "s"},
            "round_s": {"value": statistics.fmean(runner.round_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print(f"setup_s {setup_s:.4f} (median of "
              f"{[round(t, 4) for t in setup_times]})  "
              f"rounds {len(runner.round_times)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
