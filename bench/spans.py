"""In-memory span tracing of moefit's public functions, applied from outside.

A ``Tracer`` replaces each wrapped function at every module attribute that
refers to it (``moefit.selection.multi_start_fit`` and
``moefit.estimation.multi_start_fit`` are the same object, so both names get
the same wrapper), records one span per call and puts the originals back on
``uninstall``.  Spans carry the calling thread; a span opened on a thread with
no open span of its own (a start-pool worker) takes the innermost open span of
the thread that installed the tracer as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped by the traced run, in report order
TRACED = [
    ("selection", "select_g"),
    ("estimation", "multi_start_fit"),
    ("estimation", "initialize"),
    ("estimation", "fit"),
    ("estimation", "glm_expert_block_update"),
    ("estimation", "gaussian_expert_block_update"),
    ("model", "expert_log_density_matrix"),
    ("model", "responsibilities"),
    ("inference", "sandwich_covariance"),
    ("inference", "score_matrix"),
    ("inference", "mean_ci"),
    ("tasks", "class_posteriors"),
    ("tasks", "predict_mean"),
    ("tasks", "predict_mean_rows"),
    ("tasks", "predict_variance_rows"),
    ("io", "read_dataset_csv"),
    ("io", "write_dataset_csv"),
    ("io", "save_model"),
    ("io", "load_model"),
    ("datagen", "gen_three_class"),
    ("datagen", "gen_moe_sample"),
    ("datagen", "gen_switch_signal"),
    ("cli", "main"),
]
LAYERS = ["selection", "estimation", "model", "inference", "tasks", "io",
          "datagen", "cli"]
# io functions whose first argument is the file they read or write
IO_FILES = {"io.read_dataset_csv", "io.write_dataset_csv", "io.save_model",
            "io.load_model"}


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    op: int | None = None
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _replace_everywhere(package, old, new) -> list:
    """Point every module attribute that is ``old`` at ``new``."""
    replaced = []
    prefix = package.__name__
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == prefix or modname.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                replaced.append((mod, attr))
    return replaced


def patch(package, module: str, name: str, make_wrapper):
    """Wrap ``package.module.name`` at every attribute that refers to it.

    Returns an undo callable that restores the previous objects.
    """
    mod = sys.modules[f"{package.__name__}.{module}"]
    old = getattr(mod, name)
    new = make_wrapper(old)
    replaced = _replace_everywhere(package, old, new)

    def undo():
        for m, attr in replaced:
            setattr(m, attr, old)
    return undo


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._ids = itertools.count()  # next() on it is atomic under the GIL
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []
        self._undo = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._home:
            return self._home_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].sid
            elif self._home_stack:
                parent = self._home_stack[-1].sid
            else:
                parent = None
            span = Span(next(self._ids), name, 0.0, parent=parent,
                        thread=threading.get_ident(), op=self.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                span.attrs["estimation_error"] = isinstance(
                    err, self.package.estimation.EstimationError)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if name == "estimation.fit":
                # fit only stops early on convergence, so a fit that did not
                # converge ran to max_cycles
                span.attrs = {"cycles": result.cycles_used,
                              "converged": bool(result.converged)}
            if name in IO_FILES:
                span.attrs["bytes"] = os.path.getsize(args[0])
            return result
        return traced

    def install(self):
        for module, fname in TRACED:
            name = f"{module}.{fname}"
            self._undo.append(patch(self.package, module, fname,
                                    lambda fn, name=name: self._wrap(name, fn)))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "thread": s.thread,
                    "op": s.op, "error": s.error, **s.attrs}) + "\n")


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[Span], rounds: int) -> dict:
    """Per-round calls, busy and self seconds of every traced function, the
    io byte counts, the fit counters and each layer's self time."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    self_s = {s.sid: (s.end - s.start) - _covered(
        [(c.start, c.end) for c in children.get(s.sid, [])], s.start, s.end)
        for s in spans}
    out = {}
    for module, fname in TRACED:
        name = f"{module}.{fname}"
        mine = [s for s in spans if s.name == name]
        out[f"{name}.calls"] = (len(mine) / rounds, "count/round")
        out[f"{name}.busy_s"] = (sum(s.end - s.start for s in mine) / rounds,
                                 "s/round")
        out[f"{name}.self_s"] = (sum(self_s[s.sid] for s in mine) / rounds,
                                 "s/round")
        if name in IO_FILES:
            out[f"{name}.bytes"] = (
                sum(s.attrs.get("bytes", 0) for s in mine) / rounds,
                "bytes/round")
    fits = [s for s in spans if s.name == "estimation.fit" and s.error is None]
    cycles = sum(s.attrs["cycles"] for s in fits)
    busy = sum(s.end - s.start for s in fits)
    out["estimation.fit.cycles"] = (cycles / rounds, "count/round")
    out["estimation.fit.s_per_cycle"] = (busy / cycles if cycles else 0.0,
                                         "s")
    attempted = [s for s in spans if s.name == "estimation.fit"]
    out["estimation.fit.converged_ratio"] = (
        sum(s.attrs["converged"] for s in fits) / len(attempted)
        if attempted else 0.0, "ratio")
    out["estimation.fit.max_cycles_busy_s"] = (
        sum(s.end - s.start for s in fits if not s.attrs["converged"])
        / rounds, "s/round")
    out["estimation.fit.starts_failed"] = (
        sum(1 for s in spans
            if s.name in ("estimation.initialize", "estimation.fit")
            and s.attrs.get("estimation_error")) / rounds,
        "count/round")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(self_s[s.sid] for s in spans if s.name.startswith(layer + "."))
            / rounds, "s/round")
    return out
