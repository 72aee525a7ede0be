"""In-memory span tracer for the traced benchmark run.

The tracer replaces public entry points of ``fracspec`` with timing wrappers
wherever callers look them up: a function is rebound in every loaded
``fracspec`` module that holds it (``wiener`` calls ``forward`` through its
own module globals, ``harness`` calls ``train`` through its own), and a method
is replaced on its class. Each call records a span ``(name, start, end,
parent)`` and a count. Nothing is written until the run ends.

Spans inside ``src/`` are not recorded; every span starts at a call that
crosses a module boundary.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute). An attribute "Class.method" names a method.
TARGETS = (
    ("graphs.path_graph", "fracspec.graphs", "path_graph"),
    ("graphs.knn_graph", "fracspec.graphs", "knn_graph"),
    ("operators.eigendecompose", "fracspec.operators", "eigendecompose"),
    ("operators.graph_frft", "fracspec.operators", "graph_frft"),
    ("operators.dfrft_matrix", "fracspec.operators", "dfrft_matrix"),
    ("coupling.coupling_operator", "fracspec.coupling", "coupling_operator"),
    ("coupling.phase_decompose", "fracspec.coupling", "phase_decompose"),
    ("transforms.plan", "fracspec.transforms", "TransformContext.plan"),
    ("transforms.coupling", "fracspec.transforms", "TransformContext.coupling"),
    ("transforms.forward", "fracspec.transforms", "forward"),
    ("transforms.inverse", "fracspec.transforms", "inverse"),
    ("wiener.train", "fracspec.wiener", "train"),
    ("wiener.lambda_grid_search", "fracspec.wiener", "lambda_grid_search"),
    ("wiener.closed_form_h", "fracspec.wiener", "closed_form_h"),
    ("wiener.denoise", "fracspec.wiener", "denoise"),
    ("harness.run_benchmark", "fracspec.harness", "run_benchmark"),
    ("harness.synth_signal", "fracspec.harness", "synth_signal"),
    ("harness.metrics", "fracspec.harness", "metrics"),
    ("io.read_signal", "fracspec.io", "read_signal"),
    ("io.write_signal", "fracspec.io", "write_signal"),
    ("io.read_params_json", "fracspec.io", "read_params_json"),
    ("io.write_params_json", "fracspec.io", "write_params_json"),
    ("io.write_trace_csv", "fracspec.io", "write_trace_csv"),
    ("io.write_benchmark_report", "fracspec.io", "write_benchmark_report"),
    ("cli.main", "fracspec.cli", "main"),
)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _signal_files(path) -> list:
    base, ext = os.path.splitext(path)
    return [path, path + ".json", f"{base}__real{ext}", f"{base}__imag{ext}"]


def _signal_bytes(args, kwargs):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path is None:  # read_signal(path)
        path = args[0]
    return sum(_size(p) for p in _signal_files(path))


def _path_bytes(args, kwargs):
    path = kwargs.get("path")
    if path is None:
        path = args[-1] if args and isinstance(args[-1], str) else args[0]
    return _size(path)


def _report_bytes(args, kwargs):
    # timings.csv holds wall-clock times whose printed length varies from run
    # to run; only the deterministic report files are counted
    out_dir = kwargs.get("out_dir", args[1] if len(args) > 1 else None)
    total = _size(os.path.join(out_dir, "report.csv")) + _size(os.path.join(out_dir, "summary.json"))
    est_dir = os.path.join(out_dir, "estimates")
    if os.path.isdir(est_dir):
        total += sum(_size(os.path.join(est_dir, f)) for f in os.listdir(est_dir))
    return total


_BYTES = {
    "io.read_signal": ("io.read_bytes", _signal_bytes),
    "io.write_signal": ("io.write_bytes", _signal_bytes),
    "io.read_params_json": ("io.read_bytes", _path_bytes),
    "io.write_params_json": ("io.write_bytes", _path_bytes),
    "io.write_trace_csv": ("io.write_bytes", _path_bytes),
    "io.write_benchmark_report": ("io.write_bytes", _report_bytes),
}


class Tracer:
    """Records spans and counts at module boundaries while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = True
        self._stack: list = []
        self._restore: list = []
        self.missing: list = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        extra = _BYTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "wiener.train":
                self.counts["wiener.epochs"] += len(result[1])
            if extra is not None:
                self.counts[extra[0]] += extra[1](args, kwargs)
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span, with a count, around one call or one piece of benchmark
        code (a set-up repetition, an operation)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
            self.counts[name] += 1

    @contextmanager
    def paused(self):
        """Calls made inside (the correctness checks) are not recorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target that exists. A target that a later version of the
        program no longer has is reported in ``missing`` and its metrics read
        zero."""
        import importlib

        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, fn))
                self._restore.append((cls, meth, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "fracspec" or mod_name.startswith("fracspec.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, fn))
        if self.missing:
            print(f"tracer: targets not found: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self):
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: [total ms, calls, self ms]. Self time is a span's
        duration minus the time its child spans cover (children of one span
        run one after another, so their durations add)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        agg: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            rec = agg.setdefault(name, [0.0, 0, 0.0])
            rec[0] += (end - start) * 1e3
            rec[1] += 1
            rec[2] += (end - start - child_time[i]) * 1e3
        return agg

    def write(self, path: str, extra: dict | None = None) -> None:
        """Write every span (times in microseconds from the first span) and
        the counts, gzip-compressed JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "spans": [[index[n], p, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "aggregate": self.aggregate(),
        }
        payload.update(extra or {})
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def merge(agg: dict, counts: Counter, other_agg: dict, other_counts: dict) -> None:
    """Add a child process's aggregate and counts into this run's."""
    for name, (ms, calls, self_ms) in other_agg.items():
        rec = agg.setdefault(name, [0.0, 0, 0.0])
        rec[0] += ms
        rec[1] += calls
        rec[2] += self_ms
    counts.update(other_counts)


def layer_metrics(agg: dict, counts) -> dict:
    """The per-layer metrics of BENCHMARK.json from span aggregates."""

    def ms(*names):
        return sum(agg.get(n, (0.0, 0, 0.0))[0] for n in names)

    def calls(name):
        return agg.get(name, (0.0, 0, 0.0))[1]

    requests = calls("transforms.coupling")
    decompositions = calls("coupling.phase_decompose")
    epochs = counts.get("wiener.epochs", 0)
    values = {
        "graphs.build_ms": (ms("graphs.path_graph", "graphs.knn_graph"), "ms"),
        "operators.eigendecompose_ms": (ms("operators.eigendecompose"), "ms"),
        "operators.eigendecompose_calls": (calls("operators.eigendecompose"), "count"),
        "operators.graph_frft_ms": (ms("operators.graph_frft"), "ms"),
        "operators.graph_frft_calls": (calls("operators.graph_frft"), "count"),
        "operators.dfrft_ms": (ms("operators.dfrft_matrix"), "ms"),
        "operators.dfrft_calls": (calls("operators.dfrft_matrix"), "count"),
        "coupling.operator_ms": (ms("coupling.coupling_operator"), "ms"),
        "coupling.decompose_ms": (ms("coupling.phase_decompose"), "ms"),
        "coupling.decompose_calls": (decompositions, "count"),
        "transforms.coupling_requests": (requests, "count"),
        "transforms.coupling_hit_ratio": (1.0 - decompositions / requests if requests else 0.0, "ratio"),
        "transforms.plan_ms": (ms("transforms.plan"), "ms"),
        "transforms.plan_calls": (calls("transforms.plan"), "count"),
        "transforms.forward_ms": (ms("transforms.forward"), "ms"),
        "transforms.forward_calls": (calls("transforms.forward"), "count"),
        "transforms.inverse_ms": (ms("transforms.inverse"), "ms"),
        "transforms.inverse_calls": (calls("transforms.inverse"), "count"),
        "wiener.train_ms": (ms("wiener.train"), "ms"),
        "wiener.train_calls": (calls("wiener.train"), "count"),
        "wiener.epochs": (epochs, "count"),
        "wiener.epoch_ms": (ms("wiener.train") / epochs if epochs else 0.0, "ms"),
        "wiener.train_self_ms": (agg.get("wiener.train", (0.0, 0, 0.0))[2], "ms"),
        "wiener.grid_search_ms": (ms("wiener.lambda_grid_search"), "ms"),
        "wiener.closed_form_ms": (ms("wiener.closed_form_h"), "ms"),
        "wiener.denoise_ms": (ms("wiener.denoise"), "ms"),
        "wiener.denoise_calls": (calls("wiener.denoise"), "count"),
        "harness.run_benchmark_ms": (ms("harness.run_benchmark"), "ms"),
        "harness.synth_ms": (ms("harness.synth_signal"), "ms"),
        "harness.score_ms": (ms("harness.metrics"), "ms"),
        "io.read_ms": (ms("io.read_signal", "io.read_params_json"), "ms"),
        "io.read_bytes": (counts.get("io.read_bytes", 0), "B"),
        "io.write_ms": (ms("io.write_signal", "io.write_params_json", "io.write_trace_csv",
                           "io.write_benchmark_report"), "ms"),
        "io.write_bytes": (counts.get("io.write_bytes", 0), "B"),
        "cli.main_ms": (ms("cli.main"), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
