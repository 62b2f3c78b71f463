"""Span tracing of the nle pipeline from outside the package.

A Tracer replaces the public names each layer's callers reach (module
globals, class attributes, the scipy.linalg namespace as nle.fem sees it)
with wrappers that record one span per call: name, start, end, parent span
and run id, plus a few attributes computed from argument and result
shapes.  Spans stay in memory until the run ends.  layer_metrics() turns a
list of spans into the per-layer figures the benchmark reports.

Installing fails with DriftError when a wrapped name no longer exists, and
require_nonzero() fails when a layer that must do work reads zero, so a
rename inside nle cannot silently turn layer figures into zeros.
"""

from __future__ import annotations

import csv
import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager

import numpy as np

MIB = 2.0**20

# Per-layer metric name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "config.parse_s": "s",
    "kernels.moment_calls": "count",
    "kernels.moment_evals": "count",
    "kernels.moment_s": "s",
    "operator.build_calls": "count",
    "operator.rows": "count",
    "operator.build_s": "s",
    "fem.axis_quadrature_calls": "count",
    "fem.axis_quadrature_s": "s",
    "fem.gram_calls": "count",
    "fem.gram_s": "s",
    "fem.gram_flops": "flop",
    "fem.solve_calls": "count",
    "fem.solve_s": "s",
    "fem.solve_dofs_max": "count",
    "fem.factor_s": "s",
    "fem.factor_flops": "flop",
    "fem.refine_steps": "count",
    "fem.solve_failures": "count",
    "fem.useful_solves": "count",
    "fem.useful_solve_ratio": "ratio",
    "model.assemble_s": "s",
    "beam.assemble_calls": "count",
    "beam.K_mb": "MiB",
    "plate.assemble_calls": "count",
    "plate.K_mb": "MiB",
    "results.write_csv_s": "s",
    "results.csv_bytes": "B",
    "results.rows": "count",
    "results.error_rows": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
}

# Metrics that must read nonzero on every traced run of a model's pipeline.
_NONZERO_COMMON = (
    "config.parse_s",
    "kernels.moment_calls",
    "kernels.moment_evals",
    "operator.build_calls",
    "operator.rows",
    "operator.build_s",
    "fem.axis_quadrature_calls",
    "fem.gram_calls",
    "fem.gram_flops",
    "fem.solve_calls",
    "fem.solve_dofs_max",
    "fem.factor_s",
    "fem.factor_flops",
    "fem.useful_solves",
    "model.assemble_s",
    "results.write_csv_s",
    "results.csv_bytes",
    "results.rows",
    "cli.self_s",
)
NONZERO = {
    "beam": _NONZERO_COMMON + ("beam.assemble_calls", "beam.K_mb"),
    "plate": _NONZERO_COMMON + ("plate.assemble_calls", "plate.K_mb"),
}

# Span record fields, kept as a list so a run with ~10^5 spans stays cheap.
ID, PARENT, RUN, NAME, START, END, ATTRS = range(7)


class DriftError(RuntimeError):
    """A wrapped public name is gone, or a layer that must work read zero."""


class _Linalg:
    """scipy.linalg as nle.fem reaches it, with some attributes overridden."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Collects spans of one run; install() wraps the layers, uninstall() restores them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.solutions: list[tuple[list, np.ndarray]] = []
        self.csv_paths: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, annotate=None):
        """Wrap fn so that each call records one span; annotate(tracer, record, args, result)."""

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][ID] if stack else None
            record = [next(self._ids), parent, self.run_id, name, 0.0, 0.0, {}]
            self.spans.append(record)
            stack.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[ATTRS]["failed"] = 1
                raise
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(self, record, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap fn so that each call bumps attrs[key] of the innermost open span."""

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                attrs = stack[-1][ATTRS]
                attrs[key] = attrs.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        from scipy import linalg

        from nle import beam, cli, fem, kernels, plate, results

        kernel_classes = [
            cls for cls in kernels.Kernel.__subclasses__() if "interval_integral" in vars(cls)
        ]
        targets = [
            (cli, "main", "cli.main", None),
            (cli, "parse_config", "config.parse", None),
            (fem, "assemble", "fem.assemble", None),
            (beam.TimoshenkoBeamModel, "assemble", "beam.assemble", _matrix_size),
            (plate.MindlinPlateModel, "assemble", "plate.assemble", _matrix_size),
            (beam, "AxisQuadrature", "fem.axis_quadrature", None),
            (plate, "AxisQuadrature", "fem.axis_quadrature", None),
            (fem, "build_operator_matrix", "operator.build", _operator_rows),
            (beam, "gram", "fem.gram", _gram_flops),
            (plate, "gram", "fem.gram", _gram_flops),
            (fem, "solve", "fem.solve", _keep_solution),
            (results.SweepResult, "write_csv", "results.write_csv", _csv_facts),
        ] + [(cls, "interval_integral", "kernels.moment", _moment_evals) for cls in kernel_classes]

        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in targets
            if attr not in vars(owner)
        ]
        if not kernel_classes:
            missing.append("nle.kernels: no Kernel subclass defines interval_integral")
        if getattr(fem, "linalg", None) is not linalg:
            missing.append("nle.fem.linalg (scipy.linalg as fem reaches cho_factor/cho_solve)")
        if missing:
            raise DriftError("traced names no longer exist: " + ", ".join(missing))

        for owner, attr, name, annotate in targets:
            self._patch(owner, attr, self.span(name, vars(owner)[attr], annotate))
        self._patch(
            fem,
            "linalg",
            _Linalg(
                linalg,
                cho_factor=self.span("fem.factor", linalg.cho_factor, _factor_flops),
                cho_solve=self.counter("cho_solve", linalg.cho_solve),
            ),
        )

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def mark_useful_solves(self) -> None:
        """Flag each solve whose displacement vector reached a written CSV value."""
        written = set()
        for path in self.csv_paths:
            with open(path, encoding="utf-8", newline="") as fh:
                for row in itertools.islice(csv.reader(fh), 1, None):
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        if value != 0.0:
                            written.add(value)
        for record, solution in self.solutions:
            hit = any(v in written for v in np.abs(solution).tolist())
            record[ATTRS]["useful"] = int(hit)


@contextmanager
def traced(run_id: str):
    """Install a Tracer for the duration of the block and yield it."""
    tracer = Tracer(run_id)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _matrix_size(tracer, record, args, result) -> None:
    # computed from the array shape, not measured
    record[ATTRS]["K_mib"] = result.matrix.size * result.matrix.itemsize / MIB


def _operator_rows(tracer, record, args, result) -> None:
    record[ATTRS]["rows"] = int(result.weights.shape[0])


def _gram_flops(tracer, record, args, result) -> None:
    # P^T (w Q) with P (g x m), Q (g x n): 2 g m n multiply-adds, computed
    P, Q = args[0], args[1]
    record[ATTRS]["flops"] = 2 * P.shape[0] * P.shape[1] * Q.shape[1]


def _moment_evals(tracer, record, args, result) -> None:
    record[ATTRS]["evals"] = int(np.size(result))


def _factor_flops(tracer, record, args, result) -> None:
    # dense Cholesky of an n x n matrix: n^3 / 3 flops, computed
    n = args[0].shape[0]
    record[ATTRS]["n"] = n
    record[ATTRS]["flops"] = n**3 / 3.0


def _keep_solution(tracer, record, args, result) -> None:
    tracer.solutions.append((record, result))


def _csv_facts(tracer, record, args, result) -> None:
    sweep, path = args[0], args[1]
    attrs = record[ATTRS]
    attrs["bytes"] = os.path.getsize(path)
    attrs["rows"] = len(sweep.rows)
    if "status" in sweep.columns:
        attrs["error_rows"] = sum(1 for s in sweep.column("status") if s != "ok")
    tracer.csv_paths.append(str(path))


def span_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op function."""

    def noop():
        return None

    wrapped = Tracer("calibration").span("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced run; self time = duration minus child durations."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def self_time(*names):
        return sum(
            s[END] - s[START] - child_time.get(s[ID], 0.0) for n in names for s in by_name.get(n, ())
        )

    def attr_sum(name, key):
        return sum(s[ATTRS].get(key, 0) for s in by_name.get(name, ()))

    def attr_max(name, key):
        return max((s[ATTRS].get(key, 0) for s in by_name.get(name, ())), default=0)

    solves = by_name.get("fem.solve", ())
    useful = attr_sum("fem.solve", "useful")
    return {
        "config.parse_s": total("config.parse"),
        "kernels.moment_calls": calls("kernels.moment"),
        "kernels.moment_evals": attr_sum("kernels.moment", "evals"),
        "kernels.moment_s": total("kernels.moment"),
        "operator.build_calls": calls("operator.build"),
        "operator.rows": attr_sum("operator.build", "rows"),
        "operator.build_s": self_time("operator.build"),
        "fem.axis_quadrature_calls": calls("fem.axis_quadrature"),
        "fem.axis_quadrature_s": self_time("fem.axis_quadrature"),
        "fem.gram_calls": calls("fem.gram"),
        "fem.gram_s": total("fem.gram"),
        "fem.gram_flops": attr_sum("fem.gram", "flops"),
        "fem.solve_calls": len(solves),
        "fem.solve_s": self_time("fem.solve"),
        "fem.solve_dofs_max": attr_max("fem.factor", "n"),
        "fem.factor_s": total("fem.factor"),
        "fem.factor_flops": attr_sum("fem.factor", "flops"),
        "fem.refine_steps": sum(max(0, s[ATTRS].get("cho_solve", 0) - 1) for s in solves),
        "fem.solve_failures": attr_sum("fem.solve", "failed"),
        "fem.useful_solves": useful,
        "fem.useful_solve_ratio": useful / len(solves) if solves else 0.0,
        "model.assemble_s": self_time("beam.assemble", "plate.assemble"),
        "beam.assemble_calls": calls("beam.assemble"),
        "beam.K_mb": attr_max("beam.assemble", "K_mib"),
        "plate.assemble_calls": calls("plate.assemble"),
        "plate.K_mb": attr_max("plate.assemble", "K_mib"),
        "results.write_csv_s": total("results.write_csv"),
        "results.csv_bytes": attr_sum("results.write_csv", "bytes"),
        "results.rows": attr_sum("results.write_csv", "rows"),
        "results.error_rows": attr_sum("results.write_csv", "error_rows"),
        "cli.self_s": self_time("cli.main"),
        "trace.spans": len(spans),
        "trace.wall_s": total("cli.main"),
    }


def require_nonzero(metrics: dict[str, float], model: str, where: str) -> None:
    zero = [name for name in NONZERO[model] if not metrics.get(name)]
    if zero:
        raise DriftError(f"{where}: layer metrics read zero: {', '.join(zero)}")
