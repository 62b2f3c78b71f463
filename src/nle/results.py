"""Sweep tables and deterministic CSV / manifest emission.

A sweep is a grid of (kernel, parameter, horizon) configurations evaluated
in a fixed lexicographic order: kernels as listed, parameters as listed,
horizon radii innermost.  Each configuration becomes one CSV row; a failed
configuration keeps its row with the error category in the status column so
a sweep never dies halfway.  Data rows are formatted with repr() of the
float values, which round-trips exactly and makes re-runs byte-identical.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol

from . import fem
from .kernels import KERNEL_PARAMS, Kernel, KernelError, LocalDelta, make_kernel

__all__ = [
    "ALPHA_FLOOR",
    "KernelSpec",
    "Model",
    "SweepResult",
    "sweep",
    "check_alpha_floor",
    "format_value",
    "write_manifest",
]

# The admissibility floor for the power-law exponent.  The constitutive
# model degrades below roughly 0.4; sweeps stay above 0.5 with margin.
# Analysis entry points (dispersion closed forms) accept any exponent in
# (0, 1) so the breakdown itself remains observable.
ALPHA_FLOOR = 0.5


def check_alpha_floor(alpha: float) -> None:
    """Reject a power-law exponent below ALPHA_FLOOR with a ValueError."""
    if alpha < ALPHA_FLOOR:
        raise ValueError(
            f"power-law exponent {alpha!r} is below the admissibility floor "
            f"{ALPHA_FLOOR}; the constitutive model degrades below it"
        )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family name plus its single shape parameter (None for local)."""

    kind: str
    param: float | None = None

    def build(self) -> Kernel:
        name = KERNEL_PARAMS.get(self.kind)
        return make_kernel(self.kind, **({} if name is None else {name: self.param}))

    @property
    def label(self) -> str:
        name = KERNEL_PARAMS.get(self.kind)
        if self.param is None or name is None:
            return self.kind
        return f"{name}={format_value(self.param)}"


class Model(Protocol):
    """What `sweep` needs of a structural model (beam or plate).

    assemble(kernel, horizon_radius) builds the free-free stiffness block
    and the full load (fem.StiffnessSystem, every other dof fixed at zero);
    the metric is |u| at metric_dof.  case fills the fourth CSV column (load
    case or boundary set), sweep_columns names the CSV columns, metadata
    holds the manifest entries of the model and resolution is the mesh size
    as the convergence table prints it.
    """

    metric_dof: int
    case: str
    sweep_columns: tuple[str, ...]
    metadata: dict[str, str]
    resolution: str

    def assemble(self, kernel: Kernel, horizon_radius: float) -> fem.StiffnessSystem: ...


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows of configuration plus metrics, ready for CSV emission."""

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict[str, str]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([format_value(v) for v in row])

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def format_value(value) -> str:
    """Stable text form: repr for floats (round-trips), plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def sweep(model: Model, kernel_grid: list[KernelSpec], l_f_grid, threads: int = 1) -> SweepResult:
    """One row per (kernel, horizon) configuration, in listed grid order.

    The local companion depends only on the mesh and load, so it is solved
    once and shared by every row; rows whose kernel is the local delta
    (`local`, power law with alpha = 1) take its value without a solve of
    their own.  A failing configuration keeps its row with an error status;
    the sweep continues.  Rows come back in grid order at any thread count.
    """
    if not len(kernel_grid) or not len(l_f_grid):
        raise ValueError("sweep grids must be nonempty")
    for spec in kernel_grid:
        if spec.kind == "power_law" and spec.param is not None:
            check_alpha_floor(spec.param)
    for l_f in l_f_grid:
        if not l_f > 0.0:
            raise ValueError(f"horizon radius must be positive (got {l_f!r})")
    if threads < 1:
        raise ValueError(f"thread count must be at least 1 (got {threads!r})")
    w_local = fem.solve_metric(model, LocalDelta(), float(l_f_grid[0]))

    def evaluate(config: tuple[KernelSpec, float]) -> tuple:
        spec, l_f = config
        head = (spec.kind, spec.param, l_f, model.case)
        try:
            kernel = spec.build()
            w = w_local if isinstance(kernel, LocalDelta) else fem.solve_metric(model, kernel, l_f)
        except (fem.SolverError, KernelError, ValueError) as exc:
            return head + (None, None, None, f"error:{type(exc).__name__}")
        return head + (w, w_local, w / w_local, "ok")

    configs = [(spec, float(l_f)) for spec in kernel_grid for l_f in l_f_grid]
    if threads == 1 or len(configs) <= 1:
        rows = [evaluate(c) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(evaluate, configs))
    return SweepResult(columns=model.sweep_columns, rows=rows, metadata=model.metadata)


def write_manifest(path, entries: dict[str, str]) -> None:
    """Flat key-value JSON document describing one run."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: str(v) for k, v in entries.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
