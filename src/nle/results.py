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

import numpy as np

from . import fem
from .kernels import KERNEL_KINDS, KERNEL_PARAMS, Kernel, KernelError, LocalDelta

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
        """The kernel of this kind and parameter, from kernels.KERNEL_KINDS."""
        if self.kind not in KERNEL_KINDS:
            known = ", ".join(sorted(KERNEL_KINDS))
            raise KernelError(f"unknown kernel kind {self.kind!r} (known: {known})")
        name = KERNEL_PARAMS[self.kind]
        if name is None:
            return KERNEL_KINDS[self.kind]()
        if self.param is None:
            raise KernelError(f"kernel {self.kind!r} needs its parameter {name}")
        return KERNEL_KINDS[self.kind](self.param)

    @property
    def label(self) -> str:
        name = KERNEL_PARAMS.get(self.kind)
        if self.param is None or name is None:
            return self.kind
        return f"{name}={format_value(self.param)}"


class Model(Protocol):
    """What `sweep` needs of a structural model (beam or plate).

    axes is the model's fem.Axes: its meshes, node grid, free nodes and the
    size of the one free block every system of the model shares (free_dofs),
    and the mesh size as the convergence table prints it (resolution).
    quadratures(kernel, horizon_radius) builds the kernel-dependent data, one
    fem.AxisQuadrature per HatRows of the Axes (one per distinct axis mesh
    and rule), keyed (mesh, points) as the Axes keys them, and rejects a
    horizon radius that is not positive or a kernel that is not admissible;
    assemble(quadratures, block) builds from them the free-free stiffness
    block and the full load (fem.StiffnessSystem, every other dof fixed at
    zero).  When block is given, the new system takes it over
    (fem.kronecker_system): it is the matrix of an earlier system of the
    same model, holding whatever that system's solve left.  held_bytes is
    what the model's rows and Grams take besides the block; fem.check_fits
    counts both.  The metric is |u| at metric_dof.  case fills the fourth
    CSV column, which case_column names (the beam's `load_case`, the plate's
    `bc`); metric_name names the metric (`w_max`, `w_center`) in the two
    deflection columns.  metadata holds the manifest entries of the model's
    physics, to which sweep adds the case and those of its free block.
    """

    axes: fem.Axes
    held_bytes: int
    metric_dof: int
    case: str
    case_column: str
    metric_name: str
    metadata: dict[str, str]

    def quadratures(self, kernel: Kernel, horizon_radius: float) -> dict: ...

    def assemble(
        self, quadratures: dict, block: np.ndarray | None = None
    ) -> fem.StiffnessSystem: ...


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

    Rows are keyed by (kernel, min(l_f, kernel.reach)): past its reach a
    kernel's moments are saturated, so its operator rows no longer depend on
    the horizon, and only the first row of each such key builds them and
    solves.  Kernels that take the short-horizon fallback to local rows are
    singular at the origin, and their reach is infinite, so the key holds
    their exact horizon.  The local companion is solved first, at the first
    horizon radius, and its operator rows (the B of each of the model's
    quadratures) are kept for the whole sweep: a key whose rows equal them
    (`local` at any horizon, power law with alpha = 1, an exponential length
    far below the mesh size) takes its deflection without a solve of its
    own, which is bit for bit what that solve would return.  Two nonlocal
    keys with equal rows each solve; that needs a horizon past the whole
    domain.  A failing configuration keeps its row with an error status and
    leaves no entry, and the sweep continues.  Rows come back in grid order
    at any thread count; threads that meet one key at once may both solve
    it, to the same bits.  The result's metadata adds to the model's its
    case, under case_column, the entries of its free block
    (fem.block_metadata) and `solves`, the number of keys that solved
    (distinct systems, not solve calls).

    Every system of one model has the same free block, so a solve hands its
    matrix, the factor or a failed factorization's remains, to the next
    assembly, which overwrites or zeroes every entry it reads: a sweep
    allocates one block per thread instead of one per solve.  Before its
    first quadrature, the sweep checks that as many blocks as it may hold,
    one per worker and at most one per configuration, fit in memory with a
    BLAS margin and the arrays the model holds besides (fem.check_fits): an
    oversized sweep fails before it allocates.
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
    configs = [(spec, float(l_f)) for spec in kernel_grid for l_f in l_f_grid]
    n = model.axes.free_dofs
    fem.check_fits(n, blocks=min(threads, len(configs)), held=model.held_bytes)
    spare: list[np.ndarray] = []  # blocks of finished solves, at most one per thread

    def solve(quadratures: dict) -> float:
        try:
            block = spare.pop()
        except IndexError:
            block = None
        system = model.assemble(quadratures, block=block)
        try:
            u = fem.solve(system)
        finally:
            spare.append(system.matrix)
        return fem.metric(u, model.metric_dof)

    local_config = (LocalDelta(), float(l_f_grid[0]))
    local = model.quadratures(*local_config)
    w_local = solve(local)
    by_config: dict[tuple[Kernel, float], float] = {local_config: w_local}
    solved = {local_config}

    def deflection(kernel: Kernel, l_f: float) -> float:
        config = (kernel, min(l_f, kernel.reach))
        w = by_config.get(config)
        if w is not None:
            return w
        quadratures = model.quadratures(kernel, l_f)
        if all(np.array_equal(q.B, local[key].B) for key, q in quadratures.items()):
            w = w_local
        else:
            w = solve(quadratures)
            solved.add(config)
        by_config[config] = w
        return w

    metric = model.metric_name
    columns = ("kernel", "param", "l_f", model.case_column)
    columns += (f"{metric}_nonlocal", f"{metric}_local", "w_bar", "status")

    def evaluate(config: tuple[KernelSpec, float]) -> tuple:
        spec, l_f = config
        head = (spec.kind, spec.param, l_f, model.case)
        try:
            w = deflection(spec.build(), l_f)
        except (fem.SolverError, KernelError, ValueError) as exc:
            return head + (None, None, None, f"error:{type(exc).__name__}")
        return head + (w, w_local, w / w_local, "ok")

    if threads == 1 or len(configs) <= 1:
        rows = [evaluate(c) for c in configs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(evaluate, configs))
    metadata = {**model.metadata, model.case_column: model.case, **fem.block_metadata(n)}
    metadata["solves"] = str(len(solved))
    return SweepResult(columns=columns, rows=rows, metadata=metadata)


def write_manifest(path, entries: dict[str, str]) -> None:
    """Flat key-value JSON document describing one run."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: str(v) for k, v in entries.items()}, fh, indent=2, sort_keys=True)
        fh.write("\n")
