"""Assembly and solution machinery shared by the beam and plate models.

Energies of the structural models are sums over Gauss points of quadratic
forms in two row families evaluated on 1D meshes: nodal interpolation rows N
(hat-function values) and nonlocal gradient rows B (operator matrix rows).
Stiffness blocks are therefore weighted Gram products of those families; the
plate obtains its 2D blocks as Kronecker products of per-axis Grams, which is
an exact reordering of the Gauss-point sum over the tensor product rule.

A StiffnessSystem holds only the lower triangle, diagonal included, of the
free-free block of the stiffness, in column-major (LAPACK) order: every beam
and plate case fixes its supports at zero, so each model writes the block of
its free dofs through one FreeBlockWriter and never builds the full matrix.
K is symmetric, so Cholesky reads nothing else, and no field block above
the diagonal is ever written.  The system also carries product(x),
K x on the free dofs from the model's own factors.  solve() factors the
block by Cholesky in place, takes its residuals from product(), refines once
or twice if needed, and guarantees a small relative residual or raises.
Every dense block is checked against the available memory before it is
allocated, and a large one is backed by small pages, so that the pages of
its untouched upper triangle cost no memory.
"""

from __future__ import annotations

import functools
import mmap
import re
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .kernels import Kernel, check_admissible
from .operator import HorizonSpec, build_operator_matrix

__all__ = [
    "IntervalMesh",
    "RectangleMesh",
    "GaussRule",
    "gauss_rule",
    "BENDING_POINTS",
    "SHEAR_POINTS",
    "AxisQuadrature",
    "gram",
    "hat_rows",
    "StiffnessSystem",
    "SolverError",
    "available_memory",
    "check_fits",
    "dense_block",
    "FreeBlockWriter",
    "quadratures",
    "assemble",
    "solve",
    "solve_metric",
]

# reduced-integration point counts: full rule for direct strain energy,
# one point fewer for the transverse shear terms (locking control)
BENDING_POINTS = 2
SHEAR_POINTS = 1

# Dense blocks of at least this many bytes get small pages (dense_block).
# Below it huge pages stay, which factor faster: on small pages a 24x24
# plate's 53 MiB block solved in 0.12 s against 0.10 s (2-core Xeon).
_SMALL_PAGE_BYTES = 256 << 20


class SolverError(RuntimeError):
    """Constrained system could not be factored or solved to tolerance."""


class IntervalMesh:
    """Uniform 1D mesh on [0, length] with linear elements."""

    def __init__(self, length: float, n_elements: int):
        if not length > 0.0:
            raise ValueError(f"mesh length must be positive (got {length!r})")
        if n_elements < 1:
            raise ValueError(f"need at least one element (got {n_elements!r})")
        self.length = float(length)
        self.n_elements = int(n_elements)
        self.nodes = np.linspace(0.0, self.length, self.n_elements + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def spacing(self) -> float:
        return self.length / self.n_elements

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"IntervalMesh(length={self.length}, n_elements={self.n_elements})"


class RectangleMesh:
    """Tensor-product mesh on [0, lx] x [0, ly].

    Node numbering is lexicographic with x fastest: node(i, j) = j*(nx+1) + i.
    """

    def __init__(self, lx: float, ly: float, nx: int, ny: int):
        self.x_axis = IntervalMesh(lx, nx)
        self.y_axis = IntervalMesh(ly, ny)

    @property
    def n_nodes(self) -> int:
        return self.x_axis.n_nodes * self.y_axis.n_nodes

    def node(self, i: int, j: int) -> int:
        return j * self.x_axis.n_nodes + i

    def center_node(self) -> int:
        nx, ny = self.x_axis.n_elements, self.y_axis.n_elements
        if nx % 2 or ny % 2:
            raise ValueError("center node needs even element counts in both directions")
        return self.node(nx // 2, ny // 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RectangleMesh(lx={self.x_axis.length}, ly={self.y_axis.length}, "
            f"nx={self.x_axis.n_elements}, ny={self.y_axis.n_elements})"
        )


@dataclass(frozen=True)
class GaussRule:
    """Gauss-Legendre points and weights on the reference interval [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray


@functools.cache
def gauss_rule(n_points: int) -> GaussRule:
    """The n-point rule, computed once per point count; its arrays are read-only."""
    if n_points < 1:
        raise ValueError("quadrature rule needs at least one point")
    p, w = np.polynomial.legendre.leggauss(n_points)
    p.flags.writeable = w.flags.writeable = False
    return GaussRule(points=p, weights=w)


class AxisQuadrature:
    """Gauss data of one rule over one axis mesh, with N and B row families.

    points/weights are the global Gauss abscissae and weights (element
    jacobian folded in).  N holds hat-function values, B the nonlocal
    gradient rows for the given kernel and horizon radius; with the local
    delta kernel B degenerates to the element-gradient rows.
    """

    def __init__(self, mesh: IntervalMesh, rule: GaussRule, kernel: Kernel, horizon_radius: float):
        h = mesh.spacing
        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        pts = (mids[:, None] + 0.5 * h * rule.points[None, :]).ravel()
        self.points = pts
        self.weights = np.tile(0.5 * h * rule.weights, mesh.n_elements)
        element = np.repeat(np.arange(mesh.n_elements), rule.points.size)
        t = (pts - mesh.nodes[element]) / h
        self.N = np.zeros((pts.size, mesh.n_nodes))
        rows = np.arange(pts.size)
        self.N[rows, element] = 1.0 - t
        self.N[rows, element + 1] = t
        horizon = HorizonSpec(l_f=horizon_radius, x_min=0.0, x_max=mesh.length)
        self.B = build_operator_matrix(mesh.nodes, pts, horizon, kernel).weights
        self.mesh = mesh

    def load_vector(self) -> np.ndarray:
        """Consistent nodal load of a unit distributed intensity."""
        return self.N.T @ self.weights


def gram(P: np.ndarray, Q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram product sum_g w_g P_g^T Q_g."""
    return P.T @ (weights[:, None] * Q)


def hat_rows(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Piecewise-linear basis values at points inside the node span.

    Row r holds the hat-function values at points[r]; matrix-vector product
    with nodal values interpolates the field.
    """
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size and (pts.min() < nodes[0] or pts.max() > nodes[-1]):
        raise ValueError("interpolation points fall outside the mesh span")
    el = np.clip(np.searchsorted(nodes, pts, side="right") - 1, 0, nodes.size - 2)
    t = (pts - nodes[el]) / (nodes[el + 1] - nodes[el])
    rows = np.zeros((pts.size, nodes.size))
    idx = np.arange(pts.size)
    rows[idx, el] = 1.0 - t
    rows[idx, el + 1] = t
    return rows


@dataclass(frozen=True)
class StiffnessSystem:
    """Free-free stiffness block, consistent load, free dofs, and K x.

    matrix holds the lower triangle, diagonal included, of the symmetric
    block of the dofs in `free`, in column-major order; no reader looks
    above its diagonal.  free lists those dofs in ascending order; load
    holds all n entries.  Every dof outside `free` is fixed at zero.
    product(x) gives K x on the free dofs, for x of shape (free.size,) or
    (free.size, k), without reading matrix, so it still holds after solve()
    has factored matrix in place.
    """

    matrix: np.ndarray
    load: np.ndarray
    free: np.ndarray
    product: Callable[[np.ndarray], np.ndarray]

    @property
    def n_dofs(self) -> int:
        return self.load.size


def available_memory() -> int | None:
    """Bytes the operating system reports as available, or None if unknown."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def check_fits(n: int) -> None:
    """Raise SolverError when an n x n float64 array would not fit in the available memory."""
    need = 8 * n * n
    have = available_memory()
    if have is not None and need > have:
        raise SolverError(
            f"dense system of {n} dofs needs {need / 2**30:.2f} GiB, "
            f"but only {have / 2**30:.2f} GiB of memory is available"
        )


def dense_block(n: int) -> np.ndarray:
    """Zeroed n x n float64 array in column-major (LAPACK) order.

    Raises SolverError, before allocating, when the array would not fit in
    the available memory.  A block of _SMALL_PAGE_BYTES or more gets its own
    anonymous mapping, advised against transparent huge pages, so that only
    the pages written are backed: the upper triangle of a block that stores
    its lower triangle then costs no memory.  numpy advises huge pages for
    every array from 4 MiB on, and every 2 MiB page of a column-major block
    holds some lower-triangle entry, which would back all of it.
    """
    check_fits(n)
    if 8 * n * n < _SMALL_PAGE_BYTES:
        return np.zeros((n, n), order="F")
    pages = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape((n, n), order="F")


class FreeBlockWriter:
    """The lower triangle of the free-free block of a field-major system.

    free_nodes[f] lists field f's free nodes in ascending order; with
    dof(f, node) = f * n_nodes + node the free dofs ascend too.  The block is
    allocated once by dense_block, so the memory check runs first.  Only the
    field blocks (f, g) with f >= g are written, so no field block above the
    diagonal is ever touched: put() writes one, and columns() gives one by
    columns, for callers that stream it.  split() views a free vector field
    by field.
    """

    def __init__(self, n_nodes: int, free_nodes: list[np.ndarray]):
        self.free = np.concatenate([f * n_nodes + nodes for f, nodes in enumerate(free_nodes)])
        self._start = np.cumsum([0] + [nodes.size for nodes in free_nodes])
        self.matrix = dense_block(self.free.size)

    def put(self, f: int, g: int, block: np.ndarray) -> None:
        self.matrix[self._block(f, g)] = block

    def columns(self, f: int, g: int) -> np.ndarray:
        """Writable view of block (f, g) by columns: row c holds its column c, contiguous."""
        return self.matrix[self._block(f, g)].T

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        """Views of each field's part of x, a free vector or a stack of them by columns."""
        return [x[self._dofs(f)] for f in range(self._start.size - 1)]

    def _block(self, f: int, g: int) -> tuple[slice, slice]:
        if f < g:
            raise ValueError(f"block ({f}, {g}) lies above the diagonal, which is not stored")
        return self._dofs(f), self._dofs(g)

    def _dofs(self, f: int) -> slice:
        return slice(self._start[f], self._start[f + 1])

    def system(
        self, load: np.ndarray, product: Callable[[np.ndarray], np.ndarray]
    ) -> StiffnessSystem:
        return StiffnessSystem(self.matrix, load, self.free, product)


def quadratures(model, kernel: Kernel, horizon_radius: float) -> dict:
    """Validate the kernel and horizon, then build the model's kernel-dependent quadratures.

    The model provides its own quadratures (one AxisQuadrature per distinct
    axis mesh and rule); this entry point enforces the shared admissibility
    contract: a positive horizon radius and a positively decaying kernel.
    """
    if not horizon_radius > 0.0:
        raise ValueError(f"horizon radius must be positive (got {horizon_radius!r})")
    check_admissible(kernel, horizon_radius)
    return model.quadratures(kernel, horizon_radius)


def assemble(model, kernel: Kernel, horizon_radius: float) -> StiffnessSystem:
    """The model's system for the kernel and horizon, from its validated quadratures."""
    return model.assemble(quadratures(model, kernel, horizon_radius))


def solve(system: StiffnessSystem, residual_tol: float = 1e-10) -> np.ndarray:
    """Displacements of the system by dense Cholesky of its free block.

    The lower triangle of the block is factored in place, so system.matrix
    holds the factor afterwards; np.asfortranarray copies only a block that
    is not column-major.  The residuals of iterative refinement come from
    system.product, which does not read the matrix, and must reach
    ||K u - F|| <= residual_tol * ||F|| on the free rows.
    """
    free = system.free
    u = np.zeros(system.n_dofs)
    if free.size == 0:
        return u
    rhs = system.load[free].astype(float, copy=True)
    K_ff = np.asfortranarray(system.matrix, dtype=float)
    try:
        factor = linalg.cho_factor(K_ff, lower=True, overwrite_a=True, check_finite=False)
    except linalg.LinAlgError as exc:
        pivot = _pivot_from_message(str(exc), free)
        raise SolverError(
            "stiffness matrix is not positive definite after constraints "
            f"(failing pivot at dof {pivot})"
        ) from exc

    def residual(x: np.ndarray) -> np.ndarray:
        return rhs - system.product(x)

    x = linalg.cho_solve(factor, rhs, check_finite=False)
    scale = np.linalg.norm(rhs)
    denom = scale if scale > 0.0 else 1.0
    r = residual(x)
    for _ in range(3):
        if np.linalg.norm(r) <= residual_tol * denom:
            break
        x = x + linalg.cho_solve(factor, r, check_finite=False)
        r = residual(x)
    if np.linalg.norm(r) > residual_tol * denom:
        raise SolverError(
            f"solve residual {np.linalg.norm(r) / denom:.3e} exceeds {residual_tol:.1e}"
        )
    u[free] = x
    return u


def solve_metric(
    model, kernel: Kernel, horizon_radius: float, residual_tol: float = 1e-10
) -> float:
    """|u| at the model's metric dof after assembling and solving the system.

    The metric dof is the beam's tip or midspan deflection, or the plate's
    center deflection.
    """
    u = solve(assemble(model, kernel, horizon_radius), residual_tol)
    return float(np.abs(u[model.metric_dof]))


def _pivot_from_message(message: str, free: np.ndarray) -> int | str:
    m = re.search(r"(\d+)", message)
    if m is None:
        return "unknown"
    return int(free[int(m.group(1)) - 1])
