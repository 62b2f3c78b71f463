"""Assembly and solution machinery shared by the beam and plate models.

Energies of the structural models are sums over Gauss points of quadratic
forms in two row families evaluated on 1D meshes: nodal interpolation rows N
(hat-function values) and nonlocal gradient rows B (operator matrix rows).
Stiffness blocks are therefore weighted Gram products of those families, and
each field block of either model is a sum of Kronecker products of per-axis
Grams, an exact reordering of the Gauss-point sum over the tensor product
rule; a beam is the case of a single y node.

A StiffnessSystem holds only the lower triangle, diagonal included, of the
free-free block of the stiffness, in column-major (LAPACK) order: every beam
and plate case fixes its supports at zero, and K is symmetric, so Cholesky
reads nothing else, and nothing above the diagonal is ever written.
kronecker_system is the one writer of both models: it streams a flat table
of field blocks, each inner sum shared by those on the same free nodes, and
gives the system product(x), K x on the free dofs from the same Grams.
solve() factors the block by Cholesky in place, takes its residuals from
product(), refines once or twice if needed, and guarantees a small relative
residual or raises.  Every dense block is checked against the available
memory before it is allocated, and is backed by small pages, so that the
pages of its untouched upper triangle cost no memory.  kronecker_system can
also take the block of an earlier system of the same size: a sweep hands
each row a block that a finished row left behind, instead of faulting in
fresh pages, and the lower field blocks that the table does not list are
zeroed.

Axes turns a model's axis meshes and fixed ends into its node grid and
numbering, each field's free (y, x) node ranges, and one HatRows per
distinct axis mesh and rule: the Gauss rule, the hat rows N at its points,
the consistent load N^T w and the N-N Gram.  None of them depends on the
kernel, so a model builds them once for every AxisQuadrature and assembly.
solve_metric and results.sweep read a model's free block size from its Axes
too, and ElasticSection checks either model's section, so a model keeps only
its physics.
"""

from __future__ import annotations

import functools
import mmap
import re
import resource
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy import linalg

from .kernels import Kernel, check_admissible
from .operator import build_operator_matrix

__all__ = [
    "IntervalMesh",
    "Axes",
    "BENDING_POINTS",
    "SHEAR_POINTS",
    "HatRows",
    "ElasticSection",
    "AxisQuadrature",
    "gram",
    "StiffnessSystem",
    "SolverError",
    "available_memory",
    "backed_bytes",
    "blas_margin",
    "block_metadata",
    "check_fits",
    "dense_block",
    "kronecker_system",
    "assemble",
    "solve",
    "solve_metric",
    "metric",
]

# reduced-integration point counts: full rule for direct strain energy,
# one point fewer for the transverse shear terms (locking control)
BENDING_POINTS = 2
SHEAR_POINTS = 1

# Most entries of a field block a model computes at once (128 kB, within L2),
# in slabs of at least one column
SLAB_ENTRIES = 1 << 14

# Where available_memory finds the process's cgroups.
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


class ElasticSection:
    """The checks and shear modulus of a section dataclass with isotropic constants.

    Every field but poisson must be positive, checked in field order, and
    poisson must lie in [0, 0.5).
    """

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "poisson" and not value > 0.0:
                raise ValueError(f"{f.name} must be positive (got {value!r})")
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError(f"poisson ratio must lie in [0, 0.5) (got {self.poisson!r})")

    @property
    def shear_modulus(self) -> float:
        return self.modulus / (2.0 * (1.0 + self.poisson))


class SolverError(RuntimeError):
    """Constrained system could not be factored or solved to tolerance."""


@dataclass(frozen=True)
class IntervalMesh:
    """Uniform 1D mesh on [0, length] with linear elements.

    Meshes of equal length and element count are equal, and hash alike, so
    a mesh is its own key.
    """

    length: float
    n_elements: int

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError(f"mesh length must be positive (got {self.length!r})")
        if self.n_elements < 1:
            raise ValueError(f"need at least one element (got {self.n_elements!r})")

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_elements + 1)

    @property
    def n_nodes(self) -> int:
        return self.n_elements + 1

    @property
    def spacing(self) -> float:
        return self.length / self.n_elements


class HatRows:
    """An axis mesh's n-point Gauss rule, its hat rows N, consistent load and N-N Gram.

    points/weights are the global Gauss-Legendre abscissae and weights
    (element jacobian folded in); row g of N holds the hat-function values
    at points[g], and mass is the N-N Gram.  None of them depends on the
    kernel, so a model builds them once per rule and shares them with each
    AxisQuadrature and assembly; the arrays are read-only for that reason.
    """

    def __init__(self, mesh: IntervalMesh, n_points: int):
        if n_points < 1:
            raise ValueError("quadrature rule needs at least one point")
        p, w = np.polynomial.legendre.leggauss(n_points)
        h = mesh.spacing
        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        pts = (mids[:, None] + 0.5 * h * p[None, :]).ravel()
        self.points = pts
        self.weights = np.tile(0.5 * h * w, mesh.n_elements)
        element = np.repeat(np.arange(mesh.n_elements), n_points)
        t = (pts - mesh.nodes[element]) / h
        self.N = np.zeros((pts.size, mesh.n_nodes))
        rows = np.arange(pts.size)
        self.N[rows, element] = 1.0 - t
        self.N[rows, element + 1] = t
        for array in (self.points, self.weights, self.N):
            array.flags.writeable = False
        self.mesh = mesh

    @functools.cached_property
    def load(self) -> np.ndarray:
        """Consistent nodal load of a unit distributed intensity, N^T w; read-only."""
        load = self.N.T @ self.weights
        load.flags.writeable = False
        return load

    @functools.cached_property
    def mass(self) -> np.ndarray:
        """The N-N Gram, gram(N, N, weights); read-only."""
        mass = gram(self.N, self.N, self.weights)
        mass.flags.writeable = False
        return mass


@dataclass(frozen=True)
class Axes:
    """A model's axis meshes and fixed ends: its node grid, hat rows and free nodes.

    x_axis is the x mesh and y_axis the y mesh, or None for a single y node
    (a beam).  fixed holds, for each field in dof order, its fixed ends on
    each axis, ((first, last) x node, (first, last) y node): whether the
    field is fixed at zero on every node of that end, so the free nodes of a
    field are one (y, x) range pair.  Nodes are numbered lexicographically, x
    fastest: node(i, j) = j * n_x + i.  hats holds one HatRows per distinct
    axis mesh and rule, so a square plate's two axes share theirs.
    """

    x_axis: IntervalMesh
    y_axis: IntervalMesh | None
    fixed: tuple[tuple[tuple[bool, bool], tuple[bool, bool]], ...]

    @property
    def grid(self) -> tuple[int, int]:
        """(n_y, n_x) nodes."""
        return (1 if self.y_axis is None else self.y_axis.n_nodes, self.x_axis.n_nodes)

    @property
    def n_nodes(self) -> int:
        return self.grid[0] * self.grid[1]

    def node(self, i: int, j: int = 0) -> int:
        return j * self.x_axis.n_nodes + i

    @property
    def meshes(self) -> tuple[IntervalMesh, ...]:
        """The axis meshes, x first: one for a beam, two for a plate."""
        return (self.x_axis,) if self.y_axis is None else (self.x_axis, self.y_axis)

    @property
    def resolution(self) -> str:
        """Element counts, x first, as the convergence table prints them: 200, 24x24."""
        return "x".join(str(mesh.n_elements) for mesh in self.meshes)

    def center_node(self) -> int:
        counts = [mesh.n_elements for mesh in self.meshes]
        if any(n % 2 for n in counts):
            raise ValueError(f"center node needs even element counts (got {self.resolution})")
        return self.node(*(n // 2 for n in counts))

    @functools.cached_property
    def hats(self) -> dict[tuple[IntervalMesh, int], HatRows]:
        """The HatRows of each distinct axis mesh and rule, keyed (mesh, points), x axis first."""
        meshes, rules = dict.fromkeys(self.meshes), (BENDING_POINTS, SHEAR_POINTS)
        return {(mesh, npts): HatRows(mesh, npts) for mesh in meshes for npts in rules}

    @property
    def free(self) -> list[tuple[range, range]]:
        """Free (y, x) node ranges of each field; its free nodes are their product."""
        n_y, n_x = self.grid
        return [(range(y0, n_y - y1), range(x0, n_x - x1)) for (x0, x1), (y0, y1) in self.fixed]

    @property
    def free_dofs(self) -> int:
        """Dofs of the free block kronecker_system writes over these free nodes."""
        return sum(len(jy) * len(jx) for jy, jx in self.free)


class AxisQuadrature:
    """Gauss data of one rule over one axis mesh, with N and B row families.

    points, weights and N come from hats, the HatRows of the mesh and rule,
    and mesh is hats.mesh.  B holds the nonlocal gradient rows for the given
    kernel and horizon radius, each horizon clipped to the mesh [0, length];
    with the local delta kernel, or a radius under 1e-13 of the length, B
    degenerates to the element-gradient rows.  The consistent load is
    hats.load, which does not depend on the kernel either.  A horizon
    radius that is not positive, or a kernel that does not decay
    positively over it (kernels.check_admissible), is rejected before any
    row is built.
    """

    def __init__(self, hats: HatRows, kernel: Kernel, horizon_radius: float):
        self.points, self.weights, self.N = hats.points, hats.weights, hats.N
        self.mesh = hats.mesh
        check_admissible(kernel, horizon_radius)
        self.B = build_operator_matrix(self.mesh.nodes, self.points, horizon_radius, kernel).weights


def gram(P: np.ndarray, Q: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted Gram product sum_g w_g P_g^T Q_g."""
    return P.T @ (weights[:, None] * Q)


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
    """Bytes this process may still take, or None if unknown.

    That is the least of what the operating system reports as available,
    the headroom of the process's memory cgroups and that of its address
    space, when any is known.
    """
    figures = (_meminfo_available(), _cgroup_headroom(), _address_space_headroom())
    return min((b for b in figures if b is not None), default=None)


def _address_space_headroom() -> int | None:
    """The soft RLIMIT_AS (`ulimit -v`) less the process's address space, or None when unset.

    An allocation counts whole against that limit as soon as it is mapped,
    backed or not.
    """
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        return None
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return max(limit - int(fh.read().split()[0]) * mmap.PAGESIZE, 0)
    except (OSError, ValueError, IndexError):
        return None


def _meminfo_available() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _cgroup_headroom() -> int | None:
    """Limit minus usage, the least over the process's memory cgroups and their ancestors.

    cgroup v2 gives memory.max and memory.current; v1 gives
    memory.limit_in_bytes and memory.usage_in_bytes under its memory
    hierarchy.  None when no limit is set or none can be read.
    """
    try:
        with open(_PROC_CGROUP, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    root = Path(_CGROUP_ROOT)
    headroom = []
    for line in lines:
        _, controllers, path = line.split(":", 2)
        if not controllers:
            base, limit, usage = root, "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            base, limit, usage = root / "memory", "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for depth in range(len(parts), -1, -1):
            group = base.joinpath(*parts[:depth])
            try:
                most = (group / limit).read_text(encoding="ascii").strip()
                used = int((group / usage).read_text(encoding="ascii"))
                if most != "max":
                    headroom.append(int(most) - used)
            except (OSError, ValueError):
                continue
    return min(headroom, default=None)


def backed_bytes(n: int) -> int:
    """Bytes of memory the n x n block of dense_block backs once its lower triangle is written.

    The block has small pages, and only those written are backed: the pages
    that hold rows j to n - 1 of each column j.  Whole pages are counted, so
    a tiny block backs more than its 8 n^2 bytes.
    """
    j = np.arange(n, dtype=np.int64)
    first = 8 * j * (n + 1) // mmap.PAGESIZE
    last = (8 * (j + 1) * n - 1) // mmap.PAGESIZE
    # consecutive columns share at most the page where one ends and the next begins
    shared = np.count_nonzero(first[1:] == last[:-1])
    return int(np.sum(last - first + 1) - shared) * mmap.PAGESIZE


def block_metadata(n: int) -> dict[str, str]:
    """Manifest entries of an n x n free block: its dofs, and the MiB it spans and backs.

    The backed figure is backed_bytes(n), what check_fits counts.
    """
    return {
        "block_dofs": str(n),
        "block_span_mib": f"{8 * n * n / 2**20:.1f}",
        "block_backed_mib": f"{backed_bytes(n) / 2**20:.1f}",
    }


def blas_margin(n: int) -> int:
    """Bytes a solve of n dofs takes beyond its block, mostly the factorization's work buffers."""
    # 8 MiB and 3 KiB per dof.  On 2 threads a solve lifted the peak RSS above
    # the RSS before its block plus the block's backed pages by 3.7 MiB on the
    # 12x12 plate (605 dofs), 7.6 MiB on the 600-dof beam sweep, 9.2 MiB on the
    # 24x24 plate, 15.1 MiB on the 32x32 and 32.1 MiB on the 48x48 (11,045
    # dofs): about 2.8 KiB more per dof, as OpenBLAS's panels of a few hundred
    # columns would.
    return (8 << 20) + (3 << 10) * n


def check_fits(n: int, margin: int | None = None, blocks: int = 1, held: int = 0) -> None:
    """Raise SolverError when `blocks` n x n blocks, a margin and `held` bytes would not fit.

    Each block counts the bytes it will back (backed_bytes(n)) and held,
    what the model keeps besides it (its rows and Grams); margin defaults
    to blas_margin(n), what a solve needs beyond its block.  A sweep
    on several threads holds up to one block per worker (results.sweep), each
    with rows and Grams of its own, but one margin covers their solves: at 2
    threads the 24x24 plate sweep peaked at 142.7 MiB against 146.6 MiB for
    the RSS before its blocks, the blocks and one margin, the 32x32 one at
    289.9 against 293.6 MiB, and an 800-element beam sweep at 269.5 against
    280.9 MiB (207.5 with one copy of its rows and Grams).  Blocks whose
    lower triangles alone, 4 n (n + 1) bytes each, exceed the memory are
    refused on that figure, which backed_bytes never undercuts: its numpy
    temporaries, about 32 bytes per dof, may not fit either.
    """
    have = available_memory()
    if have is None:
        return
    if margin is None:
        margin = blas_margin(n)
    block, held = blocks * 4 * n * (n + 1), blocks * held
    if block <= have:
        block = blocks * backed_bytes(n)
    if block + margin + held > have:
        extra = f" and {margin / 2**20:.0f} MiB of BLAS buffers" if margin else ""
        if held:
            extra += f" and {held / 2**20:.0f} MiB of model arrays"
        what = f"dense system of {n} dofs needs"
        if blocks > 1:
            what = f"{blocks} dense systems of {n} dofs need"
        raise SolverError(
            f"{what} {block / 2**30:.2f} GiB{extra}, "
            f"but only {have / 2**30:.2f} GiB of memory is available"
        )


def dense_block(n: int) -> np.ndarray:
    """Zeroed n x n float64 array in column-major (LAPACK) order.

    Raises SolverError, before allocating, when the pages the array will back
    would not fit in the available memory, and when its mapping is refused
    (under an address-space limit the whole span counts).  The block gets its
    own anonymous mapping, advised against transparent huge pages, so that
    only the pages written are backed: the upper triangle of a block that
    stores its lower triangle then costs no memory.  numpy advises huge pages
    for every array from 4 MiB on, and every 2 MiB page of a column-major
    block holds some lower-triangle entry, which would back all of it.  Once
    its pages are faulted in, a block factors about as fast on small pages as
    on huge ones: cho_factor medians on 2 threads read 0.096-0.102 s against
    0.094-0.100 s for the 24x24 plate's 2,645 dofs, 0.46-0.50 s against
    0.44-0.49 s for the 32x32 plate's 4,805, two runs each on a 2-core Xeon.
    """
    check_fits(n, margin=0)
    if n == 0:  # mmap rejects a zero length
        return np.zeros((0, 0), order="F")
    try:
        pages = mmap.mmap(-1, 8 * n * n, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise SolverError(
            f"a dense block of {n} dofs spans {8 * n * n / 2**30:.2f} GiB: {exc}"
        ) from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=float).reshape((n, n), order="F")


def kronecker_system(
    grid: tuple[int, int],
    ranges: list[tuple[range, range]],
    inner: dict[str, tuple],
    blocks: list[tuple],
    load: np.ndarray,
    block: np.ndarray | None = None,
) -> StiffnessSystem:
    """The system whose field blocks are sums of Kronecker products of 1D Grams.

    Each field has grid = (n_y, n_x) nodes, node j * n_x + i, and its free
    nodes are the product of the ranges ranges[f] = (jy, jx), as Axes gives
    both; with dof(f, node) = f * n_y * n_x + node the free dofs ascend
    field by field.  inner names inner sums sum_i c_i kron(Gy_i, Gx_i) as
    ((c_i, Gy_i, Gx_i), ...).  blocks lists field blocks (f, g, ((scale, name), ...)), f >= g,
    each once, block (f, g) being sum_o scale_o * inner[name_o]; the diagonal
    blocks on the same free nodes form one stream, as do those below it on
    the same free rows and columns, and a stream builds each inner sum once
    per slab.  Since kron(A, B)[J x I, J' x I'] = kron(A[J, J'], B[I, I'])
    (Van Loan, "The ubiquitous Kronecker product", 2000), no full matrix or
    field-block-sized temporary exists.  Streams and K x take the blocks
    column by column, the last field's first, each from the diagonal down,
    so no bit depends on the order of the table.

    The block is allocated by dense_block, so the memory check runs first,
    unless block is given: the matrix of an earlier system of the same free
    block, such as a factor that solve() left behind.  It is then reused as
    it is, and its lower field blocks that the table does not list are
    zeroed, so that its lower triangle holds what a fresh block's would.
    Nothing above the diagonal is written.
    """
    listed = [(f, g) for f, g, _ in blocks]
    for f, g in listed:
        if f < g:
            raise ValueError(f"block ({f}, {g}) lies above the diagonal, which is not stored")
        if listed.count((f, g)) > 1:
            raise ValueError(f"block ({f}, {g}) is listed twice")
    streams: dict[tuple, list[tuple]] = {}
    for f, g, outer in sorted(blocks, key=lambda b: (-b[1], b[0])):
        streams.setdefault((f == g, ranges[f], ranges[g]), []).append((f, g, outer))
    nodes = np.arange(grid[0] * grid[1]).reshape(grid)
    free = np.concatenate(
        [f * nodes.size + nodes[np.ix_(jy, jx)].ravel() for f, (jy, jx) in enumerate(ranges)]
    )
    start = np.cumsum([0] + [len(jy) * len(jx) for jy, jx in ranges])
    dofs = [slice(a, b) for a, b in zip(start[:-1], start[1:])]
    n = free.size
    if block is None:
        matrix = dense_block(n)
    elif block.shape != (n, n) or block.dtype != float or not block.flags.f_contiguous:
        raise ValueError(f"a reused block must be a column-major {n} x {n} float64 array")
    else:
        matrix = block
        for f, g in {(f, g) for f in range(len(ranges)) for g in range(f + 1)} - set(listed):
            matrix[dofs[f], dofs[g]] = 0.0
    terms = [t for key, group in streams.items() for t in _stream(matrix, dofs, inner, key, group)]
    return StiffnessSystem(matrix, load, free, functools.partial(_product, dofs, ranges, terms))


def _stream(
    matrix: np.ndarray,
    dofs: list[slice],
    inner: dict[str, tuple],
    key: tuple[bool, tuple[range, range], tuple[range, range]],
    blocks: list[tuple],
) -> list[tuple[int, int, float, np.ndarray, np.ndarray]]:
    """Write blocks sum_o s_o * inner[name_o] into matrix, one column slab at a time.

    Every block (f, g) has the free rows J x I and columns K x K' of the
    node ranges of key = (diagonal, (jy, jx), (ky, kx)), where each inner
    sum they use is restricted: term c * kron(Gy, Gx) becomes (c, ly, lx)
    with ly = Gy[J, K].T and lx = Gx[I, K'].T, views since free node sets
    are ranges, so that entry (cy, cx, ry, rx) of the term is
    ly[cy, ry] * lx[cx, rx].  Returned are K x's terms (f, g, s * c, ly, lx).
    Each entry goes through the operations of
    sum_o s_o * sum_i c_i * np.kron(Gy_i, Gx_i), the inner sum in order and
    the outer terms in the order of first use of their inner sums in the
    stream, which cannot change the bits of a sum of at most two terms.

    A slab is SLAB_ENTRIES // (rows of a column) columns, at least one, on
    one y node of the block's F-order view matrix[dofs[f], dofs[g]].T, whose
    columns are contiguous; on small meshes it is all of that node's
    columns.  On diagonal blocks a slab of columns (cy, x0), (cy, x0 + 1),
    ... starts at row (cy, x0), and its head, the rows of its own columns, is
    written through an upper-triangular mask over (column, row), so that no
    entry above the diagonal is touched.  Each inner sum is built once per
    slab, from row (cy, 0), in a buffer of that size, and scaled into every
    block that uses it: written the first time, added after that.
    """
    diagonal, (jy, jx), (ky, kx) = key
    row_y, row_x, col_y, col_x = (slice(r.start, r.stop) for r in (jy, jx, ky, kx))
    shape = (len(ky), len(kx), len(jy), len(jx))
    views = [matrix[dofs[f], dofs[g]].T.reshape(shape, copy=False) for f, g, _ in blocks]
    uses: dict[str, list[tuple[int, float]]] = {}
    for v, (_, _, outer) in enumerate(blocks):
        for scale, name in outer:
            uses.setdefault(name, []).append((v, scale))
    factors = {
        name: [(c, gy[row_y, col_y].T, gx[row_x, col_x].T) for c, gy, gx in inner[name]]
        for name in uses
    }
    x_step = max(1, SLAB_ENTRIES // max(1, len(jy) * len(jx)))
    sum_buf, term_buf = np.empty((2, min(x_step, len(kx)), len(jy), len(jx)))
    # entry [k, p] of a diagonal slab's head, row x0 + p of column x0 + k,
    # lies on or below the diagonal when p >= k
    on_or_below = np.triu(np.ones((sum_buf.shape[0],) * 2, dtype=bool))
    for cy in range(len(ky)):
        ry = slice(cy if diagonal else 0, None)
        for x0 in range(0, len(kx), x_step):
            cx = slice(x0, x0 + x_step)
            slabs = [view[cy, cx, ry] for view in views]
            n_cx, n_ry = slabs[0].shape[:2]
            total, term = sum_buf[:n_cx, :n_ry], term_buf[:n_cx, :n_ry]
            # buffers and slabs flattened over their rows, from the first row written
            first = x0 if diagonal else 0
            flat = [a.reshape(n_cx, -1, copy=False)[:, first:] for a in (total, term, *slabs)]
            parts = [(flat, True)]
            if diagonal:  # the head masked, the rows after it whole
                parts = [([a[:, :n_cx] for a in flat], on_or_below[:n_cx, :n_cx]),
                         ([a[:, n_cx:] for a in flat], True)]
            written = set()
            for name, users in uses.items():
                for i, (c, ly, lx) in enumerate(factors[name]):
                    out = term if i else total
                    np.multiply(ly[cy, None, ry, None], lx[cx, None, :], out=out)
                    if c != 1.0:
                        out *= c
                    if i:
                        total += term
                for v, scale in users:
                    for (flat_total, flat_term, *flat_slabs), where in parts:
                        if v in written:
                            np.multiply(flat_total, scale, out=flat_term)
                            np.add(flat_slabs[v], flat_term, out=flat_slabs[v], where=where)
                        else:
                            np.multiply(flat_total, scale, out=flat_slabs[v], where=where)
                    written.add(v)
    return [(f, g, s * c, ly, lx)
            for f, g, outer in blocks for s, name in outer for c, ly, lx in factors[name]]


def _product(
    dofs: list[slice],
    ranges: list[tuple[range, range]],
    terms: list[tuple[int, int, float, np.ndarray, np.ndarray]],
    x: np.ndarray,
) -> np.ndarray:
    """K x on the free dofs, from the restricted factors of every stored block.

    Field f's part X_f of x, x[dofs[f]], is an array (y node, x node, column
    of x) over its free nodes.  A term (f, g, c, ly, lx) of block (f, g),
    with c its outer scale times its inner coefficient, adds
    c * Gy[J, K] @ X_g @ Gx[I, K'].T, for each column of X_g, to field f's
    part of K x and, below the diagonal, the transposed term applied to X_f
    to field g's part.
    """
    x = np.asarray(x, dtype=float)
    columns = x.reshape(x.shape[0], -1)
    y = np.zeros(columns.shape)
    part = [(len(jy), len(jx), columns.shape[1]) for jy, jx in ranges]
    xs = [columns[s].reshape(p) for s, p in zip(dofs, part)]
    ys = [y[s].reshape(p) for s, p in zip(dofs, part)]
    for f, g, c, ly, lx in terms:
        ys[f] += lx.T @ np.tensordot(c * ly.T, xs[g], 1)
        if f != g:
            ys[g] += lx @ np.tensordot(c * ly, xs[f], 1)
    return y.reshape(x.shape)


def assemble(model, kernel: Kernel, horizon_radius: float) -> StiffnessSystem:
    """The model's system for the kernel and horizon, from its quadratures."""
    return model.assemble(model.quadratures(kernel, horizon_radius))


def solve(system: StiffnessSystem, residual_tol: float = 1e-10) -> np.ndarray:
    """Displacements of the system by dense Cholesky of its free block.

    The lower triangle of the block is factored in place, so system.matrix
    holds the factor afterwards; np.asfortranarray copies only a block that
    is not column-major.  The residuals of iterative refinement come from
    system.product, which does not read the matrix, and must reach
    ||K u - F|| <= residual_tol * ||F|| on the free rows; a residual that is
    not finite, from a NaN load or product, never does.
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
    if not np.linalg.norm(r) <= residual_tol * denom:
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
    center deflection.  The model's free block (model.axes.free_dofs) and the
    arrays it holds besides (model.held_bytes) are checked against the
    available memory first, so an oversized mesh fails before any quadrature
    work or allocation.
    """
    check_fits(model.axes.free_dofs, held=model.held_bytes)
    return metric(solve(assemble(model, kernel, horizon_radius), residual_tol), model.metric_dof)


def metric(u: np.ndarray, dof: int) -> float:
    """|u[dof]|, which ratios divide by: SolverError unless it is positive and finite."""
    w = float(np.abs(u[dof]))
    if not 0.0 < w < np.inf:
        raise SolverError(f"the metric |u| at dof {dof} is {w!r}, which leaves no ratio")
    return w


def _pivot_from_message(message: str, free: np.ndarray) -> int | str:
    m = re.search(r"(\d+)", message)
    if m is None:
        return "unknown"
    return int(free[int(m.group(1)) - 1])
