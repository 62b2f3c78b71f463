"""Static bending of a Mindlin plate with nonlocal in-plane gradients.

Fields (u, v, w, theta_x, theta_y) on a bilinear rectangle mesh.  The
nonlocal operator replaces each in-plane partial derivative separately,
axis by axis:

    eps_xx = Dbar_x u - z * Dbar_x theta_x
    eps_yy = Dbar_y v - z * Dbar_y theta_y
    gamma_xy = Dbar_y u + Dbar_x v - z * (Dbar_y theta_x + Dbar_x theta_y)
    gamma_xz = Dbar_x w - theta_x,   gamma_yz = Dbar_y w - theta_y

with the plane-stress law through the thickness and the shear correction
factor on the transverse terms.  Because the mesh is a tensor product and
Dbar acts along one axis at a time, every stiffness block is a sum of
Kronecker products of 1D Gram matrices; assembly never touches a 2D
quadrature loop.  Membrane and bending blocks integrate with the 2x2 rule,
transverse shear with 1x1.  Each boundary set fixes every field on whole
edges, so the assembly builds only the lower triangle of the free-free
block, from restricted 1D Grams.  It streams the 9 nonzero field blocks on
and below the diagonal into the column-major matrix in slabs of a few
columns, skipping the rows of the diagonal blocks that lie above the
diagonal, and holds no field-block-sized temporary.  The blocks below the
diagonal take transposed views of the same Grams, so each entry has the
bits of its mirror image.  The system's product K x applies the same
restricted Grams term by term.  At 48x48 clamped the free block has 11,045
dofs and spans 0.93 GiB, but above the diagonal only the small y-node
blocks that the diagonal crosses are written, and dense_block backs every
block with small pages, so the untouched upper half costs no memory.
The hat rows of each axis and rule, and their N-N Grams, do not depend on
the kernel: a model builds them once, on first use, and keeps them.

DOF layout is block-major: dof(field, node) = field * n_nodes + node with
fields (u, v, w, theta_x, theta_y) = (0..4) and node(i, j) = j*(nx+1)+i.
The assembled block covers the free dofs in that order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, RectangleMesh, StiffnessSystem, gauss_rule, gram
from .kernels import Kernel

__all__ = [
    "PlateSection",
    "MindlinPlateModel",
    "PlateDisplacement",
    "BOUNDARY_CONDITIONS",
    "PLATE_SWEEP_COLUMNS",
]

U, V, W, TX, TY = FIELDS = 0, 1, 2, 3, 4

# Where each field is fixed, per boundary set: (on the edges x = 0 and
# x = lx, on the edges y = 0 and y = ly).  Hard simple support fixes the
# tangential displacement, the deflection and the tangential rotation on
# each edge; clamping fixes every field.
FIXED_EDGES = {
    "clamped": {f: (True, True) for f in FIELDS},
    "simply_supported": {
        U: (False, True),
        V: (True, False),
        W: (True, True),
        TX: (False, True),
        TY: (True, False),
    },
}
BOUNDARY_CONDITIONS = tuple(FIXED_EDGES)


@dataclass(frozen=True)
class PlateSection:
    """Rectangular planform, uniform thickness, isotropic elastic constants."""

    length_x: float = 1.0
    length_y: float = 1.0
    thickness: float = 0.1
    modulus: float = 30e9
    poisson: float = 0.3
    shear_correction: float = 5.0 / 6.0

    def __post_init__(self) -> None:
        for name in ("length_x", "length_y", "thickness", "modulus", "shear_correction"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)!r})")
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError(f"poisson ratio must lie in [0, 0.5) (got {self.poisson!r})")

    @property
    def shear_modulus(self) -> float:
        return self.modulus / (2.0 * (1.0 + self.poisson))


PLATE_SWEEP_COLUMNS = (
    "kernel",
    "param",
    "l_f",
    "bc",
    "w_center_nonlocal",
    "w_center_local",
    "w_bar",
    "status",
)


class MindlinPlateModel:
    sweep_columns = PLATE_SWEEP_COLUMNS

    def __init__(
        self,
        section: PlateSection,
        pressure: float,
        boundary: str,
        nx: int = 24,
        ny: int = 24,
    ):
        if boundary not in BOUNDARY_CONDITIONS:
            raise ValueError(f"boundary must be one of {BOUNDARY_CONDITIONS} (got {boundary!r})")
        if nx % 2 or ny % 2:
            raise ValueError(f"center node needs even element counts (got nx={nx}, ny={ny})")
        self.section = section
        self.pressure = pressure
        self.boundary = boundary
        self.mesh = RectangleMesh(section.length_x, section.length_y, nx, ny)

    @functools.cached_property
    def _hats(self) -> dict[tuple[tuple[float, int], int], fem.HatRows]:
        """The hat rows of each distinct axis mesh and rule, keyed as quadratures() keys them."""
        return {
            (ax, npts): fem.HatRows(fem.IntervalMesh(*ax), gauss_rule(npts))
            for ax in dict.fromkeys(self._axis_keys())
            for npts in (fem.BENDING_POINTS, fem.SHEAR_POINTS)
        }

    @functools.cached_property
    def _masses(self) -> dict[tuple[tuple[float, int], int], np.ndarray]:
        """The N-N Gram of each of _hats, which every assembly reads."""
        return {key: gram(hats.N, hats.N, hats.weights) for key, hats in self._hats.items()}

    @property
    def case(self) -> str:
        return self.boundary

    @property
    def metadata(self) -> dict[str, str]:
        nx, ny = self.mesh.x_axis.n_elements, self.mesh.y_axis.n_elements
        return {
            "model": "plate",
            "bc": self.boundary,
            "nx": str(nx),
            "ny": str(ny),
            **fem.block_metadata(*self.free_block),
        }

    @property
    def free_block(self) -> tuple[int, int]:
        """Dofs of the free block, and the most entries above its diagonal written per column.

        Above the diagonal the assembly writes, in each column, the rows of
        the column's y node before it: at most one x row of free nodes less
        one.
        """
        axes = self._free_axes()
        return sum(jy.size * jx.size for jy, jx in axes), max(jx.size for _, jx in axes) - 1

    # The per-axis rows and Grams hold under 1 MiB at 48x48, which the BLAS
    # margin's fixed 8 MiB covers, so the memory check counts only blocks.
    held_bytes = 0

    @property
    def resolution(self) -> str:
        """Mesh size as the convergence table prints it."""
        return f"{self.mesh.x_axis.n_elements}x{self.mesh.y_axis.n_elements}"

    @property
    def metric_dof(self) -> int:
        """Deflection dof of the center node."""
        return W * self.mesh.n_nodes + self.mesh.center_node()

    def quadratures(
        self, kernel: Kernel, horizon_radius: float
    ) -> dict[tuple[tuple[float, int], int], AxisQuadrature]:
        """One quadrature per distinct axis mesh and rule, keyed by ((length, elements), points).

        On a square plate the x and y axes share theirs, and with them every
        Gram.
        """
        return {
            key: AxisQuadrature(hats.mesh, gauss_rule(key[1]), kernel, horizon_radius, hats)
            for key, hats in self._hats.items()
        }

    def assemble(self, quadratures: dict, block: np.ndarray | None = None) -> StiffnessSystem:
        """Free-free block of the stiffness, streamed in LAPACK order, and the full load.

        quadratures comes from quadratures(); block, when given, is the
        matrix of an earlier system of this model, which the new one reuses
        (fem.FreeBlockWriter).  Each field's free nodes are a
        tensor product of per-axis index sets, so the free block of every
        Kronecker term is the Kronecker product of restricted 1D Grams,
        kron(A, B)[J x I, J' x I'] = kron(A[J, J'], B[I, I'])
        (Van Loan, "The ubiquitous Kronecker product", 2000).  The 9 nonzero
        field blocks on and below the diagonal are listed below as data,
        each a scaled sum of inner sums of such products; _stream writes
        them by column slabs, and _product applies them to vectors.
        Neither the full 5 n_nodes square matrix nor a field-block-sized
        temporary exists.
        """
        nn = self.mesh.n_nodes
        axes = self._free_axes()
        n_x = self.mesh.x_axis.n_nodes
        blocks = fem.FreeBlockWriter(
            nn, [(jy[:, None] * n_x + jx).ravel() for jy, jx in axes], block
        )
        s = self.section
        # Plane-stress moduli: c11*eps^2 couplings, c33 is the engineering
        # shear modulus acting on gamma_xy.
        c11 = s.modulus / (1.0 - s.poisson ** 2)
        c12 = s.poisson * c11
        c33 = s.shear_modulus
        memb = s.thickness
        bend_scale = s.thickness ** 3 / 12.0
        shear_scale = s.shear_correction * s.shear_modulus * s.thickness
        x, y = self._axis_keys()

        @functools.cache
        def g(ax: tuple, npts: int, left: str, right: str) -> np.ndarray:
            if left == right == "N":
                return self._masses[ax, npts]
            q = quadratures[ax, npts]
            rows = {"N": q.N, "B": q.B}
            return gram(rows[left], rows[right], q.weights)

        b, sh = fem.BENDING_POINTS, fem.SHEAR_POINTS
        # Inner sums, sum_i c_i kron(Gy_i, Gx_i) as (c_i, Gy_i, Gx_i); node =
        # j*(nx+1)+i, x fastest, so the y factor sits on the left.  A term
        # without a coefficient carries 1.0.  The in-plane stretch/shear
        # pattern is shared by the membrane (u, v) and bending (theta_x,
        # theta_y) pairs; only the thickness scale differs.
        inner = {
            "direct_x": (
                (c11, g(y, b, "N", "N"), g(x, b, "B", "B")),
                (c33, g(y, b, "B", "B"), g(x, b, "N", "N")),
            ),
            "direct_y": (
                (c11, g(y, b, "B", "B"), g(x, b, "N", "N")),
                (c33, g(y, b, "N", "N"), g(x, b, "B", "B")),
            ),
            "shear_mass": ((1.0, g(y, sh, "N", "N"), g(x, sh, "N", "N")),),
            "w_w": (
                (1.0, g(y, sh, "N", "N"), g(x, sh, "B", "B")),
                (1.0, g(y, sh, "B", "B"), g(x, sh, "N", "N")),
            ),
            # Couplings below the diagonal: (v, u) and (theta_y, theta_x)
            # share "cross_t", and (theta_x, w) and (theta_y, w) take "tx_w"
            # and "ty_w".  Each is the transpose of its block above the
            # diagonal, written with transposed views of the same Grams, so
            # every entry has the bits of its mirror image.
            "cross_t": (
                (c12, g(y, b, "N", "B").T, g(x, b, "B", "N").T),
                (c33, g(y, b, "B", "N").T, g(x, b, "N", "B").T),
            ),
            "tx_w": ((1.0, g(y, sh, "N", "N").T, g(x, sh, "B", "N").T),),
            "ty_w": ((1.0, g(y, sh, "B", "N").T, g(x, sh, "N", "N").T),),
        }
        # Field blocks as (f, g, ((scale, inner sum), ...)) with f >= g: block
        # (f, g) is sum_o scale_o * inner[name_o] on field f's free rows and
        # field g's free columns.  The blocks of one stream share those free
        # sets in both boundary sets (FIXED_EDGES), so each inner sum is
        # built once per slab.
        streams = [
            [(TX, TX, [(shear_scale, "shear_mass"), (bend_scale, "direct_x")]),
             (U, U, [(memb, "direct_x")])],
            [(TY, TY, [(shear_scale, "shear_mass"), (bend_scale, "direct_y")]),
             (V, V, [(memb, "direct_y")])],
            [(V, U, [(memb, "cross_t")]), (TY, TX, [(bend_scale, "cross_t")])],
            [(W, W, [(shear_scale, "w_w")])],
            [(TX, W, [(-shear_scale, "tx_w")])],
            [(TY, W, [(-shear_scale, "ty_w")])],
        ]
        terms = [(stream, _restricted(axes, inner, stream)) for stream in streams]
        for stream, factors in terms:
            _stream(blocks, axes, factors, stream)

        F = np.zeros(5 * nn)
        fx, fy = quadratures[x, b].load_vector(), quadratures[y, b].load_vector()
        F[W * nn : (W + 1) * nn] = self.pressure * np.outer(fy, fx).ravel()

        return blocks.system(F, functools.partial(_product, blocks, axes, terms))

    def _axis_keys(self) -> tuple[tuple[float, int], tuple[float, int]]:
        """(length, elements) of the x and y axes, equal on a square plate."""
        return tuple((axis.length, axis.n_elements) for axis in (self.mesh.x_axis, self.mesh.y_axis))

    def _free_axes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Free (y, x) node ranges of each field; its free nodes are their product."""
        n_x, n_y = self.mesh.x_axis.n_nodes, self.mesh.y_axis.n_nodes

        def axis(n: int, fixed: bool) -> np.ndarray:
            return np.arange(1, n - 1) if fixed else np.arange(n)

        edges = FIXED_EDGES[self.boundary]
        return [(axis(n_y, edges[f][1]), axis(n_x, edges[f][0])) for f in FIELDS]


def _restricted(
    axes: list[tuple[np.ndarray, np.ndarray]], inner: dict[str, tuple], blocks: list[tuple]
) -> dict[str, list[tuple[float, np.ndarray, np.ndarray]]]:
    """Each inner sum that blocks use, on the free rows and columns of the first block.

    Term c * kron(Gy, Gx) becomes (c, ly, lx) with ly = Gy[J, K].T and
    lx = Gx[I, K'].T, for the rows J x I and columns K x K', so that entry
    (cy, cx, ry, rx) of its product is ly[cy, ry] * lx[cx, rx].  Free node
    sets are ranges, so these are views of the Grams.
    """
    (jy, jx), (ky, kx) = (
        [slice(nodes[0], nodes[-1] + 1) for nodes in axes[f]] for f in blocks[0][:2]
    )
    names = dict.fromkeys(name for _, _, outer in blocks for _, name in outer)
    return {name: [(c, gy[jy, ky].T, gx[jx, kx].T) for c, gy, gx in inner[name]] for name in names}


def _stream(
    writer: fem.FreeBlockWriter,
    axes: list[tuple[np.ndarray, np.ndarray]],
    factors: dict[str, list[tuple]],
    blocks: list[tuple],
) -> None:
    """Write blocks sum_o s_o * inner[name_o] into writer, one column slab at a time.

    Every block (f, g) has the free rows axes[f] and free columns axes[g] of
    the first block, and factors holds their inner sums from _restricted.
    Each entry goes through the operations of
    sum_o s_o * sum_i c_i * np.kron(Gy_i, Gx_i), the inner sum in order and
    the outer terms in the order of their inner sums, which cannot change
    the bits of a sum of at most two terms.

    A slab is at most fem.SLAB_ENTRIES entries, or one column, of the
    columns on one y node in the F-order view writer.columns(f, g), whose
    columns are contiguous; on small meshes it is all of that node's
    columns.  On diagonal blocks a slab of columns on y node cy starts at
    the rows on y node cy; the rows before lie above the diagonal
    and are never touched.  Each inner sum is built once per slab in a
    buffer of that size and scaled into every block that uses it: written
    the first time, added after that.
    """
    (jy, jx), (ky, kx) = axes[blocks[0][0]], axes[blocks[0][1]]
    diagonal = blocks[0][0] == blocks[0][1]
    shape = (ky.size, kx.size, jy.size, jx.size)
    views = [writer.columns(f, g).reshape(shape, copy=False) for f, g, _ in blocks]
    uses: dict[str, list[tuple[int, float]]] = {}
    for v, (_, _, outer) in enumerate(blocks):
        for scale, name in outer:
            uses.setdefault(name, []).append((v, scale))
    x_step = max(1, fem.SLAB_ENTRIES // max(1, jy.size * jx.size))
    sum_buf, term_buf = np.empty((2, min(x_step, kx.size), jy.size, jx.size))
    for cy in range(ky.size):
        ry = slice(cy if diagonal else 0, None)
        for x0 in range(0, kx.size, x_step):
            cx = slice(x0, x0 + x_step)
            slabs = [view[cy, cx, ry] for view in views]
            n_cx, n_ry = slabs[0].shape[:2]
            total, term = sum_buf[:n_cx, :n_ry], term_buf[:n_cx, :n_ry]
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
                    if v in written:
                        np.multiply(total, scale, out=term)
                        slabs[v] += term
                    else:
                        np.multiply(total, scale, out=slabs[v])
                        written.add(v)


def _product(
    writer: fem.FreeBlockWriter,
    axes: list[tuple[np.ndarray, np.ndarray]],
    terms: list[tuple[list[tuple], dict[str, list[tuple]]]],
    x: np.ndarray,
) -> np.ndarray:
    """K x on the free dofs, from the restricted factors of every stored block.

    Field f's part X_f of x is an array (y node, x node, column of x) over
    its free nodes.  A stored block (f, g) adds s * c * Gy[J, K] @ X_g @ Gx[I, K'].T
    per term to field f's part of K x and, below the diagonal, the
    transposed term applied to X_f to field g's part.
    """
    x = np.asarray(x, dtype=float)
    columns = x.reshape(x.shape[0], -1)
    y = np.zeros(columns.shape)
    xs, ys = writer.split(columns), writer.split(y)
    part = [(jy.size, jx.size, columns.shape[1]) for jy, jx in axes]
    for stream, factors in terms:
        for f, g, outer in stream:
            xf, xg = xs[f].reshape(part[f]), xs[g].reshape(part[g])
            yf, yg = ys[f].reshape(part[f]), ys[g].reshape(part[g])
            for scale, name in outer:
                for c, ly, lx in factors[name]:
                    yf += _kron_apply((scale * c) * ly.T, lx.T, xg)
                    if f != g:
                        yg += _kron_apply((scale * c) * ly, lx, xf)
    return y.reshape(x.shape)


def _kron_apply(a: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    """kron(a, b) applied to each column X[:, :, k] of X: a @ X[:, :, k] @ b.T."""
    return b @ np.tensordot(a, X, 1)


@dataclass(frozen=True)
class PlateDisplacement:
    """Five nodal fields stored as 2D grids indexed [j, i] (y row, x column)."""

    x_nodes: np.ndarray
    y_nodes: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    theta_x: np.ndarray
    theta_y: np.ndarray

    @classmethod
    def from_vector(cls, mesh: RectangleMesh, dofs: np.ndarray) -> "PlateDisplacement":
        nn = mesh.n_nodes
        shape = (mesh.y_axis.n_nodes, mesh.x_axis.n_nodes)
        fields = [dofs[f * nn : (f + 1) * nn].reshape(shape) for f in range(5)]
        return cls(mesh.x_axis.nodes, mesh.y_axis.nodes, *fields)
