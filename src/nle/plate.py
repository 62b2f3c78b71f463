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
edges, so the assembly builds only the free-free block, from restricted 1D
Grams, and streams it straight into the column-major matrix in slabs of a
few columns: each distinct Kronecker term is computed once per slab, and no
temporary of a field block's size exists.  On a 2-core Xeon a 48x48 clamped
assembly takes 0.6-0.8 s, and its K of 0.93 GiB is its only large
allocation.

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
from .operator import NonlocalOperatorMatrix

__all__ = [
    "PlateSection",
    "MindlinPlateModel",
    "PlateDisplacement",
    "plate_strains",
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

# Most entries of a field block computed at once (128 kB, within the L2
# cache).  A slab takes its columns from one y node of the column field, so
# on small meshes it is all of that node's columns, well below the cap.
_SLAB_ENTRIES = 1 << 14


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

    @property
    def case(self) -> str:
        return self.boundary

    @property
    def metadata(self) -> dict[str, str]:
        nx, ny = self.mesh.x_axis.n_elements, self.mesh.y_axis.n_elements
        return {"model": "plate", "bc": self.boundary, "nx": str(nx), "ny": str(ny)}

    @property
    def resolution(self) -> str:
        """Mesh size as the convergence table prints it."""
        return f"{self.mesh.x_axis.n_elements}x{self.mesh.y_axis.n_elements}"

    @property
    def metric_dof(self) -> int:
        """Deflection dof of the center node."""
        return W * self.mesh.n_nodes + self.mesh.center_node()

    def assemble(self, kernel: Kernel, horizon_radius: float) -> StiffnessSystem:
        """Free-free block of the stiffness, streamed in LAPACK order, and the full load.

        Each field's free nodes are a tensor product of per-axis index sets,
        so the free block of every Kronecker term is the Kronecker product of
        restricted 1D Grams, kron(A, B)[J x I, J' x I'] = kron(A[J, J'], B[I, I'])
        (Van Loan, "The ubiquitous Kronecker product", 2000).  The 13 nonzero
        field blocks are listed below as data, each a scaled sum of inner
        sums of such products, and _stream writes them column slab by
        column slab: neither the full 5 n_nodes square matrix nor a full-size
        field block temporary ever exists.
        """
        mesh = self.mesh
        nn = mesh.n_nodes
        axes = self._free_axes()
        n_x = mesh.x_axis.n_nodes
        # the block first: an oversized mesh fails before any quadrature work
        blocks = fem.FreeBlockWriter(nn, [(jy[:, None] * n_x + jx).ravel() for jy, jx in axes])
        s = self.section
        # Plane-stress moduli: c11*eps^2 couplings, c33 is the engineering
        # shear modulus acting on gamma_xy.
        c11 = s.modulus / (1.0 - s.poisson ** 2)
        c12 = s.poisson * c11
        c33 = s.shear_modulus
        memb = s.thickness
        bend_scale = s.thickness ** 3 / 12.0
        shear_scale = s.shear_correction * s.shear_modulus * s.thickness

        # One quadrature per distinct axis mesh (length, elements) and rule:
        # on a square plate the x and y axes share theirs, and every Gram.
        x, y = ((axis.length, axis.n_elements) for axis in (mesh.x_axis, mesh.y_axis))

        @functools.cache
        def quad(ax: tuple, npts: int) -> AxisQuadrature:
            return AxisQuadrature(fem.IntervalMesh(*ax), gauss_rule(npts), kernel, horizon_radius)

        @functools.cache
        def g(ax: tuple, npts: int, left: str, right: str) -> np.ndarray:
            q = quad(ax, npts)
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
            "cross": (
                (c12, g(y, b, "N", "B"), g(x, b, "B", "N")),
                (c33, g(y, b, "B", "N"), g(x, b, "N", "B")),
            ),
            "shear_mass": ((1.0, g(y, sh, "N", "N"), g(x, sh, "N", "N")),),
            "w_w": (
                (1.0, g(y, sh, "N", "N"), g(x, sh, "B", "B")),
                (1.0, g(y, sh, "B", "B"), g(x, sh, "N", "N")),
            ),
            "w_tx": ((1.0, g(y, sh, "N", "N"), g(x, sh, "B", "N")),),
            "w_ty": ((1.0, g(y, sh, "B", "N"), g(x, sh, "N", "N")),),
        }
        # Field blocks as (f, g, ((scale, inner sum), ...)): block (f, g) is
        # sum_o scale_o * inner[name_o] on field f's free rows and field g's
        # free columns.  The blocks of one stream share those free sets in
        # both boundary sets (FIXED_EDGES), so each inner sum is computed once
        # per slab; a mirrored stream also writes every block's transpose into
        # (g, f).  Each inner sum is built in the slab of the first block that
        # it starts, so theta_x-theta_x leads its stream with the shear term.
        streams = [
            (False, [(TX, TX, [(shear_scale, "shear_mass"), (bend_scale, "direct_x")]),
                     (U, U, [(memb, "direct_x")])]),
            (False, [(TY, TY, [(shear_scale, "shear_mass"), (bend_scale, "direct_y")]),
                     (V, V, [(memb, "direct_y")])]),
            (True, [(U, V, [(memb, "cross")]), (TX, TY, [(bend_scale, "cross")])]),
            (False, [(W, W, [(shear_scale, "w_w")])]),
            (True, [(W, TX, [(-shear_scale, "w_tx")])]),
            (True, [(W, TY, [(-shear_scale, "w_ty")])]),
        ]
        for mirrored, stream in streams:
            _stream(blocks, axes, inner, stream, transposed=False)
            if mirrored:
                mirror = [(col, row, outer) for row, col, outer in stream]
                _stream(blocks, axes, inner, mirror, transposed=True)

        F = np.zeros(5 * nn)
        fx, fy = quad(x, b).load_vector(), quad(y, b).load_vector()
        F[W * nn : (W + 1) * nn] = self.pressure * np.outer(fy, fx).ravel()

        return blocks.system(F)

    def _free_axes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Free (y, x) node indices of each field; its free nodes are their product."""
        n_x, n_y = self.mesh.x_axis.n_nodes, self.mesh.y_axis.n_nodes

        def axis(n: int, fixed: bool) -> np.ndarray:
            return np.arange(1, n - 1) if fixed else np.arange(n)

        edges = FIXED_EDGES[self.boundary]
        return [(axis(n_y, edges[f][1]), axis(n_x, edges[f][0])) for f in FIELDS]


def _stream(
    writer: fem.FreeBlockWriter,
    axes: list[tuple[np.ndarray, np.ndarray]],
    inner: dict[str, tuple],
    blocks: list[tuple],
    transposed: bool,
) -> None:
    """Write blocks sum_o s_o * inner[name_o] into writer, one column slab at a time.

    Every block (f, g) has the free rows axes[f] and free columns axes[g] of
    the first block.  With transposed, the products read the transposed
    Grams, which gives the transpose of block (g, f): the same products,
    which commute exactly, summed in the same order.  Each entry goes
    through the operations of sum_o s_o * sum_i c_i * np.kron(Gy_i, Gx_i),
    with the inner sum in order; the outer terms reach a block in the order
    their inner sums are first used in the stream, which cannot change the
    bits of a sum of at most two terms.

    A slab is at most _SLAB_ENTRIES entries, or one column, of the columns
    on one y node in the F-order view writer.columns(f, g), whose columns
    are contiguous.  Each inner sum is built in the slab of the first block
    that it starts and scaled from there into the others, so the only
    temporary is one slab-sized term buffer.
    """
    (jy, jx), (ky, kx) = axes[blocks[0][0]], axes[blocks[0][1]]
    shape = (ky.size, kx.size, jy.size, jx.size)
    views = [writer.columns(f, g).reshape(shape, copy=False) for f, g, _ in blocks]
    uses: dict[str, dict[int, float]] = {}
    for v, (_, _, outer) in enumerate(blocks):
        for scale, name in outer:
            uses.setdefault(name, {})[v] = scale
    # (inner sum, host block, host scale, [(block, scale, adds to a started block)])
    plan, started = [], set()
    for name, users in uses.items():
        host = next(v for v in users if v not in started)
        others = [(v, s, v in started) for v, s in users.items() if v != host]
        plan.append((name, host, users[host], others))
        started.update(users)
    # entry (cy, cx, ry, rx) of a product is ly[cy, ry] * lx[cx, rx]
    factors = {
        name: [
            (c, _restrict(gy, ky, jy, transposed), _restrict(gx, kx, jx, transposed))
            for c, gy, gx in inner[name]
        ]
        for name in uses
    }
    x_step = max(1, _SLAB_ENTRIES // max(1, jy.size * jx.size))
    term_buf = np.empty((min(x_step, kx.size), jy.size, jx.size))
    for cy in range(ky.size):
        for x0 in range(0, kx.size, x_step):
            cx = slice(x0, x0 + x_step)
            slabs = [view[cy, cx] for view in views]
            term = term_buf[: slabs[0].shape[0]]
            for name, host, host_scale, others in plan:
                total = slabs[host]
                for i, (c, ly, lx) in enumerate(factors[name]):
                    out = term if i else total
                    np.multiply(ly[cy, None, :, None], lx[cx, None, :], out=out)
                    if c != 1.0:
                        out *= c
                    if i:
                        total += term
                for v, scale, add in others:
                    if add:
                        np.multiply(total, scale, out=term)
                        slabs[v] += term
                    else:
                        np.multiply(total, scale, out=slabs[v])
                total *= host_scale


def _restrict(G: np.ndarray, cols: np.ndarray, rows: np.ndarray, transposed: bool) -> np.ndarray:
    """G[rows][:, cols] laid out as (cols, rows); with transposed, the same of G.T."""
    return (G if transposed else G.T)[np.ix_(cols, rows)]


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


def plate_strains(
    displacement: PlateDisplacement,
    op_x: NonlocalOperatorMatrix,
    op_y: NonlocalOperatorMatrix,
    z: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Strains on the tensor grid op_y.eval_points x op_x.eval_points.

    Each in-plane derivative is nonlocal along its own axis; the transverse
    shear strains subtract the pointwise rotations.  Returned arrays are
    indexed [y_point, x_point] in the order (eps_xx, eps_yy, gamma_xy,
    gamma_xz, gamma_yz).
    """
    Nx = fem.hat_rows(displacement.x_nodes, op_x.eval_points)
    Ny = fem.hat_rows(displacement.y_nodes, op_y.eval_points)
    Wx, Wy = op_x.weights, op_y.weights

    def d_x(f: np.ndarray) -> np.ndarray:
        return Ny @ f @ Wx.T

    def d_y(f: np.ndarray) -> np.ndarray:
        return Wy @ f @ Nx.T

    def at(f: np.ndarray) -> np.ndarray:
        return Ny @ f @ Nx.T

    d = displacement
    eps_xx = d_x(d.u) - z * d_x(d.theta_x)
    eps_yy = d_y(d.v) - z * d_y(d.theta_y)
    gamma_xy = d_y(d.u) + d_x(d.v) - z * (d_y(d.theta_x) + d_x(d.theta_y))
    gamma_xz = d_x(d.w) - at(d.theta_x)
    gamma_yz = d_y(d.w) - at(d.theta_y)
    return eps_xx, eps_yy, gamma_xy, gamma_xz, gamma_yz
