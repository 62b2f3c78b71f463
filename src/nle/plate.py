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
edges, so the assembly declares the 9 nonzero field blocks on and below the
diagonal as one flat table, and fem.kronecker_system writes their lower
triangle from restricted 1D Grams, the blocks on the same free nodes
sharing each inner sum, and applies them in product K x.  At 48x48 clamped
the free block has 11,045 dofs and spans 0.91 GiB, but dense_block backs
only the pages of its lower triangle.  The model's fem.Axes holds both axis
meshes and the boundary set's fixed edges, and gives the grid, the node
numbering, the center node, the free node ranges and the HatRows of each
distinct axis mesh and rule (Gauss rule, hat rows, load and N-N Gram),
which do not depend on the kernel: a model builds them once, on first use,
and keeps them.  fem.ElasticSection checks the section.

DOF layout is block-major: dof(field, node) = field * n_nodes + node with
fields (u, v, w, theta_x, theta_y) = (0..4) and node(i, j) = j*(nx+1)+i.
The assembled block covers the free dofs in that order.  A sweep table
names the boundary set's column `bc` and the center deflection `w_center`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, IntervalMesh, StiffnessSystem, gram
from .kernels import Kernel

__all__ = [
    "PlateSection",
    "MindlinPlateModel",
    "BOUNDARY_CONDITIONS",
]

U, V, W, TX, TY = FIELDS = 0, 1, 2, 3, 4

# Where each field is fixed, per boundary set, as fem.Axes takes it:
# ((on the edge x = 0, on x = lx), (on y = 0, on y = ly)).  Hard simple
# support fixes the tangential displacement, the deflection and the
# tangential rotation on each edge; clamping fixes every field.
FIXED_EDGES = {
    "clamped": {f: ((True, True), (True, True)) for f in FIELDS},
    "simply_supported": {
        U: ((False, False), (True, True)),
        V: ((True, True), (False, False)),
        W: ((True, True), (True, True)),
        TX: ((False, False), (True, True)),
        TY: ((True, True), (False, False)),
    },
}
BOUNDARY_CONDITIONS = tuple(FIXED_EDGES)


@dataclass(frozen=True)
class PlateSection(fem.ElasticSection):
    """Rectangular planform, uniform thickness, isotropic elastic constants."""

    length_x: float = 1.0
    length_y: float = 1.0
    thickness: float = 0.1
    modulus: float = 30e9
    poisson: float = 0.3
    shear_correction: float = 5.0 / 6.0


class MindlinPlateModel:
    case_column, metric_name = "bc", "w_center"

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
        self.section = section
        self.pressure = pressure
        self.case = boundary
        edges = FIXED_EDGES[boundary]
        self.axes = fem.Axes(
            IntervalMesh(section.length_x, nx),
            IntervalMesh(section.length_y, ny),
            tuple(edges[f] for f in FIELDS),
        )
        # the center node's deflection
        self.metric_dof = W * self.axes.n_nodes + self.axes.center_node()

    @property
    def metadata(self) -> dict[str, str]:
        nx, ny = self.axes.x_axis.n_elements, self.axes.y_axis.n_elements
        return {"model": "plate", "nx": str(nx), "ny": str(ny)}

    # The per-axis rows and Grams hold under 1 MiB at 48x48, which the BLAS
    # margin's fixed 8 MiB covers, so the memory check counts only blocks.
    held_bytes = 0

    def quadratures(self, kernel: Kernel, horizon_radius: float) -> dict:
        """One quadrature per distinct axis mesh and rule, keyed (mesh, points) as axes.hats.

        On a square plate the x and y axes share theirs, and with them every
        Gram.
        """
        return {
            key: AxisQuadrature(hats, kernel, horizon_radius)
            for key, hats in self.axes.hats.items()
        }

    def assemble(self, quadratures: dict, block: np.ndarray | None = None) -> StiffnessSystem:
        """Free-free block of the stiffness, streamed in LAPACK order, and the full load.

        quadratures comes from quadratures(); block, when given, is the
        matrix of an earlier system of this model, which the new one reuses.
        The 9 nonzero field blocks on and below the diagonal are listed as
        (f, g, ((scale, inner sum), ...)) for fem.kronecker_system.
        """
        axes = self.axes
        nn, x, y = axes.n_nodes, axes.x_axis, axes.y_axis
        s = self.section
        # Plane-stress moduli: c11*eps^2 couplings, c33 is the engineering
        # shear modulus acting on gamma_xy.
        c11 = s.modulus / (1.0 - s.poisson ** 2)
        c12 = s.poisson * c11
        c33 = s.shear_modulus
        memb = s.thickness
        bend_scale = s.thickness ** 3 / 12.0
        shear_scale = s.shear_correction * s.shear_modulus * s.thickness

        @functools.cache
        def g(ax: IntervalMesh, npts: int, left: str, right: str) -> np.ndarray:
            if left == right == "N":
                return axes.hats[ax, npts].mass
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
        blocks = [
            (U, U, [(memb, "direct_x")]),
            (V, U, [(memb, "cross_t")]),
            (V, V, [(memb, "direct_y")]),
            (W, W, [(shear_scale, "w_w")]),
            (TX, W, [(-shear_scale, "tx_w")]),
            (TX, TX, [(shear_scale, "shear_mass"), (bend_scale, "direct_x")]),
            (TY, W, [(-shear_scale, "ty_w")]),
            (TY, TX, [(bend_scale, "cross_t")]),
            (TY, TY, [(shear_scale, "shear_mass"), (bend_scale, "direct_y")]),
        ]
        F = np.zeros(5 * nn)
        fx, fy = axes.hats[x, b].load, axes.hats[y, b].load
        F[W * nn : (W + 1) * nn] = self.pressure * np.outer(fy, fx).ravel()
        return fem.kronecker_system(axes.grid, axes.free, inner, blocks, F, block)
