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
only the pages of its lower triangle.  The HatRows of each axis and rule
(Gauss rule, hat rows and load) and their N-N Grams do not depend on the
kernel: a model builds them once, on first use, and keeps them.

DOF layout is block-major: dof(field, node) = field * n_nodes + node with
fields (u, v, w, theta_x, theta_y) = (0..4) and node(i, j) = j*(nx+1)+i.
The assembled block covers the free dofs in that order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, RectangleMesh, StiffnessSystem, gram
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
            (ax, npts): fem.HatRows(fem.IntervalMesh(*ax), npts)
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
            **fem.block_metadata(self.free_dofs),
        }

    @property
    def free_dofs(self) -> int:
        """Dofs of the free block (fem.free_dofs)."""
        return fem.free_dofs(self._free_axes())

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
            key: AxisQuadrature(hats, kernel, horizon_radius)
            for key, hats in self._hats.items()
        }

    def assemble(self, quadratures: dict, block: np.ndarray | None = None) -> StiffnessSystem:
        """Free-free block of the stiffness, streamed in LAPACK order, and the full load.

        quadratures comes from quadratures(); block, when given, is the
        matrix of an earlier system of this model, which the new one reuses.
        The 9 nonzero field blocks on and below the diagonal are listed as
        (f, g, ((scale, inner sum), ...)) for fem.kronecker_system.
        """
        nn = self.mesh.n_nodes
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
        fx, fy = self._hats[x, b].load, self._hats[y, b].load
        F[W * nn : (W + 1) * nn] = self.pressure * np.outer(fy, fx).ravel()
        grid = (self.mesh.y_axis.n_nodes, self.mesh.x_axis.n_nodes)
        return fem.kronecker_system(grid, self._free_axes(), inner, blocks, F, block)

    def _axis_keys(self) -> tuple[tuple[float, int], tuple[float, int]]:
        """(length, elements) of the x and y axes, equal on a square plate."""
        return tuple((axis.length, axis.n_elements) for axis in (self.mesh.x_axis, self.mesh.y_axis))

    def _free_axes(self) -> list[tuple[range, range]]:
        """Free (y, x) node ranges of each field; its free nodes are their product."""
        n_x, n_y = self.mesh.x_axis.n_nodes, self.mesh.y_axis.n_nodes
        edges = FIXED_EDGES[self.boundary]
        return [
            (fem.free_range(n_y, (on_y, on_y)), fem.free_range(n_x, (on_x, on_x)))
            for on_x, on_y in (edges[f] for f in FIELDS)
        ]


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
