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
Dbar acts along one axis at a time, every stiffness block is a Kronecker
product of 1D Gram matrices; assembly never touches a 2D quadrature loop.
Membrane and bending blocks integrate with the 2x2 rule, transverse shear
with 1x1.

DOF layout is block-major: dof(field, node) = field * n_nodes + node with
fields (u, v, w, theta_x, theta_y) = (0..4) and node(i, j) = j*(nx+1)+i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, RectangleMesh, StiffnessSystem, apply_dirichlet, gauss_rule, gram
from .kernels import Kernel, LocalDelta
from .operator import NonlocalOperatorMatrix
from .results import KernelSpec, SweepResult, sweep

__all__ = [
    "PlateSection",
    "MindlinPlateModel",
    "PlateDisplacement",
    "PlateResult",
    "solve_plate",
    "plate_strains",
    "plate_sweep",
    "BOUNDARY_CONDITIONS",
    "PLATE_SWEEP_COLUMNS",
]

U, V, W, TX, TY = 0, 1, 2, 3, 4

BOUNDARY_CONDITIONS = ("clamped", "simply_supported")


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
        mesh = self.mesh
        nn = mesh.n_nodes
        s = self.section
        # Plane-stress moduli: c11*eps^2 couplings, c33 is the engineering
        # shear modulus acting on gamma_xy.
        c11 = s.modulus / (1.0 - s.poisson ** 2)
        c12 = s.poisson * c11
        c33 = s.shear_modulus
        memb = s.thickness
        bend_scale = s.thickness ** 3 / 12.0
        shear_scale = s.shear_correction * s.shear_modulus * s.thickness

        quads = {
            (ax, npts): AxisQuadrature(axis, gauss_rule(npts), kernel, horizon_radius)
            for ax, axis in (("x", mesh.x_axis), ("y", mesh.y_axis))
            for npts in (fem.BENDING_POINTS, fem.SHEAR_POINTS)
        }

        def g(ax: str, npts: int, left: str, right: str) -> np.ndarray:
            q = quads[(ax, npts)]
            rows = {"N": q.N, "B": q.B}
            return gram(rows[left], rows[right], q.weights)

        b, sh = fem.BENDING_POINTS, fem.SHEAR_POINTS

        def kron(gy: np.ndarray, gx: np.ndarray) -> np.ndarray:
            # node = j*(nx+1)+i, x fastest, so the y factor sits on the left.
            return np.kron(gy, gx)

        # In-plane stretch/shear pattern shared by the membrane (u, v) and
        # bending (theta_x, theta_y) pairs; only the thickness scale differs.
        direct_x = c11 * kron(g("y", b, "N", "N"), g("x", b, "B", "B")) + c33 * kron(
            g("y", b, "B", "B"), g("x", b, "N", "N")
        )
        direct_y = c11 * kron(g("y", b, "B", "B"), g("x", b, "N", "N")) + c33 * kron(
            g("y", b, "N", "N"), g("x", b, "B", "B")
        )
        cross = c12 * kron(g("y", b, "N", "B"), g("x", b, "B", "N")) + c33 * kron(
            g("y", b, "B", "N"), g("x", b, "N", "B")
        )

        shear_mass = kron(g("y", sh, "N", "N"), g("x", sh, "N", "N"))

        K = np.zeros((5 * nn, 5 * nn))

        def blk(f: int, gf: int):
            return np.s_[f * nn : (f + 1) * nn, gf * nn : (gf + 1) * nn]

        K[blk(U, U)] = memb * direct_x
        K[blk(V, V)] = memb * direct_y
        K[blk(U, V)] = memb * cross
        K[blk(V, U)] = memb * cross.T

        K[blk(TX, TX)] = bend_scale * direct_x + shear_scale * shear_mass
        K[blk(TY, TY)] = bend_scale * direct_y + shear_scale * shear_mass
        K[blk(TX, TY)] = bend_scale * cross
        K[blk(TY, TX)] = bend_scale * cross.T

        K[blk(W, W)] = shear_scale * (
            kron(g("y", sh, "N", "N"), g("x", sh, "B", "B"))
            + kron(g("y", sh, "B", "B"), g("x", sh, "N", "N"))
        )
        w_tx = -shear_scale * kron(g("y", sh, "N", "N"), g("x", sh, "B", "N"))
        w_ty = -shear_scale * kron(g("y", sh, "B", "N"), g("x", sh, "N", "N"))
        K[blk(W, TX)] = w_tx
        K[blk(TX, W)] = w_tx.T
        K[blk(W, TY)] = w_ty
        K[blk(TY, W)] = w_ty.T

        F = np.zeros(5 * nn)
        fx = quads[("x", b)].load_vector()
        fy = quads[("y", b)].load_vector()
        F[W * nn : (W + 1) * nn] = self.pressure * np.kron(fy, fx)

        return apply_dirichlet(StiffnessSystem(K, F, {}), self._constraints())

    def _constraints(self) -> dict[int, float]:
        mesh = self.mesh
        nn = mesh.n_nodes
        nx, ny = mesh.x_axis.n_elements, mesh.y_axis.n_elements
        x_edges = [mesh.node(i, j) for i in (0, nx) for j in range(ny + 1)]
        y_edges = [mesh.node(i, j) for j in (0, ny) for i in range(nx + 1)]
        fixed: dict[int, float] = {}
        if self.boundary == "clamped":
            for node in set(x_edges) | set(y_edges):
                for f in (U, V, W, TX, TY):
                    fixed[f * nn + node] = 0.0
        else:
            # Hard simple support: tangential displacement, deflection and
            # the tangential rotation vanish on each edge.
            for node in x_edges:
                for f in (V, W, TY):
                    fixed[f * nn + node] = 0.0
            for node in y_edges:
                for f in (U, W, TX):
                    fixed[f * nn + node] = 0.0
        return fixed


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


@dataclass(frozen=True)
class PlateResult:
    """Center deflections of the nonlocal and local solves."""

    w_center: float
    w_center_local: float
    w_field: np.ndarray
    w_field_local: np.ndarray

    @property
    def softening_ratio(self) -> float:
        """Center-deflection ratio nonlocal/local; > 1 means nonlocal softening."""
        return self.w_center / self.w_center_local


def plate_sweep(
    section: PlateSection,
    pressure: float,
    boundary: str,
    kernel_grid: list[KernelSpec],
    l_f_grid,
    nx: int = 24,
    ny: int = 24,
    threads: int = 1,
) -> SweepResult:
    """One row per (kernel, horizon) configuration; see results.sweep."""
    model = MindlinPlateModel(section, pressure, boundary, nx, ny)
    return sweep(model, kernel_grid, l_f_grid, threads)


def solve_plate(
    section: PlateSection,
    pressure: float,
    boundary: str,
    kernel: Kernel,
    horizon_radius: float,
    nx: int = 24,
    ny: int = 24,
    residual_tol: float = 1e-10,
) -> PlateResult:
    """Solve the same plate with the given kernel and locally on one mesh."""
    model = MindlinPlateModel(section, pressure, boundary, nx, ny)
    nn = model.mesh.n_nodes
    center = model.mesh.center_node()
    u_nl = fem.solve(fem.assemble(model, kernel, horizon_radius), residual_tol)
    u_loc = fem.solve(fem.assemble(model, LocalDelta(), horizon_radius), residual_tol)
    w_nl = u_nl[W * nn : (W + 1) * nn]
    w_loc = u_loc[W * nn : (W + 1) * nn]
    return PlateResult(
        w_center=float(np.abs(w_nl[center])),
        w_center_local=float(np.abs(w_loc[center])),
        w_field=w_nl,
        w_field_local=w_loc,
    )
