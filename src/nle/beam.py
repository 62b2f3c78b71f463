"""Static bending of a Timoshenko beam with nonlocal axial/bending strain.

Kinematics: axial displacement u0, deflection w0, cross-section rotation
theta.  The nonlocal gradient replaces d/dx in the strain measures,

    eps_xx   = Dbar u0 - z * Dbar theta
    gamma_xz = Dbar w0 - theta,

while the rotation itself stays pointwise.  The constitutive law is local
(E, kappa*G), so the energy is a plain quadratic form and assembly reduces to
weighted Gram products of the interpolation rows N and operator rows B:
direct terms integrate with the 2-point rule, transverse shear with 1 point.

DOF layout is block-major: dof(field, node) = field * n_nodes + node with
fields (u0, w0, theta) = (0, 1, 2).  Every load case fixes its supports at
zero, so the assembly writes only the free-free block, from the Grams
restricted to each field's free nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, IntervalMesh, StiffnessSystem, gauss_rule, gram
from .kernels import Kernel
from .operator import NonlocalOperatorMatrix

__all__ = [
    "BeamSection",
    "CantileverTipLoad",
    "SimplySupportedUniformLoad",
    "TimoshenkoBeamModel",
    "BeamDisplacement",
    "beam_strains",
    "BEAM_SWEEP_COLUMNS",
]

U0, W0, THETA = FIELDS = 0, 1, 2

# Nodes fixed at zero, per load case and field (-1 is the node at x = L).
# The cantilever is clamped at x = 0; the simply supported beam pins its
# deflection at both ends and its axial displacement at x = 0.
FIXED_NODES = {
    "cantilever_tip": {U0: [0], W0: [0], THETA: [0]},
    "ss_udtl": {U0: [0], W0: [0, -1], THETA: []},
}


@dataclass(frozen=True)
class BeamSection:
    """Rectangular prismatic section and isotropic elastic constants."""

    length: float = 1.0
    width: float = 0.1
    height: float = 0.1
    modulus: float = 30e9
    poisson: float = 0.3
    shear_correction: float = 5.0 / 6.0

    def __post_init__(self) -> None:
        for name in ("length", "width", "height", "modulus", "shear_correction"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive (got {getattr(self, name)!r})")
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError(f"poisson ratio must lie in [0, 0.5) (got {self.poisson!r})")

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def inertia(self) -> float:
        return self.width * self.height ** 3 / 12.0

    @property
    def shear_modulus(self) -> float:
        return self.modulus / (2.0 * (1.0 + self.poisson))


@dataclass(frozen=True)
class CantileverTipLoad:
    """Clamp at x=0, transverse point force at the tip."""

    magnitude: float = 1.0
    name = "cantilever_tip"


@dataclass(frozen=True)
class SimplySupportedUniformLoad:
    """Pinned deflection at both ends, uniformly distributed transverse load."""

    intensity: float = 1.0
    name = "ss_udtl"


BeamLoad = CantileverTipLoad | SimplySupportedUniformLoad

BEAM_SWEEP_COLUMNS = (
    "kernel",
    "param",
    "l_f",
    "load_case",
    "w_max_nonlocal",
    "w_max_local",
    "w_bar",
    "status",
)


class TimoshenkoBeamModel:
    sweep_columns = BEAM_SWEEP_COLUMNS

    def __init__(self, section: BeamSection, load: BeamLoad, n_elements: int = 200):
        if isinstance(load, SimplySupportedUniformLoad) and n_elements % 2:
            raise ValueError("simply supported case needs an even element count (midspan node)")
        if not isinstance(load, (CantileverTipLoad, SimplySupportedUniformLoad)):
            raise ValueError(f"unknown load case {load!r}")
        self.section = section
        self.load = load
        self.mesh = IntervalMesh(section.length, n_elements)

    @property
    def case(self) -> str:
        return self.load.name

    @property
    def metadata(self) -> dict[str, str]:
        return {"model": "beam", "load_case": self.load.name, "n_elements": self.resolution}

    @property
    def resolution(self) -> str:
        """Mesh size as the convergence table prints it."""
        return str(self.mesh.n_elements)

    @property
    def metric_node(self) -> int:
        """Node whose deflection defines w_max: tip or midspan by load case."""
        if isinstance(self.load, CantileverTipLoad):
            return self.mesh.n_nodes - 1
        return (self.mesh.n_nodes - 1) // 2

    @property
    def metric_dof(self) -> int:
        """Deflection dof of the metric node."""
        return W0 * self.mesh.n_nodes + self.metric_node

    def assemble(self, kernel: Kernel, horizon_radius: float) -> StiffnessSystem:
        mesh = self.mesh
        nn = mesh.n_nodes
        # the block first: an oversized mesh fails before any quadrature work
        fixed = FIXED_NODES[self.load.name]
        free = [np.delete(np.arange(nn), fixed[f]) for f in FIELDS]
        blocks = fem.FreeBlockWriter(nn, free)
        bend = AxisQuadrature(mesh, gauss_rule(fem.BENDING_POINTS), kernel, horizon_radius)
        shear = AxisQuadrature(mesh, gauss_rule(fem.SHEAR_POINTS), kernel, horizon_radius)
        s = self.section
        EA = s.modulus * s.area
        EI = s.modulus * s.inertia
        kGA = s.shear_correction * s.shear_modulus * s.area

        Sb = gram(bend.B, bend.B, bend.weights)
        Ss = gram(shear.B, shear.B, shear.weights)
        Cs = gram(shear.B, shear.N, shear.weights)
        Ms = gram(shear.N, shear.N, shear.weights)

        def restrict(G: np.ndarray, f: int, g: int) -> np.ndarray:
            return G[np.ix_(free[f], free[g])]

        blocks.put(U0, U0, EA * restrict(Sb, U0, U0))
        blocks.put(W0, W0, kGA * restrict(Ss, W0, W0))
        theta_theta = EI * restrict(Sb, THETA, THETA) + kGA * restrict(Ms, THETA, THETA)
        blocks.put(THETA, THETA, theta_theta)
        blocks.put(W0, THETA, -kGA * restrict(Cs, W0, THETA), mirror=True)

        F = np.zeros(3 * nn)
        if isinstance(self.load, CantileverTipLoad):
            F[W0 * nn + (nn - 1)] = self.load.magnitude
        else:
            F[W0 * nn : (W0 + 1) * nn] = self.load.intensity * bend.load_vector()
        return blocks.system(F)


@dataclass(frozen=True)
class BeamDisplacement:
    nodes: np.ndarray
    u0: np.ndarray
    w0: np.ndarray
    theta: np.ndarray

    @classmethod
    def from_vector(cls, nodes: np.ndarray, u: np.ndarray) -> "BeamDisplacement":
        nn = nodes.size
        return cls(nodes, u[:nn], u[nn : 2 * nn], u[2 * nn :])


def beam_strains(
    displacement: BeamDisplacement, operator: NonlocalOperatorMatrix, z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Axial strain and transverse shear at the operator's evaluation points.

    eps_xx = Dbar u0 - z * Dbar theta; gamma_xz = Dbar w0 - theta, the
    rotation interpolated pointwise (it enters the shear measure locally).
    """
    theta_at = np.interp(operator.eval_points, displacement.nodes, displacement.theta)
    eps = operator.apply(displacement.u0) - z * operator.apply(displacement.theta)
    gamma = operator.apply(displacement.w0) - theta_at
    return eps, gamma
