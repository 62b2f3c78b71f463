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
fields (u0, w0, theta) = (0, 1, 2).  The load case is a name, a tip force on
a cantilever or a uniform load on a simply supported beam, and FIXED_ENDS,
VALUE_KEYS and MIDSPAN_CASES hold all else that tells the cases apart.
Every case fixes a field at zero at one end, both or neither.  A beam is a
plate with one y node: its fem.Axes holds the x mesh, no y mesh and the
case's fixed ends, and gives the grid, the free node ranges and the HatRows
of both rules (Gauss rule, hat rows, load and N-N Gram), which do not
depend on the kernel: a model builds them once, on first use, and every
quadrature and assembly after that reads them.  Its 4 field blocks on and
below the diagonal, Kronecker sums of one term kron(1, G), form a flat
table, which fem.kronecker_system writes, lower triangle only, and applies
as it does the plate's; the blocks on the same free nodes share each Gram.
fem.ElasticSection checks the section.  A sweep table names the case
column `load_case` and the metric, the tip or midspan deflection, `w_max`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import AxisQuadrature, IntervalMesh, StiffnessSystem, gram
from .kernels import Kernel

__all__ = [
    "BeamSection",
    "TimoshenkoBeamModel",
    "LOAD_CASES",
]

U0, W0, THETA = FIELDS = 0, 1, 2

# Where each field is fixed at zero, per load case, as fem.Axes takes it:
# ((at x = 0, at x = L), (first, last) y node), the beam's one y node never.
# The cantilever is clamped at x = 0; the simply supported beam pins its
# deflection at both ends and its axial displacement at x = 0.
FIXED_ENDS = {
    "cantilever_tip": {f: ((True, False), (False, False)) for f in FIELDS},
    "ss_udtl": {
        U0: ((True, False), (False, False)),
        W0: ((True, True), (False, False)),
        THETA: ((False, False), (False, False)),
    },
}
LOAD_CASES = tuple(FIXED_ENDS)
# The config key of each case's load value.
VALUE_KEYS = {"cantilever_tip": "magnitude", "ss_udtl": "intensity"}
# The cases whose metric is the midspan deflection, which needs an even
# element count, rather than the tip's.
MIDSPAN_CASES = ("ss_udtl",)


@dataclass(frozen=True)
class BeamSection(fem.ElasticSection):
    """Rectangular prismatic section and isotropic elastic constants."""

    length: float = 1.0
    width: float = 0.1
    height: float = 0.1
    modulus: float = 30e9
    poisson: float = 0.3
    shear_correction: float = 5.0 / 6.0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def inertia(self) -> float:
        return self.width * self.height ** 3 / 12.0


class TimoshenkoBeamModel:
    case_column, metric_name = "load_case", "w_max"

    def __init__(self, section: BeamSection, load: float, load_case: str, n_elements: int = 200):
        if load_case not in LOAD_CASES:
            raise ValueError(f"load case must be one of {LOAD_CASES} (got {load_case!r})")
        self.section = section
        self.load = load
        self.case = load_case
        ends = FIXED_ENDS[load_case]
        self.axes = axes = fem.Axes(
            IntervalMesh(section.length, n_elements), None, tuple(ends[f] for f in FIELDS)
        )
        # the node whose deflection defines w_max: midspan or tip by load case
        self.metric_node = axes.center_node() if load_case in MIDSPAN_CASES else axes.n_nodes - 1
        self.metric_dof = W0 * axes.n_nodes + self.metric_node

    @property
    def metadata(self) -> dict[str, str]:
        return {"model": "beam", "n_elements": self.axes.resolution}

    @property
    def held_bytes(self) -> int:
        """Bytes a sweep of this model holds besides its block.

        The hat rows N and operator rows B of both rules and the B of the
        local companion, which a sweep keeps, each 3 n_el rows of n_el + 1
        nodes; the weighted copy of the bending B, 2 n_el rows, that a Gram
        product makes; and the Grams Sb, Ss, Cs and the shear mass,
        (n_el + 1)^2 each.
        """
        n_el, nn = self.axes.x_axis.n_elements, self.axes.n_nodes
        return 8 * ((3 * 3 + 2) * n_el * nn + 4 * nn * nn)

    def quadratures(self, kernel: Kernel, horizon_radius: float) -> dict:
        """The bending and shear rules' quadratures, keyed (mesh, points) as axes.hats."""
        return {
            key: AxisQuadrature(hats, kernel, horizon_radius)
            for key, hats in self.axes.hats.items()
        }

    def assemble(self, quadratures: dict, block: np.ndarray | None = None) -> StiffnessSystem:
        """Lower triangle of the free-free stiffness block and the full load, from quadratures().

        block, when given, is the matrix of an earlier system of this model,
        which the new one reuses.
        """
        axes = self.axes
        nn, x = axes.n_nodes, axes.x_axis
        bend, shear = quadratures[x, fem.BENDING_POINTS], quadratures[x, fem.SHEAR_POINTS]
        s = self.section
        EA = s.modulus * s.area
        EI = s.modulus * s.inertia
        kGA = s.shear_correction * s.shear_modulus * s.area

        # Each Gram is an inner sum kron(1, G); (THETA, W0) takes Cs.T, so it
        # holds the bits of the transpose of (W0, THETA).
        unit = np.ones((1, 1))
        inner = {
            "Sb": ((1.0, unit, gram(bend.B, bend.B, bend.weights)),),
            "Ss": ((1.0, unit, gram(shear.B, shear.B, shear.weights)),),
            "Ms": ((1.0, unit, axes.hats[x, fem.SHEAR_POINTS].mass),),
            "Cs_t": ((1.0, unit, gram(shear.B, shear.N, shear.weights).T),),
        }
        blocks = [
            (U0, U0, [(EA, "Sb")]),
            (W0, W0, [(kGA, "Ss")]),
            (THETA, THETA, [(EI, "Sb"), (kGA, "Ms")]),
            (THETA, W0, [(-kGA, "Cs_t")]),
        ]

        F = np.zeros(3 * nn)
        if self.case == "cantilever_tip":
            F[W0 * nn + (nn - 1)] = self.load
        else:
            F[W0 * nn : (W0 + 1) * nn] = self.load * axes.hats[x, fem.BENDING_POINTS].load
        return fem.kronecker_system(axes.grid, axes.free, inner, blocks, F, block)
