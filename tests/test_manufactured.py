"""Manufactured solution for the nonlocal bar, through the production assembly.

The bar is the u0 block of a cantilever TimoshenkoBeamModel, EA * Sb with
the bending rule, at horizon radius 0.5.  The manufactured field
u*(x) = sin(1.3 x) + 0.3 x^2 has u*(0) = 0, the clamped end.  Its Galerkin
load on the u0 rows is F = EA B^T W Dbar u*(x_g), with Dbar u* at the
bending rule's points from continuous_operator's adaptive quadrature, so the
discrete solution tends to u* as the mesh is refined.  The w0 and theta rows
carry no load.

The errors are the largest nodal error relative to max|u*|, pinned as
measured.  The local kernel's Galerkin solution is nodally exact up to
rounding; the nonlocal ones converge at an observed order of 1.4 to 2.0
from 400 to 800 elements.

Asymptotic compatibility (Tian and Du, SIAM J. Numer. Anal. 52, 2014): with
the ratio of the spacing h to the exponential kernel's l0 held fixed while
both halve, the tip-loaded cantilever's w_bar - 1 tends to 0, the local
limit.  Measured at l0 = 8e-3, 4e-3, 2e-3 and 1e-3 (elements round(1/h)):
6.278e-4, 1.586e-4, 3.963e-5 and 9.949e-6 at h/l0 = 4 (31 to 250
elements), and 2.091e-3, 9.558e-4, 4.553e-4 and 2.220e-4 at h/l0 = 1 (125
to 1,000 elements).
"""

import dataclasses
import math

import numpy as np
import pytest

from continuous_operator import Horizon, continuous_gradient
from nle import cli, fem
from nle.beam import FIELDS, THETA, U0, W0, BeamSection, TimoshenkoBeamModel
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel

L_F = 0.5
SIZES = (200, 400, 800)

# largest nodal error / max|u*| at SIZES elements
PINNED = [
    (ExponentialKernel(5e-3), (3.796e-6, 1.180e-6, 2.959e-7)),
    (ExponentialKernel(2.5e-3), (2.655e-6, 9.497e-7, 2.950e-7)),
    (PowerLawKernel(0.7), (1.600e-6, 5.835e-7, 2.215e-7)),
]


def u_star(x):
    return np.sin(1.3 * x) + 0.3 * x**2


def du_star(x):
    return 1.3 * math.cos(1.3 * x) + 0.6 * x


def solve_manufactured(kernel, n_elements):
    """Displacements of the manufactured load, split by field, and u* at the nodes."""
    model = TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", n_elements)
    quadratures = model.quadratures(kernel, L_F)
    system = model.assemble(quadratures)
    bend = quadratures[model.axes.x_axis, fem.BENDING_POINTS]
    horizon = Horizon(l_f=L_F, x_min=0.0, x_max=model.section.length)
    dbar = np.array([continuous_gradient(du_star, x, horizon, kernel) for x in bend.points])
    nn = model.axes.n_nodes
    load = np.zeros(system.n_dofs)
    EA = model.section.modulus * model.section.area
    load[U0 * nn : (U0 + 1) * nn] = EA * bend.B.T @ (bend.weights * dbar)
    u = fem.solve(dataclasses.replace(system, load=load))
    return u.reshape(len(FIELDS), nn), u_star(model.axes.x_axis.nodes)


def relative_error(kernel, n_elements):
    fields, exact = solve_manufactured(kernel, n_elements)
    assert not np.any(fields[[W0, THETA]]), "w0 and theta must stay exactly 0"
    return float(np.max(np.abs(fields[U0] - exact)) / np.max(np.abs(exact)))


@pytest.mark.parametrize("kernel, pinned", PINNED, ids=[repr(k) for k, _ in PINNED])
def test_nonlocal_bar_converges_to_the_manufactured_solution(kernel, pinned):
    errors = [relative_error(kernel, n) for n in SIZES]
    assert errors == pytest.approx(list(pinned), rel=1e-2)
    order = math.log2(errors[1] / errors[2])
    assert order >= 1.3, f"observed order {order:.3f} from 400 to 800 elements"


def test_local_bar_is_nodally_exact():
    for n in SIZES:
        assert relative_error(LocalDelta(), n) <= 1.1e-12


@pytest.mark.parametrize("h_over_l0", [4.0, 1.0])
def test_softening_tends_to_the_local_limit_with_h_over_l0_fixed(h_over_l0):
    # about 4x per halving at h/l0 = 4, 2x at 1, where (w_bar - 1)/l0 tends to
    # 0.63; the 500-element local solve needs the convergence tolerance
    excess = []
    for l0 in (8e-3, 4e-3, 2e-3):
        n_elements = round(1 / (h_over_l0 * l0))
        model = TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", n_elements)
        w, w_local = (
            fem.solve_metric(model, kernel, L_F, cli.CONVERGENCE_RESIDUAL_TOL)
            for kernel in (ExponentialKernel(l0), LocalDelta())
        )
        excess.append(w / w_local - 1)
    assert all(e > 0 for e in excess)
    factors = [a / b for a, b in zip(excess, excess[1:])]
    assert all(1.8 <= f <= 4.5 for f in factors), factors
