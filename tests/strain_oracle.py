"""Nonlocal strains of beam and plate displacement fields: a test oracle.

The package never evaluates strains: its models assemble stiffness from
Gram products of hat rows and operator rows, and no command line path reads
a strain.  These functions evaluate the strain measures of the module
docstrings of nle.beam and nle.plate directly at an operator's evaluation
points, so tests can check that rigid motions give no strain and that the
local operator recovers the pointwise gradient.

The displacement types split nodal fields out for these functions.  Not
collected by pytest (no test_ prefix); tests import it by module name.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeamDisplacement:
    """Nodal axial displacement, deflection and rotation of a beam."""

    nodes: np.ndarray
    u0: np.ndarray
    w0: np.ndarray
    theta: np.ndarray


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
    def from_vector(cls, axes, dofs):
        """The fields of a plate solution vector on the model's nle.fem.Axes."""
        nn = axes.n_nodes
        fields = [dofs[f * nn : (f + 1) * nn].reshape(axes.grid) for f in range(5)]
        return cls(axes.x_axis.nodes, axes.y_axis.nodes, *fields)


def hat_rows(nodes, points):
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


def beam_strains(displacement, operator, z):
    """Axial strain and transverse shear at the operator's evaluation points.

    displacement is a BeamDisplacement and operator an
    nle.operator.NonlocalOperatorMatrix.  eps_xx = Dbar u0 - z * Dbar theta;
    gamma_xz = Dbar w0 - theta, the rotation interpolated pointwise (it
    enters the shear measure locally).
    """
    theta_at = np.interp(operator.eval_points, displacement.nodes, displacement.theta)
    eps = operator.apply(displacement.u0) - z * operator.apply(displacement.theta)
    gamma = operator.apply(displacement.w0) - theta_at
    return eps, gamma


def plate_strains(displacement, op_x, op_y, z):
    """Strains on the tensor grid op_y.eval_points x op_x.eval_points.

    displacement is a PlateDisplacement.  Each in-plane
    derivative is nonlocal along its own axis; the transverse shear strains
    subtract the pointwise rotations.  Returned arrays are indexed
    [y_point, x_point] in the order (eps_xx, eps_yy, gamma_xy, gamma_xz,
    gamma_yz).
    """
    Nx = hat_rows(displacement.x_nodes, op_x.eval_points)
    Ny = hat_rows(displacement.y_nodes, op_y.eval_points)
    Wx, Wy = op_x.weights, op_y.weights

    def d_x(f):
        return Ny @ f @ Wx.T

    def d_y(f):
        return Wy @ f @ Nx.T

    def at(f):
        return Ny @ f @ Nx.T

    d = displacement
    eps_xx = d_x(d.u) - z * d_x(d.theta_x)
    eps_yy = d_y(d.v) - z * d_y(d.theta_y)
    gamma_xy = d_y(d.u) + d_x(d.v) - z * (d_y(d.theta_x) + d_x(d.theta_y))
    gamma_xz = d_x(d.w) - at(d.theta_x)
    gamma_yz = d_y(d.w) - at(d.theta_y)
    return eps_xx, eps_yy, gamma_xy, gamma_xz, gamma_yz
