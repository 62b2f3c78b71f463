"""Frame-invariant nonlocal gradient of a 1D field, as an exact operator matrix.

The operator averages the field gradient over a two-sided horizon,

    Dbar phi(x) = c_minus * integral_{x-l_minus}^{x} K(x - x') phi'(x') dx'
                + c_plus  * integral_{x}^{x+l_plus}  K(x' - x) phi'(x') dx',

with the frame multipliers c = 1 / (2 * F(l)) of each side, F the kernel's
one-sided moment (see nle.kernels).  Horizon lengths are clipped to the
body, the span of the mesh, so the multipliers change from point to point
near a boundary.  At a boundary point one side has zero length and the
operator is defined by its one-sided limit: the vanished side contributes
phi'(x)/2 exactly.  Where both sides vanish (a radius below the snap length
of the span) the two halves make the whole gradient, and the row is the
element gradient.

build_operator_matrix maps nodal values of a piecewise linear interpolant to
operator values at arbitrary evaluation points.  Since the interpolant's
gradient is constant on each element, every matrix entry is an exact
difference of closed-form kernel moments; no quadrature error enters and
uniform-gradient fields are reproduced to rounding even for kernels with an
integrable origin singularity.

Each entry depends only on its (evaluation point, element) pair, so the
matrix is one broadcast over (points x nodes) blocks, with no per-row loop.
An element's share of one side is the difference of the moments at its two
nodes, each node clamped into that side.  A block evaluates one moment
matrix F(|x - node|), shared by both sides; a node beyond a side takes the
moment of the side's end, F(x - (x - l_minus)) or F((x + l_plus) - x), once
per row, and a node on the far side of x takes F(0.0).  These are the
moments of the clamped distances operation for operation, so the entries do
not depend on how the work is split.  An element whose nodes both lie beyond
a side, or both at a distance of at least the kernel's reach (where the
moment has saturated), gets two equal moments and weighs exactly 0; each
block therefore works only on the contiguous window of nodes within reach of
its points, and a power-law row, whose moment never saturates, keeps every
node inside its horizon.  Every entry sums its terms in a fixed order
(element gradient, trailing side, leading side) whatever the block size.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, LocalDelta

__all__ = [
    "NonlocalOperatorMatrix",
    "build_operator_matrix",
]

logger = logging.getLogger(__name__)

# Largest (rows x nodes) block broadcast at once; keeps the moment
# temporaries of build_operator_matrix cache-sized whatever the mesh size.
_BLOCK_ENTRIES = 1 << 14


def _effective_side_arrays(
    nodes: np.ndarray, pts: np.ndarray, horizon_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Side lengths at each point clipped to the node span, sub-roundoff sides snapped to zero.

    A side shorter than ~1e-13 of the span is numerically indistinguishable
    from the boundary limit (its normalized integral differs from phi'/2 by
    O(side length)), and on a side of subnormal length the exponential
    kernel's multiplier 0.5 / F overflows to inf (5e-324 gives inf), so
    such a side is treated as vanished.
    """
    tiny = 1e-13 * (nodes[-1] - nodes[0])
    l_minus = np.minimum(horizon_radius, pts - nodes[0])
    l_plus = np.minimum(horizon_radius, nodes[-1] - pts)
    return np.where(l_minus < tiny, 0.0, l_minus), np.where(l_plus < tiny, 0.0, l_plus)


def _node_windows(
    nodes: np.ndarray,
    pts: np.ndarray,
    l_minus: np.ndarray,
    l_plus: np.ndarray,
    reach: float,
    starts: np.ndarray,
) -> tuple[list[int], list[int]]:
    """Node bounds [first, stop) of each block of rows pts[starts[i]:starts[i + 1]].

    A node below x - l_minus of every row of a block, or at a distance of at
    least reach below every row, takes the same trailing moment as every
    node below it, and the same (zero-distance) leading moment; mirrored
    above x.  Elements between such nodes weigh exactly 0 in the block.  The
    tests hold in floating point: x - l and x - node only grow with x, so
    the block's extreme points decide, and a saturation bound that rounding
    left short of reach is moved one ulp outward.
    """
    x_min, x_max = np.minimum.reduceat(pts, starts), np.maximum.reduceat(pts, starts)
    saturated_below = x_min - reach
    saturated_below = np.where(
        x_min - saturated_below >= reach, saturated_below, np.nextafter(saturated_below, -np.inf)
    )
    saturated_above = x_max + reach
    saturated_above = np.where(
        saturated_above - x_max >= reach, saturated_above, np.nextafter(saturated_above, np.inf)
    )
    below = np.maximum(
        np.searchsorted(nodes, x_min - np.maximum.reduceat(l_minus, starts)),
        np.searchsorted(nodes, saturated_below, side="right"),
    )
    above = np.minimum(
        np.searchsorted(nodes, x_max + np.maximum.reduceat(l_plus, starts), side="right"),
        np.searchsorted(nodes, saturated_above),
    )
    return np.maximum(below - 1, 0).tolist(), np.minimum(above + 1, nodes.size).tolist()


@dataclass(frozen=True)
class NonlocalOperatorMatrix:
    """Dense map from nodal values to nonlocal gradient values.

    weights[r, :] applied to nodal samples yields Dbar of the piecewise
    linear interpolant at eval_points[r].
    """

    weights: np.ndarray
    eval_points: np.ndarray
    nodes: np.ndarray

    def apply(self, nodal_values: np.ndarray) -> np.ndarray:
        return self.weights @ nodal_values


def build_operator_matrix(
    nodes: np.ndarray,
    eval_points: np.ndarray,
    horizon_radius: float,
    kernel: Kernel,
) -> NonlocalOperatorMatrix:
    """Assemble the discrete nonlocal gradient on a 1D mesh.

    Parameters
    ----------
    nodes : array
        Strictly increasing node coordinates of the interpolation mesh.
    eval_points : array
        Where the operator is evaluated (typically Gauss points); each must
        lie inside the mesh span.
    horizon_radius, kernel
        Interaction radius l_f, clipped per point to the mesh span, and
        attenuation kernel.

    For a kernel singular at the origin whose clipped horizon does not reach
    past the element containing the evaluation point, the row degenerates to
    the element gradient; such rows are emitted as exact local-gradient rows
    and counted in a single warning.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0.0):
        raise ValueError("nodes must be a strictly increasing 1D array of length >= 2")
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    if np.any(pts < nodes[0]) or np.any(pts > nodes[-1]):
        raise ValueError("evaluation points must lie within the mesh span")
    if not horizon_radius > 0.0:
        raise ValueError(f"horizon radius must be positive (got {horizon_radius!r})")

    l_minus, l_plus = _effective_side_arrays(nodes, pts, horizon_radius)
    h = np.diff(nodes)
    inv_h = 1.0 / h
    element = np.clip(np.searchsorted(nodes, pts, side="right") - 1, 0, nodes.size - 2)
    weights = np.zeros((pts.size, nodes.size))

    local_kernel = isinstance(kernel, LocalDelta)
    fallback = (not local_kernel and kernel.is_singular_at_origin) & (l_minus + l_plus < h[element])
    local = local_kernel | fallback | ((l_minus == 0.0) & (l_plus == 0.0))
    boundary = ~local & ((l_minus == 0.0) | (l_plus == 0.0))

    # Element-gradient rows: whole for local and fallback rows and where both
    # sides vanished, half for boundary rows, where the vanished side
    # contributes phi'(x)/2.
    rows = np.nonzero(local | boundary)[0]
    e = element[rows]
    grad = np.where(local[rows], 1.0, 0.5) * inv_h[e]
    weights[rows, e] -= grad
    weights[rows, e + 1] += grad

    if not local.all():
        # frame multipliers, zero on a vanished side and on local rows
        c_minus, c_plus = np.zeros(pts.size), np.zeros(pts.size)
        for c, side in ((c_minus, l_minus), (c_plus, l_plus)):
            nonempty = ~local & (side > 0.0)
            c[nonempty] = 0.5 / kernel.interval_integral(side[nonempty])
        at_x = kernel.interval_integral(0.0)
        starts = np.arange(0, pts.size, max(1, _BLOCK_ENTRIES // nodes.size))
        ends = [*starts[1:].tolist(), pts.size]
        windows = _node_windows(nodes, pts, l_minus, l_plus, kernel.reach, starts)
        for start, end, first, stop in zip(starts.tolist(), ends, *windows):
            block = slice(start, end)
            near = nodes[first:stop]
            x = pts[block, None]
            lo, hi = x - l_minus[block, None], x + l_plus[block, None]
            distance = x - near
            moment = kernel.interval_integral(np.abs(distance, out=distance))
            # each node clamped into x - [0, l_minus] (trailing side) or
            # x + [0, l_plus] (leading side): on the far side of x it takes
            # the moment of x itself, beyond the side that of the side's end
            beyond_x = near > x
            clamped = np.where(beyond_x, at_x, moment)
            np.copyto(clamped, kernel.interval_integral(x - lo), where=near < lo)
            trailing = clamped[:, :-1] - clamped[:, 1:]
            clamped = np.where(beyond_x, moment, at_x)
            np.copyto(clamped, kernel.interval_integral(hi - x), where=near > hi)
            leading = clamped[:, 1:] - clamped[:, :-1]
            for c, w in ((c_minus, trailing), (c_plus, leading)):
                np.multiply(c[block, None], w, out=w)
                w *= inv_h[first : stop - 1]
                weights[block, first + 1 : stop] += w
                weights[block, first : stop - 1] -= w

    n_fallback = int(np.count_nonzero(fallback))
    if n_fallback:
        logger.warning(
            "%d of %d operator rows fell back to the local gradient: singular "
            "kernel with a horizon shorter than the surrounding element",
            n_fallback,
            pts.size,
        )
    return NonlocalOperatorMatrix(weights=weights, eval_points=pts, nodes=nodes)
