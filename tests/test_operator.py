import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nle.kernels import (
    ExponentialKernel,
    LocalDelta,
    PowerLawKernel,
    exponential,
    frame_multipliers,
    power_law,
)
from nle.operator import (
    HorizonSpec,
    _effective_sides,
    _side_integral,
    boundary_limit_value,
    build_operator_matrix,
    nonlocal_derivative,
)

UNIT = HorizonSpec(l_f=0.5, x_min=0.0, x_max=1.0)


def test_horizon_clipping():
    assert UNIT.clipped(0.2) == (0.2, 0.5)
    assert UNIT.clipped(0.5) == (0.5, 0.5)
    assert UNIT.clipped(0.0) == (0.0, 0.5)
    assert UNIT.clipped(1.0) == (0.5, 0.0)
    with pytest.raises(ValueError, match="outside"):
        UNIT.clipped(-0.01)
    with pytest.raises(ValueError):
        HorizonSpec(l_f=0.0, x_min=0.0, x_max=1.0)
    with pytest.raises(ValueError):
        HorizonSpec(l_f=0.5, x_min=1.0, x_max=0.0)


# ---------------------------------------------------------------------------
# continuous operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75), LocalDelta()])
@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.87, 1.0])
def test_constant_field_annihilated(kernel, x):
    value = nonlocal_derivative(lambda y: 4.2, x, UNIT, kernel, dfield=lambda y: 0.0)
    assert value == 0.0


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75)])
@pytest.mark.parametrize("x", [0.25, 0.5, 0.9])
def test_affine_field_reproduces_slope(kernel, x):
    value = nonlocal_derivative(lambda y: 3.0 * y + 1.0, x, UNIT, kernel, dfield=lambda y: 3.0)
    assert value == pytest.approx(3.0, rel=1e-12)


def test_quadratic_exponential_matches_quadrature_oracle():
    # phi = x^2 at x = 0.3: clipped sides (0.3, 0.5); mpmath oracle at 40
    # digits built from the defining integrals gives 0.61232688149422467
    value = nonlocal_derivative(
        lambda y: y * y, 0.3, UNIT, ExponentialKernel(0.1), dfield=lambda y: 2.0 * y
    )
    assert value == pytest.approx(0.6123268814942247, rel=1e-11)


def test_quadratic_power_law_matches_exact_value():
    # for K ~ s^-alpha and a linear gradient the side averages are exactly
    # x -+ l * (1-alpha)/(2-alpha): at alpha=0.75, x=0.3 this sums to 0.64
    value = nonlocal_derivative(
        lambda y: y * y, 0.3, UNIT, PowerLawKernel(0.75), dfield=lambda y: 2.0 * y
    )
    assert value == pytest.approx(0.64, rel=1e-11)


def test_local_delta_returns_pointwise_gradient():
    value = nonlocal_derivative(lambda y: math.sin(y), 0.37, UNIT, LocalDelta(), dfield=math.cos)
    assert value == pytest.approx(math.cos(0.37), rel=1e-15)


def test_default_difference_gradient_is_adequate():
    value = nonlocal_derivative(lambda y: math.sin(math.pi * y), 0.4, UNIT, ExponentialKernel(0.1))
    exact = nonlocal_derivative(
        lambda y: math.sin(math.pi * y), 0.4, UNIT, ExponentialKernel(0.1),
        dfield=lambda y: math.pi * math.cos(math.pi * y),
    )
    assert value == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_linearity():
    f = lambda y: math.sin(math.pi * y)
    df = lambda y: math.pi * math.cos(math.pi * y)
    g = lambda y: y ** 3
    dg = lambda y: 3.0 * y * y
    k = ExponentialKernel(0.07)
    lhs = nonlocal_derivative(
        lambda y: 2.0 * f(y) - 0.5 * g(y), 0.6, UNIT, k,
        dfield=lambda y: 2.0 * df(y) - 0.5 * dg(y),
    )
    rhs = 2.0 * nonlocal_derivative(f, 0.6, UNIT, k, dfield=df) - 0.5 * nonlocal_derivative(
        g, 0.6, UNIT, k, dfield=dg
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


@given(
    st.floats(-5.0, 5.0),
    st.floats(-3.0, 3.0),
    st.floats(0.0, 1.0),
    st.sampled_from([ExponentialKernel(0.005), ExponentialKernel(0.1), PowerLawKernel(0.6), PowerLawKernel(0.9)]),
)
@settings(max_examples=40, deadline=None)
def test_affine_reproduction_property(slope, intercept, x, kernel):
    value = nonlocal_derivative(
        lambda y: slope * y + intercept, x, UNIT, kernel, dfield=lambda y: slope
    )
    assert value == pytest.approx(slope, rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------------
# boundary limit
# ---------------------------------------------------------------------------

def test_boundary_limit_reference_value():
    # phi = x^2 at the left wall: phi'(0)/2 = 0 plus the surviving-side
    # average; mpmath oracle gives 0.09660817254684788
    value = boundary_limit_value(
        lambda y: y * y, 0.0, UNIT, ExponentialKernel(0.1), dfield=lambda y: 2.0 * y
    )
    assert value == pytest.approx(0.09660817254684788, rel=1e-11)
    # the full operator degenerates to the same limit at the wall
    same = nonlocal_derivative(
        lambda y: y * y, 0.0, UNIT, ExponentialKernel(0.1), dfield=lambda y: 2.0 * y
    )
    assert same == pytest.approx(value, rel=1e-13)


def test_boundary_limit_rejects_interior_points():
    with pytest.raises(ValueError, match="interior"):
        boundary_limit_value(lambda y: y, 0.5, UNIT, ExponentialKernel(0.1), dfield=lambda y: 1.0)


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75)])
def test_shrinking_side_approaches_boundary_limit(kernel):
    # full operator at x = 0 with the trailing side length forced to eps by
    # extending the domain; must approach the one-sided limit monotonically
    f = lambda y: y * y
    df = lambda y: 2.0 * y
    limit = boundary_limit_value(f, 0.0, UNIT, kernel, dfield=df)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        horizon = HorizonSpec(l_f=0.5, x_min=-eps, x_max=1.0)
        full = nonlocal_derivative(f, 0.0, horizon, kernel, dfield=df)
        gaps.append(abs(full - limit))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# discrete operator matrix
# ---------------------------------------------------------------------------

def _interp_gradient(nodes, values):
    slopes = np.diff(values) / np.diff(nodes)

    def df(y):
        e = min(max(int(np.searchsorted(nodes, y, side="right")) - 1, 0), len(slopes) - 1)
        return float(slopes[e])

    return df


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), ExponentialKernel(0.005), PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_matrix_annihilates_constants(kernel):
    nodes = np.linspace(0.0, 1.0, 41)
    pts = np.linspace(0.01, 0.99, 23)
    op = build_operator_matrix(nodes, pts, UNIT, kernel)
    out = op.apply(np.full(nodes.size, 7.3))
    assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(op.weights))


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), ExponentialKernel(1e-3), PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_matrix_reproduces_affine_exactly(kernel):
    # nonuniform mesh, evaluation points scattered everywhere incl. walls
    rng = np.random.default_rng(7)
    nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 60)]))
    pts = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 200)])
    op = build_operator_matrix(nodes, pts, UNIT, kernel)
    out = op.apply(-2.7 * nodes + 0.4)
    assert np.max(np.abs(out + 2.7)) <= 1e-12 * 2.7


def test_matrix_row_matches_continuous_operator_on_interpolant():
    nodes = np.linspace(0.0, 1.0, 21)
    samples = np.sin(np.pi * nodes)
    kernel = ExponentialKernel(0.1)
    op = build_operator_matrix(nodes, np.array([0.5]), UNIT, kernel)
    discrete = float(op.apply(samples)[0])
    reference = nonlocal_derivative(
        None, 0.5, UNIT, kernel,
        dfield=_interp_gradient(nodes, samples), breakpoints=nodes,
    )
    assert discrete == pytest.approx(reference, rel=1e-10)


def test_matrix_boundary_rows_match_limit_formula():
    nodes = np.linspace(0.0, 1.0, 26)
    samples = np.cos(1.3 * nodes) + 0.2 * nodes
    kernel = PowerLawKernel(0.8)
    op = build_operator_matrix(nodes, np.array([0.0, 1.0]), UNIT, kernel)
    out = op.apply(samples)
    df = _interp_gradient(nodes, samples)
    for row, x0 in ((0, 0.0), (1, 1.0)):
        ref = boundary_limit_value(None, x0, UNIT, kernel, dfield=df, breakpoints=nodes)
        assert out[row] == pytest.approx(ref, rel=1e-9)


def test_local_delta_rows_are_element_gradients():
    nodes = np.linspace(0.0, 1.0, 11)
    pts = np.array([0.05, 0.55, 0.96])
    op = build_operator_matrix(nodes, pts, UNIT, LocalDelta())
    expected = np.zeros((3, 11))
    for r, x in enumerate(pts):
        e = int(x / 0.1)
        expected[r, e] = -10.0
        expected[r, e + 1] = 10.0
    assert np.allclose(op.weights, expected, rtol=1e-14, atol=1e-12)


def test_singular_kernel_short_horizon_falls_back_to_local(caplog):
    nodes = np.linspace(0.0, 1.0, 11)
    tiny = HorizonSpec(l_f=0.01, x_min=0.0, x_max=1.0)
    with caplog.at_level(logging.WARNING, logger="nle.operator"):
        op = build_operator_matrix(nodes, np.array([0.55]), tiny, PowerLawKernel(0.7))
    assert "fell back" in caplog.text
    row = np.zeros(11)
    row[5], row[6] = -10.0, 10.0
    assert np.allclose(op.weights[0], row)


def test_matrix_row_population_is_horizon_bounded():
    nodes = np.linspace(0.0, 1.0, 101)
    short = HorizonSpec(l_f=0.07, x_min=0.0, x_max=1.0)
    pts = np.linspace(0.005, 0.995, 37)
    op = build_operator_matrix(nodes, pts, short, ExponentialKernel(0.02))
    h = 0.01
    for r, x in enumerate(pts):
        nnz = int(np.sum(np.abs(op.weights[r]) > 0.0))
        within = int(np.sum(np.abs(nodes - x) <= short.l_f + h))
        assert nnz <= within + 2


# Reference implementation: build_operator_matrix as a per-row loop.  It
# adds the same terms in the same order (element-gradient rows first, then
# the trailing and the leading side, each scaled as c * w / h), so the two
# must agree bit for bit.

def _loop_operator_matrix(nodes, pts, horizon, kernel):
    nodes = np.asarray(nodes, dtype=float)
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    el_left, el_right = nodes[:-1], nodes[1:]
    inv_h = 1.0 / (el_right - el_left)
    weights = np.zeros((pts.size, nodes.size))
    n_fallback = 0

    def add_local(row, e, scale=1.0):
        row[e] -= scale * inv_h[e]
        row[e + 1] += scale * inv_h[e]

    def add_side(row, x, s_far, sign, c):
        if sign < 0:
            lo, hi = np.maximum(el_left, x - s_far), np.minimum(el_right, x)
        else:
            lo, hi = np.maximum(el_left, x), np.minimum(el_right, x + s_far)
        idx = np.nonzero(hi > lo)[0]
        if not idx.size:
            return
        if sign < 0:
            w = kernel.interval_integral(x - lo[idx]) - kernel.interval_integral(x - hi[idx])
        else:
            w = kernel.interval_integral(hi[idx] - x) - kernel.interval_integral(lo[idx] - x)
        w = c * w * inv_h[idx]
        row[idx + 1] += w
        row[idx] -= w

    tiny = 1e-13 * (horizon.x_max - horizon.x_min)
    for r, x in enumerate(pts):
        l_minus, l_plus = horizon.clipped(float(x))
        l_minus = 0.0 if l_minus < tiny else l_minus
        l_plus = 0.0 if l_plus < tiny else l_plus
        e = min(max(int(np.searchsorted(nodes, x, side="right")) - 1, 0), nodes.size - 2)
        if isinstance(kernel, LocalDelta):
            add_local(weights[r], e)
        elif kernel.is_singular_at_origin and (l_minus + l_plus) < (el_right[e] - el_left[e]):
            add_local(weights[r], e)
            n_fallback += 1
        elif l_minus == 0.0 or l_plus == 0.0:
            add_local(weights[r], e, scale=0.5)
            if l_plus > 0.0:
                add_side(weights[r], x, l_plus, +1.0, 0.5 / float(kernel.interval_integral(l_plus)))
            else:
                add_side(weights[r], x, l_minus, -1.0, 0.5 / float(kernel.interval_integral(l_minus)))
        else:
            mult = frame_multipliers(kernel, l_minus, l_plus)
            add_side(weights[r], x, l_minus, -1.0, mult.c_minus)
            add_side(weights[r], x, l_plus, +1.0, mult.c_plus)
    return weights, n_fallback


ORACLE_KERNELS = [
    ExponentialKernel(1e-3), ExponentialKernel(0.05), ExponentialKernel(0.4),
    PowerLawKernel(0.55), PowerLawKernel(0.8), PowerLawKernel(0.95), LocalDelta(),
]


def _oracle_case(seed, uniform):
    rng = np.random.default_rng(seed)
    length = rng.uniform(0.5, 3.0)
    n_el = int(rng.integers(1, 60))
    if uniform:
        nodes = np.linspace(0.0, length, n_el + 1)
    else:
        nodes = np.unique(np.concatenate([[0.0, length], rng.uniform(0.0, length, n_el)]))
    # walls, every node, and scattered interior points
    pts = np.concatenate([[0.0, length], nodes, rng.uniform(0.0, length, 40)])
    l_f = length * rng.choice([0.02, 0.1, 0.3, 0.7, 1.5])
    return nodes, pts, HorizonSpec(l_f=l_f, x_min=0.0, x_max=length)


@pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=lambda k: k.describe())
@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
def test_matrix_equals_per_row_loop_bitwise(kernel, uniform):
    for seed in range(25):
        nodes, pts, horizon = _oracle_case(seed, uniform)
        expected, _ = _loop_operator_matrix(nodes, pts, horizon, kernel)
        op = build_operator_matrix(nodes, pts, horizon, kernel)
        assert np.array_equal(op.weights, expected), (seed, kernel)


def test_matrix_equals_per_row_loop_across_blocks(monkeypatch):
    # rows broadcast in several blocks give the same matrix as one block
    import nle.operator as operator_module

    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 1.0, 81)
    pts = rng.uniform(0.0, 1.0, 150)
    kernel = PowerLawKernel(0.7)
    monkeypatch.setattr(operator_module, "_BLOCK_ENTRIES", 7 * 80)
    op = build_operator_matrix(nodes, pts, UNIT, kernel)
    expected, _ = _loop_operator_matrix(nodes, pts, UNIT, kernel)
    assert np.array_equal(op.weights, expected)


@pytest.mark.parametrize("kernel", [PowerLawKernel(0.6), PowerLawKernel(0.9)])
def test_short_horizon_fallback_rows_match_loop(kernel, caplog):
    # horizons shorter than an element: same fallback rows, one warning
    rng = np.random.default_rng(11)
    nodes = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 12)]))
    pts = np.concatenate([[0.0, 1.0], nodes, rng.uniform(0.0, 1.0, 50)])
    short = HorizonSpec(l_f=0.004, x_min=0.0, x_max=1.0)
    expected, n_fallback = _loop_operator_matrix(nodes, pts, short, kernel)
    assert n_fallback > 0
    with caplog.at_level(logging.WARNING, logger="nle.operator"):
        op = build_operator_matrix(nodes, pts, short, kernel)
    assert np.array_equal(op.weights, expected)
    warnings = [r for r in caplog.records if "fell back" in r.getMessage()]
    assert len(warnings) == 1
    assert warnings[0].getMessage().startswith(f"{n_fallback} of {pts.size} operator rows")


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), LocalDelta()])
def test_matrix_rejects_points_outside_the_horizon_domain(kernel):
    nodes = np.linspace(0.0, 1.0, 11)
    narrow = HorizonSpec(l_f=0.2, x_min=0.0, x_max=0.9)
    with pytest.raises(ValueError, match="outside"):
        build_operator_matrix(nodes, [0.5, 0.95], narrow, kernel)
    with pytest.raises(ValueError, match="span"):
        build_operator_matrix(nodes, [-0.1], UNIT, kernel)


def test_matrix_input_validation():
    nodes = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="increasing"):
        build_operator_matrix(nodes[::-1], [0.5], UNIT, LocalDelta())
    with pytest.raises(ValueError, match="span"):
        build_operator_matrix(nodes, [1.5], UNIT, LocalDelta())


# ---------------------------------------------------------------------------
# adjoint smoothing operator
# ---------------------------------------------------------------------------

def adjoint_integral(field, x, horizon, kernel, quad_tol=1e-13):
    """Smoothing companion of the nonlocal gradient (values, not derivatives).

    The pairing swaps the interval lengths relative to the forward operator:
    c_minus weights the trailing interval of length l_plus and c_plus the
    leading interval of length l_minus,

        Itilde phi(x) = c_minus * integral_{x-l_plus}^{x} K phi dx'
                      + c_plus  * integral_{x}^{x+l_minus} K phi dx'.

    On a symmetric interior horizon this reduces to a weighted average with
    unit mass (Itilde 1 = 1); at asymmetric points the swapped pairing is not
    mass-preserving, which the tests below record rather than hide.
    """
    l_minus, l_plus = _effective_sides(horizon, x)
    if l_minus == 0.0 or l_plus == 0.0:
        raise ValueError("adjoint pairing needs both clipped side lengths positive")
    mult = frame_multipliers(kernel, l_minus, l_plus)
    left = _side_integral(kernel, lambda s: field(x - s), l_plus, quad_tol, [])
    right = _side_integral(kernel, lambda s: field(x + s), l_minus, quad_tol, [])
    return mult.c_minus * left + mult.c_plus * right


@pytest.mark.parametrize("kernel", [ExponentialKernel(0.1), PowerLawKernel(0.75), LocalDelta()])
def test_adjoint_preserves_constants_on_symmetric_horizons(kernel):
    value = adjoint_integral(lambda y: 1.0, 0.5, HorizonSpec(0.3, 0.0, 1.0), kernel)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_adjoint_is_linear():
    k = ExponentialKernel(0.08)
    f = lambda y: math.cos(2.0 * y)
    g = lambda y: y * y
    lhs = adjoint_integral(lambda y: 3.0 * f(y) + g(y), 0.45, UNIT, k)
    rhs = 3.0 * adjoint_integral(f, 0.45, UNIT, k) + adjoint_integral(g, 0.45, UNIT, k)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_adjoint_swapped_pairing_discrepancy_is_visible():
    # at an asymmetric point the swapped pairing is not mass-preserving:
    # Itilde(1) = c_minus*F(l_plus) + c_plus*F(l_minus) != 1, whereas the
    # unswapped combination is identically 1.  Record the discrepancy rather
    # than normalize it away.
    kernel = ExponentialKernel(0.1)
    x = 0.2  # clipped sides (0.2, 0.5)
    value = adjoint_integral(lambda y: 1.0, x, UNIT, kernel)
    Fm, _ = integrate.quad(kernel.eval, 0.0, 0.2, epsabs=1e-15)
    Fp, _ = integrate.quad(kernel.eval, 0.0, 0.5, epsabs=1e-15)
    swapped = Fp / (2.0 * Fm) + Fm / (2.0 * Fp)
    assert value == pytest.approx(swapped, rel=1e-10)
    assert abs(value - 1.0) > 5e-3


def test_adjoint_requires_interior_point():
    with pytest.raises(ValueError):
        adjoint_integral(lambda y: 1.0, 0.0, UNIT, ExponentialKernel(0.1))
