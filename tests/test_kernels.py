import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from nle import fem, kernels
from nle.beam import BeamSection, TimoshenkoBeamModel
from nle.kernels import (
    ExponentialKernel,
    Kernel,
    KernelError,
    LocalDelta,
    PowerLawKernel,
    check_admissible,
    exponential,
    power_law,
)
from nle.operator import build_operator_matrix
from nle.results import KernelSpec

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# pinned values (independently recomputed with mpmath at 40 digits)
# ---------------------------------------------------------------------------

def test_exponential_eval_reference():
    k = ExponentialKernel(l0=0.005)
    assert k.eval(0.005) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert k.eval(0.0) == 1.0


def test_power_law_eval_reference():
    # 0.5^-0.75 / Gamma(0.25), mpmath at 40 digits: 0.463864804289500422
    k = PowerLawKernel(alpha=0.75)
    assert k.eval(0.5) == pytest.approx(0.46386480428950044, rel=1e-13)


def test_exponential_interval_reference():
    k = ExponentialKernel(l0=0.005)
    assert float(k.interval_integral(0.5)) == pytest.approx(
        0.005 * (1.0 - math.exp(-100.0)), rel=1e-15
    )


def test_power_law_interval_reference():
    # 0.5^0.25 / Gamma(1.25), mpmath at 40 digits: 0.927729608579000844
    k = PowerLawKernel(alpha=0.75)
    assert float(k.interval_integral(0.5)) == pytest.approx(0.9277296085790009, rel=1e-13)


def test_zero_length_interval_is_zero():
    for k in (ExponentialKernel(0.01), PowerLawKernel(0.6), LocalDelta()):
        assert float(k.interval_integral(0.0)) == 0.0


def test_gamma_against_arbitrary_precision():
    # math.gamma backs the power-law closed forms; pin it against mpmath on
    # the argument range those forms actually use
    xs = np.linspace(0.05, 2.0, 20)
    for x in xs:
        ref = float(mp.gamma(mp.mpf(float(x))))
        assert math.gamma(float(x)) == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# closed-form moments vs independent quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("l0,length", [(0.005, 0.5), (0.1, 0.03), (1.0, 2.5)])
def test_exponential_moment_matches_quadrature(l0, length):
    k = ExponentialKernel(l0)
    ref, _ = integrate.quad(k.eval, 0.0, length, epsabs=1e-15, epsrel=1e-13)
    assert float(k.interval_integral(length)) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha,length", [(0.6, 0.5), (0.75, 0.5), (0.9, 1.0), (0.5, 0.01)])
def test_power_law_moment_matches_quadrature(alpha, length):
    # endpoint singularity: tanh-sinh only resolves the near-origin mass of
    # s^-alpha when working precision is high, so integrate at 200 digits
    with mp.workdps(200):
        a = mp.mpf(float(alpha))
        ref = float(mp.quad(lambda s: s ** (-a) / mp.gamma(1 - a), [0, mp.mpf(float(length))]))
    k = PowerLawKernel(alpha)
    assert float(k.interval_integral(length)) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@st.composite
def scaled_kernels(draw):
    """(kernel, characteristic length); distances are drawn relative to the
    scale so the exponential tail stays representable in float64."""
    if draw(st.booleans()):
        l0 = draw(st.floats(1e-6, 10.0))
        return ExponentialKernel(l0), l0
    return PowerLawKernel(draw(st.floats(0.05, 0.95))), 1.0


@given(scaled_kernels(), st.integers(8, 80), st.sampled_from([0.15, 0.5, 3.0]))
@settings(max_examples=100, deadline=None)
def test_normalization_identity(scaled, n_el, l_f):
    # the defining property, 2 * c * moment = 1 on each side, read off the
    # production rows: at an interior node x the ramp max(y - x, 0) has unit
    # gradient on the leading side only, so its row gives c_plus * F(l_plus),
    # and min(y - x, 0) likewise gives c_minus * F(l_minus).  A horizon of
    # 0.15 leaves most sides unclipped, one of 3.0 clips every side.
    kernel, _ = scaled
    nodes = np.linspace(0.0, 1.0, n_el + 1)
    interior = nodes[1:-1]
    weights = build_operator_matrix(nodes, interior, l_f, kernel).weights
    ramps = nodes[None, :] - interior[:, None]
    for ramp in (np.maximum(ramps, 0.0), np.minimum(ramps, 0.0)):
        assert np.max(np.abs(np.sum(weights * ramp, axis=1) - 0.5)) <= 1e-13


@given(scaled_kernels(), st.floats(1e-6, 30.0), st.floats(1.0 + 1e-9, 4.0))
@settings(max_examples=200, deadline=None)
def test_eval_positive_and_decaying(scaled, rel_d, factor):
    kernel, scale = scaled
    d = rel_d * scale
    near = kernel.eval(d)
    far = kernel.eval(d * factor)
    assert near > 0.0
    assert far > 0.0
    assert far <= near


@given(scaled_kernels(), st.floats(1e-6, 20.0), st.floats(1.0 + 1e-6, 4.0))
@settings(max_examples=200, deadline=None)
def test_moment_increases_with_length(scaled, rel_length, factor):
    # strictly below the float64 saturation of the exponential tail
    kernel, scale = scaled
    length = rel_length * scale
    assert float(kernel.interval_integral(length * factor)) > float(
        kernel.interval_integral(length)
    )


# ---------------------------------------------------------------------------
# dispatch, validation, degenerate kernel
# ---------------------------------------------------------------------------

def test_factories_collapse_to_local_limit():
    assert isinstance(exponential(1e-10), LocalDelta)
    assert isinstance(exponential(1e-9), LocalDelta)
    assert isinstance(exponential(2e-9), ExponentialKernel)
    assert isinstance(power_law(1.0), LocalDelta)
    assert isinstance(power_law(0.999), PowerLawKernel)


def test_kernel_spec_registry():
    k = KernelSpec("exponential", 0.005).build()
    assert isinstance(k, ExponentialKernel) and k.l0 == 0.005
    assert isinstance(KernelSpec("power_law", 1.0).build(), LocalDelta)
    assert isinstance(KernelSpec("local").build(), LocalDelta)
    with pytest.raises(KernelError, match="unknown kernel kind"):
        KernelSpec("gaussian").build()
    with pytest.raises(KernelError, match="needs its parameter l0"):
        KernelSpec("exponential").build()


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e-9, math.inf])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(KernelError):
        exponential(bad)
    with pytest.raises(KernelError):
        power_law(bad)
    with pytest.raises(KernelError):
        power_law(1.0 + abs(bad) + 0.1)


def test_direct_construction_is_strict():
    with pytest.raises(KernelError, match="local limit"):
        PowerLawKernel(alpha=1.0)
    with pytest.raises(KernelError, match="local"):
        ExponentialKernel(l0=1e-12)


def test_singular_evaluations_raise():
    with pytest.raises(KernelError):
        PowerLawKernel(0.5).eval(0.0)
    with pytest.raises(KernelError):
        LocalDelta().eval(0.0)
    with pytest.raises(KernelError):
        ExponentialKernel(0.1).eval(-0.1)


def test_local_delta_moment_has_unit_mass():
    d = LocalDelta()
    assert float(d.interval_integral(1e-12)) == 1.0
    assert float(d.interval_integral(3.0)) == 1.0
    assert d.eval(0.5) == 0.0
    assert d.is_singular_at_origin


@pytest.mark.parametrize("l0", np.geomspace(1.01e-9, 10.0, 37))
def test_exponential_moment_is_exactly_saturated_past_its_reach(l0):
    kernel = ExponentialKernel(float(l0))
    assert kernel.reach == 40.0 * l0
    lengths = np.geomspace(kernel.reach, 1e3 * kernel.reach, 200)
    assert np.all(kernel.interval_integral(lengths) == kernel.l0)
    assert float(kernel.interval_integral(kernel.reach)) == kernel.l0
    # below the reach the moment has not saturated yet
    assert float(kernel.interval_integral(kernel.reach / 2.0)) < kernel.l0


def test_kernels_without_a_saturating_moment_declare_infinite_reach():
    assert PowerLawKernel(0.7).reach == math.inf
    assert LocalDelta().reach == math.inf


def test_admissibility_check():
    check_admissible(ExponentialKernel(0.01), 1.0)
    check_admissible(PowerLawKernel(0.7), 1.0)
    check_admissible(LocalDelta(), 1.0)

    class Growing(ExponentialKernel):
        def eval(self, distance):
            return 1.0 + distance

    g = Growing(l0=0.1)
    with pytest.raises(KernelError, match="monotonically"):
        check_admissible(g, 1.0)


# ---------------------------------------------------------------------------
# a kernel of the caller's own: the three abstract members, optionally reach
# ---------------------------------------------------------------------------

class Rising(Kernel):
    """Grows with distance: not admissible."""

    def eval(self, distance):
        return 1.0 + distance

    def interval_integral(self, length):
        return np.asarray(length) + 0.5 * np.asarray(length) ** 2

    @property
    def is_singular_at_origin(self):
        return False


class OwnExponential(Kernel):
    """The exponential kernel's mathematics, without reach."""

    def __init__(self, l0):
        self.l0 = l0

    def eval(self, distance):
        return math.exp(-distance / self.l0)

    def interval_integral(self, length):
        return self.l0 * -np.expm1(-np.asarray(length) / self.l0)

    @property
    def is_singular_at_origin(self):
        return False


def _beam_20():
    return TimoshenkoBeamModel(BeamSection(), 1.0, "cantilever_tip", 20)


def test_a_kernel_of_ones_own_that_rises_is_refused_as_a_kernel_error():
    with pytest.raises(KernelError, match="does not decay monotonically"):
        check_admissible(Rising(), 1.0)
    with pytest.raises(KernelError, match="does not decay monotonically"):
        fem.solve_metric(_beam_20(), Rising(), 0.5)


def test_a_kernel_of_ones_own_gives_the_built_in_deflection():
    own = fem.solve_metric(_beam_20(), OwnExponential(0.05), 0.5)
    built_in = fem.solve_metric(_beam_20(), ExponentialKernel(0.05), 0.5)
    assert own == pytest.approx(built_in, rel=1e-13, abs=0.0)
