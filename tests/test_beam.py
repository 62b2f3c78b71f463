import numpy as np
import pytest

from nle import fem
from nle.beam import (
    BeamSection,
    CantileverTipLoad,
    SimplySupportedUniformLoad,
    TimoshenkoBeamModel,
    beam_strains,
)
from nle.fem import AxisQuadrature, gauss_rule, gram
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel, power_law
from nle.operator import HorizonSpec, build_operator_matrix
from nle.results import KernelSpec, sweep

SECTION = BeamSection()


# ---------------------------------------------------------------------------
# section and model setup
# ---------------------------------------------------------------------------

def test_section_derived_properties():
    assert SECTION.area == pytest.approx(0.01)
    assert SECTION.inertia == pytest.approx(8.3333333333e-6, rel=1e-9)
    assert SECTION.shear_modulus == pytest.approx(30e9 / 2.6, rel=1e-14)


def test_section_validation():
    with pytest.raises(ValueError, match="positive"):
        BeamSection(length=0.0)
    with pytest.raises(ValueError, match="poisson"):
        BeamSection(poisson=0.5)
    with pytest.raises(ValueError, match="poisson"):
        BeamSection(poisson=-0.1)


def test_model_rejects_odd_mesh_for_midspan_metric():
    with pytest.raises(ValueError, match="even"):
        TimoshenkoBeamModel(SECTION, SimplySupportedUniformLoad(), n_elements=7)


def test_metric_nodes():
    tip = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), n_elements=8)
    mid = TimoshenkoBeamModel(SECTION, SimplySupportedUniformLoad(), n_elements=8)
    assert tip.metric_node == 8
    assert mid.metric_node == 4


# ---------------------------------------------------------------------------
# the free block against the full assembly
# ---------------------------------------------------------------------------

def _full_beam_assembly(model, kernel, horizon_radius):
    """Full 3 n_nodes square stiffness and the fixed dofs of the load case.

    The assembly that the free-block construction replaced, kept as its
    reference: the free block must equal K[free][:, free] bit for bit.
    """
    mesh, s = model.mesh, model.section
    nn = mesh.n_nodes
    bend = AxisQuadrature(mesh, gauss_rule(fem.BENDING_POINTS), kernel, horizon_radius)
    shear = AxisQuadrature(mesh, gauss_rule(fem.SHEAR_POINTS), kernel, horizon_radius)
    EA = s.modulus * s.area
    EI = s.modulus * s.inertia
    kGA = s.shear_correction * s.shear_modulus * s.area
    Sb = gram(bend.B, bend.B, bend.weights)
    Ss = gram(shear.B, shear.B, shear.weights)
    Cs = gram(shear.B, shear.N, shear.weights)
    Ms = gram(shear.N, shear.N, shear.weights)
    U0, W0, THETA = range(3)
    K = np.zeros((3 * nn, 3 * nn))

    def blk(f, g):
        return np.s_[f * nn : (f + 1) * nn, g * nn : (g + 1) * nn]

    K[blk(U0, U0)] = EA * Sb
    K[blk(W0, W0)] = kGA * Ss
    K[blk(THETA, THETA)] = EI * Sb + kGA * Ms
    wt = -kGA * Cs
    K[blk(W0, THETA)] = wt
    K[blk(THETA, W0)] = wt.T
    if isinstance(model.load, CantileverTipLoad):
        fixed = [U0 * nn, W0 * nn, THETA * nn]
    else:
        fixed = [U0 * nn, W0 * nn, W0 * nn + (nn - 1)]
    return K, fixed


@pytest.mark.parametrize("load", [CantileverTipLoad(), SimplySupportedUniformLoad()])
@pytest.mark.parametrize(
    "kernel",
    [ExponentialKernel(2.5e-3), power_law(0.7), LocalDelta()],
    ids=["exponential", "power_law", "local"],
)
def test_free_block_equals_the_full_assembly_bitwise(load, kernel):
    model = TimoshenkoBeamModel(SECTION, load, 20)
    system = model.assemble(kernel, 0.5)
    K_full, fixed = _full_beam_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), fixed)
    np.testing.assert_array_equal(system.free, free)
    assert system.matrix.flags.f_contiguous
    assert np.array_equal(system.matrix, K_full[np.ix_(free, free)])


# ---------------------------------------------------------------------------
# local-limit equivalence with an independent textbook assembly
# ---------------------------------------------------------------------------

def _textbook_local_timoshenko(section, n_elements):
    """Element-loop Timoshenko stiffness, interleaved (u, w, theta) DOFs.

    Linear elements; axial/bending integrated exactly, shear with the
    one-point rule (selective reduced integration).
    """
    h = section.length / n_elements
    nn = n_elements + 1
    EA = section.modulus * section.area
    EI = section.modulus * section.inertia
    kGA = section.shear_correction * section.shear_modulus * section.area
    couple = np.array([[1.0, -1.0], [-1.0, 1.0]])
    axial = EA / h * couple
    bending = EI / h * couple
    shear_row = np.array([-1.0 / h, 1.0 / h, -0.5, -0.5])
    shear = kGA * h * np.outer(shear_row, shear_row)
    K = np.zeros((3 * nn, 3 * nn))
    for e in range(n_elements):
        iu = [3 * e, 3 * (e + 1)]
        iw = [3 * e + 1, 3 * (e + 1) + 1]
        it = [3 * e + 2, 3 * (e + 1) + 2]
        K[np.ix_(iu, iu)] += axial
        K[np.ix_(it, it)] += bending
        iwt = iw + it
        K[np.ix_(iwt, iwt)] += shear
    return K


def _interleave_permutation(nn):
    return np.array([3 * node + f for f in range(3) for node in range(nn)])


@pytest.mark.parametrize("n_elements", [3, 10])
def test_local_delta_assembly_matches_textbook(n_elements):
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), n_elements)
    K_full, _ = _full_beam_assembly(model, LocalDelta(), 0.5)
    system = model.assemble(LocalDelta(), 0.5)
    K_textbook = _textbook_local_timoshenko(SECTION, n_elements)
    perm = _interleave_permutation(n_elements + 1)
    expected = K_textbook[np.ix_(perm, perm)]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(K_full - expected)) <= 1e-10 * scale
    free_block = expected[np.ix_(system.free, system.free)]
    assert np.max(np.abs(system.matrix - free_block)) <= 1e-10 * scale


def test_cantilever_load_and_constraints():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(magnitude=3.5), 6)
    system = model.assemble(LocalDelta(), 0.5)
    nn = 7
    expected = np.zeros(3 * nn)
    expected[nn + 6] = 3.5
    np.testing.assert_allclose(system.load, expected)
    fixed = np.setdiff1d(np.arange(3 * nn), system.free)
    assert fixed.tolist() == [0, nn, 2 * nn]


def test_udtl_consistent_load_and_constraints():
    model = TimoshenkoBeamModel(SECTION, SimplySupportedUniformLoad(intensity=2.0), 4)
    system = model.assemble(LocalDelta(), 0.5)
    nn = 5
    h = SECTION.length / 4
    w_load = system.load[nn : 2 * nn]
    expected = 2.0 * np.array([h / 2, h, h, h, h / 2])
    np.testing.assert_allclose(w_load, expected, rtol=1e-13)
    assert np.all(system.load[:nn] == 0.0) and np.all(system.load[2 * nn :] == 0.0)
    fixed = np.setdiff1d(np.arange(3 * nn), system.free)
    assert fixed.tolist() == [0, nn, 2 * nn - 1]


# ---------------------------------------------------------------------------
# structural invariants of the assembled system
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [ExponentialKernel(0.05), PowerLawKernel(0.75)])
def test_stiffness_symmetric_with_clipped_horizons(kernel):
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 20)
    K, _ = _full_beam_assembly(model, kernel, 0.4)
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
    K_ff = model.assemble(kernel, 0.4).matrix
    assert np.max(np.abs(K_ff - K_ff.T)) <= 1e-12 * np.max(np.abs(K_ff))


def test_rigid_body_modes_annihilated():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 16)
    K, _ = _full_beam_assembly(model, ExponentialKernel(0.05), 0.3)
    nn = 17
    x = model.mesh.nodes
    translation = np.zeros(3 * nn)
    translation[nn : 2 * nn] = 1.0
    rotation = np.zeros(3 * nn)
    rotation[nn : 2 * nn] = x
    rotation[2 * nn :] = 1.0
    axial = np.zeros(3 * nn)
    axial[:nn] = 1.0
    scale = np.linalg.norm(K, 2)
    for mode in (translation, rotation, axial):
        assert np.linalg.norm(K @ mode) <= 1e-10 * scale * np.linalg.norm(mode)


def test_row_support_bounded_by_horizon_window():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 40)
    l_f = 0.05
    K, _ = _full_beam_assembly(model, ExponentialKernel(0.02), l_f)
    nodes = model.mesh.nodes
    h = model.mesh.spacing
    nn = nodes.size
    for row in range(3 * nn):
        x_row = nodes[row % nn]
        window = np.sum(np.abs(nodes - x_row) <= 2 * l_f + h + 1e-12)
        assert np.count_nonzero(K[row]) <= 3 * window


# ---------------------------------------------------------------------------
# deflection oracles
# ---------------------------------------------------------------------------

def _analytic_cantilever_tip(section, P):
    EI = section.modulus * section.inertia
    kGA = section.shear_correction * section.shear_modulus * section.area
    L = section.length
    return P * L ** 3 / (3 * EI) + P * L / kGA


def _analytic_ss_udtl_midspan(section, q):
    EI = section.modulus * section.inertia
    kGA = section.shear_correction * section.shear_modulus * section.area
    L = section.length
    return 5 * q * L ** 4 / (384 * EI) + q * L ** 2 / (8 * kGA)


def _rows(load, specs):
    """Columns of each row of a one-horizon sweep at l_f = 0.5, by name."""
    table = sweep(TimoshenkoBeamModel(SECTION, load), specs, [0.5])
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_local_cantilever_matches_analytic_tip_deflection():
    [row] = _rows(CantileverTipLoad(magnitude=1.0), [KernelSpec("local")])
    expected = _analytic_cantilever_tip(SECTION, 1.0)
    assert expected == pytest.approx(1.3437e-6, rel=5e-4)
    assert row["w_max_local"] == pytest.approx(expected, rel=5e-3)
    assert row["w_max_nonlocal"] == row["w_max_local"]


def test_local_ss_udtl_matches_analytic_midspan_deflection():
    [row] = _rows(SimplySupportedUniformLoad(intensity=1.0), [KernelSpec("local")])
    expected = _analytic_ss_udtl_midspan(SECTION, 1.0)
    assert row["w_max_local"] == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("exponential", 1e-6), KernelSpec("power_law", 1.0)],
    ids=["exponential-collapsed", "power-law-alpha-1"],
)
@pytest.mark.parametrize("load", [CantileverTipLoad(), SimplySupportedUniformLoad()])
def test_local_limit_recovers_unit_softening_ratio(spec, load):
    [row] = _rows(load, [spec])
    assert row["w_bar"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("load", [CantileverTipLoad(), SimplySupportedUniformLoad()])
def test_nonlocal_kernels_soften_both_load_cases(load):
    exp, power = _rows(load, [KernelSpec("exponential", 2.5e-3), KernelSpec("power_law", 0.8)])
    assert exp["w_bar"] > 1.0
    assert power["w_bar"] > 1.0


def test_self_convergence_at_production_resolution():
    # the doubled mesh needs a looser residual tolerance: the attainable
    # float64 residual scales with the stiffness norm, which grows as 1/h
    kernel = ExponentialKernel(2.5e-3)
    coarse = fem.solve_metric(TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 200), kernel, 0.5)
    fine = fem.solve_metric(
        TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 400), kernel, 0.5, residual_tol=1e-9
    )
    assert abs(fine - coarse) / coarse < 5e-3


# ---------------------------------------------------------------------------
# strain evaluation
# ---------------------------------------------------------------------------

def _operator_on_mesh(mesh, kernel, l_f, points):
    horizon = HorizonSpec(l_f=l_f, x_min=0.0, x_max=mesh.length)
    return build_operator_matrix(mesh.nodes, points, horizon, kernel)


def test_strains_vanish_for_rigid_translation():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 8)
    pts = np.linspace(0.07, 0.93, 11)
    op = _operator_on_mesh(model.mesh, ExponentialKernel(0.1), 0.3, pts)
    from nle.beam import BeamDisplacement

    disp = BeamDisplacement(
        nodes=model.mesh.nodes,
        u0=np.zeros(9),
        w0=np.full(9, 0.37),
        theta=np.zeros(9),
    )
    eps, gamma = beam_strains(disp, op, z=0.02)
    np.testing.assert_allclose(eps, 0.0, atol=1e-14)
    np.testing.assert_allclose(gamma, 0.0, atol=1e-14)


def test_strains_vanish_for_rigid_rotation():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 8)
    pts = np.linspace(0.07, 0.93, 11)
    op = _operator_on_mesh(model.mesh, ExponentialKernel(0.1), 0.3, pts)
    from nle.beam import BeamDisplacement

    a = 0.004
    disp = BeamDisplacement(
        nodes=model.mesh.nodes,
        u0=np.zeros(9),
        w0=a * model.mesh.nodes,
        theta=np.full(9, a),
    )
    eps, gamma = beam_strains(disp, op, z=0.02)
    np.testing.assert_allclose(eps, 0.0, atol=1e-16)
    np.testing.assert_allclose(gamma, 0.0, atol=a * 1e-12)


def test_local_axial_strain_of_square_field():
    # nodal x^2 interpolant has slope 2*midpoint inside each element, which
    # the one-point rule samples exactly
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), 5)
    mesh = model.mesh
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    op = _operator_on_mesh(mesh, LocalDelta(), 0.3, mids)
    from nle.beam import BeamDisplacement

    disp = BeamDisplacement(
        nodes=mesh.nodes, u0=mesh.nodes ** 2, w0=np.zeros(6), theta=np.zeros(6)
    )
    eps, _ = beam_strains(disp, op, z=0.0)
    np.testing.assert_allclose(eps, 2.0 * mids, rtol=1e-13)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_beam_sweep_local_row_is_exactly_unit():
    model = TimoshenkoBeamModel(SECTION, CantileverTipLoad(), n_elements=20)
    assert sweep(model, [KernelSpec("local")], [0.5]).column("w_bar") == [1.0]
