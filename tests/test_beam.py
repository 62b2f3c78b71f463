import mmap

import numpy as np
import pytest

from nle import fem
from nle.beam import BeamSection, TimoshenkoBeamModel
from nle.fem import AxisQuadrature, HatRows, gram
from nle.kernels import ExponentialKernel, LocalDelta, PowerLawKernel, power_law
from nle.operator import build_operator_matrix
from nle.plate import BOUNDARY_CONDITIONS, MindlinPlateModel, PlateSection
from nle.results import KernelSpec, sweep
from strain_oracle import beam_strains

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
        TimoshenkoBeamModel(SECTION, 1.0, "ss_udtl", n_elements=7)


def test_model_rejects_an_unknown_load_case_by_name():
    # the case is checked before the evenness rule, which an odd mesh would break
    with pytest.raises(ValueError, match="'clamped_free'"):
        TimoshenkoBeamModel(SECTION, 1.0, "clamped_free", n_elements=7)


def test_metric_nodes():
    tip = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", n_elements=8)
    mid = TimoshenkoBeamModel(SECTION, 1.0, "ss_udtl", n_elements=8)
    assert tip.metric_node == 8
    assert mid.metric_node == 4


# ---------------------------------------------------------------------------
# the free block against the full assembly
# ---------------------------------------------------------------------------

def _full_beam_assembly(model, kernel, horizon_radius):
    """Full 3 n_nodes square stiffness and the fixed dofs of the load case.

    The assembly that the free-block construction replaced, kept as its
    reference: the lower triangle of the free block must equal
    K[free][:, free] bit for bit.
    """
    mesh, s = model.axes.x_axis, model.section
    nn = mesh.n_nodes
    bend = AxisQuadrature(HatRows(mesh, fem.BENDING_POINTS), kernel, horizon_radius)
    shear = AxisQuadrature(HatRows(mesh, fem.SHEAR_POINTS), kernel, horizon_radius)
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
    if model.case == "cantilever_tip":
        fixed = [U0 * nn, W0 * nn, THETA * nn]
    else:
        fixed = [U0 * nn, W0 * nn, W0 * nn + (nn - 1)]
    return K, fixed


CASES = pytest.mark.parametrize("case", ["cantilever_tip", "ss_udtl"])
KERNELS = pytest.mark.parametrize(
    "kernel",
    [ExponentialKernel(2.5e-3), power_law(0.7), LocalDelta()],
    ids=["exponential", "power_law", "local"],
)


@CASES
@KERNELS
def test_free_block_equals_the_full_assembly_bitwise(case, kernel):
    model = TimoshenkoBeamModel(SECTION, 1.0, case, 20)
    system = fem.assemble(model, kernel, 0.5)
    K_full, fixed = _full_beam_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), fixed)
    np.testing.assert_array_equal(system.free, free)
    assert system.matrix.flags.f_contiguous
    expected = K_full[np.ix_(free, free)]
    assert np.array_equal(np.tril(system.matrix), np.tril(expected))
    # array_equal takes -0.0 for +0.0; the bytes tell them apart
    assert np.tril(system.matrix).tobytes() == np.tril(expected).tobytes()


@CASES
@KERNELS
def test_product_equals_the_full_assembly(case, kernel):
    model = TimoshenkoBeamModel(SECTION, 1.0, case, 20)
    system = fem.assemble(model, kernel, 0.5)
    K_full, fixed = _full_beam_assembly(model, kernel, 0.5)
    free = np.setdiff1d(np.arange(K_full.shape[0]), fixed)
    expected = K_full[np.ix_(free, free)]
    x = np.random.default_rng(5).standard_normal((free.size, 3))
    for probe in (x[:, 0], x):
        exact = expected @ probe
        error = np.linalg.norm(system.product(probe) - exact)
        assert error <= 1e-13 * np.linalg.norm(exact)


@CASES
@pytest.mark.parametrize("slab_entries", [fem.SLAB_ENTRIES, 64, 5000], ids=["81", "1", "24"])
def test_a_reused_block_gets_its_lower_triangle_and_nothing_above_it(
    monkeypatch, case, slab_entries
):
    # 200 elements, slabs of 81, 1 and 24 columns: every entry above the
    # diagonal of a reused block keeps what it held, and the lower triangle
    # takes the bytes of a fresh assembly in the default slabs
    model = TimoshenkoBeamModel(SECTION, 1.0, case, 200)
    kernel = ExponentialKernel(2.5e-3)
    fresh = fem.assemble(model, kernel, 0.5).matrix
    monkeypatch.setattr(fem, "SLAB_ENTRIES", slab_entries)
    n = model.axes.free_dofs
    block = np.full((n, n), np.nan, order="F")
    system = model.assemble(model.quadratures(kernel, 0.5), block)
    assert system.matrix is block
    rows, columns = np.indices((n, n))
    assert np.isnan(block[rows < columns]).all()
    assert np.tril(block).tobytes() == np.tril(fresh).tobytes()


def _pages_written(block: np.ndarray) -> int:
    """Bytes of the pages of a NaN-filled column-major block that hold an entry written since."""
    per_page = mmap.PAGESIZE // 8
    flat = block.ravel(order="F")
    tail = np.full(-flat.size % per_page, np.nan)
    pages = np.isnan(np.concatenate([flat, tail])).reshape(-1, per_page)
    return int(np.count_nonzero(~pages.all(axis=1))) * mmap.PAGESIZE


@pytest.mark.parametrize(
    "model",
    [
        TimoshenkoBeamModel(SECTION, 1.0, case, n_elements)
        for case in ("cantilever_tip", "ss_udtl")
        for n_elements in (200, 800, 1600)
    ]
    + [MindlinPlateModel(PlateSection(), 1.0, boundary) for boundary in BOUNDARY_CONDITIONS],
    ids=lambda model: f"{model.case}-{model.axes.resolution}",
)
def test_the_backed_figure_counts_the_pages_the_assembly_writes(model):
    # A reused block, filled with NaN: the assembly writes or zeroes every
    # entry of its lower triangle and none above it, so the first entry
    # written in each column is its diagonal, and backed_bytes counts exactly
    # the pages written
    n = model.axes.free_dofs
    block = np.full((n, n), np.nan, order="F")
    model.assemble(model.quadratures(ExponentialKernel(2.5e-3), 0.5), block)
    first_written = np.argmax(~np.isnan(block), axis=0)
    np.testing.assert_array_equal(first_written, np.arange(n))
    assert _pages_written(block) == fem.backed_bytes(n)


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
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", n_elements)
    K_full, _ = _full_beam_assembly(model, LocalDelta(), 0.5)
    system = fem.assemble(model, LocalDelta(), 0.5)
    K_textbook = _textbook_local_timoshenko(SECTION, n_elements)
    perm = _interleave_permutation(n_elements + 1)
    expected = K_textbook[np.ix_(perm, perm)]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(K_full - expected)) <= 1e-10 * scale
    free_block = expected[np.ix_(system.free, system.free)]
    assert np.max(np.abs(np.tril(system.matrix) - np.tril(free_block))) <= 1e-10 * scale


def test_cantilever_load_and_constraints():
    model = TimoshenkoBeamModel(SECTION, 3.5, "cantilever_tip", 6)
    system = fem.assemble(model, LocalDelta(), 0.5)
    nn = 7
    expected = np.zeros(3 * nn)
    expected[nn + 6] = 3.5
    np.testing.assert_allclose(system.load, expected)
    fixed = np.setdiff1d(np.arange(3 * nn), system.free)
    assert fixed.tolist() == [0, nn, 2 * nn]


def test_udtl_consistent_load_and_constraints():
    model = TimoshenkoBeamModel(SECTION, 2.0, "ss_udtl", 4)
    system = fem.assemble(model, LocalDelta(), 0.5)
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
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 20)
    K, _ = _full_beam_assembly(model, kernel, 0.4)
    assert np.max(np.abs(K - K.T)) <= 1e-12 * np.max(np.abs(K))
    # the free block as the solver sees it: its product applied to unit vectors
    system = fem.assemble(model, kernel, 0.4)
    K_ff = system.product(np.eye(system.free.size))
    assert np.max(np.abs(K_ff - K_ff.T)) <= 1e-12 * np.max(np.abs(K_ff))


def test_rigid_body_modes_annihilated():
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 16)
    K, _ = _full_beam_assembly(model, ExponentialKernel(0.05), 0.3)
    nn = 17
    x = model.axes.x_axis.nodes
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
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 40)
    l_f = 0.05
    K, _ = _full_beam_assembly(model, ExponentialKernel(0.02), l_f)
    nodes = model.axes.x_axis.nodes
    h = model.axes.x_axis.spacing
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


def _rows(case, specs):
    """Columns of each row of a one-horizon sweep at l_f = 0.5, by name."""
    table = sweep(TimoshenkoBeamModel(SECTION, 1.0, case), specs, [0.5])
    return [dict(zip(table.columns, row)) for row in table.rows]


def test_local_cantilever_matches_analytic_tip_deflection():
    [row] = _rows("cantilever_tip", [KernelSpec("local")])
    expected = _analytic_cantilever_tip(SECTION, 1.0)
    assert expected == pytest.approx(1.3437e-6, rel=5e-4)
    assert row["w_max_local"] == pytest.approx(expected, rel=5e-3)
    assert row["w_max_nonlocal"] == row["w_max_local"]


def test_local_ss_udtl_matches_analytic_midspan_deflection():
    [row] = _rows("ss_udtl", [KernelSpec("local")])
    expected = _analytic_ss_udtl_midspan(SECTION, 1.0)
    assert row["w_max_local"] == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize(
    "spec",
    [KernelSpec("exponential", 1e-6), KernelSpec("power_law", 1.0)],
    ids=["exponential-collapsed", "power-law-alpha-1"],
)
@pytest.mark.parametrize("case", ["cantilever_tip", "ss_udtl"])
def test_local_limit_recovers_unit_softening_ratio(spec, case):
    [row] = _rows(case, [spec])
    assert row["w_bar"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("case", ["cantilever_tip", "ss_udtl"])
def test_nonlocal_kernels_soften_both_load_cases(case):
    exp, power = _rows(case, [KernelSpec("exponential", 2.5e-3), KernelSpec("power_law", 0.8)])
    assert exp["w_bar"] > 1.0
    assert power["w_bar"] > 1.0


def test_self_convergence_at_production_resolution():
    # the doubled mesh needs a looser residual tolerance: the attainable
    # float64 residual scales with the stiffness norm, which grows as 1/h
    kernel = ExponentialKernel(2.5e-3)
    coarse = fem.solve_metric(TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 200), kernel, 0.5)
    fine = fem.solve_metric(
        TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 400), kernel, 0.5, residual_tol=1e-9
    )
    assert abs(fine - coarse) / coarse < 5e-3


# ---------------------------------------------------------------------------
# strain evaluation
# ---------------------------------------------------------------------------

def _operator_on_mesh(mesh, kernel, l_f, points):
    return build_operator_matrix(mesh.nodes, points, l_f, kernel)


def test_strains_vanish_for_rigid_translation():
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 8)
    pts = np.linspace(0.07, 0.93, 11)
    op = _operator_on_mesh(model.axes.x_axis, ExponentialKernel(0.1), 0.3, pts)
    from strain_oracle import BeamDisplacement

    disp = BeamDisplacement(
        nodes=model.axes.x_axis.nodes,
        u0=np.zeros(9),
        w0=np.full(9, 0.37),
        theta=np.zeros(9),
    )
    eps, gamma = beam_strains(disp, op, z=0.02)
    np.testing.assert_allclose(eps, 0.0, atol=1e-14)
    np.testing.assert_allclose(gamma, 0.0, atol=1e-14)


def test_strains_vanish_for_rigid_rotation():
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 8)
    pts = np.linspace(0.07, 0.93, 11)
    op = _operator_on_mesh(model.axes.x_axis, ExponentialKernel(0.1), 0.3, pts)
    from strain_oracle import BeamDisplacement

    a = 0.004
    disp = BeamDisplacement(
        nodes=model.axes.x_axis.nodes,
        u0=np.zeros(9),
        w0=a * model.axes.x_axis.nodes,
        theta=np.full(9, a),
    )
    eps, gamma = beam_strains(disp, op, z=0.02)
    np.testing.assert_allclose(eps, 0.0, atol=1e-16)
    np.testing.assert_allclose(gamma, 0.0, atol=a * 1e-12)


def test_local_axial_strain_of_square_field():
    # nodal x^2 interpolant has slope 2*midpoint inside each element, which
    # the one-point rule samples exactly
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", 5)
    mesh = model.axes.x_axis
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    op = _operator_on_mesh(mesh, LocalDelta(), 0.3, mids)
    from strain_oracle import BeamDisplacement

    disp = BeamDisplacement(
        nodes=mesh.nodes, u0=mesh.nodes ** 2, w0=np.zeros(6), theta=np.zeros(6)
    )
    eps, _ = beam_strains(disp, op, z=0.0)
    np.testing.assert_allclose(eps, 2.0 * mids, rtol=1e-13)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_beam_sweep_local_row_is_exactly_unit():
    model = TimoshenkoBeamModel(SECTION, 1.0, "cantilever_tip", n_elements=20)
    assert sweep(model, [KernelSpec("local")], [0.5]).column("w_bar") == [1.0]
