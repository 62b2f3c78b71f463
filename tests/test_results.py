import pytest

from nle import fem
from nle.beam import BeamSection, CantileverTipLoad, TimoshenkoBeamModel
from nle.kernels import LocalDelta
from nle.plate import MindlinPlateModel, PlateSection
from nle.results import KernelSpec, sweep

# model and kernel grid of each structure; the grid's first kernel needs a solve
MODELS = {
    "beam": (
        lambda: TimoshenkoBeamModel(BeamSection(), CantileverTipLoad(), n_elements=20),
        KernelSpec("exponential", 1e-3),
    ),
    "plate": (
        lambda: MindlinPlateModel(PlateSection(), 1.0, "clamped", nx=4, ny=4),
        KernelSpec("power_law", 0.8),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sweep_local_delta_rows_reuse_the_shared_local_solve(name, monkeypatch):
    kernels, solves = [], []
    assemble, solve = fem.assemble, fem.solve

    def counting_assemble(model, kernel, horizon_radius):
        kernels.append(kernel)
        return assemble(model, kernel, horizon_radius)

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "assemble", counting_assemble)
    monkeypatch.setattr(fem, "solve", counting_solve)
    build, nonlocal_spec = MODELS[name]
    grid = [nonlocal_spec, KernelSpec("power_law", 1.0), KernelSpec("local")]
    table = sweep(build(), grid, [0.5, 1.0])
    # one shared local solve plus one per row of the first kernel
    assert len(solves) == 3
    assert [type(k) for k in kernels].count(LocalDelta) == 1
    delta_rows = table.rows[2:]
    assert len(delta_rows) == 4
    w_local = table.rows[0][5]
    assert all(r[4] == w_local and r[5] == w_local and r[6] == 1.0 for r in delta_rows)

