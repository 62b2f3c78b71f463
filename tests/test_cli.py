import ctypes
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from nle import beam, cli, dispersion, fem, plate
from nle.cli import (
    CONVERGENCE_RESIDUAL_TOL,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    main,
)
from nle.kernels import ExponentialKernel
from nle.operator import NonlocalOperatorMatrix
from nle.results import SweepResult

ROOT = Path(__file__).resolve().parent.parent

DISPERSION_YAML = """
material:
  modulus: 30.0e9
  density: 2500.0
kernel:
  kind: exponential
  l0: 0.001
k_grid:
  min: 100.0
  max: 5000.0
  count: 100
"""

BEAM_YAML = """
kernel:
  kind: exponential
  l0: 0.0025
horizon:
  l_f: 0.5
mesh:
  n_elements: 60
"""

SWEEP_YAML = """
target: beam
kernels:
  - kind: exponential
    l0_grid: [0.001, 0.0025]
  - kind: power_law
    alpha_grid: [0.9, 0.8]
  - kind: local
horizon:
  l_f_grid: [0.5, 1.0]
mesh:
  n_elements: 60
"""


def run(tmp_path, name, text, *extra):
    config = tmp_path / "run.yaml"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main([name, "--config", str(config), "--out", str(out), *extra])
    return code, out


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_dispersion_writes_one_row_per_grid_point(tmp_path):
    code, out = run(tmp_path, "dispersion", DISPERSION_YAML)
    assert code == EXIT_OK
    lines = (out / "dispersion.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,re_vp2,im_vp2,kernel,params"
    assert len(lines) == 101
    assert lines[1].endswith("exponential,l0=0.001")


def test_manifest_describes_the_run(tmp_path):
    code, out = run(tmp_path, "beam", BEAM_YAML)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["subcommand"] == "beam"
    assert manifest["csv"] == "beam.csv"
    assert manifest["rows"] == "1"
    assert manifest["n_elements"] == "60"
    assert "config_sha256" in manifest
    assert "tool_version" in manifest
    assert "wall_time_s" in manifest
    assert float(manifest["peak_rss_mib"]) > 0.0
    assert all(isinstance(v, str) for v in manifest.values())


def test_manifest_records_the_checkout_commit(tmp_path):
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT / "src" / "nle", capture_output=True, text=True
    )
    expected = head.stdout.strip() if head.returncode == 0 else "unknown"
    code, out = run(tmp_path, "beam", BEAM_YAML)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["git_commit"] == expected


@pytest.mark.parametrize(
    "git", [None, "#!/bin/sh\nexit 1\n", "#!/bin/sh\nexec /bin/sleep 60\n"],
    ids=["absent", "failing", "hanging"],
)
def test_manifest_commit_is_unknown_without_a_working_git(tmp_path, monkeypatch, git):
    monkeypatch.setattr(cli, "_GIT_TIMEOUT_S", 0.2)
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if git is not None:
        (bin_dir / "git").write_text(git, encoding="ascii")
        (bin_dir / "git").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    started = time.monotonic()
    code, out = run(tmp_path, "beam", BEAM_YAML)
    assert code == EXIT_OK
    assert time.monotonic() - started < 30.0  # a hanging git is killed, not waited for
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["git_commit"] == "unknown"


def test_manifest_counts_page_faults_and_records_the_malloc_thresholds(tmp_path):
    code, out = run(tmp_path, "sweep", SWEEP_YAML)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert int(manifest["minor_faults"]) >= 0
    assert manifest["malloc"] == "mmap_threshold=33554432 trim_threshold=67108864"


def test_a_c_library_without_mallopt_leaves_malloc_unchanged(tmp_path, monkeypatch):
    # only the CLI's view of ctypes loses mallopt; the BLAS pin keeps its own
    monkeypatch.setattr(
        cli, "ctypes", SimpleNamespace(CDLL=lambda name: object(), c_int=ctypes.c_int)
    )
    code, out = run(tmp_path, "sweep", SWEEP_YAML)
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["malloc"] == "unchanged"
    assert manifest["rows"] == "10"


def _count_calls(monkeypatch, owner, name: str) -> list:
    calls, fn = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize(
    "config, threads, most",
    [("sweep_beam.yaml", "1", 1), ("sweep_plate.yaml", "1", 1), ("sweep_beam.yaml", "2", 2)],
)
def test_a_shipped_sweep_allocates_one_block_per_thread(
    tmp_path, monkeypatch, config, threads, most
):
    # 13 solves, each assembling into the block an earlier solve left behind
    blocks = _count_calls(monkeypatch, fem, "dense_block")
    path = ROOT / "configs" / config
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path), "--threads", threads])
    assert code == EXIT_OK
    assert 1 <= len(blocks) <= most
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["solves"] == "13"


def test_shipped_beam_sweep_builds_the_shear_mass_once(tmp_path, monkeypatch):
    # 13 assemblies of 3 kernel-dependent Grams each, plus the model's N-N Gram
    grams = _count_calls(monkeypatch, beam, "gram")
    config = ROOT / "configs" / "sweep_beam.yaml"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == EXIT_OK
    assert len(grams) == 40


@pytest.mark.parametrize("config", ["sweep_beam.yaml", "sweep_plate.yaml"])
def test_shipped_sweep_manifest_counts_its_distinct_solves(tmp_path, config):
    # 27 rows on 13 operator sets: each exponential length builds one set at
    # every horizon, and exponential 1e-6, power law 1 and local build the
    # local set; the nine power-law rows below 1 differ
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(ROOT / "configs" / config), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["rows"] == "27"
    assert manifest["solves"] == "13"
    # the free block: 3 * 201 - 3 beam dofs, 5 * 23^2 clamped plate dofs.
    # Each backs only the pages of its lower triangle; a beam column (4,800
    # bytes) is longer than a page, so the beam's figure (2,850,816 bytes)
    # is nearly every page of the block.
    dofs, span, backed = {
        "sweep_beam.yaml": ("600", "2.7", "2.7"),
        "sweep_plate.yaml": ("2645", "53.4", "36.0"),
    }[config]
    assert manifest["block_dofs"] == dofs
    assert manifest["block_span_mib"] == span
    assert manifest["block_backed_mib"] == backed


def test_shipped_beam_convergence_manifest_describes_its_largest_block(tmp_path):
    # 800 elements at the last level: 3 * 801 - 3 dofs, of which the pages
    # of the lower triangle are backed
    out = tmp_path / "out"
    config = ROOT / "configs" / "convergence_beam.yaml"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    block = [manifest[key] for key in ("block_dofs", "block_span_mib", "block_backed_mib")]
    assert block == ["2400", "43.9", "30.1"]


def test_shipped_beam_sweep_builds_quadratures_once_per_saturated_key(tmp_path, monkeypatch):
    # 16 keys (kernel, min(l_f, reach)) over 28 configurations (27 rows and
    # the local companion): the 4 exponential lengths reach at most 0.2, below
    # every horizon, so each builds one key; 9 power-law rows below 1 and 3
    # local horizons (local and power law 1, the companion among them) build
    # the rest.  Each key builds the bending and the shear quadrature.
    rules, quadrature = [], beam.AxisQuadrature

    def counting(hats, *args):
        rules.append(hats.points.size // hats.mesh.n_elements)
        return quadrature(hats, *args)

    monkeypatch.setattr(beam, "AxisQuadrature", counting)
    config = ROOT / "configs" / "sweep_beam.yaml"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(rules) == 32
    assert sorted(rules) == [1] * 16 + [2] * 16


def test_shipped_beam_sweep_probes_memory_once_per_model_and_block(tmp_path, monkeypatch):
    # every system of the model has the same free block: one check of the
    # model before its first quadrature, one of dense_block's single block
    probes = _count_calls(monkeypatch, fem, "available_memory")
    config = ROOT / "configs" / "sweep_beam.yaml"
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert 1 <= len(probes) <= 2


# 8 x 8 clamped: 245 free dofs, at most 6 entries above the diagonal per
# column; four configurations, so two threads may hold two blocks
PLATE_8_SWEEP_YAML = """
target: plate
kernels:
  - kind: exponential
    l0_grid: [0.001, 0.0025]
horizon:
  l_f_grid: [0.5, 1.0]
mesh:
  nx: 8
  ny: 8
"""


@pytest.mark.parametrize("threads, code", [("1", EXIT_OK), ("2", EXIT_SOLVER)])
def test_a_sweep_checks_one_block_per_worker_before_it_factors(
    tmp_path, capsys, monkeypatch, threads, code
):
    # memory for one block and the BLAS margin, not for two blocks and it
    block, margin = fem.backed_bytes(245), fem.blas_margin(245)
    monkeypatch.setattr(fem, "available_memory", lambda: margin + block + block // 2)
    factored = _count_calls(monkeypatch, fem.linalg, "cho_factor")
    got, out = run(tmp_path, "sweep", PLATE_8_SWEEP_YAML, "--threads", threads)
    assert got == code
    if code == EXIT_OK:
        assert factored
        rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 4 and all(row.endswith(",ok") for row in rows)
    else:
        assert not factored
        assert "2 dense systems of 245 dofs need" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()


def test_beam_run_is_a_single_softening_row(tmp_path):
    code, out = run(tmp_path, "beam", BEAM_YAML)
    assert code == EXIT_OK
    header, row = (out / "beam.csv").read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["status"] == "ok"
    assert float(cells["w_bar"]) > 1.0


def test_csv_name_override(tmp_path):
    code, out = run(tmp_path, "beam", BEAM_YAML + "output: tip.csv\n")
    assert code == EXIT_OK
    assert (out / "tip.csv").exists()
    assert not (out / "beam.csv").exists()


def test_convergence_table_shape(tmp_path):
    code, out = run(tmp_path, "convergence", BEAM_YAML + "refinements: 1\n")
    assert code == EXIT_OK
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "target,resolution,w_metric,rel_change"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == ""
    assert float(lines[2].split(",")[3]) >= 0.0


def test_convergence_manifest_describes_the_largest_block(tmp_path):
    # 60 then 120 elements: the cantilever's last level has 3 * 121 - 3 dofs
    code, out = run(tmp_path, "convergence", BEAM_YAML + "refinements: 1\n")
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["block_dofs"] == "360"
    assert manifest["block_span_mib"] == manifest["block_backed_mib"] == "1.0"


def test_convergence_solves_only_the_reported_systems(tmp_path, monkeypatch):
    solves = []
    solve = fem.solve

    def counting_solve(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "solve", counting_solve)
    code, out = run(tmp_path, "convergence", BEAM_YAML + "refinements: 1\n")
    assert code == EXIT_OK
    # one nonlocal solve per resolution, no local companion
    assert len(solves) == 2
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    coarse = fem.solve_metric(
        beam.TimoshenkoBeamModel(beam.BeamSection(), 1.0, "cantilever_tip", 60),
        ExponentialKernel(0.0025),
        0.5,
        CONVERGENCE_RESIDUAL_TOL,
    )
    assert lines[1].split(",")[2] == repr(coarse)


def test_convergence_refines_a_non_square_plate_along_each_axis(tmp_path):
    # a clamped 2 x 1 plate on 4 x 2 elements, then 8 x 4: every level must
    # keep nx along the long side and ny along the short one
    text = (
        "target: plate\nkernel: {kind: exponential, l0: 2.5e-3}\nhorizon: {l_f: 0.5}\n"
        "geometry: {length_x: 2.0}\nmesh: {nx: 4, ny: 2}\nrefinements: 1\n"
    )
    code, out = run(tmp_path, "convergence", text)
    assert code == EXIT_OK
    lines = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [row[1] for row in rows] == ["4x2", "8x4"]
    section = plate.PlateSection(length_x=2.0)
    for row, (nx, ny) in zip(rows, [(4, 2), (8, 4)]):
        model = plate.MindlinPlateModel(section, 1.0, "clamped", nx, ny)
        metric = fem.solve_metric(
            model, ExponentialKernel(2.5e-3), 0.5, residual_tol=CONVERGENCE_RESIDUAL_TOL
        )
        assert row[2] == repr(metric)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_sweep_rows_are_byte_identical_across_runs_and_thread_counts(tmp_path):
    config = tmp_path / "run.yaml"
    config.write_text(SWEEP_YAML, encoding="utf-8")
    blobs = []
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / label
        code = main(
            ["sweep", "--config", str(config), "--out", str(out), "--threads", threads]
        )
        assert code == EXIT_OK
        blobs.append((out / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_shipped_beam_sweep_matches_the_reference_csv(tmp_path):
    out = tmp_path / "out"
    config = ROOT / "configs" / "sweep_beam.yaml"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
    reference = ROOT / "perfbench" / "reference" / "beam_sweep.csv"
    assert (out / "sweep.csv").read_bytes() == reference.read_bytes()


def test_shipped_plate_sweep_matches_the_reference_csv(tmp_path):
    out = tmp_path / "out"
    config = ROOT / "configs" / "sweep_plate.yaml"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
    reference = ROOT / "perfbench" / "reference" / "plate_sweep.csv"
    assert (out / "sweep.csv").read_bytes() == reference.read_bytes()


def test_shipped_plate_convergence_matches_the_reference_csv(tmp_path):
    # the 48x48 level factors an 11,045-dof block: about 6 s and 0.6 GiB
    out = tmp_path / "out"
    config = ROOT / "configs" / "convergence_plate.yaml"
    assert main(["convergence", "--config", str(config), "--out", str(out)]) == EXIT_OK
    reference = ROOT / "perfbench" / "reference" / "plate_convergence.csv"
    assert (out / "convergence.csv").read_bytes() == reference.read_bytes()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_reports_each_invariant(tmp_path, capsys):
    code, _ = run(tmp_path, "sweep", SWEEP_YAML, "--verify")
    assert code == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("verify")]
    names = {l.split()[2] for l in lines}
    assert all(l.split()[1] == "PASS" for l in lines)
    assert {
        "rows_complete",
        "softening_never_below_unit",
        "softening_strict_when_nonlocal",
        "local_limit_unit_ratio",
        "power_law_alpha_monotonicity",
        "power_law_horizon_monotonicity",
        "exponential_horizon_insensitivity",
    } <= names


def test_verify_failure_exits_with_its_own_code(tmp_path, capsys):
    # Two versus four elements is far from the converged tip deflection, so
    # the self-convergence invariant must fail.
    coarse = BEAM_YAML.replace("n_elements: 60", "n_elements: 2")
    code, _ = run(tmp_path, "convergence", coarse + "refinements: 1\n", "--verify")
    assert code == EXIT_VERIFY
    captured = capsys.readouterr()
    assert "verify FAIL self_convergence" in captured.out
    assert "category=VERIFY" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        (ROOT / "configs" / "dispersion_exponential.yaml").read_text(encoding="utf-8"),
        DISPERSION_YAML.replace("kind: exponential\n  l0: 0.001", "kind: local"),
    ],
    ids=["exponential", "local"],
)
def test_dispersion_verify_compares_with_the_production_operator(tmp_path, capsys, text):
    code, _ = run(tmp_path, "dispersion", text, "--verify")
    assert code == EXIT_OK
    assert "verify PASS dispersion_matches_operator" in capsys.readouterr().out


def test_dispersion_verify_fails_on_a_scaled_operator(tmp_path, capsys, monkeypatch):
    # operator weights 0.1% heavier move the oracle's relation by 0.2%; the
    # CSV prints the closed form, unchanged
    build = dispersion.build_operator_matrix

    def scaled(*args):
        op = build(*args)
        return NonlocalOperatorMatrix(op.weights * (1.0 + 1e-3), op.eval_points, op.nodes)

    monkeypatch.setattr(dispersion, "build_operator_matrix", scaled)
    text = (ROOT / "configs" / "dispersion_exponential.yaml").read_text(encoding="utf-8")
    code, _ = run(tmp_path, "dispersion", text, "--verify")
    assert code == EXIT_VERIFY
    assert "verify FAIL dispersion_matches_operator" in capsys.readouterr().out


POWER_LAW_DISPERSION_YAML = (ROOT / "configs" / "dispersion_power_law.yaml").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "grid",
    [None, "{min: 1.0e+10, max: 1.0000000000000004e+10, count: 3}"],
    ids=["shipped", "wavenumbers_one_log_ulp_apart"],
)
def test_power_law_dispersion_verify_passes_its_log_log_line(tmp_path, capsys, grid):
    # wavenumbers so close that their logs round equal must not divide by
    # a zero log step
    text = POWER_LAW_DISPERSION_YAML
    if grid is not None:
        text = text[: text.index("k_grid:")] + f"k_grid: {grid}\n"
    code, _ = run(tmp_path, "dispersion", text, "--verify")
    assert code == EXIT_OK
    assert "verify PASS dispersion_loglog_slope" in capsys.readouterr().out


def test_power_law_dispersion_verify_fails_on_one_spoiled_row(tmp_path, capsys, monkeypatch):
    closed_form = dispersion.dispersion_powerlaw

    def spoiled(k, material, alpha):
        vp2 = closed_form(k, material, alpha)
        return vp2 * (1.0 + 1e-6) if k == 10000.0 else vp2

    monkeypatch.setattr(dispersion, "dispersion_powerlaw", spoiled)
    code, _ = run(tmp_path, "dispersion", POWER_LAW_DISPERSION_YAML, "--verify")
    assert code == EXIT_VERIFY
    assert "verify FAIL dispersion_loglog_slope" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# failure categories
# ---------------------------------------------------------------------------

def test_invalid_config_reports_every_problem_and_exits_2(tmp_path, capsys):
    bad = """
kernel:
  kind: power_law
  alpha: 0.2
horizon:
  l_f: -1.0
stray: 1
"""
    code, _ = run(tmp_path, "beam", bad)
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "admissibility floor" in err
    assert "horizon.l_f" in err
    assert "stray: unknown key" in err
    assert "category=CONFIG" in err


def test_dispersion_with_a_non_positive_modulus_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "dispersion", DISPERSION_YAML.replace("30.0e9", "-5"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "material.modulus: must be positive" in err
    assert "error: category=CONFIG" in err


def test_a_config_that_is_not_utf8_exits_2_before_the_output_directory(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_bytes(BEAM_YAML.encode("utf-8") + b"# \xff\n")
    out = tmp_path / "out"
    assert main(["beam", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    offset = len(BEAM_YAML.encode("utf-8")) + 2
    assert f"config error: {config}: not UTF-8 at byte offset {offset}" in err
    assert err.endswith("error: category=CONFIG\n")
    assert not out.exists()


def test_missing_config_file_exits_4(tmp_path, capsys):
    code = main(["beam", "--config", str(tmp_path / "absent.yaml")])
    assert code == EXIT_IO
    assert "category=IO" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise fem.SolverError("synthetic breakdown")

    monkeypatch.setattr(fem, "solve", refuse)
    code, _ = run(tmp_path, "convergence", BEAM_YAML)
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "synthetic breakdown" in err
    assert "category=SOLVER" in err


def test_oversized_plate_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    # 16 x 16 clamped: 5 * 15 * 15 = 1125 free dofs, a 10 MB block; the
    # patched probe reports one byte less than that block needs.
    block = 8 * 1125**2
    monkeypatch.setattr(fem, "available_memory", lambda: block - 1)

    def no_factor(*args, **kwargs):
        raise AssertionError("factored a system that does not fit")

    monkeypatch.setattr(fem.linalg, "cho_factor", no_factor)
    text = (
        "target: plate\nkernel:\n  kind: exponential\n  l0: 2.5e-3\n"
        "horizon:\n  l_f: 0.5\nmesh:\n  nx: 16\n  ny: 16\nrefinements: 1\n"
    )
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "convergence", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_SOLVER
    assert peak < block // 4
    err = capsys.readouterr().err
    assert "dense system of 1125 dofs needs 0.01 GiB" in err
    assert "category=SOLVER" in err
    assert not (out / "convergence.csv").exists()


def test_oversized_beam_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    # 400-element cantilever: 3 * 401 - 3 = 1200 free dofs, a 11.5 MB block;
    # the patched probe reports one byte less than that block needs.
    block = 8 * 1200**2
    monkeypatch.setattr(fem, "available_memory", lambda: block - 1)

    def no_factor(*args, **kwargs):
        raise AssertionError("factored a system that does not fit")

    monkeypatch.setattr(fem.linalg, "cho_factor", no_factor)
    text = BEAM_YAML.replace("n_elements: 60", "n_elements: 400")
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "beam", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_SOLVER
    assert peak < block // 4
    err = capsys.readouterr().err
    assert "dense system of 1200 dofs needs 0.01 GiB" in err
    assert "category=SOLVER" in err
    assert not (out / "beam.csv").exists()


def test_a_beam_exits_3_before_allocating_without_room_for_its_rows_and_grams(
    tmp_path, capsys, monkeypatch
):
    # 1,600-element cantilever: 4,800 free dofs.  Memory for the block and
    # its BLAS margin is not enough: the model's row families and Grams
    # (held_bytes) come on top, and the check counts them first.
    model = beam.TimoshenkoBeamModel(beam.BeamSection(), 1.0, "cantilever_tip", 1600)
    n = model.axes.free_dofs
    block_only = fem.backed_bytes(n) + fem.blas_margin(n)
    need = block_only + model.held_bytes
    monkeypatch.setattr(fem, "available_memory", lambda: (block_only + need) // 2)
    quadratures = _count_calls(monkeypatch, beam, "AxisQuadrature")
    blocks = _count_calls(monkeypatch, fem, "dense_block")
    code, out = run(tmp_path, "beam", BEAM_YAML.replace("n_elements: 60", "n_elements: 1600"))
    assert code == EXIT_SOLVER
    assert not quadratures and not blocks
    err = capsys.readouterr().err
    assert "dense system of 4800 dofs needs" in err and "MiB of model arrays" in err
    assert not (out / "beam.csv").exists()


# 48 x 48 clamped: 5 * 47^2 = 11,045 free dofs; the block spans 0.91 GiB but
# backs only its lower triangle.
PLATE_48_YAML = (
    "kernel:\n  kind: exponential\n  l0: 2.5e-3\nhorizon:\n  l_f: 0.5\n"
    "bc:\n  set: clamped\nmesh:\n  nx: 48\n  ny: 48\n"
)
PLATE_48_DOFS = 11045


def test_a_48x48_plate_proceeds_with_memory_between_its_backed_and_spanned_bytes(
    tmp_path, capsys, monkeypatch
):
    backed = fem.backed_bytes(PLATE_48_DOFS)
    span = 8 * PLATE_48_DOFS**2
    margin = fem.blas_margin(PLATE_48_DOFS)
    assert backed + margin < span
    monkeypatch.setattr(fem, "available_memory", lambda: (backed + margin + span) // 2)
    factored = []

    def stop(a, *args, **kwargs):
        factored.append(a.shape)
        raise fem.SolverError("stopped at the factorization")

    monkeypatch.setattr(fem.linalg, "cho_factor", stop)
    code, _ = run(tmp_path, "plate", PLATE_48_YAML)
    assert code == EXIT_SOLVER
    assert factored == [(PLATE_48_DOFS, PLATE_48_DOFS)]
    assert "stopped at the factorization" in capsys.readouterr().err


def test_a_48x48_plate_exits_3_before_allocating_below_its_backed_bytes(
    tmp_path, capsys, monkeypatch
):
    backed = fem.backed_bytes(PLATE_48_DOFS)
    monkeypatch.setattr(fem, "available_memory", lambda: backed - 1)

    def no_factor(*args, **kwargs):
        raise AssertionError("factored a system that does not fit")

    monkeypatch.setattr(fem.linalg, "cho_factor", no_factor)
    tracemalloc.start()
    try:
        code, out = run(tmp_path, "plate", PLATE_48_YAML)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_SOLVER
    assert peak < backed // 100
    err = capsys.readouterr().err
    assert "dense system of 11045 dofs needs 0.50 GiB and 40 MiB of BLAS buffers" in err
    assert not (out / "plate.csv").exists()


def test_a_cgroup_memory_limit_is_honoured(tmp_path, capsys, monkeypatch):
    # 8 x 8 clamped: 245 free dofs, a 0.5 MB block, under a cgroup v2 limit
    # that leaves one byte less than the block's backed pages and the BLAS
    # margin (8.7 MiB)
    headroom = fem.backed_bytes(245) + fem.blas_margin(245) - 1
    proc = tmp_path / "cgroup"
    proc.write_text("0::/job\n", encoding="ascii")
    group = tmp_path / "fs" / "job"
    group.mkdir(parents=True)
    (group / "memory.max").write_text(f"{1 << 30}\n", encoding="ascii")
    (group / "memory.current").write_text(f"{(1 << 30) - headroom}\n", encoding="ascii")
    monkeypatch.setattr(fem, "_PROC_CGROUP", str(proc))
    monkeypatch.setattr(fem, "_CGROUP_ROOT", str(tmp_path / "fs"))
    text = PLATE_48_YAML.replace("48", "8")
    code, _ = run(tmp_path, "plate", text)
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "dense system of 245 dofs" in err and "only 0.01 GiB of memory is available" in err


def test_sweep_keeps_going_past_a_failed_row(tmp_path):
    # An exponential length far above the mesh-resolvable range trips the
    # solver's residual guarantee; the row records the failure and the rest
    # of the sweep still completes.
    wide = SWEEP_YAML.replace("[0.001, 0.0025]", "[0.001, 25.0]")
    code, out = run(tmp_path, "sweep", wide)
    assert code == EXIT_OK
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    statuses = [line.split(",")[-1] for line in lines[1:]]
    assert statuses.count("error:SolverError") == 2
    assert statuses.count("ok") == 8


def test_a_sweep_row_whose_horizon_vanishes_is_the_local_solution(tmp_path):
    # l_f = 1e-14 leaves both sides of every Gauss point under the snap
    # length; the rows are then the element gradients, so w_bar is exactly 1
    text = """
target: beam
kernels:
  - kind: exponential
    l0_grid: [1.0e-3]
horizon:
  l_f_grid: [0.5, 1.0e-14]
mesh:
  n_elements: 200
"""
    code, out = run(tmp_path, "sweep", text)
    assert code == EXIT_OK
    header, _, vanished = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), vanished.split(",")))
    assert (cells["l_f"], cells["w_bar"], cells["status"]) == ("1e-14", "1.0", "ok")


def test_nonsense_subcommand_is_refused_by_the_parser():
    with pytest.raises(SystemExit):
        main(["oscillate", "--config", "x.yaml"])


def test_module_entry_point_runs_the_cli():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "nle.cli", "--version"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "nle 0.1.0"


def test_importing_the_cli_leaves_out_scipy_integrate():
    # only the continuous operator uses adaptive quadrature, and no CLI path
    # calls it, so scipy.integrate must not load with the package
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, nle.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# verify lines, pinned
# ---------------------------------------------------------------------------

SOFTENING = ["rows_complete", "softening_never_below_unit", "softening_strict_when_nonlocal"]
SWEEP_CHECKS = SOFTENING + [
    "local_limit_unit_ratio",
    "power_law_alpha_monotonicity",
    "power_law_horizon_monotonicity",
    "exponential_horizon_insensitivity",
]
EXPONENTIAL_DISPERSION = [
    "dispersion_real",
    "dispersion_bounded_by_local",
    "dispersion_monotone_in_k",
    "dispersion_matches_operator",
]


@pytest.mark.parametrize(
    "config, subcommand, names",
    [
        ("beam_cantilever", "beam", SOFTENING),
        ("convergence_beam", "convergence", ["self_convergence"]),
        ("dispersion_exponential", "dispersion", EXPONENTIAL_DISPERSION),
        ("dispersion_power_law", "dispersion", ["dispersion_loglog_slope", "dispersion_phase_angle"]),
        ("plate_simply_supported", "plate", SOFTENING),
        ("sweep_beam", "sweep", SWEEP_CHECKS),
        ("sweep_plate", "sweep", SWEEP_CHECKS),
    ],
)
def test_shipped_configs_print_exactly_these_verify_lines(tmp_path, capsys, config, subcommand, names):
    path = ROOT / "configs" / f"{config}.yaml"
    code = main([subcommand, "--config", str(path), "--out", str(tmp_path), "--verify"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [f"verify PASS {name}" for name in names]


def verify_lines(tmp_path, capsys, monkeypatch, subcommand, text, result):
    """Exit code and stdout lines of `--verify` on a hand-built result table."""
    monkeypatch.setattr(cli, "_produce", lambda cfg, threads: result)
    code, _ = run(tmp_path, subcommand, text, "--verify")
    return code, capsys.readouterr().out.splitlines()


def fails(lines, name, detail):
    """lines with the PASS line of name turned into its FAIL line."""
    return [f"verify FAIL {name}: {detail}" if l == f"verify PASS {name}" else l for l in lines]


# kernel, param, l_f, w_bar of a sweep table on which every sweep check applies and passes
SWEEP_ROWS = [
    ("exponential", 1e-5, 0.5, 1.0),
    ("exponential", 1e-5, 1.0, 1.0),
    ("exponential", 0.01, 0.5, 1.2),
    ("exponential", 0.01, 1.0, 1.2),
    ("power_law", 0.9, 0.5, 1.1),
    ("power_law", 0.9, 1.0, 1.2),
    ("power_law", 0.8, 0.5, 1.3),
    ("power_law", 0.8, 1.0, 1.4),
    ("local", None, 0.5, 1.0),
    ("local", None, 1.0, 1.0),
]


def sweep_table(rows, errors=()):
    """A beam sweep table of rows; the rows at the indices in errors carry an error status."""
    table = []
    for i, (kind, param, l_f, w_bar) in enumerate(rows):
        if i in errors:
            table.append((kind, param, l_f, "cantilever_tip", None, None, None, "error:SolverError"))
        else:
            table.append((kind, param, l_f, "cantilever_tip", 1e-6 * w_bar, 1e-6, w_bar, "ok"))
    return SweepResult(columns=beam.BEAM_SWEEP_COLUMNS, rows=table, metadata={})


def spoiled(rows, index, w_bar):
    return [r if i != index else r[:3] + (w_bar,) for i, r in enumerate(rows)]


SWEEP_PASS = [f"verify PASS {name}" for name in SWEEP_CHECKS]
SWEEP_SPOILS = {
    "rows_complete": (SWEEP_ROWS, (9,), "1 of 10 rows carry an error status"),
    "softening_never_below_unit": (
        spoiled(SWEEP_ROWS, 0, 1.0 - 1e-6),
        (),
        "a nonlocal run deflected less than its local companion",
    ),
    "softening_strict_when_nonlocal": (
        spoiled(spoiled(SWEEP_ROWS, 2, 1.0), 3, 1.0),
        (),
        "a genuinely nonlocal run failed to soften",
    ),
    "local_limit_unit_ratio": (
        spoiled(SWEEP_ROWS, 8, 1.01),
        (),
        "a near-local run left the unit ratio by more than 0.001",
    ),
    "power_law_alpha_monotonicity": (
        spoiled(SWEEP_ROWS, 6, 1.1),
        (),
        "softening must strictly grow as the exponent decreases",
    ),
    "power_law_horizon_monotonicity": (
        spoiled(SWEEP_ROWS, 5, 1.1),
        (),
        "softening must strictly grow with the horizon radius",
    ),
    "exponential_horizon_insensitivity": (
        spoiled(SWEEP_ROWS, 3, 1.25),
        (),
        "a short-range kernel varied by more than 1% across horizons",
    ),
}


def test_a_hand_built_sweep_passes_every_sweep_check(tmp_path, capsys, monkeypatch):
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, sweep_table(SWEEP_ROWS))
    assert (code, lines) == (EXIT_OK, SWEEP_PASS)


@pytest.mark.parametrize("name", list(SWEEP_SPOILS))
def test_each_sweep_check_prints_its_fail_line(tmp_path, capsys, monkeypatch, name):
    rows, errors, detail = SWEEP_SPOILS[name]
    result = sweep_table(rows, errors)
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, result)
    assert (code, lines) == (EXIT_VERIFY, fails(SWEEP_PASS, name, detail))


@pytest.mark.parametrize(
    "rows, failing",
    [
        (SWEEP_ROWS[2:], ["softening_never_below_unit", "softening_strict_when_nonlocal"]),
        (SWEEP_ROWS, ["softening_never_below_unit", "local_limit_unit_ratio"]),
    ],
    ids=["nontrivial_exponential", "trivial_exponential"],
)
def test_a_nan_softening_ratio_fails_every_check_it_enters(tmp_path, capsys, monkeypatch, rows, failing):
    # the NaN row is the first exponential row, so it enters the horizon check too
    result = sweep_table(spoiled(rows, 0, float("nan")))
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, result)
    assert code == EXIT_VERIFY
    failed = [l.split()[2].rstrip(":") for l in lines if l.startswith("verify FAIL")]
    assert failed == failing + ["exponential_horizon_insensitivity"]


def test_a_sweep_without_an_ok_row_prints_only_rows_complete(tmp_path, capsys, monkeypatch):
    result = sweep_table(SWEEP_ROWS, errors=range(10))
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, result)
    assert (code, lines) == (EXIT_VERIFY, ["verify FAIL rows_complete: 10 of 10 rows carry an error status"])


@pytest.mark.parametrize(
    "rows, names",
    [
        ([SWEEP_ROWS[4]], SOFTENING),
        ([SWEEP_ROWS[0]], ["rows_complete", "softening_never_below_unit", "local_limit_unit_ratio"]),
        (
            SWEEP_ROWS[::2],
            SWEEP_CHECKS[:5],
        ),
    ],
    ids=["one_nonlocal_row", "one_trivial_row", "one_horizon"],
)
def test_checks_that_need_two_rows_stay_absent(tmp_path, capsys, monkeypatch, rows, names):
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, sweep_table(rows))
    assert (code, lines) == (EXIT_OK, [f"verify PASS {name}" for name in names])


def dispersion_table(rows, kind, params):
    return SweepResult(
        columns=cli.DISPERSION_COLUMNS,
        rows=[(k, vp2.real, vp2.imag, kind, params) for k, vp2 in rows],
        metadata={"model": "dispersion"},
    )


MATERIAL = dispersion.Material1D(30.0e9, 2500.0)
C2 = MATERIAL.local_velocity_sq
EXPONENTIAL_KS = [1.0e-4, 1000.0, 1000.001, 2000.0]
EXPONENTIAL_ROWS = [(k, dispersion.dispersion_exponential(k, MATERIAL, 1e-3)) for k in EXPONENTIAL_KS]
POWER_LAW_ROWS = [(k, dispersion.dispersion_powerlaw(k, MATERIAL, 0.75)) for k in (1.0, 10.0, 100.0)]
LOCAL_ROWS = [(k, complex(C2, 0.0)) for k in (100.0, 1000.0)]


def changed(rows, index, vp2):
    return [(k, vp2 if i == index else v) for i, (k, v) in enumerate(rows)]


DISPERSION_SPOILS = {
    "dispersion_real": (
        "exponential",
        changed(EXPONENTIAL_ROWS, 3, EXPONENTIAL_ROWS[3][1] + 1e-3j),
        "imaginary part beyond rounding for a real branch",
    ),
    "dispersion_bounded_by_local": (
        "exponential",
        changed(EXPONENTIAL_ROWS, 0, complex(C2 * (1.0 + 2e-12))),
        "squared phase velocity leaves (0, E/rho]",
    ),
    "dispersion_monotone_in_k": (
        "exponential",
        changed(EXPONENTIAL_ROWS, 2, EXPONENTIAL_ROWS[1][1] + 1e-9 * C2),
        "squared phase velocity must not grow with wavenumber",
    ),
    "dispersion_matches_operator": (
        "exponential",
        changed(EXPONENTIAL_ROWS, 1, EXPONENTIAL_ROWS[1][1] * 1.5),
        "the operator's relation leaves the printed one by 3.33e-01 (> 1e-4)",
    ),
    "dispersion_loglog_slope": (
        "power_law",
        changed(POWER_LAW_ROWS, 1, POWER_LAW_ROWS[1][1] * (1.0 + 1e-6)),
        "log-log slope deviates from -0.5",
    ),
    "dispersion_phase_angle": (
        "power_law",
        changed(POWER_LAW_ROWS, 2, POWER_LAW_ROWS[2][1] * complex(math.cos(1e-6), math.sin(1e-6))),
        "complex phase deviates from pi*(1+alpha)",
    ),
    "dispersion_local_constant": (
        "local",
        changed(LOCAL_ROWS, 1, complex(C2 * (1.0 + 1e-9))),
        "local branch must equal E/rho at every wavenumber",
    ),
}
DISPERSION_KERNELS = {
    "exponential": ("kind: exponential\n  l0: 1.0e-3", "l0=0.001", EXPONENTIAL_ROWS, EXPONENTIAL_DISPERSION),
    "power_law": (
        "kind: power_law\n  alpha: 0.75",
        "alpha=0.75",
        POWER_LAW_ROWS,
        ["dispersion_loglog_slope", "dispersion_phase_angle"],
    ),
    "local": ("kind: local", "", LOCAL_ROWS, ["dispersion_local_constant", "dispersion_matches_operator"]),
}


def dispersion_yaml(kind):
    return DISPERSION_YAML.replace("kind: exponential\n  l0: 0.001", DISPERSION_KERNELS[kind][0])


@pytest.mark.parametrize("kind", list(DISPERSION_KERNELS))
def test_a_hand_built_dispersion_table_passes_its_checks(tmp_path, capsys, monkeypatch, kind):
    _, params, rows, names = DISPERSION_KERNELS[kind]
    result = dispersion_table(rows, kind, params)
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "dispersion", dispersion_yaml(kind), result)
    assert (code, lines) == (EXIT_OK, [f"verify PASS {name}" for name in names])


@pytest.mark.parametrize("name", list(DISPERSION_SPOILS))
def test_each_dispersion_check_prints_its_fail_line(tmp_path, capsys, monkeypatch, name):
    kind, rows, detail = DISPERSION_SPOILS[name]
    _, params, _, names = DISPERSION_KERNELS[kind]
    result = dispersion_table(rows, kind, params)
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "dispersion", dispersion_yaml(kind), result)
    expected = fails([f"verify PASS {n}" for n in names], name, detail)
    assert (code, lines) == (EXIT_VERIFY, expected)


@pytest.mark.parametrize(
    "changes, line",
    [
        ([None, 1e-2, 4e-3], "verify PASS self_convergence"),
        ([None, 4e-3, 6e-3], "verify FAIL self_convergence: last doubling changed the metric by 6.000e-03 (> 5e-3)"),
        ([None], "verify FAIL self_convergence: needs at least one refinement"),
    ],
    ids=["converged", "last_doubling_too_large", "no_refinement"],
)
def test_self_convergence_reads_the_last_doubling(tmp_path, capsys, monkeypatch, changes, line):
    rows = [("beam", str(60 * 2**i), 1e-6, change) for i, change in enumerate(changes)]
    result = SweepResult(columns=cli.CONVERGENCE_COLUMNS, rows=rows, metadata={})
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "convergence", BEAM_YAML, result)
    assert (code, lines) == (EXIT_OK if "PASS" in line else EXIT_VERIFY, [line])


# ---------------------------------------------------------------------------
# verify records in the manifest
# ---------------------------------------------------------------------------

def manifest_of(out):
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def test_the_manifest_records_what_each_sweep_check_measured(tmp_path, capsys):
    config = str(ROOT / "configs" / "sweep_beam.yaml")
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "plain")]) == EXIT_OK
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "checked"), "--verify"]) == EXIT_OK
    plain, checked = manifest_of(tmp_path / "plain"), manifest_of(tmp_path / "checked")
    records = {k: v for k, v in checked.items() if k.startswith("verify.")}
    assert not any(k.startswith("verify.") for k in plain)
    assert set(checked) - set(records) == set(plain)
    assert list(records) == sorted(f"verify.{name}" for name in SWEEP_CHECKS)
    # the trivial rows and the short exponential lengths share one solve each
    assert records["verify.local_limit_unit_ratio"] == "0 <= 1e-03 PASS"
    assert records["verify.exponential_horizon_insensitivity"] == "0 <= 1e-02 PASS"
    assert records["verify.rows_complete"] == "0 <= 0 PASS"
    assert records["verify.power_law_alpha_monotonicity"] == "0 <= 0 PASS"
    # min(w_bar) - 1 over the nontrivial rows of the reference sweep
    reference = (ROOT / "perfbench" / "reference" / "beam_sweep.csv").read_text(encoding="utf-8")
    header, *rows = (line.split(",") for line in reference.splitlines())
    cells = [dict(zip(header, row)) for row in rows]
    least = min(
        float(c["w_bar"])
        for c in cells
        if (c["kernel"] == "exponential" and float(c["param"]) > cli.TRIVIAL_L0)
        or (c["kernel"] == "power_law" and float(c["param"]) < 1.0)
    )
    assert least - 1.0 == pytest.approx(1.183191237186243e-05, rel=1e-12)
    assert records["verify.softening_strict_when_nonlocal"] == "1.18e-05 > 0 PASS"


def test_the_manifest_records_each_shipped_dispersion_margin(tmp_path, capsys):
    config = str(ROOT / "configs" / "dispersion_exponential.yaml")
    assert main(["dispersion", "--config", config, "--out", str(tmp_path), "--verify"]) == EXIT_OK
    records = {k: v for k, v in manifest_of(tmp_path).items() if k.startswith("verify.")}
    assert records == {
        "verify.dispersion_real": "0 <= 1.2e-05 PASS",
        "verify.dispersion_bounded_by_local": "0 <= 0 PASS",
        "verify.dispersion_monotone_in_k": "0 <= 0 PASS",
        "verify.dispersion_matches_operator": "2.91e-06 <= 1e-04 PASS",
    }


@pytest.mark.parametrize(
    "name, record",
    [
        ("rows_complete", "1 <= 0 FAIL"),
        ("softening_never_below_unit", "-1e-06 >= -1e-09 FAIL"),
        ("softening_strict_when_nonlocal", "0 > 0 FAIL"),
        ("local_limit_unit_ratio", "1e-02 <= 1e-03 FAIL"),
        ("power_law_alpha_monotonicity", "1 <= 0 FAIL"),
        ("exponential_horizon_insensitivity", "4.17e-02 <= 1e-02 FAIL"),
    ],
)
def test_a_spoiled_row_records_its_measured_value(tmp_path, capsys, monkeypatch, name, record):
    rows, errors, _ = SWEEP_SPOILS[name]
    verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, sweep_table(rows, errors))
    assert manifest_of(tmp_path / "out")[f"verify.{name}"] == record


def test_a_nan_after_the_first_row_of_its_group_fails_the_horizon_check(
    tmp_path, capsys, monkeypatch
):
    # Python's max keeps its first argument against a NaN; the check must not
    result = sweep_table(spoiled(SWEEP_ROWS, 3, float("nan")))
    code, lines = verify_lines(tmp_path, capsys, monkeypatch, "sweep", SWEEP_YAML, result)
    assert code == EXIT_VERIFY
    assert "verify FAIL exponential_horizon_insensitivity: " + SWEEP_SPOILS[
        "exponential_horizon_insensitivity"
    ][2] in lines
    assert manifest_of(tmp_path / "out")["verify.exponential_horizon_insensitivity"] == (
        "nan <= 1e-02 FAIL"
    )


def test_a_beam_whose_elements_are_subnormal_exits_2(tmp_path, capsys):
    text = BEAM_YAML.replace("n_elements: 60", "n_elements: 4") + "geometry:\n  length: 5.0e-324\n"
    code, _ = run(tmp_path, "beam", text)
    assert code == EXIT_CONFIG
    assert "config error: mesh.n_elements: 4 elements of length 5e-324 are below float range" in (
        capsys.readouterr().err
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_plate_whose_deflection_underflows_exits_3(tmp_path, capsys):
    # a 1e-300 m span carries a load of 0 after rounding, so the local
    # deflection that every softening ratio divides by is 0
    text = BEAM_YAML.replace("n_elements: 60", "nx: 4\n  ny: 2") + "geometry:\n  length_x: 1.0e-300\n"
    code, out = run(tmp_path, "plate", text)
    assert code == EXIT_SOLVER
    assert "solver error: the metric |u| at dof" in capsys.readouterr().err
    assert not (out / "plate.csv").exists()


def test_a_squared_velocity_that_overflows_fails_the_operator_check(tmp_path, capsys):
    # E / rho overflows to inf, so the relation is inf and its gap to the
    # oracle NaN; Python's max used to drop that NaN and pass the check
    text = DISPERSION_YAML.replace("30.0e9", "1.0e+300").replace("2500.0", "1.0e-10")
    text = text.replace("count: 100", "count: 3")
    code, out = run(tmp_path, "dispersion", text, "--verify")
    assert code == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (
        "verify FAIL dispersion_matches_operator: "
        "the operator's relation leaves the printed one by nan (> 1e-4)"
    )
    assert manifest_of(out)["verify.dispersion_matches_operator"] == "nan <= 1e-04 FAIL"
