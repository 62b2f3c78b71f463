import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from nle import beam, fem
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
    assert all(isinstance(v, str) for v in manifest.values())


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
        beam.TimoshenkoBeamModel(beam.BeamSection(), beam.CantileverTipLoad(), 60),
        ExponentialKernel(0.0025),
        0.5,
        CONVERGENCE_RESIDUAL_TOL,
    )
    assert lines[1].split(",")[2] == repr(coarse)


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
