import pathlib

import pytest
import yaml

from nle.config import ConfigError, parse_config
from nle.results import ALPHA_FLOOR

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

BEAM_MINIMAL = """
kernel:
  kind: exponential
  l0: 0.0025
horizon:
  l_f: 0.5
"""

SWEEP_BASIC = """
target: beam
kernels:
  - kind: exponential
    l0_grid: [0.001, 0.005]
  - kind: power_law
    alpha_grid: [0.9, 0.7]
  - kind: local
horizon:
  l_f_grid: [0.5, 1.0]
"""


def errors_of(text: str, subcommand: str) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(text, subcommand)
    return str(info.value)


# ---------------------------------------------------------------------------
# defaults
# ---------------------------------------------------------------------------

def test_beam_minimal_config_takes_production_defaults():
    cfg = parse_config(BEAM_MINIMAL, "beam")
    assert cfg.n_elements == 200
    assert cfg.load_case == "cantilever_tip"
    assert cfg.load_value == 1.0
    assert cfg.threads == 1
    assert cfg.beam_section.modulus == 30e9
    assert cfg.beam_section.poisson == 0.3
    assert cfg.beam_section.shear_correction == pytest.approx(5.0 / 6.0)
    assert cfg.beam_section.length == 1.0
    assert cfg.kernel_specs[0].kind == "exponential"
    assert cfg.kernel_specs[0].param == 0.0025
    assert cfg.l_f_grid == (0.5,)


def test_plate_minimal_config_takes_production_defaults():
    cfg = parse_config(BEAM_MINIMAL, "plate")
    assert (cfg.nx, cfg.ny) == (24, 24)
    assert cfg.boundary == "clamped"
    assert cfg.pressure == 1.0
    assert cfg.plate_section.length_x == 1.0
    assert cfg.plate_section.thickness == pytest.approx(0.1)


def test_dispersion_defaults_and_grid():
    cfg = parse_config(
        """
kernel:
  kind: power_law
  alpha: 0.75
k_grid:
  min: 1.0
  max: 100.0
""",
        "dispersion",
    )
    assert len(cfg.k_values) == 100
    assert cfg.k_values[0] == 1.0
    assert cfg.k_values[-1] == pytest.approx(100.0)
    assert cfg.density == 2500.0
    assert cfg.beam_section.modulus == 30e9


def test_scientific_notation_without_exponent_sign_is_accepted():
    cfg = parse_config(
        BEAM_MINIMAL
        + """
material:
  modulus: 70.0e9
""",
        "beam",
    )
    assert cfg.beam_section.modulus == 70e9


# ---------------------------------------------------------------------------
# rejection
# ---------------------------------------------------------------------------

def test_alpha_below_floor_is_rejected_with_the_floor_named():
    message = errors_of(
        """
kernel:
  kind: power_law
  alpha: 0.3
horizon:
  l_f: 0.5
""",
        "beam",
    )
    assert "admissibility floor" in message
    assert str(ALPHA_FLOOR) in message


def test_alpha_outside_unit_interval_is_rejected():
    message = errors_of(
        """
kernel:
  kind: power_law
  alpha: 1.5
horizon:
  l_f: 0.5
""",
        "beam",
    )
    assert "(0, 1]" in message


def test_negative_modulus_is_rejected():
    message = errors_of(
        BEAM_MINIMAL
        + """
material:
  modulus: -5.0
""",
        "beam",
    )
    assert "material.modulus" in message
    assert "positive" in message


def test_unknown_keys_are_rejected_with_their_path():
    message = errors_of(
        BEAM_MINIMAL
        + """
mesh:
  n_elements: 100
  n_elemnts: 100
stray: 1
""",
        "beam",
    )
    assert "mesh.n_elemnts: unknown key" in message
    assert "stray: unknown key" in message


def test_all_errors_are_collected_not_just_the_first():
    with pytest.raises(ConfigError) as info:
        parse_config(
            """
kernel:
  kind: power_law
  alpha: 0.2
horizon:
  l_f: -1.0
typo: true
""",
            "beam",
        )
    assert len(info.value.errors) == 3


def test_missing_kernel_parameter_is_required():
    message = errors_of("kernel: {kind: exponential}\nhorizon: {l_f: 0.5}", "beam")
    assert "kernel.l0: required" in message


def test_local_kernel_takes_no_parameter():
    cfg = parse_config("kernel: {kind: local}\nhorizon: {l_f: 0.5}", "beam")
    assert cfg.kernel_specs[0].kind == "local"
    assert cfg.kernel_specs[0].param is None
    message = errors_of("kernel: {kind: local, l0: 0.1}\nhorizon: {l_f: 0.5}", "beam")
    assert "kernel.l0: unknown key" in message


def test_boolean_is_not_a_number():
    message = errors_of("kernel: {kind: exponential, l0: true}\nhorizon: {l_f: 0.5}", "beam")
    assert "expected a number" in message


def test_midspan_load_requires_even_element_count():
    message = errors_of(
        """
kernel: {kind: local}
horizon: {l_f: 0.5}
load: {case: ss_udtl}
mesh: {n_elements: 201}
""",
        "beam",
    )
    assert "even" in message


def test_plate_center_metric_requires_even_mesh():
    message = errors_of(
        BEAM_MINIMAL + "mesh: {nx: 9, ny: 8}\n", "plate"
    )
    assert "mesh.nx" in message and "even" in message


def test_k_grid_must_be_ordered_and_positive():
    assert "k_grid.min" in errors_of(
        "kernel: {kind: local}\nk_grid: {min: 0.0, max: 10.0}", "dispersion"
    )
    assert "k_grid.max" in errors_of(
        "kernel: {kind: local}\nk_grid: {min: 10.0, max: 1.0}", "dispersion"
    )


def test_invalid_yaml_and_non_mapping_top_level():
    assert "not valid YAML" in errors_of("kernel: [unclosed", "beam")
    assert "expected a mapping" in errors_of("- just\n- a\n- list\n", "beam")


def test_unknown_subcommand_is_rejected():
    assert "unknown subcommand" in errors_of("{}", "frequency")


def test_threads_must_be_at_least_one():
    assert "threads" in errors_of(BEAM_MINIMAL + "threads: 0\n", "beam")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_sweep_kernel_grid_preserves_listed_order():
    cfg = parse_config(SWEEP_BASIC, "sweep")
    assert [(s.kind, s.param) for s in cfg.kernel_specs] == [
        ("exponential", 0.001),
        ("exponential", 0.005),
        ("power_law", 0.9),
        ("power_law", 0.7),
        ("local", None),
    ]
    assert cfg.l_f_grid == (0.5, 1.0)
    assert cfg.target == "beam"


def test_sweep_rejects_empty_kernel_list():
    message = errors_of(
        "target: beam\nkernels: []\nhorizon: {l_f_grid: [0.5]}", "sweep"
    )
    assert "kernels" in message


def test_sweep_grid_entries_are_validated():
    message = errors_of(
        """
target: plate
kernels:
  - kind: power_law
    alpha_grid: [0.8, 0.4]
horizon:
  l_f_grid: [0.5, -0.25]
""",
        "sweep",
    )
    assert "admissibility floor" in message
    assert "l_f_grid[1]" in message


def test_convergence_config_carries_refinements():
    cfg = parse_config(BEAM_MINIMAL + "refinements: 3\n", "convergence")
    assert cfg.refinements == 3
    assert cfg.target == "beam"
    assert cfg.kernel_specs[0].param == 0.0025


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name
)
def test_shipped_example_configs_are_valid(path):
    subcommand = path.name.split("_")[0]
    cfg = parse_config(path.read_text(encoding="utf-8"), subcommand)
    assert cfg.subcommand == subcommand
    assert cfg.kernel_specs


# ---------------------------------------------------------------------------
# YAML loaders: libyaml's when PyYAML has it, the pure-Python one otherwise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name
)
def test_shipped_configs_parse_alike_with_either_loader(path, monkeypatch):
    text, subcommand = path.read_text(encoding="utf-8"), path.name.split("_")[0]
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    with_c = parse_config(text, subcommand)
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert parse_config(text, subcommand) == with_c


def test_the_pure_python_loader_refuses_invalid_yaml(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    test_invalid_yaml_and_non_mapping_top_level()
