import dataclasses
import os
import pathlib
import resource
import subprocess
import sys

import pytest
import yaml

from nle import config
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
    assert cfg.elements == (200,)
    assert cfg.case == "cantilever_tip"
    assert cfg.load == 1.0
    assert cfg.threads == 1
    assert cfg.section.modulus == 30e9
    assert cfg.section.poisson == 0.3
    assert cfg.section.shear_correction == pytest.approx(5.0 / 6.0)
    assert cfg.section.length == 1.0
    assert cfg.kernel_specs[0].kind == "exponential"
    assert cfg.kernel_specs[0].param == 0.0025
    assert cfg.l_f_grid == (0.5,)


def test_plate_minimal_config_takes_production_defaults():
    cfg = parse_config(BEAM_MINIMAL, "plate")
    assert cfg.elements == (24, 24)
    assert cfg.case == "clamped"
    assert cfg.load == 1.0
    assert cfg.section.length_x == 1.0
    assert cfg.section.thickness == pytest.approx(0.1)


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
    assert cfg.section.density == 2500.0
    assert cfg.section.modulus == 30e9


def test_scientific_notation_without_exponent_sign_is_accepted():
    cfg = parse_config(
        BEAM_MINIMAL
        + """
material:
  modulus: 70.0e9
""",
        "beam",
    )
    assert cfg.section.modulus == 70e9


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


def test_a_kernel_kind_that_is_not_a_name_is_rejected():
    message = errors_of("kernel: {kind: [exponential]}\nhorizon: {l_f: 0.5}", "beam")
    assert message == (
        "kernel.kind: must be one of exponential, power_law, local (got ['exponential'])"
    )


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
    # PyYAML raises ValueError, not YAMLError, from its int and date constructors
    digits = f"kernel: {{kind: exponential, l0: 1{'0' * 5000}}}\n"
    (line,) = errors_of(digits + "k_grid: {min: 1.0, max: 2.0}\n", "dispersion").splitlines()
    assert line.startswith("not valid YAML: ") and "5001 digits" in line
    assert errors_of(BEAM_MINIMAL + "output: 2020-13-45\n", "beam") == (
        "not valid YAML: month must be in 1..12"
    )


def test_unknown_subcommand_is_rejected():
    assert "unknown subcommand" in errors_of("{}", "frequency")


def test_threads_must_be_at_least_one():
    assert "threads" in errors_of(BEAM_MINIMAL + "threads: 0\n", "beam")


# Each document with the exact lines of its ConfigError, in order.  They pin
# the messages, paths and order of every section, kernel, mesh, load and grid
# check before any change to how the schema is read.
LOCAL = "kernel: {kind: local}\nhorizon: {l_f: 0.5}\n"
INVALID_DOCUMENTS = [
    (
        "beam_geometry",
        "beam",
        LOCAL + "geometry: {length: 0, width: -0.1, height: abc, depth: 1}\n",
        [
            "geometry.length: must be positive (got 0.0)",
            "geometry.width: must be positive (got -0.1)",
            "geometry.height: expected a number, got 'abc'",
            "geometry.depth: unknown key",
        ],
    ),
    (
        "beam_material",
        "beam",
        LOCAL + "material: {modulus: 0, poisson: 0.6, shear_correction: -1, density: 2500}\n",
        [
            "material.modulus: must be positive (got 0.0)",
            "material.shear_correction: must be positive (got -1.0)",
            "material.density: unknown key",
        ],
    ),
    (
        "plate_geometry",
        "plate",
        LOCAL + "geometry: {length_x: -1.0, thickness: 0, length: 1.0}\n",
        [
            "geometry.length_x: must be positive (got -1.0)",
            "geometry.thickness: must be positive (got 0.0)",
            "geometry.length: unknown key",
        ],
    ),
    (
        "plate_material",
        "plate",
        LOCAL + "material: {poisson: 0.5, modulus: 1.0e+9}\n",
        ["geometry/material: poisson ratio must lie in [0, 0.5) (got 0.5)"],
    ),
    (
        "single_kernel",
        "beam",
        "kernel: {kind: exponential, l0: -1.0, alpha: 0.5}\nhorizon: {l_f: 0}\n",
        [
            "kernel.l0: must be positive (got -1.0)",
            "kernel.alpha: unknown key",
            "horizon.l_f: must be positive (got 0.0)",
        ],
    ),
    (
        "single_power_law",
        "plate",
        "kernel: {kind: power_law, alpha: 1.5}\nhorizon: {}\n",
        [
            "kernel.alpha: power-law exponent must lie in (0, 1] (got 1.5)",
            "horizon.l_f: required",
        ],
    ),
    (
        "kernel_grid",
        "sweep",
        """
target: plate
kernels:
  - {kind: exponential, l0_grid: [1.0e-3, -1.0, x]}
  - {kind: power_law}
  - {kind: local, alpha_grid: [1.0]}
  - 3
horizon: {l_f_grid: []}
""",
        [
            "kernels[0].l0_grid[1]: must be positive (got -1.0)",
            "kernels[0].l0_grid[2]: expected a number, got 'x'",
            "kernels[1].alpha_grid: required",
            "kernels[2].alpha_grid: unknown key",
            "kernels[3]: expected a mapping, got int",
            "kernels[3].kind: required (one of exponential, power_law, local)",
            "horizon.l_f_grid: expected a nonempty list of numbers",
        ],
    ),
    (
        "beam_mesh_and_zero_load",
        "beam",
        LOCAL + "load: {case: ss_udtl, intensity: 0}\nmesh: {n_elements: 201}\n",
        [
            "load.intensity: must be nonzero",
            "mesh.n_elements: must be even for the midspan metric",
        ],
    ),
    (
        "cantilever_zero_load",
        "beam",
        LOCAL + "load: {case: cantilever_tip, magnitude: 0}\nmesh: {n_elements: 201}\n",
        ["load.magnitude: must be nonzero"],
    ),
    (
        "plate_mesh_and_zero_pressure",
        "plate",
        LOCAL + "load: {pressure: 0}\nmesh: {nx: 9, ny: 7}\nbc: {set: free}\n",
        [
            "bc.set: must be one of clamped, simply_supported (got 'free')",
            "load.pressure: must be nonzero",
            "mesh.nx: must be even for the center-node metric",
            "mesh.ny: must be even for the center-node metric",
        ],
    ),
    (
        "k_grid_order",
        "dispersion",
        "kernel: {kind: local}\nk_grid: {min: 10.0, max: 1.0, count: 0}\nmaterial: {density: 0}\n",
        [
            "material.density: must be positive (got 0.0)",
            "k_grid.count: must be >= 1 (got 0)",
            "k_grid.max: must be >= k_grid.min",
        ],
    ),
    (
        "k_grid_repeated_wavenumber",
        "dispersion",
        "kernel: {kind: power_law, alpha: 0.75}\nk_grid: {min: 5, max: 5, count: 3}\n",
        ["k_grid: the 3 wavenumbers from min to max are not distinct"],
    ),
    (
        "k_grid_wavenumbers_equal_after_rounding",
        "dispersion",
        "kernel: {kind: power_law, alpha: 0.75}\n"
        "k_grid: {min: 1.0, max: 1.0000000000000002, count: 3}\n",
        ["k_grid: the 3 wavenumbers from min to max are not distinct"],
    ),
    (
        "dispersion_material_overflow",
        "dispersion",
        "kernel: {kind: exponential, l0: 0.05}\nk_grid: {min: 1.0, max: 10.0}\n"
        "material: {modulus: 1.0e+300, density: 1.0e-10}\n",
        ["material: modulus / density overflows (got 1e+300 / 1e-10)"],
    ),
    (
        "integer_beyond_float_range",
        "beam",
        f"kernel: {{kind: exponential, l0: {10**400}}}\nhorizon: {{l_f: -{10**400}}}\n",
        ["kernel.l0: must be finite (got inf)", "horizon.l_f: must be finite (got -inf)"],
    ),
    (
        "mesh_count_beyond_indexing",
        "beam",
        LOCAL + f"mesh: {{n_elements: {10**20}}}\n",
        [f"mesh.n_elements: must be <= {sys.maxsize - 1} (got {10**20})"],
    ),
    (
        "mesh_count_beyond_float_range",
        "plate",
        LOCAL + f"mesh: {{nx: {10**400}, ny: 4}}\n",
        [f"mesh.nx: must be <= {sys.maxsize - 1} (got {10**400})"],
    ),
    (
        "non_finite_kernel_length",
        "beam",
        "kernel: {kind: exponential, l0: .inf}\nhorizon: {l_f: 0.5}\n",
        ["kernel.l0: must be finite (got inf)"],
    ),
    (
        "non_finite_section",
        "beam",
        LOCAL + "geometry: {length: .inf}\nmaterial: {modulus: -.inf}\n",
        [
            "geometry.length: must be finite (got inf)",
            "material.modulus: must be finite (got -inf)",
        ],
    ),
    (
        "non_finite_horizon_and_pressure",
        "plate",
        "kernel: {kind: exponential, l0: 2.5e-3}\nhorizon: {l_f: .inf}\nload: {pressure: .nan}\n",
        [
            "horizon.l_f: must be finite (got inf)",
            "load.pressure: must be finite (got nan)",
        ],
    ),
    (
        "non_finite_grids",
        "sweep",
        """
kernels:
  - {kind: exponential, l0_grid: [.inf, 1.0e-3]}
  - {kind: power_law, alpha_grid: [.nan]}
horizon: {l_f_grid: [.nan, 0.5]}
""",
        [
            "kernels[0].l0_grid[0]: must be finite (got inf)",
            "kernels[1].alpha_grid[0]: must be finite (got nan)",
            "horizon.l_f_grid[0]: must be finite (got nan)",
        ],
    ),
    (
        "unknown_keys",
        "beam",
        LOCAL + "mesh: {n_elemnts: 100}\nbc: {set: clamped}\nstray: 1\nthreads: 0\noutput: 3\n",
        [
            "threads: must be >= 1 (got 0)",
            "output: expected a file name, got 3",
            "mesh.n_elemnts: unknown key",
            "bc: unknown key",
            "stray: unknown key",
        ],
    ),
    (
        "empty_output",
        "beam",
        LOCAL + 'output: ""\n',
        ["output: must be a nonempty file name"],
    ),
    (
        "output_in_a_directory",
        "beam",
        LOCAL + "output: runs/tip.csv\n",
        ["output: must be a file name without a directory (got 'runs/tip.csv')"],
    ),
    (
        "output_over_the_manifest",
        "beam",
        LOCAL + "output: manifest.json\n",
        ["output: manifest.json is the run's manifest"],
    ),
    (
        "output_with_a_nul_byte",
        "beam",
        LOCAL + 'output: "a\\0b.csv"\n',
        ["output: must be a file name without a NUL byte"],
    ),
]


@pytest.mark.parametrize(
    "subcommand, text, lines",
    [case[1:] for case in INVALID_DOCUMENTS],
    ids=[case[0] for case in INVALID_DOCUMENTS],
)
def test_invalid_documents_give_exactly_these_errors(subcommand, text, lines):
    with pytest.raises(ConfigError) as info:
        parse_config(text, subcommand)
    assert list(info.value.errors) == lines


# Parses one document with 8 GiB available and prints the peak bytes it
# traced, then its errors.
PARSE_WITH_8_GIB = """
import sys, tracemalloc
from nle import config, fem
fem.available_memory = lambda: 8 * 2**30
tracemalloc.start()
try:
    config.parse_config(sys.stdin.read(), "dispersion")
except config.ConfigError as exc:
    print(tracemalloc.get_traced_memory()[1], *exc.errors, sep="\\n")
"""


def test_a_k_grid_that_cannot_fit_is_refused_before_it_is_built():
    # 3e8 wavenumbers take 9.6 GB as a tuple: the parse runs in a child capped
    # at 2 GB of address space, where building them ends in a MemoryError
    text = (
        "kernel: {kind: local}\nk_grid: {min: 1.0, max: 10.0, count: 300000000}\n"
        "material: {density: 0}\n"
    )
    cap = 2 * 10**9
    src = str(pathlib.Path(config.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PARSE_WITH_8_GIB],
        input=text,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    peak, *lines = proc.stdout.splitlines()
    assert int(peak) < 2**20
    assert lines == [
        "material.density: must be positive (got 0.0)",
        "k_grid.count: 300000000 wavenumbers need 83.8 GiB, "
        "but only 8.00 GiB of memory is available",
    ]


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


def test_alpha_grid_errors_name_the_item():
    message = errors_of(
        "target: beam\nkernels:\n  - {kind: power_law, alpha_grid: [0.8, 0.4]}\n"
        "horizon: {l_f_grid: [0.5]}\n",
        "sweep",
    )
    assert message.splitlines() == [
        "kernels[0].alpha_grid[1]: power-law exponent 0.4 is below the admissibility "
        f"floor {ALPHA_FLOOR}; the constitutive model degrades below it"
    ]


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


BEAM_SECTION = dict(
    length=1.0, width=0.1, height=0.1, modulus=30e9, poisson=0.3, shear_correction=5.0 / 6.0
)
PLATE_SECTION = dict(
    length_x=1.0, length_y=1.0, thickness=0.1, modulus=30e9, poisson=0.3, shear_correction=5.0 / 6.0
)
DISPERSION_MATERIAL = dict(modulus=30e9, density=2500.0)
GRID_KERNELS = (
    [("exponential", l0) for l0 in (1e-6, 1e-3, 2.5e-3, 5e-3)]
    + [("power_law", alpha) for alpha in (0.7, 0.8, 0.9, 1.0)]
    + [("local", None)]
)


def _recorded(subcommand, target, kernels, **fields):
    """Every field of a RunConfig as dataclasses.asdict gives it; unlisted ones unused."""
    return dict(
        dict(
            subcommand=subcommand,
            target=target,
            kernel_specs=tuple(dict(kind=kind, param=param) for kind, param in kernels),
            l_f_grid=(),
            section=None,
            case=None,
            load=None,
            elements=(),
            k_values=(),
            refinements=None,
            threads=1,
            output=None,
        ),
        **fields,
    )


BEAM = dict(section=BEAM_SECTION, case="cantilever_tip", load=1.0, elements=(200,))
PLATE = dict(section=PLATE_SECTION, case="clamped", load=1.0, elements=(24, 24))


def _k_grid(k_min, k_max, count):
    step = (k_max - k_min) / (count - 1)
    return tuple(k_min + step * i for i in range(count))


SHIPPED_VALUES = {
    "beam_cantilever.yaml": _recorded(
        "beam", "beam", [("exponential", 2.5e-3)], l_f_grid=(0.5,), **BEAM
    ),
    "convergence_beam.yaml": _recorded(
        "convergence",
        "beam",
        [("exponential", 2.5e-3)],
        l_f_grid=(0.5,),
        refinements=2,
        **BEAM,
    ),
    "convergence_plate.yaml": _recorded(
        "convergence",
        "plate",
        [("exponential", 2.5e-3)],
        l_f_grid=(0.5,),
        refinements=1,
        **PLATE,
    ),
    "dispersion_exponential.yaml": _recorded(
        "dispersion",
        "dispersion",
        [("exponential", 2.5e-3)],
        section=DISPERSION_MATERIAL,
        k_values=_k_grid(40.0, 2000.0, 100),
    ),
    "dispersion_power_law.yaml": _recorded(
        "dispersion",
        "dispersion",
        [("power_law", 0.75)],
        section=DISPERSION_MATERIAL,
        k_values=_k_grid(1.0, 10000.0, 100),
    ),
    "plate_simply_supported.yaml": _recorded(
        "plate",
        "plate",
        [("power_law", 0.8)],
        l_f_grid=(0.5,),
        **dict(PLATE, case="simply_supported"),
    ),
    "sweep_beam.yaml": _recorded(
        "sweep", "beam", GRID_KERNELS, l_f_grid=(0.5, 0.75, 1.0), **BEAM
    ),
    "sweep_plate.yaml": _recorded(
        "sweep", "plate", GRID_KERNELS, l_f_grid=(0.5, 0.75, 1.0), **PLATE
    ),
}


def test_every_shipped_config_is_recorded():
    assert sorted(SHIPPED_VALUES) == sorted(p.name for p in CONFIG_DIR.glob("*.yaml"))


@pytest.mark.parametrize("name", sorted(SHIPPED_VALUES))
def test_shipped_configs_parse_to_recorded_values(name):
    text, subcommand = (CONFIG_DIR / name).read_text(encoding="utf-8"), name.split("_")[0]
    assert dataclasses.asdict(parse_config(text, subcommand)) == SHIPPED_VALUES[name]


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
