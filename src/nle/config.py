"""Validated run configurations for the command line front end.

One YAML document per run.  Validation is schema-per-subcommand, collects
every problem instead of stopping at the first, and rejects unknown keys so
typos fail loudly rather than silently falling back to defaults.  Defaults
mirror the production setup: E = 30 GPa, nu = 0.3, shear correction 5/6,
unit spans, 200 beam elements, 24 x 24 plate elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .beam import FIXED_NODES, BeamSection
from .kernels import KERNEL_KINDS, power_law
from .plate import BOUNDARY_CONDITIONS, PlateSection
from .results import KernelSpec, check_alpha_floor

__all__ = ["ConfigError", "RunConfig", "parse_config", "SUBCOMMANDS", "LOAD_CASES"]

SUBCOMMANDS = ("dispersion", "beam", "plate", "sweep", "convergence")
LOAD_CASES = tuple(FIXED_NODES)


class ConfigError(ValueError):
    """All validation problems of one document, one message per line."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs of one run."""

    subcommand: str
    target: str
    kernel_specs: tuple[KernelSpec, ...]
    l_f_grid: tuple[float, ...] = ()
    beam_section: BeamSection | None = None
    plate_section: PlateSection | None = None
    density: float = 2500.0
    k_values: tuple[float, ...] = ()
    n_elements: int = 200
    nx: int = 24
    ny: int = 24
    load_case: str = "cantilever_tip"
    load_value: float = 1.0
    boundary: str = "clamped"
    pressure: float = 1.0
    refinements: int = 1
    threads: int = 1
    output: str | None = None


def _to_number(value) -> float | None:
    """Accept YAML numbers plus numeric strings like '30.0e9'.

    YAML 1.1 only recognizes exponents with an explicit sign, so PyYAML hands
    the common scientific shorthand back as a string.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


class _Block:
    """One mapping node: tracked key access, typed reads, error collection."""

    def __init__(self, data, path: str, errors: list[str]):
        self.data = data if isinstance(data, dict) else {}
        self.path = path
        self.errors = errors
        self.seen: set[str] = set()
        if data is not None and not isinstance(data, dict):
            errors.append(f"{path}: expected a mapping, got {type(data).__name__}")

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def raw(self, key: str, default=None):
        self.seen.add(key)
        return self.data.get(key, default)

    def number(self, key, default=None, *, positive=False, minimum=None, maximum=None):
        self.seen.add(key)
        if key not in self.data:
            if default is None:
                self.errors.append(f"{self._at(key)}: required")
            return default
        value = _to_number(self.data[key])
        if value is None:
            self.errors.append(
                f"{self._at(key)}: expected a number, got {self.data[key]!r}"
            )
            return default
        if positive and not value > 0.0:
            self.errors.append(f"{self._at(key)}: must be positive (got {value!r})")
        if minimum is not None and value < minimum:
            self.errors.append(f"{self._at(key)}: must be >= {minimum} (got {value!r})")
        if maximum is not None and value > maximum:
            self.errors.append(f"{self._at(key)}: must be <= {maximum} (got {value!r})")
        return value

    def integer(self, key, default=None, *, minimum=None):
        self.seen.add(key)
        if key not in self.data:
            if default is None:
                self.errors.append(f"{self._at(key)}: required")
            return default
        value = self.data[key]
        if isinstance(value, bool) or not isinstance(value, int):
            self.errors.append(f"{self._at(key)}: expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.errors.append(f"{self._at(key)}: must be >= {minimum} (got {value!r})")
        return value

    def choice(self, key, options, default=None):
        self.seen.add(key)
        if key not in self.data:
            if default is None:
                self.errors.append(f"{self._at(key)}: required (one of {', '.join(options)})")
            return default
        value = self.data[key]
        if value not in options:
            self.errors.append(
                f"{self._at(key)}: must be one of {', '.join(options)} (got {value!r})"
            )
            return default
        return value

    def number_list(self, key, *, positive=False):
        self.seen.add(key)
        if key not in self.data:
            self.errors.append(f"{self._at(key)}: required")
            return ()
        value = self.data[key]
        if not isinstance(value, list) or not value:
            self.errors.append(f"{self._at(key)}: expected a nonempty list of numbers")
            return ()
        out = []
        for i, item in enumerate(value):
            number = _to_number(item)
            if number is None:
                self.errors.append(f"{self._at(key)}[{i}]: expected a number, got {item!r}")
                continue
            if positive and not number > 0.0:
                self.errors.append(f"{self._at(key)}[{i}]: must be positive (got {item!r})")
                continue
            out.append(number)
        return tuple(out)

    def close(self) -> None:
        for key in sorted(set(self.data) - self.seen):
            self.errors.append(f"{self._at(key)}: unknown key")


def _check_alpha(alpha: float, where: str, errors: list[str]) -> None:
    # the kernel factory holds the (0, 1] range, results the sweep floor
    try:
        power_law(alpha)
        check_alpha_floor(alpha)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")


def _kernel_spec(block: _Block, errors: list[str]) -> KernelSpec | None:
    kind = block.choice("kind", KERNEL_KINDS)
    if kind == "exponential":
        l0 = block.number("l0", positive=True)
        block.close()
        return None if l0 is None else KernelSpec("exponential", l0)
    if kind == "power_law":
        alpha = block.number("alpha")
        if alpha is not None:
            _check_alpha(alpha, block._at("alpha"), errors)
        block.close()
        return None if alpha is None else KernelSpec("power_law", alpha)
    if kind == "local":
        block.close()
        return KernelSpec("local")
    block.close()
    return None


def _kernel_grid(raw, path: str, errors: list[str]) -> tuple[KernelSpec, ...]:
    if not isinstance(raw, list) or not raw:
        errors.append(f"{path}: expected a nonempty list of kernel entries")
        return ()
    specs: list[KernelSpec] = []
    for i, entry in enumerate(raw):
        block = _Block(entry, f"{path}[{i}]", errors)
        kind = block.choice("kind", KERNEL_KINDS)
        if kind == "exponential":
            for l0 in block.number_list("l0_grid", positive=True):
                specs.append(KernelSpec("exponential", l0))
        elif kind == "power_law":
            for alpha in block.number_list("alpha_grid"):
                _check_alpha(alpha, f"{path}[{i}].alpha_grid", errors)
                specs.append(KernelSpec("power_law", alpha))
        elif kind == "local":
            specs.append(KernelSpec("local"))
        block.close()
    return tuple(specs)


def _beam_section(top: _Block, errors: list[str]) -> BeamSection | None:
    geo = _Block(top.raw("geometry", {}), "geometry", errors)
    mat = _Block(top.raw("material", {}), "material", errors)
    kwargs = dict(
        length=geo.number("length", 1.0, positive=True),
        width=geo.number("width", 0.1, positive=True),
        height=geo.number("height", 0.1, positive=True),
        modulus=mat.number("modulus", 30e9, positive=True),
        poisson=mat.number("poisson", 0.3),
        shear_correction=mat.number("shear_correction", 5.0 / 6.0, positive=True),
    )
    geo.close()
    mat.close()
    try:
        return BeamSection(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"geometry/material: {exc}")
        return None


def _plate_section(top: _Block, errors: list[str]) -> PlateSection | None:
    geo = _Block(top.raw("geometry", {}), "geometry", errors)
    mat = _Block(top.raw("material", {}), "material", errors)
    kwargs = dict(
        length_x=geo.number("length_x", 1.0, positive=True),
        length_y=geo.number("length_y", 1.0, positive=True),
        thickness=geo.number("thickness", 0.1, positive=True),
        modulus=mat.number("modulus", 30e9, positive=True),
        poisson=mat.number("poisson", 0.3),
        shear_correction=mat.number("shear_correction", 5.0 / 6.0, positive=True),
    )
    geo.close()
    mat.close()
    try:
        return PlateSection(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"geometry/material: {exc}")
        return None


def _beam_load(top: _Block, errors: list[str]) -> tuple[str, float]:
    load = _Block(top.raw("load", {}), "load", errors)
    case = load.choice("case", LOAD_CASES, "cantilever_tip")
    if case == "ss_udtl":
        value = load.number("intensity", 1.0)
    else:
        value = load.number("magnitude", 1.0)
    if value is not None and value == 0.0:
        errors.append("load: magnitude must be nonzero")
    load.close()
    return case, value if value is not None else 1.0


def _beam_mesh(top: _Block, errors: list[str], case: str) -> int:
    mesh = _Block(top.raw("mesh", {}), "mesh", errors)
    n = mesh.integer("n_elements", 200, minimum=1)
    mesh.close()
    if case == "ss_udtl" and n is not None and n % 2:
        errors.append("mesh.n_elements: must be even for the midspan metric")
    return n if n is not None else 200


def _plate_mesh(top: _Block, errors: list[str]) -> tuple[int, int]:
    mesh = _Block(top.raw("mesh", {}), "mesh", errors)
    nx = mesh.integer("nx", 24, minimum=2)
    ny = mesh.integer("ny", 24, minimum=2)
    mesh.close()
    for name, n in (("nx", nx), ("ny", ny)):
        if n is not None and n % 2:
            errors.append(f"mesh.{name}: must be even for the center-node metric")
    return (nx if nx is not None else 24, ny if ny is not None else 24)


def _plate_bc(top: _Block, errors: list[str]) -> tuple[str, float]:
    bc = _Block(top.raw("bc", {}), "bc", errors)
    boundary = bc.choice("set", BOUNDARY_CONDITIONS, "clamped")
    bc.close()
    load = _Block(top.raw("load", {}), "load", errors)
    pressure = load.number("pressure", 1.0)
    if pressure is not None and pressure == 0.0:
        errors.append("load.pressure: must be nonzero")
    load.close()
    return boundary, pressure if pressure is not None else 1.0


def _structure(top: _Block, errors: list[str], target: str) -> dict:
    """Section, load or boundary set, and mesh of a beam or plate target."""
    if target == "beam":
        section = _beam_section(top, errors)
        case, value = _beam_load(top, errors)
        n_elements = _beam_mesh(top, errors, case)
        return dict(beam_section=section, load_case=case, load_value=value, n_elements=n_elements)
    section = _plate_section(top, errors)
    boundary, pressure = _plate_bc(top, errors)
    nx, ny = _plate_mesh(top, errors)
    return dict(plate_section=section, boundary=boundary, pressure=pressure, nx=nx, ny=ny)


def _single_kernel(top: _Block, errors: list[str]) -> tuple[KernelSpec, ...]:
    spec = _kernel_spec(_Block(top.raw("kernel", {}), "kernel", errors), errors)
    return (spec,) if spec is not None else ()


def _single_horizon(top: _Block, errors: list[str]) -> tuple[float, ...]:
    horizon = _Block(top.raw("horizon", {}), "horizon", errors)
    l_f = horizon.number("l_f", positive=True)
    horizon.close()
    return (l_f,) if l_f is not None else ()


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Validate one YAML document for one subcommand; collect all errors."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    # libyaml's parser when PyYAML was built with it: the same documents, about 8x faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        data = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not valid YAML: {exc}"]) from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])

    errors: list[str] = []
    top = _Block(data, "", errors)
    threads = top.integer("threads", 1, minimum=1)
    output = top.raw("output")
    if output is not None and not isinstance(output, str):
        errors.append(f"output: expected a file name, got {output!r}")
        output = None

    kwargs = dict(
        subcommand=subcommand,
        threads=threads if threads is not None else 1,
        output=output,
    )

    if subcommand == "dispersion":
        mat = _Block(top.raw("material", {}), "material", errors)
        modulus = mat.number("modulus", 30e9, positive=True)
        density = mat.number("density", 2500.0, positive=True)
        mat.close()
        specs = _single_kernel(top, errors)
        grid = _Block(top.raw("k_grid", {}), "k_grid", errors)
        k_min = grid.number("min", positive=True)
        k_max = grid.number("max", positive=True)
        count = grid.integer("count", 100, minimum=1)
        grid.close()
        k_values: tuple[float, ...] = ()
        if k_min is not None and k_max is not None:
            if k_max < k_min:
                errors.append("k_grid.max: must be >= k_grid.min")
            elif count is not None:
                step = (k_max - k_min) / (count - 1) if count > 1 else 0.0
                k_values = tuple(k_min + step * i for i in range(count))
        kwargs.update(
            target="dispersion",
            kernel_specs=specs,
            k_values=k_values,
            density=density if density is not None else 2500.0,
            # a non-positive modulus is already an error; build no section then
            beam_section=BeamSection(modulus=modulus) if modulus > 0.0 else None,
        )

    else:
        if subcommand in ("beam", "plate"):
            target = subcommand
        else:
            target = top.choice("target", ("beam", "plate"), "beam")
        if subcommand == "sweep":
            kwargs["kernel_specs"] = _kernel_grid(top.raw("kernels"), "kernels", errors)
            horizon = _Block(top.raw("horizon", {}), "horizon", errors)
            kwargs["l_f_grid"] = horizon.number_list("l_f_grid", positive=True)
            horizon.close()
        else:
            kwargs["kernel_specs"] = _single_kernel(top, errors)
            kwargs["l_f_grid"] = _single_horizon(top, errors)
        if subcommand == "convergence":
            refinements = top.integer("refinements", 1, minimum=1)
            kwargs["refinements"] = refinements if refinements is not None else 1
        kwargs.update(target=target, **_structure(top, errors, target))

    top.close()
    if errors:
        raise ConfigError(errors)
    return RunConfig(**kwargs)
