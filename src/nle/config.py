"""Validated run configurations for the command line front end.

One YAML document per run.  Validation is schema-per-subcommand, collects
every problem instead of stopping at the first, and rejects unknown keys so
typos fail loudly rather than silently falling back to defaults.  Defaults
mirror the production setup: E = 30 GPa, nu = 0.3, shear correction 5/6,
unit spans, 200 beam elements, 24 x 24 plate elements.  The keys, order and
defaults of `geometry:` and `material:` are the fields of BeamSection and
PlateSection, and each kernel's parameter is named by KERNEL_PARAMS.  A
RunConfig field that the subcommand does not use holds None or ().
"""

from __future__ import annotations

import dataclasses
import math
import sys

import yaml

from .beam import LOAD_CASES, MIDSPAN_CASES, VALUE_KEYS, BeamSection
from .dispersion import Material1D
from .kernels import KERNEL_KINDS, KERNEL_PARAMS, power_law
from .plate import BOUNDARY_CONDITIONS, PlateSection
from .results import KernelSpec, check_alpha_floor

__all__ = ["ConfigError", "RunConfig", "parse_config", "SUBCOMMANDS"]

SUBCOMMANDS = ("dispersion", "beam", "plate", "sweep", "convergence")

# The run's manifest, written beside its CSV, so no CSV may take its name.
MANIFEST_NAME = "manifest.json"

# The fields of BeamSection and PlateSection read under `material:`.
_MATERIAL = ("modulus", "poisson", "shear_correction")


class ConfigError(ValueError):
    """All validation problems of one document, one message per line."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclasses.dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully validated inputs of one run.

    A beam or plate is its section, load case or boundary set, load value or
    pressure, and element counts, (n_elements,) or (nx, ny); material is a
    dispersion run's solid.  A field the subcommand does not use is None or ().
    """

    subcommand: str
    target: str
    kernel_specs: tuple[KernelSpec, ...]
    l_f_grid: tuple[float, ...] = ()
    section: BeamSection | PlateSection | None = None
    case: str | None = None
    load: float | None = None
    elements: tuple[int, ...] = ()
    material: Material1D | None = None
    k_values: tuple[float, ...] = ()
    refinements: int | None = None
    threads: int
    output: str | None


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

    def block(self, key: str) -> "_Block":
        """The mapping under key, empty when absent."""
        return _Block(self.raw(key, {}), self._at(key), self.errors)

    def number(self, key, default=None, *, positive=False, minimum=None):
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
        if not math.isfinite(value):
            self.errors.append(f"{self._at(key)}: must be finite (got {value!r})")
            return default
        if positive and not value > 0.0:
            self.errors.append(f"{self._at(key)}: must be positive (got {value!r})")
        if minimum is not None and value < minimum:
            self.errors.append(f"{self._at(key)}: must be >= {minimum} (got {value!r})")
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

    def number_list(self, key, *, positive=False) -> dict[str, float]:
        """The valid items of the list under key, keyed by their paths, in listed order."""
        self.seen.add(key)
        if key not in self.data:
            self.errors.append(f"{self._at(key)}: required")
            return {}
        value = self.data[key]
        if not isinstance(value, list) or not value:
            self.errors.append(f"{self._at(key)}: expected a nonempty list of numbers")
            return {}
        out = {}
        for i, item in enumerate(value):
            where = f"{self._at(key)}[{i}]"
            number = _to_number(item)
            if number is None:
                self.errors.append(f"{where}: expected a number, got {item!r}")
            elif not math.isfinite(number):
                self.errors.append(f"{where}: must be finite (got {number!r})")
            elif positive and not number > 0.0:
                self.errors.append(f"{where}: must be positive (got {item!r})")
            else:
                out[where] = number
        return out

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


def _kernels(block: _Block, grid: bool = False) -> list[KernelSpec]:
    """The kernels of one `kernel:` mapping, or of one `kernels:` entry when grid is set.

    KERNEL_PARAMS names each kind's parameter, `l0` or `alpha`; a sweep entry
    lists its values under `<name>_grid`.  An exponential length must be
    positive, and a power-law exponent must pass _check_alpha.
    """
    kind = block.choice("kind", tuple(KERNEL_KINDS))
    name = KERNEL_PARAMS.get(kind)
    specs = [] if kind is None or name is not None else [KernelSpec(kind)]
    if name is not None:
        positive = kind == "exponential"
        if grid:
            values = block.number_list(f"{name}_grid", positive=positive)
        else:
            value = block.number(name, positive=positive)
            values = {} if value is None else {block._at(name): value}
        if kind == "power_law":
            for where, alpha in values.items():
                _check_alpha(alpha, where, block.errors)
        specs = [KernelSpec(kind, value) for value in values.values()]
    block.close()
    return specs


def _section(top: _Block, errors: list[str], cls):
    """A BeamSection or PlateSection from `geometry:` and `material:`.

    Each key, its order and its default come from the fields of cls: the
    elastic constants go under `material:`, the rest under `geometry:`, and
    every one but `poisson` must be positive.
    """
    blocks = {name: top.block(name) for name in ("geometry", "material")}
    kwargs = {
        field.name: blocks["material" if field.name in _MATERIAL else "geometry"].number(
            field.name, field.default, positive=field.name != "poisson"
        )
        for field in dataclasses.fields(cls)
    }
    for block in blocks.values():
        block.close()
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"geometry/material: {exc}")
        return None


def _structure(top: _Block, errors: list[str], target: str) -> dict:
    """Section, case, load and element counts of a beam or plate target."""
    if target == "beam":
        section = _section(top, errors, BeamSection)
        load = top.block("load")
        case = load.choice("case", LOAD_CASES, "cantilever_tip")
        key, names, default, minimum = VALUE_KEYS[case], ("n_elements",), 200, 1
        parity = "midspan" if case in MIDSPAN_CASES else None
    else:
        section = _section(top, errors, PlateSection)
        bc = top.block("bc")
        case = bc.choice("set", BOUNDARY_CONDITIONS, "clamped")
        bc.close()
        load = top.block("load")
        key, names, default, minimum, parity = "pressure", ("nx", "ny"), 24, 2, "center-node"
    value = load.number(key, 1.0)
    if value == 0.0:
        errors.append(f"load.{key}: must be nonzero")
    load.close()
    mesh = top.block("mesh")
    elements = tuple(mesh.integer(name, default, minimum=minimum) for name in names)
    mesh.close()
    lengths = ("length",) if target == "beam" else ("length_x", "length_y")
    for name, n, length in zip(names, elements, lengths):
        if parity and n % 2:
            errors.append(f"mesh.{name}: must be even for the {parity} metric")
        span = getattr(section, length, None)  # None when the section is invalid
        if span is not None and n > 0 and not span / n >= sys.float_info.min:
            errors.append(f"mesh.{name}: {n} elements of {length} {span!r} are below float range")
    return dict(section=section, case=case, load=value, elements=elements)


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
    if output is not None:
        if not isinstance(output, str):
            errors.append(f"output: expected a file name, got {output!r}")
        elif not output:
            errors.append("output: must be a nonempty file name")
        elif "\0" in output:
            errors.append("output: must be a file name without a NUL byte")
        elif "/" in output or output in (".", ".."):
            errors.append(f"output: must be a file name without a directory (got {output!r})")
        elif output == MANIFEST_NAME:
            errors.append(f"output: {MANIFEST_NAME} is the run's manifest")
    kwargs = dict(subcommand=subcommand, threads=threads, output=output)

    if subcommand == "dispersion":
        mat = top.block("material")
        modulus = mat.number("modulus", BeamSection.modulus, positive=True)
        density = mat.number("density", 2500.0, positive=True)
        mat.close()
        specs = _kernels(top.block("kernel"))
        grid = top.block("k_grid")
        k_min = grid.number("min", positive=True)
        k_max = grid.number("max", positive=True)
        count = grid.integer("count", 100, minimum=1)
        grid.close()
        k_values: tuple[float, ...] = ()
        if k_min is not None and k_max is not None:
            step = (k_max - k_min) / (count - 1) if count > 1 else 0.0
            k_values = tuple(k_min + step * i for i in range(count))
            if k_max < k_min:
                errors.append("k_grid.max: must be >= k_grid.min")
            elif len(set(k_values)) < count:
                errors.append(f"k_grid: the {count} wavenumbers from min to max are not distinct")
        kwargs.update(
            target="dispersion",
            kernel_specs=tuple(specs),
            k_values=k_values,
            # a non-positive constant is already an error; build no material then
            material=Material1D(modulus, density) if min(modulus, density) > 0.0 else None,
        )

    else:
        if subcommand in ("beam", "plate"):
            target = subcommand
        else:
            target = top.choice("target", ("beam", "plate"), "beam")
        if subcommand == "sweep":
            entries = top.raw("kernels")
            if not isinstance(entries, list) or not entries:
                errors.append("kernels: expected a nonempty list of kernel entries")
                entries = []
            specs = [
                spec
                for i, entry in enumerate(entries)
                for spec in _kernels(_Block(entry, f"kernels[{i}]", errors), grid=True)
            ]
        else:
            specs = _kernels(top.block("kernel"))
        horizon = top.block("horizon")
        if subcommand == "sweep":
            l_f_grid = tuple(horizon.number_list("l_f_grid", positive=True).values())
        else:
            l_f = horizon.number("l_f", positive=True)
            l_f_grid = () if l_f is None else (l_f,)
        horizon.close()
        kwargs.update(kernel_specs=tuple(specs), l_f_grid=l_f_grid)
        if subcommand == "convergence":
            kwargs["refinements"] = top.integer("refinements", 1, minimum=1)
        kwargs.update(target=target, **_structure(top, errors, target))

    top.close()
    if errors:
        raise ConfigError(errors)
    return RunConfig(**kwargs)
