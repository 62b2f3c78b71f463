"""Validated run configurations for the command line front end.

One YAML document per run.  Validation is schema-per-subcommand, lists every
problem once instead of stopping at the first, and rejects unknown keys so
typos fail loudly rather than silently falling back to defaults.  Defaults
mirror the production setup: E = 30 GPa, nu = 0.3, shear correction 5/6,
density 2500 kg/m^3, unit spans, 200 beam elements, 24 x 24 plate elements.
The keys, order and defaults of `geometry:` and `material:` are the fields
of BeamSection, PlateSection or Material1D, and each kernel's parameter is
named by KERNEL_PARAMS.  A `k_grid.count` whose wavenumbers would not fit in
memory is refused.  A RunConfig field that the subcommand does not use holds
None or ().
"""

from __future__ import annotations

import dataclasses
import math
import sys

import yaml

from . import fem
from .beam import LOAD_CASES, MIDSPAN_CASES, VALUE_KEYS, BeamSection
from .dispersion import Material1D
from .kernels import KERNEL_KINDS, KERNEL_PARAMS, power_law
from .plate import BOUNDARY_CONDITIONS, PlateSection
from .results import KernelSpec, check_alpha_floor

__all__ = ["ConfigError", "RunConfig", "parse_config", "SUBCOMMANDS"]

SUBCOMMANDS = ("dispersion", "beam", "plate", "sweep", "convergence")

# The run's manifest, written beside its CSV, so no CSV may take its name.
MANIFEST_NAME = "manifest.json"

# The section fields read under `material:`; the rest are read under `geometry:`.
_MATERIAL = ("modulus", "poisson", "shear_correction", "density")

# Peak bytes per wavenumber of a dispersion run, grid, rows, verify facts and
# CSV (tracemalloc, power law, 1e5 and 4e5 wavenumbers): 285.
_BYTES_PER_WAVENUMBER = 300


class ConfigError(ValueError):
    """All validation problems of one document, one message per line."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclasses.dataclass(frozen=True, kw_only=True)
class RunConfig:
    """Fully validated inputs of one run.

    A beam or plate is its section, load case or boundary set, load value or
    pressure, and element counts, (n_elements,) or (nx, ny); a dispersion
    run's section is its Material1D.  A field the subcommand does not use is
    None or ().
    """

    subcommand: str
    target: str
    kernel_specs: tuple[KernelSpec, ...]
    l_f_grid: tuple[float, ...] = ()
    section: BeamSection | PlateSection | Material1D | None = None
    case: str | None = None
    load: float | None = None
    elements: tuple[int, ...] = ()
    k_values: tuple[float, ...] = ()
    refinements: int | None = None
    threads: int
    output: str | None


def _number(value, positive: bool = True) -> float:
    """value as a finite float, positive unless told not; ValueError with the problem otherwise.

    Numeric strings count: YAML 1.1 only recognizes exponents with an explicit
    sign, so PyYAML hands the common shorthand '30.0e9' back as a string.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf if value > 0 else -math.inf
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"must be finite (got {number!r})")
    if positive and not number > 0.0:
        raise ValueError(f"must be positive (got {number!r})")
    return number


def _integer(value, minimum: int, maximum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"must be >= {minimum} (got {value!r})")
    if value > maximum:
        raise ValueError(f"must be <= {maximum} (got {value!r})")
    return value


def _nonempty_list(value) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError("expected a nonempty list of numbers")
    return value


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

    def _read(self, key, parse, default, hint=""):
        """parse(the value under key), or default when absent (required if None) or failing.

        parse raises ValueError with the problem, reported under the key's path.
        """
        self.seen.add(key)
        if key not in self.data:
            if default is None:
                self.errors.append(f"{self._at(key)}: required{hint}")
            return default
        try:
            return parse(self.data[key])
        except ValueError as exc:
            self.errors.append(f"{self._at(key)}: {exc}")
            return default

    def number(self, key, default=None, *, positive=True):
        return self._read(key, lambda value: _number(value, positive), default)

    def numbers(self, key, listed, parse) -> list:
        """parse of the value under key, or of each item of a nonempty list when listed.

        An item that fails is reported under its path and left out.
        """
        items = self._read(key, _nonempty_list if listed else lambda value: [value], None)
        out = []
        for i, item in enumerate(items or ()):
            try:
                out.append(parse(item))
            except ValueError as exc:
                self.errors.append(f"{self._at(key)}{f'[{i}]' if listed else ''}: {exc}")
        return out

    def integer(self, key, default=None, *, minimum, maximum=sys.maxsize):
        """An integer in [minimum, maximum]: by default, a count a machine integer holds."""
        return self._read(key, lambda value: _integer(value, minimum, maximum), default)

    def choice(self, key, options, default=None):
        def parse(value):
            if value not in options:
                raise ValueError(f"must be one of {', '.join(options)} (got {value!r})")
            return value

        return self._read(key, parse, default, f" (one of {', '.join(options)})")

    def close(self) -> None:
        for key in sorted(set(self.data) - self.seen):
            self.errors.append(f"{self._at(key)}: unknown key")


def _alpha(value) -> float:
    # the kernel factory holds the (0, 1] range, results the sweep floor
    alpha = _number(value, positive=False)
    power_law(alpha)
    check_alpha_floor(alpha)
    return alpha


def _kernels(block: _Block, grid: bool = False) -> list[KernelSpec]:
    """The kernels of one `kernel:` mapping, or of one `kernels:` entry when grid is set.

    KERNEL_PARAMS names each kind's parameter, `l0` or `alpha`; a sweep entry
    lists its values under `<name>_grid`.  An exponential length must be
    positive, and a power-law exponent must pass _alpha.
    """
    kind = block.choice("kind", tuple(KERNEL_KINDS))
    name = KERNEL_PARAMS.get(kind)
    specs = [] if kind is None or name is not None else [KernelSpec(kind)]
    if name is not None:
        key = f"{name}_grid" if grid else name
        values = block.numbers(key, grid, _alpha if kind == "power_law" else _number)
        specs = [KernelSpec(kind, value) for value in values]
    block.close()
    return specs


def _section(top: _Block, errors: list[str], cls):
    """A BeamSection, PlateSection or Material1D from `geometry:` and `material:`.

    Each key, its order and its default come from the fields of cls: the
    elastic constants and the density go under `material:`, the rest under
    `geometry:`, and every one but `poisson` must be positive.  Only the
    blocks that hold a field are read.  cls is built once every key has read
    cleanly, so the only problem it adds is a rule of several keys (the
    Poisson range, a finite E/rho), prefixed by the blocks it read.
    """
    fields = dataclasses.fields(cls)
    homes = {f.name: "material" if f.name in _MATERIAL else "geometry" for f in fields}
    blocks = {name: top.block(name) for name in dict.fromkeys(homes.values())}
    reported = len(errors)
    kwargs = {
        f.name: blocks[homes[f.name]].number(f.name, f.default, positive=f.name != "poisson")
        for f in fields
    }
    clean = len(errors) == reported
    for block in blocks.values():
        block.close()
    if not clean:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.append(f"{'/'.join(blocks)}: {exc}")
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
    value = load.number(key, 1.0, positive=False)
    if value == 0.0:
        errors.append(f"load.{key}: must be nonzero")
    load.close()
    mesh = top.block("mesh")
    # an axis of n elements has n + 1 nodes, each with a machine-integer index
    most = sys.maxsize - 1
    elements = tuple(mesh.integer(name, default, minimum=minimum, maximum=most) for name in names)
    mesh.close()
    lengths = ("length",) if target == "beam" else ("length_x", "length_y")
    for name, n, length in zip(names, elements, lengths):
        if parity and n % 2:
            errors.append(f"mesh.{name}: must be even for the {parity} metric")
        span = getattr(section, length, None)  # None when the section is invalid
        if span is not None and not span / n >= sys.float_info.min:
            errors.append(f"mesh.{name}: {n} elements of {length} {span!r} are below float range")
    return dict(section=section, case=case, load=value, elements=elements)


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Validate one YAML document for one subcommand; collect all errors."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError([f"unknown subcommand {subcommand!r}"])
    # libyaml's parser when PyYAML was built with it: the same documents, about 8x faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    # a scalar's constructor raises ValueError, not YAMLError: an integer
    # beyond Python's digit limit, a date such as 2020-13-45
    try:
        data = yaml.load(text, Loader=loader)
    except (yaml.YAMLError, ValueError) as exc:
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
        kwargs["section"] = _section(top, errors, Material1D)
        specs = _kernels(top.block("kernel"))
        grid = top.block("k_grid")
        k_min, k_max = grid.number("min"), grid.number("max")
        count = grid.integer("count", 100, minimum=1)
        grid.close()
        k_values: tuple[float, ...] = ()
        if k_min is not None and k_max is not None:
            need, have = count * _BYTES_PER_WAVENUMBER, fem.available_memory()
            if k_max < k_min:
                errors.append("k_grid.max: must be >= k_grid.min")
            elif have is not None and need > have:
                errors.append(
                    f"k_grid.count: {count} wavenumbers need {need / 2**30:.3g} GiB, "
                    f"but only {have / 2**30:.2f} GiB of memory is available"
                )
            else:
                step = (k_max - k_min) / (count - 1) if count > 1 else 0.0
                k_values = tuple(k_min + step * i for i in range(count))
                if len(set(k_values)) < count:
                    errors.append(
                        f"k_grid: the {count} wavenumbers from min to max are not distinct"
                    )
        kwargs.update(target="dispersion", kernel_specs=tuple(specs), k_values=k_values)

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
        horizon, listed = top.block("horizon"), subcommand == "sweep"
        l_f_grid = tuple(horizon.numbers("l_f_grid" if listed else "l_f", listed, _number))
        horizon.close()
        kwargs.update(kernel_specs=tuple(specs), l_f_grid=l_f_grid)
        if subcommand == "convergence":
            kwargs["refinements"] = top.integer("refinements", 1, minimum=1)
        kwargs.update(target=target, **_structure(top, errors, target))

    top.close()
    if errors:
        raise ConfigError(errors)
    return RunConfig(**kwargs)
