"""Physical-constant registry and the derived cosmological quantities.

Default values reproduce a fixed historical constant set (2006 CODATA
plus the Chandra X-ray measurement of the Hubble constant, 77 km/s/Mpc)
so that downstream reference numbers are reproducible; every entry can
be overridden at load time; dimensions cannot. All stored values are SI.

Fixed products of powers of the constants (the critical density, the
Hubble radius, the energy and power densities shared by ``spectra`` and
``dissipation``, and the tables in ``transition`` and ``dissipation``)
are ``ExponentTable`` module constants: their dimension is checked
exactly once, when the module is imported, and evaluating them is
float arithmetic only.

Registries and contexts are immutable, so what is derived from them is
resolved once and reused: a registry keeps the factor list of each
table it has evaluated, and ``CosmologyContext.default()`` without
overrides returns one context per process. Nothing here imports numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .errors import BadOverride, DimensionMismatch
from .quantity import (
    ACTION,
    DENSITY,
    DIMENSIONLESS,
    Dimension,
    ENERGY_DENSITY,
    Exponent,
    FREQUENCY,
    GRAVITATIONAL,
    LENGTH,
    MASS,
    POWER_DENSITY,
    SPEED,
    TIME,
    UncertainQuantity,
    as_fraction,
    power_product,
)

SPEED_OF_LIGHT = 2.99792458e8  # m/s, exact

# I/O conversion factors only; internal values are always SI.
LIGHTMINUTE_M = 60.0 * SPEED_OF_LIGHT
LIGHTYEAR_M = SPEED_OF_LIGHT * 365.25 * 86400.0  # julian year
MPC_M = 3.26e6 * LIGHTYEAR_M  # megaparsec via the 3.26e6 lightyear convention
DAY_S = 86400.0
SOLAR_MASS_KG = 1.98e30


@dataclass(frozen=True)
class PhysicalConstant:
    """A named constant with value, dimension and relative uncertainty."""

    name: str
    quantity: UncertainQuantity
    source: str = ""

    @property
    def value(self) -> float:
        return self.quantity.value

    @property
    def rel_sigma(self) -> float:
        return self.quantity.rel_sigma


# name -> (value, dimension, rel_sigma, source)
_DEFAULTS: Sequence[Tuple[str, float, Dimension, float, str]] = (
    ("c", SPEED_OF_LIGHT, SPEED, 0.0, "CODATA 2006 (exact)"),
    ("G", 6.67428e-11, GRAVITATIONAL, 1e-4, "CODATA 2006"),
    ("hbar", 1.054571628e-34, ACTION, 5e-5, "CODATA 2006"),
    ("H", 2.49e-18, FREQUENCY, 0.15, "Chandra X-ray Observatory, 77 km/s/Mpc"),
    ("M_sun", SOLAR_MASS_KG, MASS, 0.0, "solar mass"),
    ("day", DAY_S, TIME, 0.0, "mean solar day"),
    ("t", DAY_S, TIME, 0.0, "default energy-budget window (1 day)"),
    ("ell", 8.0 * LIGHTMINUTE_M, LENGTH, 0.0, "8 lightminutes (Earth-Sun distance)"),
    ("r_p", 1.616e-35, LENGTH, 0.0, "Planck length, CODATA"),
)

_NAMES = tuple(name for name, *_ in _DEFAULTS)
_DIM_BY_NAME = {name: dim for name, _, dim, _, _ in _DEFAULTS}


class ConstantRegistry(Mapping[str, PhysicalConstant]):
    """Immutable name -> PhysicalConstant mapping.

    A constant with a default entry must keep that entry's dimension,
    so dimensions checked once per ``ExponentTable`` hold for every
    registry.
    """

    def __init__(self, constants: Iterable[PhysicalConstant]):
        table = {}
        for constant in constants:
            if constant.name in table:
                raise BadOverride(f"duplicate constant name {constant.name!r}")
            expected = _DIM_BY_NAME.get(constant.name, constant.quantity.dim)
            if constant.quantity.dim != expected:
                raise BadOverride(f"constant {constant.name!r} must have dimension "
                                  f"{expected}, got {constant.quantity.dim}")
            table[constant.name] = constant
        self._table = table
        self._factors = {}  # terms -> their factors, filled by ``factors``

    def __getitem__(self, name: str) -> PhysicalConstant:
        try:
            return self._table[name]
        except KeyError:
            raise BadOverride(f"unknown constant {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def quantity(self, name: str) -> UncertainQuantity:
        return self[name].quantity

    def value(self, name: str) -> float:
        return self[name].value

    def rel_sigma(self, name: str) -> float:
        return self[name].rel_sigma

    def factors(self, terms: Tuple[Tuple[str, float], ...]) -> Tuple[Tuple[float, float, float], ...]:
        """(value, rel_sigma, p) of each (name, p) in ``terms``, in order.

        The registry is immutable, so each tuple of terms is looked up
        once and the same factors are returned on every later call.
        """
        factors = self._factors.get(terms)
        if factors is None:
            factors = tuple((self[name].value, self[name].rel_sigma, p) for name, p in terms)
            self._factors[terms] = factors
        return factors


def load_registry(overrides: Optional[Mapping[str, float]] = None) -> ConstantRegistry:
    """Build the registry, applying value and uncertainty overrides.

    Override keys are constant names for values (SI units) and
    ``e_<name>`` for relative standard uncertainties. Unknown names,
    non-positive values and negative uncertainties raise BadOverride.
    """
    values = {name: value for name, value, _, _, _ in _DEFAULTS}
    sigmas = {name: rel for name, _, _, rel, _ in _DEFAULTS}
    sources = {name: src for name, _, _, _, src in _DEFAULTS}
    dims = {name: dim for name, _, dim, _, _ in _DEFAULTS}

    for key, raw in (overrides or {}).items():
        try:
            val = float(raw)
        except (TypeError, ValueError):
            raise BadOverride(f"override {key!r} is not a number: {raw!r}") from None
        if key.startswith("e_"):
            name = key[2:]
            if name not in values:
                raise BadOverride(f"unknown constant {name!r} in override {key!r}")
            if val < 0.0 or not math.isfinite(val):
                raise BadOverride(f"negative or non-finite uncertainty {key} = {val!r}")
            sigmas[name] = val
            sources[name] = "override"
        else:
            if key not in values:
                raise BadOverride(f"unknown constant {key!r}")
            if val <= 0.0 or not math.isfinite(val):
                raise BadOverride(f"constant {key} must be positive, got {val!r}")
            values[key] = val
            sources[key] = "override"

    return ConstantRegistry(
        PhysicalConstant(name, UncertainQuantity(values[name], sigmas[name], dims[name]),
                         sources[name])
        for name in _NAMES
    )


# config files: one "name = value [unit]" per line, '#' comments.
_UNIT_TABLE: Mapping[str, Tuple[float, Dimension]] = {
    "m": (1.0, LENGTH),
    "kg": (1.0, MASS),
    "s": (1.0, TIME),
    "1/s": (1.0, FREQUENCY),
    "s^-1": (1.0, FREQUENCY),
    "m/s": (1.0, SPEED),
    "km/s/Mpc": (1e3 / MPC_M, FREQUENCY),
    "Mpc": (MPC_M, LENGTH),
    "lightyear": (LIGHTYEAR_M, LENGTH),
    "lightminute": (LIGHTMINUTE_M, LENGTH),
    "lightminutes": (LIGHTMINUTE_M, LENGTH),
    "day": (DAY_S, TIME),
    "days": (DAY_S, TIME),
    "Msun": (SOLAR_MASS_KG, MASS),
}


def parse_config(text: str) -> dict[str, float]:
    """Parse override config text into an SI override mapping."""
    overrides: dict[str, float] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadOverride(f"line {lineno}: expected 'name = value [unit]': {raw_line!r}")
        name, rhs = (part.strip() for part in line.split("=", 1))
        tokens = rhs.replace("[", " ").replace("]", " ").split()
        if not tokens or len(tokens) > 2:
            raise BadOverride(f"line {lineno}: expected 'name = value [unit]': {raw_line!r}")
        try:
            value = float(tokens[0])
        except ValueError:
            raise BadOverride(f"line {lineno}: bad number {tokens[0]!r}") from None
        if len(tokens) == 2:
            unit = tokens[1]
            if name.startswith("e_"):
                raise BadOverride(f"line {lineno}: uncertainties are dimensionless")
            if unit not in _UNIT_TABLE:
                raise BadOverride(f"line {lineno}: unknown unit {unit!r}")
            factor, dim = _UNIT_TABLE[unit]
            expected = _DIM_BY_NAME.get(name)
            if expected is not None and dim != expected:
                raise BadOverride(
                    f"line {lineno}: unit {unit!r} has dimension {dim}, "
                    f"constant {name!r} needs {expected}")
            value *= factor
        overrides[name] = value
    return overrides


def load_config(path: Union[str, Path]) -> dict[str, float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise BadOverride(f"cannot read config file {str(path)!r}: {reason}") from None
    return parse_config(text)


@dataclass(frozen=True)
class ExponentTable:
    """A product of powers of registry constants, prod X**p_X.

    The dimension is composed exactly (Fraction exponents) once, when
    the table is built, and must equal ``dim``; otherwise the build
    raises DimensionMismatch. Registry dimensions are fixed, so
    ``evaluate`` needs floats only.
    """

    exponents: Mapping[str, Exponent]
    dim: Dimension
    _terms: Tuple[Tuple[str, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        composed = DIMENSIONLESS
        for name, p in self.exponents.items():
            if name not in _DIM_BY_NAME:
                raise BadOverride(f"unknown constant {name!r}")
            composed = composed * _DIM_BY_NAME[name] ** p
        if composed != self.dim:
            raise DimensionMismatch(f"product {dict(self.exponents)} has dimension "
                                    f"[{composed}], expected [{self.dim}]")
        object.__setattr__(self, "exponents", MappingProxyType(dict(self.exponents)))
        object.__setattr__(self, "_terms", tuple(
            (name, float(as_fraction(p))) for name, p in self.exponents.items()))

    def evaluate(self, registry: ConstantRegistry, coeff: float = 1.0) -> UncertainQuantity:
        """coeff * prod X**p_X, with rel_sigma from first-order propagation."""
        value, rel_sigma = power_product(coeff, registry.factors(self._terms))
        return UncertainQuantity(value, rel_sigma, self.dim)

    def value(self, registry: ConstantRegistry, coeff: float = 1.0) -> float:
        """The float value of ``evaluate`` alone, in SI units of ``dim``."""
        return power_product(coeff, registry.factors(self._terms))[0]


# rho_crit = 3/(8*pi) * H**2/G and R = c/H
CRITICAL_DENSITY = ExponentTable({"H": 2, "G": -1}, DENSITY)
HUBBLE_RADIUS = ExponentTable({"c": 1, "H": -1}, LENGTH)
# rho*c**2 = 3/(8*pi) * H**2 * G**-1 * c**2 (the critical energy density)
# and rho*c**3/R = 3/(8*pi) * G**-1 * H**3 * c**2 (the power that flows
# through the horizon); exponents in the order the products are taken
CRITICAL_ENERGY_DENSITY = ExponentTable({"H": 2, "G": -1, "c": 2}, ENERGY_DENSITY)
HORIZON_POWER_DENSITY = ExponentTable({"G": -1, "H": 3, "c": 2}, POWER_DENSITY)


@dataclass(frozen=True)
class CosmologyContext:
    """A constant registry plus the derived cosmological quantities.

    The critical density and Hubble radius are evaluated from the
    registry's tables on each access; the registry resolves each table's
    factor list once and reuses it, which is safe because it is
    immutable. Single constants are read from ``registry`` (``value``,
    ``rel_sigma``, ``quantity``).
    """

    registry: ConstantRegistry

    @classmethod
    def default(cls, overrides: Optional[Mapping[str, float]] = None) -> "CosmologyContext":
        """The context of ``load_registry(overrides)``.

        Without overrides every call returns the same context, built on
        the first call; with overrides each call builds a fresh one.
        """
        if overrides:
            return cls(load_registry(overrides))
        return _shared_default(cls)

    @property
    def rho_crit(self) -> UncertainQuantity:
        """Critical density 3*H**2/(8*pi*G), kg/m^3."""
        return CRITICAL_DENSITY.evaluate(self.registry, 3.0 / (8.0 * math.pi))

    @property
    def hubble_radius(self) -> UncertainQuantity:
        """World radius R = c/H, the scale of the largest eddies, m."""
        return HUBBLE_RADIUS.evaluate(self.registry)


@functools.cache
def _shared_default(cls: type) -> CosmologyContext:
    return cls(load_registry())
