"""Physical constants and the derived cosmological quantities.

A ``CosmologyContext`` is the constant set: an immutable mapping of
names to constants, read straight from the context (``ctx.value("H")``,
``ctx.rel_sigma("H")``, ``ctx.quantity("H")``, a ``Quantity`` with the
constant's dimension and rel_sigma). Default values
reproduce a fixed historical constant set (2006 CODATA plus the
Chandra X-ray measurement of the Hubble constant, 77 km/s/Mpc) so that
downstream reference numbers are reproducible; every entry can be
overridden through ``CosmologyContext.default(overrides)``; dimensions
cannot. All stored values are SI.

Fixed products of powers of the constants (the critical density, the
Hubble radius, the energy and power densities shared by ``spectra`` and
``dissipation``, and the tables in ``transition`` and ``dissipation``)
are ``ExponentTable`` module constants: their dimension is checked
exactly once, when the module is imported, and evaluating them is
float arithmetic only.

Contexts are immutable, so what is derived from them is resolved once
and reused: a context evaluates each table's powers once, and
``CosmologyContext.default()`` without overrides returns one context per
process. Nothing here imports numpy.
"""

from __future__ import annotations

import functools
import math
import os
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import BadOverride, DimensionMismatch
from .quantity import (
    ACTION,
    DENSITY,
    DIMENSIONLESS,
    Dimension,
    ENERGY_DENSITY,
    FREQUENCY,
    GRAVITATIONAL,
    LENGTH,
    MASS,
    POWER_DENSITY,
    SPEED,
    TIME,
    Quantity,
    Record,
    power_terms,
    times_powers,
)

SPEED_OF_LIGHT = 2.99792458e8  # m/s, exact

# I/O conversion factors only; internal values are always SI.
LIGHTMINUTE_M = 60.0 * SPEED_OF_LIGHT
LIGHTYEAR_M = SPEED_OF_LIGHT * 365.25 * 86400.0  # julian year
MPC_M = 3.26e6 * LIGHTYEAR_M  # megaparsec via the 3.26e6 lightyear convention
DAY_S = 86400.0
SOLAR_MASS_KG = 1.98e30


class PhysicalConstant(NamedTuple):
    """A named constant with value, dimension and relative uncertainty."""

    name: str
    quantity: Quantity
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


def load_config(path: str | os.PathLike) -> dict[str, float]:
    try:
        with open(path, encoding="utf-8") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise BadOverride(f"cannot read config file {str(path)!r}: {reason}") from None
    return parse_config(text)


class ExponentTable(Record):
    """A product of powers of the context's constants, prod X**p_X.

    The dimension is composed once, when the table is built, and must
    equal ``dim``; otherwise the build raises DimensionMismatch.
    Constant dimensions are fixed, so ``evaluate`` needs floats only.
    """

    __slots__ = ("exponents", "dim", "_terms")

    def __init__(self, exponents: Mapping[str, float], dim: Dimension) -> None:
        composed = DIMENSIONLESS
        for name, p in exponents.items():
            if name not in _DIM_BY_NAME:
                raise BadOverride(f"unknown constant {name!r}")
            composed = composed * _DIM_BY_NAME[name] ** p
        if composed != dim:
            raise DimensionMismatch(f"product {dict(exponents)} has dimension "
                                    f"[{composed}], expected [{dim}]")
        object.__setattr__(self, "exponents", MappingProxyType(dict(exponents)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", tuple((n, float(p)) for n, p in exponents.items()))

    def evaluate(self, ctx: CosmologyContext, coeff: float = 1.0) -> Quantity:
        """coeff * prod X**p_X, with rel_sigma from first-order propagation."""
        powers, rel_sigma = ctx.powers(self._terms)
        return Quantity(times_powers(coeff, powers), self.dim, rel_sigma)

    def value(self, ctx: CosmologyContext, coeff: float = 1.0) -> float:
        """The float value of ``evaluate`` alone, in SI units of ``dim``."""
        return times_powers(coeff, ctx.powers(self._terms)[0])

    def powers(self, ctx: CosmologyContext) -> Tuple[Tuple[float, ...], float]:
        """The powers X**p_X and rel_sigma, for ``quantity.times_powers``."""
        return ctx.powers(self._terms)


# rho_crit = 3/(8*pi) * H**2/G and R = c/H
CRITICAL_DENSITY = ExponentTable({"H": 2, "G": -1}, DENSITY)
HUBBLE_RADIUS = ExponentTable({"c": 1, "H": -1}, LENGTH)
# rho*c**2 = 3/(8*pi) * H**2 * G**-1 * c**2 (the critical energy density)
# and rho*c**3/R = 3/(8*pi) * G**-1 * H**3 * c**2 (the power that flows
# through the horizon); exponents in the order the products are taken
CRITICAL_ENERGY_DENSITY = ExponentTable({"H": 2, "G": -1, "c": 2}, ENERGY_DENSITY)
HORIZON_POWER_DENSITY = ExponentTable({"G": -1, "H": 3, "c": 2}, POWER_DENSITY)


class CosmologyContext(Mapping[str, PhysicalConstant]):
    """The constant set: an immutable name -> PhysicalConstant mapping,
    plus the derived critical density and Hubble radius.

    Single constants are read straight from the context
    (``ctx.value("H")``, ``ctx.rel_sigma("H")``, ``ctx.quantity("H")``;
    BadOverride for an unknown name, KeyError from ``ctx[name]``). Every
    default constant is present and positive and keeps its dimension,
    so dimensions checked once per ``ExponentTable`` hold for every
    context. The context is immutable, so it resolves each table's
    factor list and powers once (ignored by ==, pickle and copy); the
    critical density and Hubble radius are multiplied out on each access.
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
            if not constant.value > 0.0:
                raise BadOverride(f"constant {constant.name!r} must be positive, "
                                  f"got {constant.value!r}")
            table[constant.name] = constant
        missing = [name for name in _NAMES if name not in table]
        if missing:
            raise BadOverride(f"missing constants {missing}")
        self._table = table
        self._factors, self._powers = {}, {}  # terms -> factors, (powers, rel_sigma)

    @classmethod
    def default(cls, overrides: Optional[Mapping[str, float]] = None) -> "CosmologyContext":
        """The default constant set, with value and uncertainty overrides applied.

        Override keys are constant names for values (SI units) and
        ``e_<name>`` for relative standard uncertainties. Unknown names,
        non-positive values and negative uncertainties raise BadOverride.
        Without overrides every call returns the same context, built on
        the first call; with overrides each call builds a fresh one.
        """
        if not overrides:
            return _shared_default(cls)
        constants = dict(_shared_default(cls))
        for key, raw in overrides.items():
            try:
                val = float(raw)
            except (TypeError, ValueError):
                raise BadOverride(f"override {key!r} is not a number: {raw!r}") from None
            if key.startswith("e_"):
                name = key[2:]
                if name not in constants:
                    raise BadOverride(f"unknown constant {name!r} in override {key!r}")
                if val < 0.0 or not math.isfinite(val):
                    raise BadOverride(f"negative or non-finite uncertainty {key} = {val!r}")
                quantity = Quantity(constants[name].value, _DIM_BY_NAME[name], val)
            else:
                name = key
                if name not in constants:
                    raise BadOverride(f"unknown constant {key!r}")
                if val <= 0.0 or not math.isfinite(val):
                    raise BadOverride(f"constant {key} must be positive, got {val!r}")
                quantity = Quantity(val, _DIM_BY_NAME[name], constants[name].rel_sigma)
            constants[name] = PhysicalConstant(name, quantity, "override")
        return cls(constants.values())

    def __getitem__(self, name: str) -> PhysicalConstant:
        return self._table[name]  # KeyError, as the Mapping methods expect

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __reduce__(self):
        return type(self), (tuple(self._table.values()),)

    def quantity(self, name: str) -> Quantity:
        try:
            return self._table[name].quantity
        except KeyError:
            raise BadOverride(f"unknown constant {name!r}") from None

    def value(self, name: str) -> float:
        return self.quantity(name).value

    def rel_sigma(self, name: str) -> float:
        return self.quantity(name).rel_sigma

    def factors(self, terms: Tuple[Tuple[str, float], ...]) -> Tuple[Tuple[float, float, float], ...]:
        """(value, rel_sigma, p) of each (name, p) in ``terms``, in order.

        The context is immutable, so each tuple of terms is looked up
        once and the same factors are returned on every later call.
        """
        factors = self._factors.get(terms)
        if factors is None:
            factors = tuple((self.value(name), self.rel_sigma(name), p) for name, p in terms)
            self._factors[terms] = factors
        return factors

    def powers(self, terms: Tuple[Tuple[str, float], ...]) -> Tuple[Tuple[float, ...], float]:
        """``power_terms`` of ``factors(terms)``, once; a NonFinite is raised on every call."""
        powers = self._powers.get(terms)
        if powers is None:
            powers = self._powers[terms] = power_terms(self.factors(terms))
        return powers

    @property
    def rho_crit(self) -> Quantity:
        """Critical density 3*H**2/(8*pi*G), kg/m^3."""
        return CRITICAL_DENSITY.evaluate(self, 3.0 / (8.0 * math.pi))

    @property
    def hubble_radius(self) -> Quantity:
        """World radius R = c/H, the scale of the largest eddies, m."""
        return HUBBLE_RADIUS.evaluate(self)


@functools.cache
def _shared_default(cls: type) -> CosmologyContext:
    return cls(PhysicalConstant(name, Quantity(value, dim, rel_sigma), source)
               for name, value, dim, rel_sigma, source in _DEFAULTS)
