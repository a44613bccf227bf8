"""Physical constants and the derived cosmological quantities.

A ``CosmologyContext`` is the constant set: an immutable mapping of each
name to its ``Quantity`` (``ctx["H"]``, with the constant's value,
dimension and rel_sigma), and each name to its source in ``ctx.sources``.
Default values reproduce a fixed historical constant set (2006 CODATA
plus the Chandra X-ray measurement of the Hubble constant, 77 km/s/Mpc)
so that downstream reference numbers are reproducible; every entry can be
overridden through ``CosmologyContext.default(overrides)``; dimensions
cannot. All stored values are SI.

Every product of powers of the constants is an ``ExponentTable`` with its
coefficient, value and budget vector. rho_crit (with its 3/(8*pi)) and
R = c/H are built here from their exponents, and rho*c**2, rho*c**3/R and
N0/t composed from them, each dimension checked once, at import;
``transition.scale_cell`` writes 3/(8*pi) out, for its rounding. A
context evaluates each table's powers once, and
``CosmologyContext.default()`` without overrides returns one context per
process. Nothing here imports numpy.
"""

from __future__ import annotations

import functools
import math
import os
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence, Tuple

from .errors import BadOverride, DimensionMismatch, ValidationError
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
        with open(path, encoding="utf-8-sig") as file:
            text = file.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise BadOverride(f"cannot read config file {str(path)!r}: {reason}") from None
    return parse_config(text)


class ExponentTable(Record):
    """A product coeff * prod X**p_X of powers of the context's constants.

    Built from its exponents, a table checks its dimension once
    (DimensionMismatch unless it is ``dim``). ``*`` and ``/`` merge two
    tables' exponents by name, the left one's constants first, and
    multiply their dimensions, which were checked already; a number
    scales the coefficient alone, and ``**`` scales all three. ``ordered``
    sets the order of the powers, which decides the last bits of the value.
    """

    __slots__ = ("exponents", "dim", "coeff", "_names", "_exps")  # _exps: float p_X of _names

    def __init__(self, exponents: Mapping[str, float], dim: Dimension,
                 coeff: float = 1.0) -> None:
        composed = DIMENSIONLESS
        for name, p in exponents.items():
            if name not in _DIM_BY_NAME:
                raise BadOverride(f"unknown constant {name!r}")
            composed = composed * _DIM_BY_NAME[name] ** p
        if composed != dim:
            raise DimensionMismatch(f"product {dict(exponents)} has dimension "
                                    f"[{composed}], expected [{dim}]")
        _table(tuple(exponents), tuple(map(float, exponents.values())), dim, float(coeff), self)

    def __mul__(self, other: "ExponentTable | float") -> "ExponentTable":
        if not isinstance(other, ExponentTable):
            return _table(self._names, self._exps, self.dim, self.coeff * other)
        names, exps = self._names, list(self._exps)
        for name, p in zip(other._names, other._exps):
            if name in names:
                exps[names.index(name)] += p
            else:
                names += (name,)
                exps.append(p)
        return _table(names, tuple(exps), self.dim * other.dim, self.coeff * other.coeff)

    def __truediv__(self, other: "ExponentTable") -> "ExponentTable":
        return self * other ** -1.0

    def __pow__(self, p: float) -> "ExponentTable":
        p = float(p)
        return _table(self._names, tuple(map(p.__mul__, self._exps)), self.dim ** p,
                      self.coeff ** p)

    def __reduce__(self):  # from its parts, which a composed table need not re-check exactly
        return _table, (self._names, self._exps, self.dim, self.coeff)

    def ordered(self, *names: str) -> "ExponentTable":
        """This product, its powers in the order of ``names`` (exponent 0 optional either way)."""
        exponents = self.exponents
        if any(p and name not in names for name, p in exponents.items()):
            raise ValidationError(f"{names} leaves out a constant of {dict(exponents)}")
        return _table(names, tuple(exponents.get(n, 0.0) for n in names), self.dim, self.coeff)

    def aligned(self, other: "ExponentTable") -> Tuple[Tuple[str, float, float], ...]:
        """(name, p_X, o_X) over these constants, ``other``'s among them: the
        exponents of self * other**s are p_X + s*o_X for any s, with no table built."""
        return tuple(zip(self._names, self._exps, other.ordered(*self._names)._exps))

    def checked(self, dim: Dimension) -> "ExponentTable":
        """This table rebuilt from its exponents; DimensionMismatch unless it is a ``dim``."""
        return ExponentTable(self.exponents, dim, self.coeff)

    def evaluate(self, ctx: CosmologyContext) -> Quantity:
        """coeff * prod X**p_X, with rel_sigma from first-order propagation."""
        powers, rel_sigma = ctx.powers(self._names, self._exps)
        return Quantity(times_powers(self.coeff, powers), self.dim, rel_sigma)

    def value(self, ctx: CosmologyContext) -> float:
        """The float value of ``evaluate`` alone, in SI units of ``dim``."""
        return times_powers(self.coeff, ctx.powers(self._names, self._exps)[0])

    def powers(self, ctx: CosmologyContext) -> Tuple[Tuple[float, ...], float]:
        """The powers X**p_X and rel_sigma, for ``quantity.times_powers``."""
        return ctx.powers(self._names, self._exps)

    def budget(self, ctx: CosmologyContext) -> Tuple[Tuple[str, float, float], ...]:
        """(name, p_X, e_X) of each constant: rel_sigma is sqrt(sum((p_X*e_X)**2))."""
        return tuple(zip(self._names, self._exps, ctx.factors(self._names)[1]))


def _table(names: Tuple[str, ...], exps: Tuple[float, ...], dim: Dimension, coeff: float,
           table: Optional[ExponentTable] = None) -> ExponentTable:
    """A table of these parts, its dimension taken as checked (``table``, if given, filled)."""
    table = object.__new__(ExponentTable) if table is None else table
    exponents = MappingProxyType(dict(zip(names, exps)))
    for slot, value in zip(ExponentTable.__slots__, (exponents, dim, coeff, names, exps)):
        object.__setattr__(table, slot, value)
    return table


# rho_crit = 3/(8*pi) * H**2/G, R = c/H, and the constants c and M_sun
CRITICAL_DENSITY = ExponentTable({"H": 2, "G": -1}, DENSITY, 3.0 / (8.0 * math.pi))
HUBBLE_RADIUS = ExponentTable({"c": 1, "H": -1}, LENGTH)
LIGHT_SPEED = ExponentTable({"c": 1}, SPEED)
SOLAR_MASS = ExponentTable({"M_sun": 1}, MASS)
# rho*c**2, the horizon's power rho*c**3/R and N0/t = rho*c*R**2/M_sun, each in a fixed order
CRITICAL_ENERGY_DENSITY = (CRITICAL_DENSITY * LIGHT_SPEED ** 2).checked(ENERGY_DENSITY)
HORIZON_POWER_DENSITY = (CRITICAL_ENERGY_DENSITY * LIGHT_SPEED / HUBBLE_RADIUS).ordered(
    "G", "H", "c").checked(POWER_DENSITY)
N0_RATE = (CRITICAL_DENSITY * LIGHT_SPEED * HUBBLE_RADIUS ** 2 / SOLAR_MASS).ordered(
    "G", "c", "M_sun").checked(FREQUENCY)


class CosmologyContext(Mapping[str, Quantity]):
    """The constant set: an immutable name -> Quantity mapping, and each
    name's source in the read-only ``sources`` mapping.

    Every default constant is present, positive and of its default
    dimension, and no other name is, so dimensions checked once per
    ``ExponentTable`` hold for every context. The context is immutable,
    so it resolves each table's factors and powers once (ignored by ==,
    pickle and copy); code run per slope composes exponents, not tables,
    so the keys stay the module tables'. == compares the constants alone,
    not their sources. Its attributes cannot be set or deleted.
    """

    __slots__ = ("_table", "sources", "_factors", "_powers", "__weakref__")

    def __init__(self, quantities: Mapping[str, Quantity], sources: Mapping[str, str]):
        for kind, given in (("constants", quantities), ("sources", sources)):
            if given.keys() != _DIM_BY_NAME.keys():
                unknown = [name for name in given if name not in _DIM_BY_NAME]
                raise BadOverride(f"unknown {kind} {unknown}" if unknown else
                                  f"missing {kind} {[n for n in _NAMES if n not in given]}")
        table = {}
        for name, dim in _DIM_BY_NAME.items():
            quantity = table[name] = quantities[name]
            if quantity.dim != dim:
                raise BadOverride(f"constant {name!r} must have dimension "
                                  f"{dim}, got {quantity.dim}")
            if not quantity.value > 0.0:
                raise BadOverride(f"constant {name!r} must be positive, "
                                  f"got {quantity.value!r}")
        sources = MappingProxyType({name: sources[name] for name in _NAMES})
        for slot, value in zip(self.__slots__, (table, sources, {}, {})):  # {}: the caches
            object.__setattr__(self, slot, value)

    @classmethod
    def default(cls, overrides: Optional[Mapping[str, float]] = None) -> "CosmologyContext":
        """The default constant set, with value and uncertainty overrides applied.

        Override keys are constant names for values (SI units) and
        ``e_<name>`` for relative standard uncertainties. Unknown names,
        non-positive values and negative uncertainties raise BadOverride.
        Without overrides every call returns the same context, built on
        the first call; with overrides each call builds a fresh one.
        """
        shared = _shared_default(cls)
        if not overrides:
            return shared
        quantities, sources = dict(shared), dict(shared.sources)
        for key, raw in overrides.items():
            try:
                val = float(raw)
            except (TypeError, ValueError):
                raise BadOverride(f"override {key!r} is not a number: {raw!r}") from None
            if key.startswith("e_"):
                name = key[2:]
                if name not in quantities:
                    raise BadOverride(f"unknown constant {name!r} in override {key!r}")
                if val < 0.0 or not math.isfinite(val):
                    raise BadOverride(f"negative or non-finite uncertainty {key} = {val!r}")
                quantity = Quantity(quantities[name].value, _DIM_BY_NAME[name], val)
            else:
                name = key
                if name not in quantities:
                    raise BadOverride(f"unknown constant {key!r}")
                if val <= 0.0 or not math.isfinite(val):
                    raise BadOverride(f"constant {key} must be positive, got {val!r}")
                quantity = Quantity(val, _DIM_BY_NAME[name], quantities[name].rel_sigma)
            quantities[name], sources[name] = quantity, "override"
        return cls(quantities, sources)

    def __getitem__(self, name: str) -> Quantity:
        return self._table[name]  # KeyError, as the Mapping methods expect

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __reduce__(self):
        return type(self), (self._table, dict(self.sources))

    __setattr__ = __delattr__ = Record.__setattr__  # frozen, as a Record is

    def factors(self, names: Tuple[str, ...]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The values and the rel_sigmas of the constants ``names``, looked up once."""
        factors = self._factors.get(names)
        if factors is None:
            quantities = [self._table[name] for name in names]
            factors = self._factors[names] = (tuple(q.value for q in quantities),
                                              tuple(q.rel_sigma for q in quantities))
        return factors

    def powers(self, names: Tuple[str, ...],
               exps: Tuple[float, ...]) -> Tuple[Tuple[float, ...], float]:
        """``power_terms`` of ``factors(names)`` to ``exps``, once; NonFinite on every call."""
        powers = self._powers.get((names, exps))
        if powers is None:
            powers = self._powers[names, exps] = power_terms(zip(*self.factors(names), exps))
        return powers


@functools.cache
def _shared_default(cls: type) -> CosmologyContext:
    return cls({name: Quantity(value, dim, e) for name, value, dim, e, _ in _DEFAULTS},
               {name: source for name, *_, source in _DEFAULTS})
