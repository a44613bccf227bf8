"""Dimensioned scalars with exact dimension tracking and first-order
uncertainty arithmetic.

Values are floats in SI base units throughout; unit conversion happens
only at I/O boundaries. Dimensions carry rational exponents of length,
mass and time (``fractions.Fraction``), so power laws with exponents
like 1/(3+a) compose without floating drift: exponent bookkeeping is
exact even when a itself came from a float.

Everything here is immutable and every operation is a pure function,
so values can be shared freely between threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

from .errors import DimensionMismatch, NegativeBase, NonFinite, ValidationError

Exponent = Union[int, float, Fraction]


def as_fraction(p: Exponent) -> Fraction:
    """Exact rational form of an exponent.

    Floats convert exactly (binary rationals); the conversion must be
    applied once per logical symbol so identical exponents cancel
    exactly in dimension arithmetic.
    """
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, float):
        if not math.isfinite(p):
            raise ValidationError(f"exponent must be finite, got {p!r}")
        return Fraction(p)
    raise TypeError(f"cannot use {type(p).__name__} as an exponent")


@dataclass(frozen=True)
class Dimension:
    """Exponents over the SI base dimensions used here (length, mass, time).

    The zero vector denotes a dimensionless quantity. ``*`` and ``/``
    compose dimensions (exponent addition/subtraction), ``**`` scales
    all exponents by a rational power.
    """

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", as_fraction(self.length))
        object.__setattr__(self, "mass", as_fraction(self.mass))
        object.__setattr__(self, "time", as_fraction(self.time))

    @property
    def is_dimensionless(self) -> bool:
        return self.length == 0 and self.mass == 0 and self.time == 0

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length + other.length,
                         self.mass + other.mass,
                         self.time + other.time)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.length - other.length,
                         self.mass - other.mass,
                         self.time - other.time)

    def __pow__(self, p: Exponent) -> "Dimension":
        pf = as_fraction(p)
        return Dimension(self.length * pf, self.mass * pf, self.time * pf)

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "1"
        parts = []
        for symbol, expo in (("m", self.length), ("kg", self.mass), ("s", self.time)):
            if expo == 0:
                continue
            if expo == 1:
                parts.append(symbol)
            elif expo.denominator == 1:
                parts.append(f"{symbol}^{expo.numerator}")
            elif expo.denominator <= 64:
                parts.append(f"{symbol}^({expo.numerator}/{expo.denominator})")
            else:
                # slope-valued exponent; show the float, bookkeeping stays exact
                parts.append(f"{symbol}^{float(expo):g}")
        return "·".join(parts)


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=1)
MASS = Dimension(mass=1)
TIME = Dimension(time=1)
WAVENUMBER = LENGTH ** -1
SPEED = LENGTH / TIME
FREQUENCY = TIME ** -1
DENSITY = MASS / LENGTH ** 3
ENERGY = MASS * LENGTH ** 2 / TIME ** 2
ACTION = ENERGY * TIME
GRAVITATIONAL = LENGTH ** 3 / (MASS * TIME ** 2)
ENERGY_DENSITY = ENERGY / LENGTH ** 3
POWER_DENSITY = ENERGY_DENSITY / TIME
# energy per volume per wavenumber, the dimension of every spectrum E(k)
SPECTRAL_DENSITY = ENERGY_DENSITY / WAVENUMBER


def _finite(value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFinite(f"value is not finite: {value!r}")
    return value


def _pow_value(value: float, p: Fraction) -> float:
    """value**p with the sign rules of real arithmetic.

    Raises NegativeBase for a non-integer power of a negative value
    (Python would silently return a complex number) and NonFinite if
    the power diverges or overflows.
    """
    if p == 0:
        return 1.0
    if value < 0.0 and p.denominator != 1:
        raise NegativeBase(f"({value!r})**{p} is not real")
    try:
        return value ** float(p)
    except ZeroDivisionError as exc:
        raise NonFinite(f"0.0**{float(p)} diverges") from exc
    except OverflowError as exc:
        raise NonFinite(f"({value!r})**{float(p)} overflows") from exc


def power_product(coeff: float,
                  terms: Iterable[Tuple[float, float, float]]) -> Tuple[float, float]:
    """Float core of first-order propagation through coeff * prod(x**p).

    ``terms`` are (value, rel_sigma, p) triples of uncorrelated factors;
    the powers are multiplied in the order given. Returns the finite
    value and rel_sigma = sqrt(sum((p*e)**2)). Dimensions are the
    caller's business: :func:`propagate` composes them per call, an
    ``ExponentTable`` checks them once when it is built. It is
    :func:`power_terms` then :func:`times_powers`.
    """
    powers, rel_sigma = power_terms(terms)
    return times_powers(coeff, powers), rel_sigma


def power_terms(terms: Iterable[Tuple[float, float, float]]) -> Tuple[Tuple[float, ...], float]:
    """The powers x**p, in order, and rel_sigma, both finite."""
    powers = []
    var = 0.0
    try:
        for x, rel_sigma, p in terms:
            powers.append(x ** p)
            var += (p * rel_sigma) ** 2
    except ZeroDivisionError as exc:
        raise NonFinite(f"0.0**{p} diverges") from exc
    except OverflowError as exc:
        raise NonFinite(f"({x!r})**{p} overflows") from exc
    if var == math.inf:
        raise NonFinite("the relative uncertainty overflows")
    return tuple(powers), math.sqrt(var)


def times_powers(coeff: float, powers: Iterable[float]) -> float:
    """coeff times each power in turn; NonFinite unless the product is finite."""
    for x in powers:
        coeff *= x
    return _finite(coeff)


@dataclass(frozen=True)
class Quantity:
    """A finite SI value with an exact dimension.

    Supports ``+ - * /`` with dimension checking and ``**`` with a
    rational exponent. Multiplication and division by plain numbers
    treat them as dimensionless.
    """

    value: float
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _finite(self.value))

    def _coerce(self, other) -> "Quantity":
        if isinstance(other, Quantity):
            return other
        if isinstance(other, (int, float)):
            return Quantity(float(other))
        return NotImplemented

    def __add__(self, other) -> "Quantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot add [{self.dim}] and [{other.dim}]")
        return Quantity(self.value + other.value, self.dim)

    def __sub__(self, other) -> "Quantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionMismatch(f"cannot subtract [{other.dim}] from [{self.dim}]")
        return Quantity(self.value - other.value, self.dim)

    def __mul__(self, other) -> "Quantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quantity(self.value * other.value, self.dim * other.dim)

    def __rmul__(self, other) -> "Quantity":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Quantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            return Quantity(self.value / other.value, self.dim / other.dim)
        except ZeroDivisionError as exc:
            raise NonFinite("division by zero") from exc

    def __rtruediv__(self, other) -> "Quantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, p: Exponent) -> "Quantity":
        return power(self, p)

    def __neg__(self) -> "Quantity":
        return Quantity(-self.value, self.dim)

    def __str__(self) -> str:
        unit = str(self.dim)
        return f"{self.value:g}" if unit == "1" else f"{self.value:g} {unit}"


def power(q: Quantity, p: Exponent) -> Quantity:
    """q**p with dimension exponents scaled exactly by the rational p."""
    pf = as_fraction(p)
    if pf == 0:
        return Quantity(1.0)
    return Quantity(_pow_value(q.value, pf), q.dim ** pf)


@dataclass(frozen=True)
class UncertainQuantity:
    """A quantity with a relative standard uncertainty.

    ``rel_sigma`` is sigma/value, dimensionless and >= 0; zero encodes
    an exact constant. Arithmetic assumes statistically uncorrelated
    operands; quantities derived from shared inputs must be propagated
    from those inputs directly (see :func:`propagate`).
    """

    value: float
    rel_sigma: float = 0.0
    dim: Dimension = DIMENSIONLESS

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _finite(self.value))
        rs = float(self.rel_sigma)
        if not math.isfinite(rs) or rs < 0.0:
            raise ValidationError(f"rel_sigma must be finite and >= 0, got {rs!r}")
        object.__setattr__(self, "rel_sigma", rs)

    @property
    def sigma(self) -> float:
        """Absolute standard uncertainty."""
        return abs(self.value) * self.rel_sigma

    def quantity(self) -> Quantity:
        """The central value with the uncertainty dropped."""
        return Quantity(self.value, self.dim)

    def _coerce(self, other) -> "UncertainQuantity":
        if isinstance(other, UncertainQuantity):
            return other
        if isinstance(other, Quantity):
            return UncertainQuantity(other.value, 0.0, other.dim)
        if isinstance(other, (int, float)):
            return UncertainQuantity(float(other))
        return NotImplemented

    def __mul__(self, other) -> "UncertainQuantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return propagate([(self, 1), (other, 1)])

    def __rmul__(self, other) -> "UncertainQuantity":
        return self.__mul__(other)

    def __truediv__(self, other) -> "UncertainQuantity":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return propagate([(self, 1), (other, -1)])

    def __pow__(self, p: Exponent) -> "UncertainQuantity":
        return propagate([(self, p)])

    def __str__(self) -> str:
        unit = str(self.dim)
        body = f"{self.value:g}"
        if self.rel_sigma > 0:
            body += f" ± {self.sigma:g}"
        return body if unit == "1" else f"{body} {unit}"


def propagate(terms: Iterable[Tuple[UncertainQuantity, Exponent]]) -> UncertainQuantity:
    """First-order uncertainty propagation through a product of powers.

    For f = prod(x_i**p_i) with uncorrelated relative uncertainties e_i,
    returns value prod(x_i**p_i), dimension composed exactly, and
    rel_sigma = sqrt(sum((p_i*e_i)**2)).
    """
    dim = DIMENSIONLESS
    floats = []
    for uq, p in terms:
        pf = as_fraction(p)
        if uq.value < 0.0 and pf.denominator != 1:
            raise NegativeBase(f"({uq.value!r})**{pf} is not real")
        dim = dim * (uq.dim ** pf)
        floats.append((uq.value, uq.rel_sigma, float(pf)))
    value, rel_sigma = power_product(1.0, floats)
    return UncertainQuantity(value, rel_sigma, dim)
