"""Dimensioned scalars with exact dimension tracking, and the float core
of first-order uncertainty propagation.

Values are floats in SI base units throughout; unit conversion happens
only at I/O boundaries. Dimensions carry the exponents of length, mass
and time as given, ints or floats, and compare them exactly. Every
exponent the package forms is an integer or, for a power-law slope a in
(1, 3), one of -a, 1 - a and their integer sums, all exact in floats, so
equal dimensions compare equal.

``Quantity`` is a checked record (a finite value, a dimension and a
relative uncertainty rel_sigma >= 0, zero for an exact value), not an
arithmetic: a product of powers is computed in floats by :func:`power_terms`
and :func:`times_powers`, and its dimension is composed with the ``Dimension``
operators once, where the product is defined (an ``ExponentTable``, a
power-law spectrum for its slope).

Everything here is immutable and every operation is a pure function,
so values can be shared freely between threads or processes.
"""

from __future__ import annotations

import math
import operator
from types import MappingProxyType
from typing import Iterable, Tuple

from .errors import NonFinite, ValidationError


class Record:
    """A frozen record that is not a tuple. Its fields are the names in its
    ``__slots__`` that do not start with ``_`` (those hold derived values);
    its ``__init__`` takes them in order and sets them with
    ``object.__setattr__``. It equals only a record of its own class with
    equal fields, hashes and reprs (``Name(field=...)``) by them, and
    pickles and copies through its constructor."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_"))
        cls._key = operator.attrgetter(*cls._fields) if cls._fields else None

    def __eq__(self, other: object) -> bool:
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        # a read-only mapping hashes as the set of its items: it compares in any order
        return hash(tuple(frozenset(v.items()) if type(v) is MappingProxyType else v
                          for v in map(self.__getattribute__, self._fields)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self._fields))


class Dimension(Record):
    """Exponents over the SI base dimensions used here (length, mass, time).

    The zero vector denotes a dimensionless quantity. ``*`` and ``/``
    compose dimensions (exponent addition/subtraction), ``**`` scales
    all exponents by a finite power. Exponents are kept as given.
    """

    __slots__ = ("length", "mass", "time")

    def __init__(self, length: float = 0, mass: float = 0, time: float = 0) -> None:
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "time", time)

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

    def __pow__(self, p: float) -> "Dimension":
        if not math.isfinite(p):
            raise ValidationError(f"exponent must be finite, got {p!r}")
        return Dimension(self.length * p, self.mass * p, self.time * p)

    def __str__(self) -> str:
        if self.is_dimensionless:
            return "1"
        parts = []
        for symbol, expo in (("m", self.length), ("kg", self.mass), ("s", self.time)):
            if expo == 0:
                continue
            if expo == 1:
                parts.append(symbol)
            elif expo % 1 == 0:
                parts.append(f"{symbol}^{int(expo)}")
            else:
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


def power_terms(terms: Iterable[Tuple[float, float, float]]) -> Tuple[Tuple[float, ...], float]:
    """The powers x**p, in order, and rel_sigma = sqrt(sum((p*e)**2)) of
    (value, rel_sigma, p) triples of uncorrelated factors, both finite;
    NonFinite where one is not. Dimensions are the caller's business."""
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
    if not math.isfinite(coeff):
        raise NonFinite(f"value is not finite: {coeff!r}")
    return float(coeff)


class Quantity(Record):
    """A finite SI value, its exact dimension and its relative standard
    uncertainty rel_sigma = sigma/value (zero, the default, is exact).

    A checked record: construction rejects a value that is not finite
    (NonFinite) and a rel_sigma that is negative or not finite
    (ValidationError). Products of powers of uncorrelated inputs are
    propagated by :func:`power_terms` from the inputs themselves, so
    that a shared input is counted once.
    """

    __slots__ = ("value", "dim", "rel_sigma")

    def __init__(self, value: float, dim: Dimension = DIMENSIONLESS,
                 rel_sigma: float = 0.0) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise NonFinite(f"value is not finite: {value!r}")
        rel_sigma = float(rel_sigma)
        if not 0.0 <= rel_sigma < math.inf:
            raise ValidationError(f"rel_sigma must be finite and >= 0, got {rel_sigma!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rel_sigma", rel_sigma)

    @property
    def sigma(self) -> float:
        """Absolute standard uncertainty; NonFinite if it overflows."""
        sigma = abs(self.value) * self.rel_sigma
        if sigma == math.inf:
            raise NonFinite(f"sigma = |value|*rel_sigma leaves the float range for "
                            f"value = {self.value!r} and rel_sigma = {self.rel_sigma!r}")
        return sigma

    def __str__(self) -> str:
        unit = str(self.dim)
        body = f"{self.value:g}"
        if self.rel_sigma > 0:
            body += f" ± {self.sigma:g}"
        return body if unit == "1" else f"{body} {unit}"
