"""Energy-spectrum models and the turbulence-amplitude calibration.

All spectra share the dimension energy per volume per wavenumber
(J/m^2). The vacuum side is the Lorentz-invariant Boyer spectrum
E(k) = hbar*c*k**3, optionally truncated at the Planck wavenumber.
The turbulence side is either a generic power law A*k**-a or the
Moisseev-Shivamoggi compressible-cascade form, whose slope

    a = (5*gamma - 1)/(3*gamma - 1)

interpolates between Kolmogorov (a -> 5/3 as gamma -> inf) and
Kadomtsev-Petviashvili (a = 2 at gamma = 1).

Each model has one float kernel, E(k) over a float or a numpy array of
positive wavenumbers. A model checks the dimension of its output once,
when it is built, so neither the kernel nor ``evaluate`` (the kernel
behind a check of one ``Quantity`` wavenumber) does dimension work per
point. This module does not import numpy: an array can only come from a
caller that already has, and a float takes the ``math`` path.

The power-law amplitude is calibrated by requiring that the integral
of the spectrum from the largest eddy (k = 1/R, R the Hubble radius)
carries a fraction kappa of the critical energy density:

    A = (a - 1) * kappa * rho * c**2 * R**(1 - a)
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .constants import (CRITICAL_ENERGY_DENSITY, HORIZON_POWER_DENSITY, HUBBLE_RADIUS,
                        CosmologyContext)
from .errors import (
    DimensionMismatch,
    KappaOutOfRange,
    KolmogorovPole,
    NonFinite,
    NonPositiveWavenumber,
    PoleGamma,
    SlopeOutOfRange,
    ValidationError,
)
from .quantity import (
    DENSITY,
    Dimension,
    POWER_DENSITY,
    Quantity,
    SPECTRAL_DENSITY,
    SPEED,
    UncertainQuantity,
    WAVENUMBER,
    power,
    power_product,
)

# slope domain: a <= 1 diverges the energy-budget integral, a >= 3 would
# break the locality of the cascade, so both ends are hard errors.
SLOPE_MIN = 1.0
SLOPE_MAX = 3.0
GAMMA_POLE = 1.0 / 3.0


def check_slope(a: float) -> float:
    a = float(a)
    if not (SLOPE_MIN < a < SLOPE_MAX) or not math.isfinite(a):
        raise SlopeOutOfRange(f"slope must lie in ({SLOPE_MIN}, {SLOPE_MAX}), got {a!r}")
    return a


def check_kappa(kappa: float) -> float:
    kappa = float(kappa)
    if not (0.0 < kappa <= 1.0) or not math.isfinite(kappa):
        raise KappaOutOfRange(f"turbulence degree must lie in (0, 1], got {kappa!r}")
    return kappa


def _check_wavenumber(k: Quantity) -> Quantity:
    if k.dim != WAVENUMBER:
        raise DimensionMismatch(f"wavenumber must have dimension 1/m, got [{k.dim}]")
    if k.value <= 0.0:
        raise NonPositiveWavenumber(f"wavenumber must be positive, got {k.value!r}")
    return k


def _check_spectral(model: str, dim: Dimension) -> None:
    if dim != SPECTRAL_DENSITY:
        raise DimensionMismatch(f"{model} spectrum must have dimension "
                                f"[{SPECTRAL_DENSITY}], its parameters give [{dim}]")


class SpectrumModel(ABC):
    """An energy spectrum E(k), evaluable at any positive wavenumber."""

    @abstractmethod
    def _energy(self, k, xp):
        """The model's formula in J/m^2 for k in 1/m.

        ``xp`` is ``math`` when k is a float and ``numpy`` when it is an
        array. The result may leave the float range; ``kernel`` checks it.
        """

    def kernel(self, k):
        """E(k), J/m^2, at positive wavenumbers k in 1/m.

        k is a float, or a numpy array evaluated in one call. Float
        arithmetic only: the dimension was checked when the model was
        built. Raises NonFinite if any value overflows or is NaN; a value
        that underflows to 0.0 is returned as such.
        """
        np = sys.modules.get("numpy")  # an ndarray implies numpy is loaded
        if np is not None and isinstance(k, np.ndarray):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                energy = self._energy(k, np)
            bad = np.flatnonzero(~np.isfinite(energy))
            if bad.size == 0:
                return energy
            k = k.flat[bad[0]]
        else:
            k = float(k)
            try:
                energy = self._energy(k, math)
            except OverflowError:
                energy = math.inf
            if math.isfinite(energy):
                return energy
        raise NonFinite(f"{type(self).__name__} spectrum leaves the float range "
                        f"at k = {float(k)!r} 1/m")

    def evaluate(self, k: Quantity) -> Quantity:
        """Spectral energy density at one wavenumber, J/m^2."""
        _check_wavenumber(k)
        return Quantity(self.kernel(k.value), SPECTRAL_DENSITY)


# Each model restates ``evaluate`` so that the method is in its own class
# namespace, where the benchmark's tracer looks for it to time each model.

@dataclass(frozen=True)
class Boyer(SpectrumModel):
    """The unique Lorentz-invariant vacuum spectrum, E(k) = hbar*c*k**3."""

    hbar: Quantity
    c: Quantity

    def __post_init__(self) -> None:
        _check_spectral("Boyer", self.hbar.dim * self.c.dim * WAVENUMBER ** 3)

    @classmethod
    def from_context(cls, ctx: CosmologyContext) -> "Boyer":
        return cls(ctx.registry.quantity("hbar").quantity(),
                   ctx.registry.quantity("c").quantity())

    def _energy(self, k, xp):
        return self.hbar.value * self.c.value * k ** 3

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


@dataclass(frozen=True)
class TruncatedBoyer(SpectrumModel):
    """Boyer spectrum cut off above the Planck wavenumber.

    The cutoff preserves slope and coefficient below it but breaks
    strict Lorentz invariance of the cutoff length itself. The cutoff is
    inclusive: E(cutoff_k) is the Boyer value, and E is zero only above.
    """

    hbar: Quantity
    c: Quantity
    cutoff_k: Quantity

    def __post_init__(self) -> None:
        if self.cutoff_k.dim != WAVENUMBER or self.cutoff_k.value <= 0.0:
            raise NonPositiveWavenumber("cutoff_k must be a positive wavenumber")
        _check_spectral("TruncatedBoyer", self.hbar.dim * self.c.dim * WAVENUMBER ** 3)

    @classmethod
    def from_context(cls, ctx: CosmologyContext,
                     cutoff_k: Optional[Quantity] = None) -> "TruncatedBoyer":
        registry = ctx.registry
        if cutoff_k is None:
            cutoff_k = Quantity(2.0 * math.pi) / registry.quantity("r_p").quantity()
        return cls(registry.quantity("hbar").quantity(), registry.quantity("c").quantity(),
                   cutoff_k)

    def _energy(self, k, xp):
        cutoff = self.cutoff_k.value
        if xp is math:
            return 0.0 if k > cutoff else self.hbar.value * self.c.value * k ** 3
        return xp.where(k > cutoff, 0.0, self.hbar.value * self.c.value * k ** 3)

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


@dataclass(frozen=True)
class PowerLawTurbulence(SpectrumModel):
    """Generic turbulence spectrum E(k) = A*k**-a.

    The amplitude dimension depends on the slope: [A] = J/m^2 * m^-a.
    """

    amplitude: Quantity
    slope: float

    def __post_init__(self) -> None:
        check_slope(self.slope)
        af = Fraction(self.slope)
        if self.amplitude.dim != SPECTRAL_DENSITY * WAVENUMBER ** af:
            raise DimensionMismatch(
                f"amplitude for slope {self.slope} must have dimension "
                f"{SPECTRAL_DENSITY * WAVENUMBER ** af}, got [{self.amplitude.dim}]")

    @classmethod
    def from_kappa(cls, ctx: CosmologyContext, kappa: float, slope: float) -> "PowerLawTurbulence":
        return cls(amplitude_from_kappa(kappa, slope, ctx).quantity(), slope)

    def _energy(self, k, xp):
        return self.amplitude.value * k ** -self.slope

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


@dataclass(frozen=True)
class MoisseevShivamoggi(SpectrumModel):
    """Compressible-cascade spectrum for adiabatic index gamma:

        E(k) = C * [rho**(gamma-1) * eps**(2*gamma) * c**-2
                    * k**-(5*gamma-1)]**(1/(3*gamma-1))

    Values are evaluated in log space (large gamma underflows plain
    arithmetic). The dimension exponents cancel exactly for any gamma;
    that is checked with exact rational exponents when the model is
    built, and the k-independent part of the logarithm is computed then.
    """

    gamma: float
    epsilon: Quantity  # energy injection rate, W/m^3
    rho: Quantity      # density, kg/m^3
    c: Quantity        # sound/light speed, m/s
    kolmogorov_const: float = 1.0
    # ln E = (_log_base - _k_power * ln k) / _denom + ln C
    _log_base: float = field(init=False, repr=False, compare=False)
    _k_power: float = field(init=False, repr=False, compare=False)
    _denom: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not math.isfinite(self.gamma) or self.gamma <= GAMMA_POLE:
            raise PoleGamma(f"adiabatic index must exceed 1/3, got {self.gamma!r}")
        for name, quantity, dim in (("epsilon", self.epsilon, POWER_DENSITY),
                                    ("rho", self.rho, DENSITY),
                                    ("c", self.c, SPEED)):
            if quantity.dim != dim:
                raise DimensionMismatch(f"{name} must have dimension {dim}")
            if quantity.value <= 0.0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 < self.kolmogorov_const < math.inf:
            raise ValidationError(f"Kolmogorov constant must be positive and finite, "
                                  f"got {self.kolmogorov_const!r}")
        gf = Fraction(self.gamma)
        denom = 3 * gf - 1
        _check_spectral("MoisseevShivamoggi",
                        (self.rho.dim ** (gf - 1) * self.epsilon.dim ** (2 * gf)
                         * self.c.dim ** -2 * WAVENUMBER ** -(5 * gf - 1)) ** (1 / denom))
        try:
            log_base = (float(gf - 1) * math.log(self.rho.value)
                        + float(2 * gf) * math.log(self.epsilon.value)
                        - 2.0 * math.log(self.c.value))
            k_power = float(5 * gf - 1)
        except OverflowError:
            raise NonFinite(f"exponents of gamma = {self.gamma!r} leave the float range") from None
        object.__setattr__(self, "_log_base", log_base)
        object.__setattr__(self, "_k_power", k_power)
        object.__setattr__(self, "_denom", float(denom))

    @classmethod
    def from_context(cls, ctx: CosmologyContext, gamma: float,
                     epsilon: Optional[Quantity] = None,
                     kolmogorov_const: float = 1.0) -> "MoisseevShivamoggi":
        if epsilon is None:
            epsilon = horizon_injection_rate(ctx).quantity()
        return cls(gamma, epsilon, ctx.rho_crit.quantity(),
                   ctx.registry.quantity("c").quantity(), kolmogorov_const)

    def _energy(self, k, xp):
        return self.kolmogorov_const * xp.exp(
            (self._log_base - self._k_power * xp.log(k)) / self._denom)

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


def slope_from_gamma(gamma: float) -> float:
    """Spectral slope a = (5*gamma - 1)/(3*gamma - 1) of the cascade."""
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= GAMMA_POLE:
        raise PoleGamma(f"adiabatic index must exceed 1/3, got {gamma!r}")
    return (5.0 * gamma - 1.0) / (3.0 * gamma - 1.0)


def gamma_from_slope(a: float) -> float:
    """Adiabatic index gamma = (1 - a)/(5 - 3*a) for a given slope.

    The inverse of slope_from_gamma; a = 5/3 (Kolmogorov) corresponds
    to the gamma -> infinity limit and has no finite index.
    """
    a = check_slope(a)
    denom = 5.0 - 3.0 * a
    if abs(denom) < 1e-12:
        raise KolmogorovPole("slope 5/3 corresponds to an unbounded adiabatic index")
    return (1.0 - a) / denom


def energy_budget_total(kappa: float, ctx: CosmologyContext) -> UncertainQuantity:
    """Total turbulent energy density kappa*rho*c**2, J/m^3."""
    kappa = check_kappa(kappa)
    return CRITICAL_ENERGY_DENSITY.evaluate(ctx.registry, 3.0 * kappa / (8.0 * math.pi))


@dataclass(frozen=True)
class EnergyBudget:
    """Fraction kappa of the critical energy density held by turbulence."""

    kappa: float
    total: UncertainQuantity  # kappa*rho*c**2 by construction

    @classmethod
    def from_kappa(cls, kappa: float, ctx: CosmologyContext) -> "EnergyBudget":
        return cls(check_kappa(kappa), energy_budget_total(kappa, ctx))


def _reduced_amplitude(a: float, ctx: CosmologyContext, scale: float = 1.0) -> UncertainQuantity:
    """scale * rho*c**2 * R**(1-a), J/m^2 * m^-a, from the two tables.

    Their exponents are merged by constant name (G**-1 * H**(1+a) *
    c**(3-a)), so the H shared by rho and R is counted once.
    """
    af = Fraction(a)
    exponents = dict(CRITICAL_ENERGY_DENSITY.exponents)
    for name, p in HUBBLE_RADIUS.exponents.items():
        exponents[name] = exponents.get(name, 0) + (1 - af) * p
    registry = ctx.registry
    value, rel_sigma = power_product(
        scale * 3.0 / (8.0 * math.pi),
        [(registry.value(name), registry.rel_sigma(name), float(p))
         for name, p in exponents.items()])
    return UncertainQuantity(value, rel_sigma,
                             CRITICAL_ENERGY_DENSITY.dim * HUBBLE_RADIUS.dim ** (1 - af))


def amplitude_from_kappa(kappa: float, a: float, ctx: CosmologyContext) -> UncertainQuantity:
    """Power-law amplitude A = (a-1)*kappa*rho*c**2*R**(1-a)."""
    kappa = check_kappa(kappa)
    a = check_slope(a)
    return _reduced_amplitude(a, ctx, (a - 1.0) * kappa)


def budget_roundtrip(amplitude: Union[Quantity, UncertainQuantity], a: float,
                     ctx: CosmologyContext) -> Quantity:
    """Closed form of integral(A*k**-a, k = 1/R .. inf) = A*R**(a-1)/(a-1).

    Recovers kappa*rho*c**2 when the amplitude came from
    amplitude_from_kappa.
    """
    a = check_slope(a)
    af = Fraction(a)
    if isinstance(amplitude, UncertainQuantity):
        amplitude = amplitude.quantity()
    radius = ctx.hubble_radius.quantity()
    return amplitude * power(radius, af - 1) / (a - 1.0)


def horizon_injection_rate(ctx: CosmologyContext) -> UncertainQuantity:
    """Energy injection rate from horizon growth, eps = 3*rho*c**3/R.

    The horizon expands at dR/dt = c, adding rho*c**2*4*pi*R**2*c per
    unit time over the volume (4/3)*pi*R**3. Reduces to
    (9/(8*pi)) * G**-1 * H**3 * c**2, W/m^3.
    """
    return HORIZON_POWER_DENSITY.evaluate(ctx.registry, 9.0 / (8.0 * math.pi))


@dataclass(frozen=True)
class HorizonAmplitude:
    """Turbulence amplitude implied by horizon-driven injection.

    ``reduced`` is the coefficient-free form rho*c**2*R**(1-a); the
    numerical prefactor 3**(2*gamma/(3*gamma-1)) = 3**(a-1) that the
    reduction drops is kept separately in ``prefactor``.
    """

    reduced: UncertainQuantity
    prefactor: float
    slope: float

    @property
    def exact(self) -> UncertainQuantity:
        return self.prefactor * self.reduced


def horizon_spectrum_amplitude(a: float, ctx: CosmologyContext) -> HorizonAmplitude:
    """Amplitude of E(k) ~ rho*c**2*R**(1-a)*k**-a from horizon injection.

    Substituting eps = 3*rho*c**3/R into the Moisseev-Shivamoggi form
    with C = 1 and using 2*gamma/(3*gamma-1) = a-1 gives
    3**(a-1) * rho*c**2*R**(1-a) * k**-a; this returns the reduced
    amplitude and the prefactor separately.
    """
    a = check_slope(a)
    return HorizonAmplitude(reduced=_reduced_amplitude(a, ctx),
                            prefactor=3.0 ** (a - 1.0), slope=a)
