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
positive wavenumbers. A model checks each input against its named
dimension when it is built, so neither the kernel nor ``evaluate`` (the
kernel behind a check of one ``Quantity`` wavenumber) does dimension
work per point. This module does not import numpy: an array can only
come from a caller that already has, and a float takes the ``math`` path.

The power-law amplitude is calibrated by requiring that the integral
of the spectrum from the largest eddy (k = 1/R, R the Hubble radius)
carries a fraction kappa of the critical energy density:

    A = (a - 1) * kappa * rho * c**2 * R**(1 - a)
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from typing import Optional

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
    ACTION,
    DENSITY,
    Dimension,
    POWER_DENSITY,
    Quantity,
    Record,
    SPECTRAL_DENSITY,
    SPEED,
    WAVENUMBER,
    power_terms,
    times_powers,
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


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= GAMMA_POLE:
        raise PoleGamma(f"adiabatic index must exceed 1/3, got {gamma!r}")
    return gamma


def default_wavenumber(ctx: CosmologyContext, end: str) -> float:
    """An end of the default wavenumber range, 1/m: ``"kmin"`` is 1/R, the
    largest eddy, and ``"kmax"`` is 2*pi/r_p, the Planck wavenumber.
    NonFinite naming R or r_p where the end, or R itself, overflows.
    """
    if end == "kmin":
        what, name = "the default kmin = 1/R", "R = c/H"
        try:
            length, k = HUBBLE_RADIUS.value(ctx), 1.0
        except NonFinite as exc:
            raise NonFinite(f"{what} cannot be formed: {name} leaves the float range "
                            f"with these constants") from exc
    else:
        length, k, what = ctx.value("r_p"), 2.0 * math.pi, "the Planck wavenumber 2*pi/r_p"
        name = "r_p"
    k = k / length if length > 0.0 else math.inf  # R can underflow to 0
    if k == math.inf:
        raise NonFinite(f"{what} overflows for {name} = {length!r} m")
    return k


def _check_wavenumber(k: Quantity) -> None:
    if k.dim != WAVENUMBER:
        raise DimensionMismatch(f"wavenumber must have dimension 1/m, got [{k.dim}]")
    if k.value <= 0.0:
        raise NonPositiveWavenumber(f"wavenumber must be positive, got {k.value!r}")


def _check_dimension(name: str, quantity: Quantity, dim: Dimension) -> None:
    if quantity.dim != dim:
        raise DimensionMismatch(f"{name} must have dimension [{dim}], got [{quantity.dim}]")


class SpectrumModel(Record, ABC):
    """An energy spectrum E(k), evaluable at any positive wavenumber."""

    __slots__ = ()

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

class Boyer(SpectrumModel):
    """The unique Lorentz-invariant vacuum spectrum, E(k) = hbar*c*k**3."""

    __slots__ = ("hbar", "c")

    def __init__(self, hbar: Quantity, c: Quantity) -> None:
        _check_dimension("hbar", hbar, ACTION)
        _check_dimension("c", c, SPEED)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_context(cls, ctx: CosmologyContext) -> "Boyer":
        return cls(ctx.quantity("hbar"), ctx.quantity("c"))

    def _energy(self, k, xp):
        return self.hbar.value * self.c.value * k ** 3

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


class TruncatedBoyer(Boyer):
    """Boyer spectrum cut off above the Planck wavenumber.

    The cutoff preserves slope and coefficient below it but breaks
    strict Lorentz invariance of the cutoff length itself. The cutoff is
    inclusive: E(cutoff_k) is the Boyer value, and E is zero only above.
    """

    __slots__ = ("cutoff_k",)

    def __init__(self, hbar: Quantity, c: Quantity, cutoff_k: Quantity) -> None:
        super().__init__(hbar, c)
        _check_wavenumber(cutoff_k)
        object.__setattr__(self, "cutoff_k", cutoff_k)

    @classmethod
    def from_context(cls, ctx: CosmologyContext,
                     cutoff_k: Optional[Quantity] = None) -> "TruncatedBoyer":
        if cutoff_k is None:
            cutoff_k = Quantity(default_wavenumber(ctx, "kmax"), WAVENUMBER)
        return cls(ctx.quantity("hbar"), ctx.quantity("c"), cutoff_k)

    def _energy(self, k, xp):
        cutoff = self.cutoff_k.value
        if xp is math:  # above the cutoff k**3 may overflow a float
            return 0.0 if k > cutoff else super()._energy(k, xp)
        return xp.where(k > cutoff, 0.0, super()._energy(k, xp))

    def evaluate(self, k: Quantity) -> Quantity:
        # not super(): the tracer would time it as a Boyer evaluation
        return SpectrumModel.evaluate(self, k)


class PowerLawTurbulence(SpectrumModel):
    """Generic turbulence spectrum E(k) = A*k**-a.

    The amplitude dimension depends on the slope: [A] = J/m^2 * m^-a.
    """

    __slots__ = ("amplitude", "slope")

    def __init__(self, amplitude: Quantity, slope: float) -> None:
        dim = SPECTRAL_DENSITY * WAVENUMBER ** check_slope(slope)
        if amplitude.dim != dim:
            raise DimensionMismatch(
                f"amplitude for slope {slope} must have dimension "
                f"{dim}, got [{amplitude.dim}]")
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "slope", slope)

    @classmethod
    def from_kappa(cls, ctx: CosmologyContext, kappa: float, slope: float) -> "PowerLawTurbulence":
        return cls(amplitude_from_kappa(kappa, slope, ctx), slope)

    def _energy(self, k, xp):
        return self.amplitude.value * k ** -self.slope

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


class MoisseevShivamoggi(SpectrumModel):
    """Compressible-cascade spectrum for adiabatic index gamma:

        E(k) = C * [rho**(gamma-1) * eps**(2*gamma) * c**-2
                    * k**-(5*gamma-1)]**(1/(3*gamma-1))

    Values are evaluated in log space (large gamma underflows plain
    arithmetic). With each input of its dimension, the exponents cancel
    to J/m^2 for any gamma (a test checks this in exact rationals); the
    k-independent part of the logarithm is computed when it is built.
    """

    # ln E = (_log_base - _k_power * ln k) / _denom + ln C
    __slots__ = ("gamma", "epsilon", "rho", "c", "kolmogorov_const",
                 "_log_base", "_k_power", "_denom")

    def __init__(self, gamma: float, epsilon: Quantity, rho: Quantity, c: Quantity,
                 kolmogorov_const: float = 1.0) -> None:
        """Injection rate epsilon in W/m^3, density rho in kg/m^3, speed c in m/s."""
        g = _check_gamma(gamma)
        for name, quantity, dim in (("epsilon", epsilon, POWER_DENSITY),
                                    ("rho", rho, DENSITY),
                                    ("c", c, SPEED)):
            _check_dimension(name, quantity, dim)
            if quantity.value <= 0.0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 < kolmogorov_const < math.inf:
            raise ValidationError(f"Kolmogorov constant must be positive and finite, "
                                  f"got {kolmogorov_const!r}")
        try:
            # 5*g - 1.0 would round twice; fsum rounds the exact sum once
            k_power = math.fsum((g,) * 5 + (-1.0,))
            denom = math.fsum((g,) * 3 + (-1.0,))
        except OverflowError:
            raise NonFinite(f"exponents of gamma = {gamma!r} leave the float range") from None
        log_base = ((g - 1.0) * math.log(rho.value)
                    + 2.0 * g * math.log(epsilon.value)
                    - 2.0 * math.log(c.value))
        values = (gamma, epsilon, rho, c, kolmogorov_const, log_base, k_power, denom)
        for name, value in zip(MoisseevShivamoggi.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def from_context(cls, ctx: CosmologyContext, gamma: float,
                     epsilon: Optional[Quantity] = None,
                     kolmogorov_const: float = 1.0) -> "MoisseevShivamoggi":
        _check_gamma(gamma)  # before eps or rho_crit can fail
        if epsilon is None:
            epsilon = horizon_injection_rate(ctx)
            if epsilon.value == 0.0:
                raise NonFinite("eps = 3*rho*c**3/R underflows to 0 with these constants")
        rho = ctx.rho_crit
        if rho.value == 0.0:
            raise NonFinite("rho_crit = 3*H**2/(8*pi*G) underflows to 0 with these constants")
        return cls(gamma, epsilon, rho, ctx.quantity("c"), kolmogorov_const)

    def _energy(self, k, xp):
        return self.kolmogorov_const * xp.exp(
            (self._log_base - self._k_power * xp.log(k)) / self._denom)

    def evaluate(self, k: Quantity) -> Quantity:
        return super().evaluate(k)


def slope_from_gamma(gamma: float) -> float:
    """Spectral slope a = (5*gamma - 1)/(3*gamma - 1) of the cascade."""
    gamma = _check_gamma(gamma)
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


# (name, e_X, r_X): rho*c**2 * R**(1-a) carries X**(e_X + (1-a)*r_X)
_AMPLITUDE = CRITICAL_ENERGY_DENSITY.aligned(HUBBLE_RADIUS)
_AMPLITUDE_NAMES = tuple(name for name, _, _ in _AMPLITUDE)
_INJECTION_RATE = HORIZON_POWER_DENSITY * 3.0  # eps = 3*rho*c**3/R


def _reduced_amplitude(a: float, ctx: CosmologyContext, scale: float) -> Quantity:
    """scale * rho*c**2 * R**(1-a) = scale * G**-1 * H**(1+a) * c**(3-a),
    J/m^2 * m^-a, composed by name, so the H that rho and R share counts once."""
    exps = [e + (1.0 - a) * r for _, e, r in _AMPLITUDE]
    powers, rel_sigma = power_terms(zip(*ctx.factors(_AMPLITUDE_NAMES), exps))
    return Quantity(times_powers(CRITICAL_ENERGY_DENSITY.coeff * scale, powers),
                    CRITICAL_ENERGY_DENSITY.dim * HUBBLE_RADIUS.dim ** (1.0 - a), rel_sigma)


def amplitude_from_kappa(kappa: float, a: float, ctx: CosmologyContext) -> Quantity:
    """Power-law amplitude A = (a-1)*kappa*rho*c**2*R**(1-a)."""
    kappa = check_kappa(kappa)
    a = check_slope(a)
    return _reduced_amplitude(a, ctx, (a - 1.0) * kappa)


def horizon_injection_rate(ctx: CosmologyContext) -> Quantity:
    """Energy injection rate from horizon growth, eps = 3*rho*c**3/R.

    The horizon expands at dR/dt = c, adding rho*c**2*4*pi*R**2*c per
    unit time over the volume (4/3)*pi*R**3: three times the table
    ``constants.HORIZON_POWER_DENSITY``, W/m^3; NonFinite naming eps if
    that leaves the float range.
    """
    try:
        return _INJECTION_RATE.evaluate(ctx)
    except NonFinite as exc:
        raise NonFinite("eps = 3*rho*c**3/R leaves the float range with these constants") from exc


def horizon_spectrum_amplitude(a: float, ctx: CosmologyContext) -> Quantity:
    """Amplitude 3**(a-1) * rho*c**2*R**(1-a) of E(k) ~ k**-a from
    horizon injection, J/m^2 * m^-a.

    Substituting eps = 3*rho*c**3/R into the Moisseev-Shivamoggi form
    with C = 1 and using 2*gamma/(3*gamma-1) = a-1 gives
    3**(a-1) * rho*c**2*R**(1-a) * k**-a.
    """
    a = check_slope(a)
    return _reduced_amplitude(a, ctx, 3.0 ** (a - 1.0))
