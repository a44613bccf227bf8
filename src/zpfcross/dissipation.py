"""Energy-dissipation budget and the bound it places on kappa.

A cascade with the calibrated amplitude dissipates at

    eps = rho * c**3 / R * ((a-1)*kappa)**(1/(a-1))

Comparing the energy dissipated over the whole horizon volume during a
window t with the annihilation energy of N solar masses gives

    N = N0 * ((a-1)*kappa)**(1/(a-1)),    N0 = rho*c*R**2*t/M

and the rescaled count N_s = N*(ell/R)**3 localises that to a sphere of
radius ell. Requiring N_s to stay below a ceiling inverts to a bound on
kappa and hence a lower bound on the transition scale.

N0 has two modes: ``paper`` uses the published reference value 1e57,
``computed`` evaluates rho*c*R**2*t/M from the context (about 2e9 with
the defaults). The two disagree by many orders of magnitude; both are
exposed rather than adjudicated.

The constant parts of eps and the computed N0 are exponent tables
whose dimension is checked once, at import; evaluating them is float
arithmetic only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

from .constants import HORIZON_POWER_DENSITY, HUBBLE_RADIUS, CosmologyContext, ExponentTable
from .errors import NonFinite, ValidationError
from .quantity import (
    FREQUENCY,
    LENGTH,
    Quantity,
    TIME,
    UncertainQuantity,
    power_product,
)
from .spectra import check_kappa, check_slope
from .transition import TransitionResult, transition_scale

PAPER_N0 = 1e57
N0_MODES = ("paper", "computed")

# N0/t = rho*c*R**2/M = 3/(8*pi) * G**-1 * c**3 * M**-1
N0_RATE = ExponentTable({"G": -1, "c": 3, "M_sun": -1}, FREQUENCY)


def _check_mode(n0_mode: str) -> str:
    if n0_mode not in N0_MODES:
        raise ValidationError(f"n0_mode must be one of {N0_MODES}, got {n0_mode!r}")
    return n0_mode


def _window(ctx: CosmologyContext, window_t: Optional[Quantity]) -> Quantity:
    t = ctx.quantity("t").quantity() if window_t is None else window_t
    if t.dim != TIME or t.value <= 0.0:
        raise ValidationError("window must be a positive time")
    return t


def _radius(ctx: CosmologyContext, ell: Optional[Quantity]) -> Quantity:
    radius = ctx.quantity("ell").quantity() if ell is None else ell
    if radius.dim != LENGTH or radius.value <= 0.0:
        raise ValidationError("rescaling radius must be a positive length")
    return radius


def dissipation_rate(kappa: float, a: float, ctx: CosmologyContext) -> UncertainQuantity:
    """eps = rho*c**3/R * ((a-1)*kappa)**(1/(a-1)), W/m^3.

    rho*c**3/R reduces to (3/(8*pi)) * G**-1 * H**3 * c**2, the table
    ``constants.HORIZON_POWER_DENSITY``; the kappa factor is an exact
    dimensionless scale.
    """
    kappa = check_kappa(kappa)
    a = check_slope(a)
    coeff = 3.0 / (8.0 * math.pi) * ((a - 1.0) * kappa) ** (1.0 / (a - 1.0))
    return HORIZON_POWER_DENSITY.evaluate(ctx, coeff)


def n0_value(ctx: CosmologyContext, window_t: Optional[Quantity] = None,
             n0_mode: str = "paper") -> UncertainQuantity:
    """The dimensionless budget prefactor N0 in the requested mode.

    computed: rho*c*R**2*t/M = 3*c**3*t/(8*pi*G*M) from the context.
    paper: the published reference value 1e57, taken as exact.
    """
    _check_mode(n0_mode)
    if n0_mode == "paper":
        return UncertainQuantity(PAPER_N0)
    t = _window(ctx, window_t)
    rate = N0_RATE.evaluate(ctx, 3.0 / (8.0 * math.pi))
    return UncertainQuantity(rate.value * t.value, rate.rel_sigma)


@dataclass(frozen=True)
class DissipationBudget:
    """Dissipation rate and its solar-mass-equivalent counts.

    By construction n_solar = n0 * ((a-1)*kappa)**(1/(a-1)) and
    ns_solar = n_solar * (ell/R)**3.
    """

    epsilon: UncertainQuantity
    n_solar: float
    n0: float
    ns_solar: float
    window_t: Quantity
    ell: Quantity
    n0_mode: str
    kappa: float
    slope: float


def solar_budget(kappa: float, a: float, ctx: CosmologyContext,
                 window_t: Optional[Quantity] = None,
                 ell: Optional[Quantity] = None,
                 n0_mode: str = "paper") -> DissipationBudget:
    """Assemble the full budget for one (kappa, a) choice."""
    kappa = check_kappa(kappa)
    a = check_slope(a)
    t = _window(ctx, window_t)
    radius = _radius(ctx, ell)
    n0 = n0_value(ctx, t, n0_mode).value
    n_solar = n0 * ((a - 1.0) * kappa) ** (1.0 / (a - 1.0))
    return DissipationBudget(
        epsilon=dissipation_rate(kappa, a, ctx),
        n_solar=n_solar,
        n0=n0,
        ns_solar=rescaled_count(n_solar, radius, ctx),
        window_t=t,
        ell=radius,
        n0_mode=n0_mode,
        kappa=kappa,
        slope=a,
    )


def _count_times_cube(count: float, ratio: float) -> float:
    """count*ratio**3; NonFinite only if the product leaves the float range.

    The cube is formed first. Where the cube alone leaves the range of
    normal floats, the count is multiplied by the ratio three times
    instead: each step moves monotonically towards the product, so no
    step overflows or underflows unless the product itself does.
    """
    try:
        cube = ratio ** 3
    except OverflowError:
        cube = math.inf
    if sys.float_info.min <= cube <= sys.float_info.max:
        return power_product(count, [(cube, 0.0, 1.0)])[0]
    return power_product(count, [(ratio, 0.0, 1.0)] * 3)[0]


def rescaled_count(n_solar: float, ell: Quantity, ctx: CosmologyContext) -> float:
    """N_s = N*(ell/R)**3, the count inside a sphere of radius ell.

    Raises NonFinite if N_s leaves the float range.
    """
    radius = _radius(ctx, ell)
    try:
        return _count_times_cube(n_solar, radius.value / HUBBLE_RADIUS.value(ctx))
    except NonFinite as exc:
        raise NonFinite(f"the count N_s = N*(ell/R)**3 leaves the float range for "
                        f"N = {n_solar!r} and ell = {radius.value!r} m") from exc


def kappa_from_count(n_solar: float, n0: float, a: float) -> float:
    """Invert the budget: kappa = (1/(a-1)) * (N/N0)**(a-1).

    Raises ValidationError unless both counts are positive and finite,
    and NonFinite if the power leaves the float range.
    """
    a = check_slope(a)
    if not (0.0 < n_solar < math.inf and 0.0 < n0 < math.inf):
        raise ValidationError(f"counts must be positive and finite, got N = {n_solar!r}, "
                              f"N0 = {n0!r}")
    return power_product(1.0 / (a - 1.0), [(n_solar / n0, 0.0, a - 1.0)])[0]


def kappa_from_solar_bound(ns_bound: float, a: float, ctx: CosmologyContext,
                           window_t: Optional[Quantity] = None,
                           ell: Optional[Quantity] = None,
                           n0_mode: str = "paper") -> Tuple[float, TransitionResult]:
    """Bound kappa by a ceiling on the local dissipation count.

    kappa = kappa_from_count(N, N0, a) with N = Ns*(R/ell)**3, the count
    over the horizon volume, then the transition scale for that kappa.
    The CLI default ceiling is Ns = 1e-12 solar masses per day: the
    Sun's own rest mass spread over its roughly 1e12-day lifetime, a
    deliberately generous cap on local dissipation. Raises KappaOutOfRange if the bound is not
    constraining (kappa > 1), which happens in computed mode, and
    NonFinite if N or kappa leaves the float range.
    """
    a = check_slope(a)
    if ns_bound <= 0.0 or not math.isfinite(ns_bound):
        raise ValidationError(f"ns_bound must be positive, got {ns_bound!r}")
    t = _window(ctx, window_t)
    radius = _radius(ctx, ell)
    n0 = n0_value(ctx, t, n0_mode).value
    try:
        n_solar = _count_times_cube(ns_bound, HUBBLE_RADIUS.value(ctx) / radius.value)
    except NonFinite as exc:
        raise NonFinite(f"the count N = Ns*(R/ell)**3 leaves the float range for "
                        f"Ns = {ns_bound!r} and ell = {radius.value!r} m") from exc
    kappa = kappa_from_count(n_solar, n0, a)
    return kappa, transition_scale(a, kappa, ctx)
