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
arithmetic only. ``budget_terms`` resolves what a grid shares (N0,
eps's table, (ell/R)**3) and ``budget_cell`` is the float arithmetic
per (a, kappa); ``solar_budget`` is one cell of ``report.run_sweep``.
Both raise NonFinite where they leave the float range: ``budget_terms``
naming the constants, ``budget_cell`` the count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

from .constants import HORIZON_POWER_DENSITY, HUBBLE_RADIUS, CosmologyContext, ExponentTable
from .errors import NonFinite, ValidationError
from .quantity import (
    FREQUENCY,
    LENGTH,
    Quantity,
    TIME,
    UncertainQuantity,
    power_product,
    times_powers,
)
from .spectra import check_kappa, check_slope
from .transition import TransitionResult, transition_scale

PAPER_N0 = 1e57
N0_MODES = ("paper", "computed")

# N0/t = rho*c*R**2/M = 3/(8*pi) * G**-1 * c**3 * M**-1
N0_RATE = ExponentTable({"G": -1, "c": 3, "M_sun": -1}, FREQUENCY)


def check_n0_mode(n0_mode: str) -> str:
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


def n0_value(ctx: CosmologyContext, window_t: Optional[Quantity] = None,
             n0_mode: str = "paper") -> UncertainQuantity:
    """The dimensionless budget prefactor N0 in the requested mode.

    computed: rho*c*R**2*t/M = 3*c**3*t/(8*pi*G*M) from the context.
    paper: the published reference value 1e57, taken as exact.
    """
    if check_n0_mode(n0_mode) == "paper":
        return UncertainQuantity(PAPER_N0)
    t = _window(ctx, window_t)
    try:
        rate = N0_RATE.evaluate(ctx, 3.0 / (8.0 * math.pi))
        return UncertainQuantity(rate.value * t.value, rate.rel_sigma)
    except NonFinite as exc:
        raise NonFinite(f"the computed N0 = rho*c*R**2*t/M leaves the float range "
                        f"for t = {t.value!r} s and these constants") from exc


@dataclass(frozen=True)
class DissipationBudget:
    """Dissipation rate and its solar-mass-equivalent counts.

    By construction epsilon = rho*c**3/R * ((a-1)*kappa)**(1/(a-1)) in
    W/m^3, where rho*c**3/R reduces to (3/(8*pi)) * G**-1 * H**3 * c**2,
    the table ``constants.HORIZON_POWER_DENSITY``;
    n_solar = n0 * ((a-1)*kappa)**(1/(a-1)) and
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


class BudgetTerms(NamedTuple):
    """The budget's parts that a grid shares (``budget_terms``)."""

    n0: float
    epsilon: Tuple[Tuple[float, ...], float]  # powers and rel_sigma of rho*c**3/R
    cube: Tuple[float, ...]  # powers whose product with N is N_s
    log_ratio: float  # ln(ell/R)
    ell: float


def budget_terms(ctx: CosmologyContext, window_t: Optional[Quantity] = None,
                 ell: Optional[Quantity] = None, n0_mode: str = "paper") -> BudgetTerms:
    """ValidationError for a bad window, radius or N0 mode; NonFinite
    where N0 (naming the window), rho*c**3/R or R leaves the float range
    (R underflowing to 0 included)."""
    t = _window(ctx, window_t)
    radius = _radius(ctx, ell).value
    n0 = n0_value(ctx, t, n0_mode).value
    try:
        epsilon = HORIZON_POWER_DENSITY.powers(ctx)
        hubble = HUBBLE_RADIUS.value(ctx)
        return BudgetTerms(n0, epsilon, _cube_powers(radius / hubble),
                           math.log(radius) - math.log(hubble), radius)
    except (NonFinite, ZeroDivisionError) as exc:  # ZeroDivisionError: R underflows to 0
        raise NonFinite("rho*c**3/R or R leaves the float range "
                        "with these constants") from exc


def budget_cell(terms: BudgetTerms, a: float, kappa: float) -> Tuple[float, float, float]:
    """eps, N and N_s at one checked (a, kappa); NonFinite if eps or N_s
    leaves the float range. eps, N and N_s are formed in logs where the
    cascade factor ((a-1)*kappa)**(1/(a-1)) is not a normal float, and
    N_s also where N is not."""
    power = 1.0 / (a - 1.0)
    cascade = ((a - 1.0) * kappa) ** power
    if cascade < sys.float_info.min and min(terms.epsilon[0]) > 0.0:
        # the cascade is not a normal float, but eps may be (unless a power
        # of rho*c**3/R underflowed to 0, as in the product below)
        log_epsilon = (power * (math.log(a - 1.0) + math.log(kappa))
                       + math.log(3.0 / (8.0 * math.pi)) + sum(map(math.log, terms.epsilon[0])))
        try:
            epsilon = math.exp(log_epsilon)
        except OverflowError:
            raise NonFinite(f"eps = rho*c**3/R*((a-1)*kappa)**(1/(a-1)) overflows for "
                            f"a = {a!r} and kappa = {kappa!r}") from None
    else:
        epsilon = times_powers(3.0 / (8.0 * math.pi) * cascade, terms.epsilon[0])
    n_solar = terms.n0 * cascade
    try:
        if 0.0 < terms.n0 and min(cascade, n_solar) < sys.float_info.min:
            # the cascade or N is not a normal float, but N or N_s may be:
            # form what the cascade lost in logs (an N0 of zero takes the
            # product below)
            log_n = math.log(terms.n0) + power * (math.log(a - 1.0) + math.log(kappa))
            if cascade < sys.float_info.min:
                n_solar = math.exp(log_n)
            return epsilon, n_solar, math.exp(log_n + 3.0 * terms.log_ratio)
        return epsilon, n_solar, times_powers(n_solar, terms.cube)
    except (NonFinite, OverflowError) as exc:
        raise NonFinite(f"the count N_s = N*(ell/R)**3 leaves the float range for "
                        f"N = {n_solar!r} and ell = {terms.ell!r} m") from exc


def solar_budget(kappa: float, a: float, ctx: CosmologyContext,
                 window_t: Optional[Quantity] = None,
                 ell: Optional[Quantity] = None,
                 n0_mode: str = "paper") -> DissipationBudget:
    """Assemble the full budget for one (kappa, a) choice."""
    kappa = check_kappa(kappa)
    a = check_slope(a)
    t = _window(ctx, window_t)
    radius = _radius(ctx, ell)
    terms = budget_terms(ctx, t, radius, n0_mode)
    epsilon, n_solar, ns_solar = budget_cell(terms, a, kappa)
    return DissipationBudget(
        epsilon=UncertainQuantity(epsilon, terms.epsilon[1], HORIZON_POWER_DENSITY.dim),
        n_solar=n_solar,
        n0=terms.n0,
        ns_solar=ns_solar,
        window_t=t,
        ell=radius,
        n0_mode=n0_mode,
        kappa=kappa,
        slope=a,
    )


def _cube_powers(ratio: float) -> Tuple[float, ...]:
    """Powers whose product with a count is count*ratio**3, which
    ``times_powers`` reports as NonFinite only if it leaves the float range.

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
        return (cube,)
    return (ratio, ratio, ratio)


def kappa_from_count(n_solar: float, n0: float, a: float) -> float:
    """Invert the budget: kappa = (1/(a-1)) * (N/N0)**(a-1).

    Where N/N0 is not a normal float, kappa is formed in logs instead.
    Raises ValidationError unless both counts are positive and finite,
    and NonFinite if kappa leaves the float range.
    """
    a = check_slope(a)
    if not (0.0 < n_solar < math.inf and 0.0 < n0 < math.inf):
        raise ValidationError(f"counts must be positive and finite, got N = {n_solar!r}, "
                              f"N0 = {n0!r}")
    ratio = n_solar / n0
    if sys.float_info.min <= ratio <= sys.float_info.max:
        return power_product(1.0 / (a - 1.0), [(ratio, 0.0, a - 1.0)])[0]
    try:
        return math.exp((a - 1.0) * (math.log(n_solar) - math.log(n0)) - math.log(a - 1.0))
    except OverflowError:
        raise NonFinite(f"kappa = (N/N0)**(a-1)/(a-1) overflows for N = {n_solar!r} "
                        f"and N0 = {n0!r}") from None


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
        n_solar = times_powers(ns_bound, _cube_powers(HUBBLE_RADIUS.value(ctx) / radius.value))
    except NonFinite as exc:
        raise NonFinite(f"the count N = Ns*(R/ell)**3 leaves the float range for "
                        f"Ns = {ns_bound!r} and ell = {radius.value!r} m") from exc
    kappa = kappa_from_count(n_solar, n0, a)
    return kappa, transition_scale(a, kappa, ctx)
