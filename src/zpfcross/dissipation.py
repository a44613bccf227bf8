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

eps, N, N_s and the inverse kappa are ``constants.PowerLaw`` laws, which
``constants.law_values`` forms in logs where their cell factor is not a
normal float. ``budget_terms`` checks the window and radius and builds
the laws of a grid from the tables ``constants.HORIZON_POWER_DENSITY``
(rho*c**3/R) and ``constants.N0_RATE`` (N0/t) and from ell/R;
``budget_cell`` evaluates them at the cascade factor of one (a, kappa),
and ``solar_budget`` is one cell of ``report.run_sweep``. Both raise
NonFinite where they leave the float range: ``budget_terms`` naming the
constants, ``budget_cell`` the count.
"""

from __future__ import annotations

import functools
import math
import sys
from operator import mul
from typing import NamedTuple, Optional, Tuple

from .constants import (HORIZON_POWER_DENSITY, HUBBLE_RADIUS, N0_RATE, CosmologyContext,
                        ExponentTable, PowerLaw, law_values)
from .errors import NonFinite, ValidationError
from .quantity import DIMENSIONLESS, LENGTH, Quantity, TIME
from .spectra import check_kappa, check_slope
from .transition import TransitionResult, transition_scale

PAPER_N0 = 1e57
N0_MODES = ("paper", "computed")


def check_n0_mode(n0_mode: str) -> str:
    if n0_mode not in N0_MODES:
        raise ValidationError(f"n0_mode must be one of {N0_MODES}, got {n0_mode!r}")
    return n0_mode


def _window(ctx: CosmologyContext, window_t: Optional[Quantity]) -> Quantity:
    t = ctx["t"] if window_t is None else window_t
    if t.dim != TIME or t.value <= 0.0:
        raise ValidationError("window must be a positive time")
    return t


def _radius(ctx: CosmologyContext, ell: Optional[Quantity]) -> Quantity:
    radius = ctx["ell"] if ell is None else ell
    if radius.dim != LENGTH or radius.value <= 0.0:
        raise ValidationError("rescaling radius must be a positive length")
    return radius


def n0_value(ctx: CosmologyContext, window_t: Optional[Quantity] = None,
             n0_mode: str = "paper") -> Quantity:
    """The dimensionless budget prefactor N0 in the requested mode.

    computed: rho*c*R**2*t/M, the table ``constants.N0_RATE`` times t.
    paper: the published reference value 1e57, taken as exact.
    """
    if check_n0_mode(n0_mode) == "computed":
        window_t = _window(ctx, window_t)
    return _n0(ctx, window_t, n0_mode)


def _n0(ctx: CosmologyContext, t: Optional[Quantity], n0_mode: str) -> Quantity:
    """``n0_value`` at a window t that ``_window`` has checked (unread in paper mode)."""
    if check_n0_mode(n0_mode) == "paper":
        return Quantity(PAPER_N0)
    try:
        rate = N0_RATE.evaluate(ctx)
        return Quantity(rate.value * t.value, rel_sigma=rate.rel_sigma)
    except NonFinite as exc:
        raise NonFinite(f"the computed N0 = rho*c*R**2*t/M leaves the float range "
                        f"for t = {t.value!r} s and these constants") from exc


class DissipationBudget(NamedTuple):
    """Dissipation rate and its solar-mass-equivalent counts.

    By construction epsilon = rho*c**3/R * ((a-1)*kappa)**(1/(a-1)) in W/m^3,
    with rho*c**3/R the table ``constants.HORIZON_POWER_DENSITY``, n_solar =
    n0 * ((a-1)*kappa)**(1/(a-1)) and ns_solar = n_solar * (ell/R)**3.
    """

    epsilon: Quantity
    n_solar: float
    n0: float
    ns_solar: float
    window_t: Quantity
    ell: Quantity
    n0_mode: str
    kappa: float
    slope: float


# the budget's inputs, and dlnY/dlnX over them of eps (rho*c**3/R), N (N0:
# rho*c*R**2*t/M computed, exact as published) and N_s = N*(ell/R)**3 in each
# N0 mode: their exponents do not move with the slope, so tables compose them
_BUDGET_NAMES = ("G", "c", "M_sun", "t", "ell", "H")
_CUBE = (ExponentTable({"ell": 1}, LENGTH) / HUBBLE_RADIUS) ** 3
_EXPONENTS = {mode: tuple(tuple(table.ordered(*_BUDGET_NAMES).exponents.values())
                          for table in (HORIZON_POWER_DENSITY, n0, n0 * _CUBE))
              for mode, n0 in (("computed", N0_RATE * ExponentTable({"t": 1}, TIME)),
                               ("paper", ExponentTable({}, DIMENSIONLESS)))}
_LOG_EPSILON_COEFF = math.log(HORIZON_POWER_DENSITY.coeff)


@functools.lru_cache(maxsize=64)
def _budgets(n0_mode: str, rels: Tuple[float, ...]) -> Tuple[Tuple[tuple, float], ...]:
    """(budget, rel_sigma) of eps, N and N_s at these e_X of the budget's
    inputs; cached, as a process meets few of them and a query would
    otherwise build all three anew."""
    return tuple((tuple(zip(_BUDGET_NAMES, g, rels)), math.hypot(*map(mul, g, rels)))
                 for g in _EXPONENTS[n0_mode])


# what a grid shares: the laws of eps and N and the law of N_s at the
# cascade factor, the checked window and the checked radius
BudgetLaws = Tuple[Tuple[PowerLaw, PowerLaw], Tuple[PowerLaw], Quantity, Quantity]


def budget_terms(ctx: CosmologyContext, window_t: Optional[Quantity] = None,
                 ell: Optional[Quantity] = None, n0_mode: str = "paper") -> BudgetLaws:
    """The laws of eps (rho*c**3/R), N (N0) and N_s (N0*(ell/R)**3) at the
    cascade factor, with the checked window and radius. ValidationError
    for a bad window, radius or N0 mode; NonFinite where N0 (naming the
    window), rho*c**3/R or R leaves the float range (R underflowing to 0
    included)."""
    t = _window(ctx, window_t)
    radius = _radius(ctx, ell)
    n0 = _n0(ctx, t, n0_mode).value
    try:
        powers, rel_sigma = HORIZON_POWER_DENSITY.powers(ctx)
        hubble = HUBBLE_RADIUS.value(ctx)
        ratio = radius.value / hubble
    except (NonFinite, ZeroDivisionError) as exc:  # ZeroDivisionError: R underflows to 0
        raise NonFinite("rho*c**3/R or R leaves the float range "
                        "with these constants") from exc
    e = ctx.factors(_BUDGET_NAMES)[1]
    rels = (*e[:3], t.rel_sigma, radius.rel_sigma, e[5])
    (epsilon_budget, _), count, cube = _budgets(n0_mode, rels)
    log_powers = sum(map(math.log, powers)) if min(powers) > 0.0 else -math.inf
    epsilon = PowerLaw(HORIZON_POWER_DENSITY.coeff, powers, (_LOG_EPSILON_COEFF, log_powers),
                       epsilon_budget, rel_sigma)
    log_n0 = math.log(n0) if n0 > 0.0 else -math.inf
    n = PowerLaw(n0, (), (log_n0,), *count)
    ns = _count_law(n0, ratio, (log_n0, 3.0 * (math.log(radius.value) - math.log(hubble))),
                    *cube)
    return (epsilon, n), (ns,), t, radius


def budget_cell(terms: BudgetLaws, a: float, kappa: float) -> Tuple[float, float, float]:
    """eps, N and N_s at one checked (a, kappa): the ``law_values`` of the
    laws of ``budget_terms`` at the cascade factor ((a-1)*kappa)**(1/(a-1)),
    which guards all three, and N, which guards N_s too. NonFinite if eps
    or N_s leaves the float range."""
    by_cascade, by_count, _, radius = terms
    power = 1.0 / (a - 1.0)
    cascade = ((a - 1.0) * kappa) ** power
    log_cascade = power * (math.log(a - 1.0) + math.log(kappa))
    try:
        epsilon, n_solar = law_values(by_cascade, cascade, log_cascade)
    except OverflowError:
        raise NonFinite(f"eps = rho*c**3/R*((a-1)*kappa)**(1/(a-1)) overflows for "
                        f"a = {a!r} and kappa = {kappa!r}") from None
    try:
        ns_solar, = law_values(by_count, cascade, log_cascade,
                               n_solar if n_solar < cascade else cascade)
    except (NonFinite, OverflowError) as exc:
        raise NonFinite(f"the count N_s = N*(ell/R)**3 leaves the float range for "
                        f"N = {n_solar!r} and ell = {radius.value!r} m") from exc
    return epsilon, n_solar, ns_solar


def _count_law(coeff: float, ratio: float, log: Tuple[float, ...] = (),
               budget: Tuple[Tuple[str, float, float], ...] = (),
               rel_sigma: float = 0.0) -> PowerLaw:
    """The law coeff * x * ratio**3 of a count x. Its cube is formed first;
    where the cube alone leaves the range of normal floats, the law takes
    the ratio three times instead: each step moves monotonically towards
    the product, so none overflows or underflows unless the product does."""
    try:
        cube = ratio ** 3
    except OverflowError:
        cube = math.inf
    powers = (cube,) if sys.float_info.min <= cube <= sys.float_info.max else (ratio,) * 3
    return PowerLaw(coeff, powers, log, budget, rel_sigma)


def solar_budget(kappa: float, a: float, ctx: CosmologyContext,
                 window_t: Optional[Quantity] = None,
                 ell: Optional[Quantity] = None,
                 n0_mode: str = "paper") -> DissipationBudget:
    """Assemble the full budget for one (kappa, a) choice."""
    kappa = check_kappa(kappa)
    a = check_slope(a)
    terms = budget_terms(ctx, window_t, ell, n0_mode)
    epsilon, n_solar, ns_solar = budget_cell(terms, a, kappa)
    (epsilon_law, n_law), _, t, radius = terms
    return DissipationBudget(
        epsilon=Quantity(epsilon, HORIZON_POWER_DENSITY.dim, epsilon_law.rel_sigma),
        n_solar=n_solar,
        n0=n_law.coeff,
        ns_solar=ns_solar,
        window_t=t,
        ell=radius,
        n0_mode=n0_mode,
        kappa=kappa,
        slope=a,
    )


def kappa_from_count(n_solar: float, n0: float, a: float) -> float:
    """Invert the budget: kappa = (1/(a-1)) * (N/N0)**(a-1).

    ``law_values`` forms kappa in logs where N/N0 is not a normal float.
    Raises ValidationError unless both counts are positive and finite,
    and NonFinite naming kappa, N and N0 if kappa leaves the float range,
    overflowing or underflowing to 0.
    """
    a = check_slope(a)
    if not (0.0 < n_solar < math.inf and 0.0 < n0 < math.inf):
        raise ValidationError(f"counts must be positive and finite, got N = {n_solar!r}, "
                              f"N0 = {n0!r}")
    ratio = n_solar / n0
    law = PowerLaw(1.0 / (a - 1.0), (), (-math.log(a - 1.0),))
    try:
        kappa, = law_values((law,), ratio ** (a - 1.0),
                            (a - 1.0) * (math.log(n_solar) - math.log(n0)), ratio)
    except OverflowError:
        kappa = math.inf
    if 0.0 < kappa < math.inf:
        return kappa
    raise NonFinite(f"kappa = (N/N0)**(a-1)/(a-1) {'overflows' if kappa else 'underflows to 0'}"
                    f" for N = {n_solar!r} and N0 = {n0!r}")


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
    n0 = _n0(ctx, t, n0_mode).value
    try:  # N's law has no log: the product always
        n_solar, = law_values((_count_law(1.0, HUBBLE_RADIUS.value(ctx) / radius.value),),
                              ns_bound)
    except NonFinite as exc:
        raise NonFinite(f"the count N = Ns*(R/ell)**3 leaves the float range for "
                        f"Ns = {ns_bound!r} and ell = {radius.value!r} m") from exc
    kappa = kappa_from_count(n_solar, n0, a)
    return kappa, transition_scale(a, kappa, ctx)
