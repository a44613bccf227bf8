"""Crossover of the vacuum and turbulence spectra.

Matching E_vac(k) = hbar*c*k**3 against E_turb(k) = A*k**-a gives the
transition wavenumber

    k0 = (A / (hbar*c))**(1/(3+a))

and the conjectured breakdown scale lambda0 = 2*pi/k0. With the
calibrated amplitude this closes to

    lambda0 = 2*pi * [8*pi*G*hbar / (3*(a-1)*kappa*c**2*H) * (c/H)**a]**(1/(3+a))

that is, lambda0 = 2*pi * [8*pi/(3*(a-1)*kappa) * V * R**a]**q with
q = 1/(3+a), V = G*hbar/(c**2*H) and R = c/H. As an exponent table,
lambda0 is proportional to G**q * hbar**q * c**((a-2)*q) * H**(-(a+1)*q)
* kappa**-q. Its dimension is checked exactly, once, at import, through
the two slope-free identities [V] = m**3 and [R] = m (the module
constants ``CROSSOVER_VOLUME`` and ``constants.HUBBLE_RADIUS``), so the
bracket is m**(3+a) and lambda0 a length for every a; registry
dimensions cannot change. ``transition_scale`` itself is float
arithmetic only.

The relative uncertainty follows from uncorrelated first-order
propagation through the closed form:

    (sigma/lambda0)**2 = [e_G**2 + (a-2)**2*e_c**2 + e_hbar**2
                          + (a+1)**2*e_H**2 + e_kappa**2] / (3+a)**2

that is, sum((p_X*e_X)**2). The log form and the Monte Carlo take V, R
and the p_X from the same tables; the checks independent of those
exponents are the log-space bisection on the two spectra and the finite
differences in ``tests/test_acceptance.py`` and ``bench/reference.py``.

Only ``monte_carlo_scale`` uses numpy and imports it when called, so the
closed form, the log form and the bisection never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import List, Mapping, Optional, Tuple

from .constants import HUBBLE_RADIUS, ConstantRegistry, CosmologyContext, ExponentTable
from .errors import (
    DegenerateSamples,
    InvalidBracket,
    NoCrossing,
    NonFinite,
    ValidationError,
)
from .quantity import LENGTH, Quantity, WAVENUMBER
from .spectra import SpectrumModel, check_kappa, check_slope

# V = G*hbar/(c**2*H), the Planck area times the Hubble radius
CROSSOVER_VOLUME = ExponentTable({"G": 1, "hbar": 1, "c": -2, "H": -1}, LENGTH ** 3)
# (name, v_X, r_X): lambda0 carries X**p_X with p_X = q*(v_X + a*r_X)
_SCALE_EXPONENTS = tuple(
    (name, float(CROSSOVER_VOLUME.exponents.get(name, 0)),
     float(HUBBLE_RADIUS.exponents.get(name, 0)))
    for name in ("G", "c", "hbar", "H"))
# the same inputs as registry terms, whose factors the registry resolves
# once; only their rel_sigma is read, so the power is a placeholder
_SCALE_TERMS = tuple((name, 1.0) for name, _, _ in _SCALE_EXPONENTS)


def _budget(a: float, registry: ConstantRegistry,
            e_kappa: float) -> List[Tuple[str, float, float]]:
    """(name, p_X, e_X) for each input of lambda0, kappa last with p = -q."""
    q = 1.0 / (3.0 + a)
    terms = [(name, q * (v + a * r), e)
             for (name, v, r), (_, e, _) in zip(_SCALE_EXPONENTS,
                                                registry.factors(_SCALE_TERMS))]
    terms.append(("kappa", -q, e_kappa))
    return terms


@dataclass(frozen=True)
class TransitionResult:
    """Transition wavenumber and scale with the error budget.

    ``sigma_breakdown`` maps each constant to its contribution
    |p_X| * e_X to the relative uncertainty; the total satisfies
    rel_sigma**2 = sum of squared contributions (uncorrelated model)
    and lambda0 = 2*pi/k0 exactly.
    """

    k0: Quantity
    lambda0: Quantity
    rel_sigma: float
    sigma_breakdown: Mapping[str, float]
    method: str = "closed_form"

    @property
    def sigma(self) -> Quantity:
        """Absolute one-sigma uncertainty of lambda0, m."""
        return Quantity(self.lambda0.value * self.rel_sigma, LENGTH)

    @classmethod
    def from_numeric_k0(cls, k0: Quantity) -> "TransitionResult":
        """Wrap a root-found k0; carries no uncertainty information."""
        return cls(k0=k0, lambda0=Quantity(2.0 * math.pi) / k0, rel_sigma=0.0,
                   sigma_breakdown=MappingProxyType({}), method="numeric_root")


def transition_scale(a: float, kappa: float, ctx: CosmologyContext,
                     e_kappa: float = 0.0) -> TransitionResult:
    """Closed-form transition scale with analytic error propagation.

    ``e_kappa`` defaults to zero: kappa is a model parameter, not a
    measured constant; pass a value to include it in the budget.
    """
    a = check_slope(a)
    kappa = check_kappa(kappa)
    if e_kappa < 0.0 or not math.isfinite(e_kappa):
        raise ValidationError(f"e_kappa must be finite and >= 0, got {e_kappa!r}")

    registry = ctx.registry
    volume = CROSSOVER_VOLUME.value(registry)
    radius = HUBBLE_RADIUS.value(registry)
    q = 1.0 / (3.0 + a)
    coeff = 3.0 * (a - 1.0) * kappa / (8.0 * math.pi)
    try:
        k0 = (coeff / (volume * radius ** a)) ** q
        lambda0 = 2.0 * math.pi / k0
    except (ZeroDivisionError, OverflowError):
        raise NonFinite(f"k0 leaves the float range at a = {a!r}, "
                        f"kappa = {kappa!r}") from None

    breakdown = {name: abs(p) * e for name, p, e in _budget(a, registry, e_kappa)}
    rel_sigma = math.sqrt(sum(v * v for v in breakdown.values()))
    return TransitionResult(k0=Quantity(k0, WAVENUMBER), lambda0=Quantity(lambda0, LENGTH),
                            rel_sigma=rel_sigma,
                            sigma_breakdown=MappingProxyType(breakdown))


def numeric_crossover(vac: SpectrumModel, turb: SpectrumModel, ctx: CosmologyContext,
                      bracket: Optional[Tuple[Quantity, Quantity]] = None,
                      rel_tol: float = 1e-12, max_iter: int = 200) -> Quantity:
    """Root of log E_vac(k) - log E_turb(k) by bisection in log k.

    Independent of the closed form: only evaluates the two spectra. The
    bracket's dimensions are checked once, on entry; the bisection then
    calls the two models' float kernels (``SpectrumModel.kernel``), whose
    output dimensions were checked when the models were built, so no
    iteration does ``Quantity`` or dimension work. A spectrum value
    outside the float range raises NonFinite. The default bracket spans
    the largest eddy to the Planck cutoff, [1/R, 2*pi/r_p]. Converges to
    ``rel_tol`` relative in k.
    """
    if bracket is None:
        lo = 1.0 / HUBBLE_RADIUS.value(ctx.registry)
        hi = 2.0 * math.pi / ctx.registry.value("r_p")
    else:
        for end in bracket:
            if end.dim != WAVENUMBER:
                raise InvalidBracket(f"bracket ends must be wavenumbers, got [{end.dim}]")
        lo, hi = (end.value for end in bracket)
    if not (0.0 < lo < hi):
        raise InvalidBracket(f"need 0 < lo < hi, got [{lo!r}, {hi!r}]")

    def log_gap(k: float) -> float:
        e_vac = vac.kernel(k)
        e_turb = turb.kernel(k)
        if e_vac <= 0.0:
            return -math.inf
        if e_turb <= 0.0:
            return math.inf
        return math.log(e_vac) - math.log(e_turb)

    x_lo, x_hi = math.log(lo), math.log(hi)
    f_lo, f_hi = log_gap(lo), log_gap(hi)
    if f_lo == 0.0:
        return Quantity(lo, WAVENUMBER)
    if f_hi == 0.0:
        return Quantity(hi, WAVENUMBER)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoCrossing("spectra do not cross inside the bracket")

    for _ in range(max_iter):
        x_mid = 0.5 * (x_lo + x_hi)
        f_mid = log_gap(math.exp(x_mid))
        if f_mid == 0.0 or (x_hi - x_lo) <= rel_tol:
            return Quantity(math.exp(x_mid), WAVENUMBER)
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            x_lo, f_lo = x_mid, f_mid
        else:
            x_hi, f_hi = x_mid, f_mid
    raise NoCrossing(f"bisection did not converge in {max_iter} iterations")


def sigma_approximation(a: float, e_H: float) -> float:
    """Dominant-term error estimate sigma/lambda0 ~ (a+1)*e_H/(a+3).

    e_H dwarfs the other uncertainties, so the full budget collapses
    to the Hubble term for realistic constant sets.
    """
    a = check_slope(a)
    return (a + 1.0) * e_H / (a + 3.0)


def log_form_constants(ctx: CosmologyContext) -> Tuple[float, float]:
    """The constants C1 = -ln(8*pi/3 * V) = ln(3*c**2*H/(8*pi*G*hbar)) and
    C2 = -ln R = ln(H/c), from the tables V and R."""
    c1 = -math.log(CROSSOVER_VOLUME.value(ctx.registry, 8.0 * math.pi / 3.0))
    c2 = -math.log(HUBBLE_RADIUS.value(ctx.registry))
    return c1, c2


def log_form_scale(a: float, kappa: float, ctx: CosmologyContext) -> Quantity:
    """Transition scale from the logarithmic rearrangement.

    ln(lambda0) = ln(2*pi) - [C1 + ln(kappa) + ln(a-1) + a*C2]/(3+a),
    an algebraic identity with transition_scale. Note the corrected
    sign convention: kappa and (a-1) enter the bracket with plus signs
    and all logarithms are natural; only this form is consistent with
    the closed-form scale (see README notes on conventions).
    """
    a = check_slope(a)
    kappa = check_kappa(kappa)
    c1, c2 = log_form_constants(ctx)
    log_lambda = math.log(2.0 * math.pi) - (
        c1 + math.log(kappa) + math.log(a - 1.0) + a * c2) / (3.0 + a)
    return Quantity(math.exp(log_lambda), LENGTH)


@dataclass(frozen=True)
class MonteCarloScale:
    """Sampled transition scale: mean, relative spread, rejection count."""

    mean: Quantity
    rel_sigma: float
    n_samples: int
    rejected: int


def monte_carlo_scale(a: float, kappa: float, n: int, seed: int,
                      ctx: CosmologyContext, e_kappa: float = 0.0,
                      sampling: str = "lognormal") -> MonteCarloScale:
    """Monte Carlo check of the analytic error budget.

    Samples the ratio r_X = X/X0 of each constant and of kappa as a
    Gaussian with its relative sigma; each sample is lambda0 *
    exp(sum p_X*ln r_X), with lambda0 and the p_X of ``transition_scale``.
    Returns the sample mean and relative standard deviation.
    Deterministic for a given seed.

    ``sampling`` selects where the Gaussian lives. The default
    "lognormal" draws the Gaussian in log space (r = exp(e*z)), so
    constants stay positive and the sample spread matches first-order
    propagation to O(e**2); this is the mode the acceptance checks use.
    "normal" draws additively (r = 1 + e*z); non-positive draws
    are then rejected and redrawn (the count is reported) and sampling
    fails with DegenerateSamples if rejection cannot make progress.
    Note the additive mode overshoots first-order propagation by about
    5 percent at e_H = 0.15 from second-order terms.

    A sample count that does not fit in memory (48 bytes per sample)
    raises ValidationError, and a mean or spread outside the float range
    NonFinite.
    """
    a = check_slope(a)
    kappa = check_kappa(kappa)
    if n < 1000:
        raise ValidationError(f"need at least 1000 samples, got {n}")
    if sampling not in ("lognormal", "normal"):
        raise ValidationError(f"sampling must be 'lognormal' or 'normal', got {sampling!r}")

    lambda0 = transition_scale(a, kappa, ctx, e_kappa).lambda0.value
    import numpy as np  # the one numpy path of this module

    exponents, rels = np.array([(p, e) for _, p, e in _budget(a, ctx.registry, e_kappa)]).T
    rng = np.random.default_rng(seed)
    rejected = 0
    # a non-finite mean or spread is checked below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # one row per sample, one column per input, worked on in place
            samples = rng.standard_normal((n, rels.size))
            samples *= rels  # lognormal: ln r = e*z
            if sampling == "normal":
                samples += 1.0  # r = 1 + e*z, rejected where r <= 0 (X <= 0)
                for _round in range(1000):
                    bad = samples <= 0.0
                    n_bad = int(bad.sum())
                    if n_bad == 0:
                        break
                    rejected += n_bad
                    np.copyto(samples, 1.0 + rels * rng.standard_normal(samples.shape),
                              where=bad)
                else:
                    raise DegenerateSamples(
                        f"rejection sampling stalled after {rejected} redraws")
                np.log(samples, out=samples)
            samples *= exponents
            lam = samples.sum(axis=1)
            del samples  # freed before np.std allocates its temporaries
            np.exp(lam, out=lam)
            lam *= lambda0
            mean = float(np.mean(lam))
            spread = float(np.std(lam, ddof=1))
        except (MemoryError, ValueError):  # ValueError: a shape beyond numpy's index range
            raise ValidationError(f"{n} Monte Carlo samples do not fit in memory") from None
    if not (0.0 < mean < math.inf and spread < math.inf):
        raise NonFinite(f"Monte Carlo samples of lambda0 leave the float range at "
                        f"a = {a!r}, kappa = {kappa!r}")
    return MonteCarloScale(mean=Quantity(mean, LENGTH),
                           rel_sigma=spread / mean,
                           n_samples=n, rejected=rejected)


def kolmogorov_reference_scale(kappa: float) -> Quantity:
    """Earlier published rough estimate 12*kappa**(-3/14) m.

    Kept for comparison with the Kolmogorov-slope closed form; the
    exponent -3/14 is -1/(3+a) at a = 5/3. Direct evaluation at
    kappa = 1e-5 gives about 141.5 m (sometimes misquoted as 120 m).
    """
    kappa = check_kappa(kappa)
    return Quantity(12.0 * kappa ** (-3.0 / 14.0), LENGTH)
