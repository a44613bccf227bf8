"""Crossover of the vacuum and turbulence spectra.

Matching E_vac(k) = hbar*c*k**3 against E_turb(k) = A*k**-a gives the
transition wavenumber k0 = (A/(hbar*c))**(1/(3+a)) and the conjectured
breakdown scale lambda0 = 2*pi/k0. With the calibrated amplitude this
closes to

    lambda0 = 2*pi * [8*pi/(3*(a-1)*kappa) * V * R**a]**q,    q = 1/(3+a)

with V = G*hbar/(c**2*H) (``CROSSOVER_VOLUME``, m**3) and R = c/H
(``constants.HUBBLE_RADIUS``, m), whose dimensions are checked once, at
import, so lambda0 is a length for every a. Its error budget is the
vector of V*R**a, composed per slope from the two tables' exponents, to
the power q, and kappa**-q; uncorrelated first-order propagation gives

    (sigma/lambda0)**2 = sum((q*p_X*e_X)**2) + (q*e_kappa)**2

``scale_terms`` resolves a slope from the V and R that a context
evaluates once, ``scale_cell`` a kappa; ``transition_scale`` is one cell
of ``report.run_sweep``. Both raise NonFinite where they leave the float
range: ``scale_terms`` naming the constants, ``scale_cell`` the cell.
Every path reads ``ScaleTerms.budget`` (the Monte Carlo too), and the log
form takes V and R from the same tables; the checks independent of those
exponents are the log-space bisection on the two spectra and the finite
differences in ``tests/test_acceptance.py`` and ``bench/reference.py``.

Only ``monte_carlo_scale`` uses numpy and imports it when called, so the
closed form, the log form and the bisection never load it.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Tuple

from .constants import HUBBLE_RADIUS, CosmologyContext, ExponentTable
from .errors import (
    DegenerateSamples,
    InvalidBracket,
    NoCrossing,
    NonFinite,
    ValidationError,
)
from .quantity import LENGTH, Quantity, WAVENUMBER
from .spectra import SpectrumModel, check_kappa, check_slope, default_wavenumber

# V = G*hbar/(c**2*H), the Planck area times R
CROSSOVER_VOLUME = ExponentTable({"G": 1, "hbar": 1, "c": -2, "H": -1}, LENGTH ** 3)
# (name, v_X, r_X) over lambda0's budget names: V*R**a carries X**(v_X + a*r_X)
_BRACKET = CROSSOVER_VOLUME.ordered("G", "c", "hbar", "H").aligned(HUBBLE_RADIUS)
_BUDGET_NAMES = tuple(name for name, _, _ in _BRACKET)
# numeric_crossover stops once its log-k bracket is this narrow, and
# gives up with NoCrossing after this many halvings
_BISECTION_REL_TOL = 1e-12
_BISECTION_MAX_ITER = 200
# monte_carlo_scale draws and reduces this many rows at a time (128 KiB of
# float64 in lognormal mode, one column; at most 640 KiB in normal mode, one
# column per varying input), takes at most this many samples, and gives up
# on a block whose rejected entries are still there after this many redraws
_MC_BLOCK_ROWS = 2 ** 14
_MC_MAX_SAMPLES = 10 ** 9
_MC_MAX_REDRAWS = 1000


class TransitionResult(NamedTuple):
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

    def __hash__(self) -> int:  # the read-only mapping hashes as the set of its items
        return hash((*self[:3], frozenset(self.sigma_breakdown.items())))

    def __reduce__(self):  # the read-only mapping does not pickle; its items do
        return _transition_result, (*self[:3], dict(self.sigma_breakdown))

    @property
    def sigma(self) -> Quantity:
        """Absolute one-sigma uncertainty of lambda0, m; NonFinite naming
        lambda0 and rel_sigma if it leaves the float range."""
        sigma = self.lambda0.value * self.rel_sigma
        if not sigma < math.inf:
            raise NonFinite(f"sigma = lambda0*rel_sigma leaves the float range for "
                            f"lambda0 = {self.lambda0.value!r} m and "
                            f"rel_sigma = {self.rel_sigma!r}")
        return Quantity(sigma, LENGTH)


def _transition_result(k0, lambda0, rel_sigma, breakdown) -> TransitionResult:
    return TransitionResult(k0, lambda0, rel_sigma, MappingProxyType(breakdown))


class ScaleTerms(NamedTuple):
    """lambda0 at one slope, less the kappa factor, and its budget (``scale_terms``)."""

    a: float
    q: float  # 1/(3+a)
    denominator: float  # V*R**a; inf where R**a overflows
    rel_sigma: float  # sqrt(sum((|p_X|*e_X)**2)) over the budget
    budget: Tuple[Tuple[str, float, float], ...]  # (name, p_X, e_X), kappa last with p = -q


def scale_terms(a: float, ctx: CosmologyContext, e_kappa: float = 0.0) -> ScaleTerms:
    """The terms at a checked slope a; ValidationError for a negative or
    non-finite e_kappa, NonFinite where V, R or their uncertainty leaves
    the float range."""
    if e_kappa < 0.0 or not math.isfinite(e_kappa):
        raise ValidationError(f"e_kappa must be finite and >= 0, got {e_kappa!r}")
    try:
        denominator = CROSSOVER_VOLUME.value(ctx) * HUBBLE_RADIUS.value(ctx) ** a
    except NonFinite as exc:
        raise NonFinite("V = G*hbar/(c**2*H), R = c/H or their uncertainty leaves "
                        "the float range with these constants") from exc
    except OverflowError:
        denominator = math.inf
    q = 1.0 / (3.0 + a)
    # lambda0 carries (V*R**a/kappa)**q: X**(q*p_X) for each X**p_X of V*R**a
    budget = [(name, q * (v + a * r), e)
              for (name, v, r), e in zip(_BRACKET, ctx.factors(_BUDGET_NAMES)[1])]
    budget.append(("kappa", -q, e_kappa))
    rel_sigma = math.sqrt(sum([(p * e) * (p * e) for _, p, e in budget]))
    return ScaleTerms(a, q, denominator, rel_sigma, tuple(budget))


def scale_cell(terms: ScaleTerms, kappa: float) -> Tuple[float, float]:
    """lambda0 and k0 at a checked kappa; NonFinite if either is not a float."""
    try:
        k0 = (3.0 * (terms.a - 1.0) * kappa / (8.0 * math.pi) / terms.denominator) ** terms.q
        lambda0 = 2.0 * math.pi / k0
        if k0 < math.inf and lambda0 < math.inf:
            return lambda0, k0
    except ZeroDivisionError:  # V*R**a or k0 is 0
        pass
    raise NonFinite(f"k0 leaves the float range at a = {terms.a!r}, kappa = {kappa!r}")


def transition_scale(a: float, kappa: float, ctx: CosmologyContext,
                     e_kappa: float = 0.0) -> TransitionResult:
    """Closed-form transition scale with analytic error propagation.

    ``e_kappa`` defaults to zero: kappa is a model parameter, not a
    measured constant; pass a value to include it in the budget.
    """
    a = check_slope(a)
    kappa = check_kappa(kappa)
    terms = scale_terms(a, ctx, e_kappa)
    lambda0, k0 = scale_cell(terms, kappa)
    breakdown = MappingProxyType({name: abs(p) * e for name, p, e in terms.budget})
    return TransitionResult(k0=Quantity(k0, WAVENUMBER), lambda0=Quantity(lambda0, LENGTH),
                            rel_sigma=terms.rel_sigma, sigma_breakdown=breakdown)


def numeric_crossover(vac: SpectrumModel, turb: SpectrumModel, ctx: CosmologyContext,
                      bracket: Optional[Tuple[Quantity, Quantity]] = None) -> Quantity:
    """Root of log E_vac(k) - log E_turb(k) by bisection in log k.

    Independent of the closed form: only evaluates the two spectra. The
    bracket's dimensions are checked once, on entry; the bisection then
    calls the two models' float kernels (``SpectrumModel.kernel``), whose
    input dimensions were checked when the models were built, so no
    iteration does ``Quantity`` or dimension work. A spectrum value
    outside the float range raises NonFinite. The default bracket spans
    the largest eddy to the Planck cutoff, [1/R, 2*pi/r_p]. Converges to
    ``_BISECTION_REL_TOL`` relative in k within ``_BISECTION_MAX_ITER`` steps.
    """
    if bracket is None:
        lo, hi = default_wavenumber(ctx, "kmin"), default_wavenumber(ctx, "kmax")
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

    for _ in range(_BISECTION_MAX_ITER):
        x_mid = 0.5 * (x_lo + x_hi)
        f_mid = log_gap(math.exp(x_mid))
        if f_mid == 0.0 or (x_hi - x_lo) <= _BISECTION_REL_TOL:
            return Quantity(math.exp(x_mid), WAVENUMBER)
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            x_lo, f_lo = x_mid, f_mid
        else:
            x_hi, f_hi = x_mid, f_mid
    raise NoCrossing(f"bisection did not converge in {_BISECTION_MAX_ITER} iterations")


def log_form_constants(ctx: CosmologyContext) -> Tuple[float, float]:
    """The constants C1 = -ln(8*pi/3 * V) = ln(3*c**2*H/(8*pi*G*hbar)) and
    C2 = -ln R = ln(H/c), from the tables V and R."""
    c1 = -math.log((CROSSOVER_VOLUME * (8.0 * math.pi / 3.0)).value(ctx))
    c2 = -math.log(HUBBLE_RADIUS.value(ctx))
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


class MonteCarloScale(NamedTuple):
    """Sampled transition scale: mean, relative spread, rejection count
    and the standard error of the mean, spread/sqrt(n). In "normal"
    sampling the exact spread is infinite (E[r_H**(2*p_H)] diverges at
    r_H = 0+, since 2*p_H < -1), so ``rel_sigma`` and ``mean_se`` are
    empirical figures, and ``mean_se`` is no standard error near that
    pole: for ``rel_sigma`` at a = 1.8, e_H = 0.3, e_G = 0.2,
    e_kappa = 0.4 and 1e6 samples, seeds 1-3 give 0.484, 0.445 and 0.531."""

    mean: Quantity
    rel_sigma: float
    n_samples: int
    rejected: int
    mean_se: Quantity


def _generator(seed):
    """The one random generator of the Monte Carlo: numpy's SFC64 bit
    generator, seeded through ``SeedSequence`` like numpy's default PCG64.
    It takes the same seeds (a non-negative integer, a sequence of them,
    or None) and raises ValueError or TypeError on any other."""
    import numpy as np

    return np.random.Generator(np.random.SFC64(seed))


def monte_carlo_scale(a: float, kappa: float, n: int, seed: int,
                      ctx: CosmologyContext, e_kappa: float = 0.0,
                      sampling: str = "lognormal") -> MonteCarloScale:
    """Monte Carlo check of the analytic error budget.

    Samples the ratio r_X = X/X0 of each constant and of kappa as a
    Gaussian with its relative sigma; each sample is lambda0 *
    exp(sum p_X*ln r_X), with lambda0 and the (p_X, e_X) of ``scale_terms``.
    Returns the sample mean, its standard error and the relative
    standard deviation. Deterministic for a given seed.

    "lognormal" sampling, the default and the mode of the acceptance
    checks, draws r = exp(e*z): one normal column, lambda/lambda0 =
    exp(s*z) with s = sqrt(sum((p_X*e_X)**2)) over the inputs with
    e_X > 0, the same law as a column per input. "normal" draws
    r = 1 + e*z, a column per varying input, and redraws each r <= 0 in
    place (``rejected`` counts them; DegenerateSamples after
    ``_MC_MAX_REDRAWS`` rounds of one block); its exact spread is
    infinite (see ``MonteCarloScale``). An exact input is never drawn.
    Blocks of ``_MC_BLOCK_ROWS`` rows stream into a running mean and sum
    of squared deviations, so memory does not grow with n, and where
    nothing is rejected the draws are those of one whole array. The
    normals come from ``_generator``: SFC64, the fastest of numpy's bit
    generators (``BENCH_mc_generator.json``). The README's conventions
    section gives the details.

    A sample count n that is not an integer, a seed that numpy refuses,
    or more than ``_MC_MAX_SAMPLES`` samples (timings in
    ``BENCH_mc_one_draw.json``) raises ValidationError before anything
    is drawn, as does running out of memory; a mean or spread outside
    the float range raises NonFinite.
    """
    a = check_slope(a)
    kappa = check_kappa(kappa)
    if not hasattr(n, "__index__"):  # an int or a numpy integer
        raise ValidationError(f"the sample count n must be an integer, got {n!r}")
    if n < 1000:
        raise ValidationError(f"need at least 1000 samples, got {n}")
    if n > _MC_MAX_SAMPLES:
        raise ValidationError(f"at most {_MC_MAX_SAMPLES} Monte Carlo samples, got {n}")
    if sampling not in ("lognormal", "normal"):
        raise ValidationError(f"sampling must be 'lognormal' or 'normal', got {sampling!r}")

    terms = scale_terms(a, ctx, e_kappa)
    lambda0 = scale_cell(terms, kappa)[0]
    import numpy as np  # the one numpy path of this module

    varying = [(p, e) for _, p, e in terms.budget if e > 0.0]
    exponents, rels = np.array(varying).reshape(-1, 2).T
    # the lognormal spread; hypot scales before it squares, so no (p*e)**2 overflows
    s = math.hypot(*(p * e for p, e in varying))
    try:
        rng = _generator(seed)
    except (TypeError, ValueError):  # numpy takes only non-negative integers
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}") from None

    mean, m2, rejected = 0.0, 0.0, 0
    # a non-finite mean or spread is checked below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for start in range(0, n, _MC_BLOCK_ROWS):
                m = min(_MC_BLOCK_ROWS, n - start)
                if sampling == "lognormal":  # ln(lambda/lambda0) = s*z
                    lam = rng.standard_normal(m) if varying else np.zeros(m)
                    lam *= s
                else:  # r = 1 + e*z, redrawn where r <= 0 (X <= 0)
                    block = rng.standard_normal((m, rels.size))
                    for j, e in enumerate(rels):  # twice as fast as broadcasting over k columns
                        block[:, j] *= e
                    block += 1.0
                    for _ in range(_MC_MAX_REDRAWS):
                        if block.min(initial=math.inf) > 0.0:  # no mask unless one is bad
                            break
                        bad = block <= 0.0
                        n_bad = int(bad.sum())
                        rejected += n_bad
                        block[bad] = (1.0 + np.broadcast_to(rels, bad.shape)[bad]
                                      * rng.standard_normal(n_bad))
                    else:
                        raise DegenerateSamples(
                            f"rejection sampling stalled after {rejected} redraws")
                    np.log(block, out=block)
                    lam = block @ exponents
                    del block
                # merge the block's ratios lambda/lambda0 into the moments
                # of the first start rows (Chan, Golub & LeVeque 1983)
                np.exp(lam, out=lam)
                block_mean = float(lam.sum()) / m
                lam -= block_mean
                total = start + m
                delta = block_mean - mean
                mean = mean + delta * (m / total)
                m2 = m2 + float(lam @ lam) + delta * delta * (start * m / total)
                del lam  # before the next block is drawn
        except MemoryError:
            raise ValidationError(f"{n} Monte Carlo samples do not fit in memory") from None
    # scaled once, so that where every input is exact (each ratio 1.0)
    # the mean is lambda0 and the spread 0
    mean, spread = mean * lambda0, math.sqrt(m2 / (n - 1)) * lambda0
    if not (0.0 < mean < math.inf and spread < math.inf):
        raise NonFinite(f"Monte Carlo samples of lambda0 leave the float range at "
                        f"a = {a!r}, kappa = {kappa!r}")
    return MonteCarloScale(mean=Quantity(mean, LENGTH),
                           rel_sigma=spread / mean,
                           n_samples=n, rejected=rejected,
                           mean_se=Quantity(spread / math.sqrt(n), LENGTH))


def kolmogorov_reference_scale(kappa: float) -> Quantity:
    """Earlier published rough estimate 12*kappa**(-3/14) m.

    Kept for comparison with the Kolmogorov-slope closed form; the
    exponent -3/14 is -1/(3+a) at a = 5/3. Direct evaluation at
    kappa = 1e-5 gives about 141.5 m (sometimes misquoted as 120 m).
    """
    kappa = check_kappa(kappa)
    return Quantity(12.0 * kappa ** (-3.0 / 14.0), LENGTH)
