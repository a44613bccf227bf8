"""Exact mean and spread of the Monte Carlo's sampled lambda0, the oracle
that ``monte_carlo_scale`` is held to statistically.

Each sample is lambda0 * prod(r_X**p_X) over independent ratios r_X, with
(p_X, e_X) from ``scale_terms(a, ctx, e_kappa).budget``, so
E[lambda] = lambda0 * prod(E[r_X**p_X]) (L. A. Goodman, JASA 57, 54-60, 1962).

- Lognormal mode (r = exp(e*z)): ln(lambda/lambda0) is normal with variance
  s2 = sum((p*e)**2), so the mean is lambda0*exp(s2/2) and the relative
  spread sqrt(exp(s2) - 1).
- Normal mode (r = 1 + e*z, z truncated to r > 0): each factor is an
  integral over the truncated normal, split at z = 0 and cut at |z| = 40.
  There is no spread: the density of r_H at 0+ is positive and
  2*p_H = -2*(a+1)/(3+a) < -1, so E[r_H**(2*p_H)] diverges.
"""

import math

from scipy import stats
from scipy.integrate import quad

from zpfcross.transition import scale_terms, transition_scale


def lognormal_moments(a, kappa, ctx, e_kappa=0.0):
    """(mean, rel_spread) of lambda0*exp(sum p*e*z)."""
    s2 = sum((p * e) ** 2 for _, p, e in scale_terms(a, ctx, e_kappa).budget)
    lambda0 = transition_scale(a, kappa, ctx, e_kappa).lambda0.value
    return lambda0 * math.exp(s2 / 2.0), math.sqrt(math.expm1(s2))


def truncated_power_mean(p, e):
    """E[r**p] for r = 1 + e*z, z standard normal conditioned on r > 0."""
    if e == 0.0:
        return 1.0

    def integrand(z):
        r = 1.0 + e * z
        # r rounds to 0 only within an ulp of the integrable pole at z = -1/e
        return r ** p * stats.norm.pdf(z) if r > 0.0 else 0.0

    lo = max(-1.0 / e, -40.0)
    total = quad(integrand, lo, 0.0, limit=200)[0] + quad(integrand, 0.0, 40.0, limit=200)[0]
    return total / stats.norm.sf(-1.0 / e)


def normal_mean(a, kappa, ctx, e_kappa=0.0):
    """Mean of lambda0*prod(r**p) with truncated additive ratios."""
    mean = transition_scale(a, kappa, ctx, e_kappa).lambda0.value
    for _, p, e in scale_terms(a, ctx, e_kappa).budget:
        mean *= truncated_power_mean(p, e)
    return mean
