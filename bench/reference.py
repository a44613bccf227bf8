"""Independent plain-float reference for every number zpfcross prints.

Written from the formulas in PAPER.md and the README, not from the
package: no zpfcross import, no dimension bookkeeping, logarithms where
a product of powers could leave the float range. The checker compares
the program's outputs with these values outside the timed region.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

C_LIGHT = 2.99792458e8
DAY_S = 86400.0
LIGHTMINUTE_M = 60.0 * C_LIGHT
LIGHTYEAR_M = C_LIGHT * 365.25 * 86400.0
MPC_M = 3.26e6 * LIGHTYEAR_M
KMS_PER_MPC = 1e3 / MPC_M  # one km/s/Mpc in 1/s
PAPER_N0 = 1e57

# name -> (SI value, relative standard uncertainty): the documented default set
DEFAULTS: Dict[str, Tuple[float, float]] = {
    "c": (C_LIGHT, 0.0),
    "G": (6.67428e-11, 1e-4),
    "hbar": (1.054571628e-34, 5e-5),
    "H": (2.49e-18, 0.15),
    "M_sun": (1.98e30, 0.0),
    "day": (DAY_S, 0.0),
    "t": (DAY_S, 0.0),
    "ell": (8.0 * LIGHTMINUTE_M, 0.0),
    "r_p": (1.616e-35, 0.0),
}

# tolerances of the repository's acceptance suite
TOL_CLOSED = 1e-12      # closed form against log form, spectra, budgets
TOL_BISECTION = 1e-9    # bisection root against the closed form
TOL_MC = 0.03           # Monte Carlo rel_sigma at n = 1e5
MC_TOL_SAMPLES = 100000
MC_MEAN_SE = 6.0        # Monte Carlo mean: standard errors allowed


class Constants:
    """A constant set: defaults with optional SI overrides (``e_<name>`` for sigmas)."""

    def __init__(self, overrides: Optional[Mapping[str, float]] = None):
        self.values = {name: v for name, (v, _) in DEFAULTS.items()}
        self.sigmas = {name: e for name, (_, e) in DEFAULTS.items()}
        for key, value in (overrides or {}).items():
            if key.startswith("e_"):
                self.sigmas[key[2:]] = float(value)
            else:
                self.values[key] = float(value)

    def __getitem__(self, name: str) -> float:
        return self.values[name]

    def e(self, name: str) -> float:
        return self.sigmas[name]

    @property
    def rho(self) -> float:
        return 3.0 * self["H"] ** 2 / (8.0 * math.pi * self["G"])

    @property
    def radius(self) -> float:
        return self["c"] / self["H"]


def exponents(a: float) -> Dict[str, float]:
    """Exponent of each input in lambda0 = 2*pi*C(a) * prod X**p_X."""
    q = 1.0 / (3.0 + a)
    return {"G": q, "hbar": q, "c": (a - 2.0) * q, "H": -(a + 1.0) * q, "kappa": -q}


def lambda0(a: float, kappa: float, k: Constants) -> float:
    """Transition scale from the logarithmic form of the closed form."""
    c1 = (math.log(3.0) + 2.0 * math.log(k["c"]) + math.log(k["H"])
          - math.log(8.0 * math.pi) - math.log(k["G"]) - math.log(k["hbar"]))
    c2 = math.log(k["H"]) - math.log(k["c"])
    return math.exp(math.log(2.0 * math.pi)
                    - (c1 + math.log(kappa) + math.log(a - 1.0) + a * c2) / (3.0 + a))


def k0(a: float, kappa: float, k: Constants) -> float:
    return 2.0 * math.pi / lambda0(a, kappa, k)


def sigma_breakdown(a: float, k: Constants, e_kappa: float = 0.0) -> Dict[str, float]:
    """Per-input contributions |p_X|*e_X to sigma/lambda0."""
    p = exponents(a)
    return {"G": abs(p["G"]) * k.e("G"), "c": abs(p["c"]) * k.e("c"),
            "hbar": abs(p["hbar"]) * k.e("hbar"), "H": abs(p["H"]) * k.e("H"),
            "kappa": abs(p["kappa"]) * e_kappa}


def rel_sigma(a: float, k: Constants, e_kappa: float = 0.0) -> float:
    """(sigma/lambda0)**2 = [e_G**2 + (a-2)**2 e_c**2 + e_hbar**2 + (a+1)**2 e_H**2
    + e_kappa**2] / (3+a)**2."""
    total = (k.e("G") ** 2 + (a - 2.0) ** 2 * k.e("c") ** 2 + k.e("hbar") ** 2
             + (a + 1.0) ** 2 * k.e("H") ** 2 + e_kappa ** 2)
    return math.sqrt(total) / (3.0 + a)


def _normal_moments(e: float, p: float) -> Tuple[float, float]:
    """E[(1+e*z)**p] and E[(1+e*z)**(2p)] for standard normal z.

    The region 1 + e*z <= 0 is excluded, as the additive sampler
    redraws it; integrating to 90% of the way to the pole leaves out a
    probability below 1e-10 for any e <= 0.2.
    """
    if e == 0.0:
        return 1.0, 1.0
    lo = max(-10.0, -0.9 / e)
    z = np.linspace(lo, 10.0, 40001)
    w = np.exp(-0.5 * z * z)
    base = 1.0 + e * z
    norm = np.trapezoid(w, z)
    return (float(np.trapezoid(w * base ** p, z) / norm),
            float(np.trapezoid(w * base ** (2.0 * p), z) / norm))


def mc_moments(a: float, kappa: float, k: Constants, e_kappa: float,
               sampling: str) -> Tuple[float, float]:
    """Exact mean and relative spread of lambda0 when each input X is
    drawn as X0*exp(e*z) (lognormal) or X0*(1 + e*z) (normal)."""
    lam = lambda0(a, kappa, k)
    sig = {"G": k.e("G"), "hbar": k.e("hbar"), "c": k.e("c"), "H": k.e("H"),
           "kappa": e_kappa}
    p = exponents(a)
    if sampling == "lognormal":
        s2 = sum((p[n] * sig[n]) ** 2 for n in p)
        return lam * math.exp(0.5 * s2), math.sqrt(math.expm1(s2))
    m1 = m2 = 1.0
    for name, pn in p.items():
        f1, f2 = _normal_moments(sig[name], pn)
        m1 *= f1
        m2 *= f2
    return lam * m1, math.sqrt(m2 / (m1 * m1) - 1.0)


def mc_tolerance(n: int) -> float:
    """Tolerance of the sampled rel_sigma: the suite's 3% at n = 1e5,
    widened as 1/sqrt(n) below that so the same number of standard errors
    is allowed at every sample count."""
    return TOL_MC * max(1.0, math.sqrt(MC_TOL_SAMPLES / n))


def mc_mean_tolerance(rel: float, n: int) -> float:
    """Relative tolerance of the sample mean: ``MC_MEAN_SE`` of its standard
    errors, rel/sqrt(n), where ``rel`` is the exact relative spread."""
    return MC_MEAN_SE * rel / math.sqrt(n)


# dissipation budget

def n0(k: Constants, mode: str, window_s: float) -> float:
    if mode == "paper":
        return PAPER_N0
    return 3.0 * k["c"] ** 3 * window_s / (8.0 * math.pi * k["G"] * k["M_sun"])


def epsilon(a: float, kappa: float, k: Constants) -> float:
    """eps = rho*c**3/R * ((a-1)*kappa)**(1/(a-1))."""
    return k.rho * k["c"] ** 3 / k.radius * ((a - 1.0) * kappa) ** (1.0 / (a - 1.0))


def epsilon_rel_sigma(k: Constants) -> float:
    # rho*c**3/R = 3*H**3*c**2/(8*pi*G)
    return math.sqrt(k.e("G") ** 2 + (3.0 * k.e("H")) ** 2 + (2.0 * k.e("c")) ** 2)


def n_solar(a: float, kappa: float, n0_value: float) -> float:
    return n0_value * ((a - 1.0) * kappa) ** (1.0 / (a - 1.0))


def ns_solar(n: float, ell_m: float, k: Constants) -> float:
    return n * (ell_m / k.radius) ** 3


def kappa_bound(ns: float, a: float, n0_value: float, ell_m: float, k: Constants) -> float:
    """kappa = (1/(a-1)) * (Ns/N0 * (c/(ell*H))**3)**(a-1)."""
    return (ns / n0_value * (k["c"] / (ell_m * k["H"])) ** 3) ** (a - 1.0) / (a - 1.0)


# spectra: energy per volume per wavenumber, J/m^2

def boyer(kw: float, k: Constants) -> float:
    return k["hbar"] * k["c"] * kw ** 3


def truncated(kw: float, cutoff: float, k: Constants) -> float:
    return 0.0 if kw > cutoff else boyer(kw, k)


def powerlaw(kw: float, a: float, kappa: float, k: Constants) -> float:
    """A*k**-a with A = (a-1)*kappa*rho*c**2*R**(1-a)."""
    log_amp = (math.log(a - 1.0) + math.log(kappa) + math.log(k.rho)
               + 2.0 * math.log(k["c"]) + (1.0 - a) * math.log(k.radius))
    return math.exp(log_amp - a * math.log(kw))


def horizon_rate(k: Constants) -> float:
    """Injection from horizon growth, eps = 3*rho*c**3/R."""
    return 3.0 * k.rho * k["c"] ** 3 / k.radius


def moisseev_shivamoggi(kw: float, gamma: float, k: Constants,
                        eps: Optional[float] = None, const: float = 1.0) -> float:
    """C*[rho**(g-1) * eps**(2g) * c**-2 * k**-(5g-1)]**(1/(3g-1))."""
    eps = horizon_rate(k) if eps is None else eps
    log_e = ((gamma - 1.0) * math.log(k.rho) + 2.0 * gamma * math.log(eps)
             - 2.0 * math.log(k["c"]) - (5.0 * gamma - 1.0) * math.log(kw)) / (3.0 * gamma - 1.0)
    return const * math.exp(log_e)


def spectrum_grid(kmin: float, kmax: float, points: int) -> list:
    """Log-spaced wavenumbers with the endpoints exact."""
    lo, hi = math.log(kmin), math.log(kmax)
    return [kmin] + [math.exp(lo + (hi - lo) * i / (points - 1))
                     for i in range(1, points - 1)] + [kmax]
