"""zpfcross: zero-point-field turbulence spectra, the vacuum/turbulence
crossover scale, and the dissipation bound on the turbulence degree.

The pipeline, bottom to top:

- ``quantity``: SI values with exact dimension exponents and
  the float core of first-order uncertainty propagation.
- ``constants``: the context, an immutable mapping of each constant's
  name to its quantity (2006 CODATA plus a fixed Hubble measurement),
  and the exponent tables over it, the critical density and the Hubble
  radius among them.
- ``spectra``: Boyer vacuum spectrum, power-law and compressible
  turbulence spectra, and the energy-budget amplitude calibration.
- ``transition``: the crossover scale lambda0 with its error budget,
  checked three ways (closed form, bisection, Monte Carlo).
- ``dissipation``: the energy-dissipation budget and the bound it puts
  on the turbulence degree kappa.
- ``report``: parameter sweeps and table/CSV rendering; ``cli`` ties it
  all together, with ``formatting`` for the text of its values.

The package loads on demand. ``import zpfcross`` loads ``constants``,
``errors`` and ``quantity``; any other export loads its owning module on
first access, and that access binds into the package namespace the
exports of every package module loaded by then, once per process. So a
``constants`` query or ``build_parser()`` loads none of ``spectra``,
``transition``, ``dissipation`` and ``report``; a ``transition`` query
adds ``spectra`` and ``transition``; ``dissipation`` and ``bound`` add
``dissipation``; ``sweep`` loads them all.
"""

import sys

from . import constants, errors, quantity  # eager: the CLI needs them

# each export by its owning module
_EXPORTS = {
    "constants": ("CosmologyContext", "load_config", "parse_config"),
    "dissipation": ("DissipationBudget", "kappa_from_count", "kappa_from_solar_bound",
                    "n0_value", "solar_budget"),
    "errors": ("BadOverride", "DegenerateSamples", "DimensionMismatch", "EmptySweep",
               "InvalidBracket", "KappaOutOfRange", "KolmogorovPole", "NoCrossing",
               "NonFinite", "NonPositiveWavenumber", "NumericFailure", "PoleGamma",
               "SlopeOutOfRange", "ValidationError", "ZpfcrossError"),
    "quantity": ("DIMENSIONLESS", "Dimension", "LENGTH", "MASS", "Quantity", "TIME",
                 "WAVENUMBER"),
    "report": ("ReportRow", "SweepSpec", "render", "run_sweep"),
    "spectra": ("Boyer", "MoisseevShivamoggi", "PowerLawTurbulence", "SpectrumModel",
                "TruncatedBoyer", "amplitude_from_kappa", "default_wavenumber",
                "gamma_from_slope", "horizon_injection_rate", "horizon_spectrum_amplitude",
                "slope_from_gamma"),
    "transition": ("MonteCarloScale", "TransitionResult", "kolmogorov_reference_scale",
                   "log_form_constants", "log_form_scale", "monte_carlo_scale",
                   "numeric_crossover", "transition_scale"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNERS)
__version__ = "0.1.0"


def _bind() -> None:
    """Bind the exports of every package module loaded so far. A name that
    is bound already keeps its value, so a wrapper set on the package
    (a tracer's, a test's patch) outlives a later first access."""
    for module, names in _EXPORTS.items():
        loaded = sys.modules.get(f"{__name__}.{module}")
        if loaded is not None:
            for name in names:
                globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    module = _OWNERS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    _bind()
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


_bind()
