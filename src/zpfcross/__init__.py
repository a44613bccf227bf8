"""zpfcross: zero-point-field turbulence spectra, the vacuum/turbulence
crossover scale, and the dissipation bound on the turbulence degree.

The pipeline, bottom to top:

- ``quantity``: SI values with exact dimension exponents and
  the float core of first-order uncertainty propagation.
- ``constants``: the context, an immutable mapping of the constants
  (2006 CODATA plus a fixed Hubble measurement) with the derived
  critical density and Hubble radius, and the exponent tables over it.
- ``spectra``: Boyer vacuum spectrum, power-law and compressible
  turbulence spectra, and the energy-budget amplitude calibration.
- ``transition``: the crossover scale lambda0 with its error budget,
  checked three ways (closed form, bisection, Monte Carlo).
- ``dissipation``: the energy-dissipation budget and the bound it puts
  on the turbulence degree kappa.
- ``report``: parameter sweeps and table/CSV rendering; ``cli`` ties it
  all together.
"""

from .constants import (
    CosmologyContext,
    PhysicalConstant,
    load_config,
    parse_config,
)
from .dissipation import (
    DissipationBudget,
    kappa_from_count,
    kappa_from_solar_bound,
    n0_value,
    solar_budget,
)
from .errors import (
    BadOverride,
    DegenerateSamples,
    DimensionMismatch,
    EmptySweep,
    InvalidBracket,
    KappaOutOfRange,
    KolmogorovPole,
    NoCrossing,
    NonFinite,
    NonPositiveWavenumber,
    NumericFailure,
    PoleGamma,
    SlopeOutOfRange,
    ValidationError,
    ZpfcrossError,
)
from .quantity import (
    DIMENSIONLESS,
    Dimension,
    LENGTH,
    MASS,
    Quantity,
    TIME,
    WAVENUMBER,
)
from .report import ReportRow, SweepSpec, render, run_sweep
from .spectra import (
    Boyer,
    MoisseevShivamoggi,
    PowerLawTurbulence,
    SpectrumModel,
    TruncatedBoyer,
    amplitude_from_kappa,
    gamma_from_slope,
    horizon_injection_rate,
    horizon_spectrum_amplitude,
    slope_from_gamma,
)
from .transition import (
    MonteCarloScale,
    TransitionResult,
    kolmogorov_reference_scale,
    log_form_constants,
    log_form_scale,
    monte_carlo_scale,
    numeric_crossover,
    transition_scale,
)

__version__ = "0.1.0"
