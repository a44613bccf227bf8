"""Exception hierarchy.

Two families: ``ValidationError`` for bad inputs or domain violations
(CLI exit code 2) and ``NumericFailure`` for computations that cannot
produce a finite, converged result (CLI exit code 3).
"""


class ZpfcrossError(Exception):
    """Base class for all library errors."""


class ValidationError(ZpfcrossError, ValueError):
    """Input outside its documented domain."""


class NumericFailure(ZpfcrossError, ArithmeticError):
    """Computation failed numerically (overflow, no root, divergence)."""


# substrate

class DimensionMismatch(ValidationError):
    """A dimension other than the one required: a wavenumber, a model
    parameter or an exponent table whose composed dimension is wrong."""


class NonFinite(NumericFailure):
    """A value operation produced NaN or infinity."""


# constants

class BadOverride(ValidationError):
    """Unknown constant name, non-positive value or negative uncertainty."""


# spectra

class NonPositiveWavenumber(ValidationError):
    """Spectra are defined for k > 0 only."""


class PoleGamma(ValidationError):
    """Adiabatic index at or below the 1/3 pole of the slope map."""


class KolmogorovPole(ValidationError):
    """Slope a = 5/3 has no finite adiabatic index."""


class SlopeOutOfRange(ValidationError):
    """Spectrum slope outside the open interval (1, 3)."""


class KappaOutOfRange(ValidationError):
    """Turbulence degree outside (0, 1]."""


# root finding / sampling

class NoCrossing(NumericFailure):
    """Spectra do not cross inside the search bracket."""


class InvalidBracket(ValidationError):
    """Root bracket empty, unordered or non-positive."""


class DegenerateSamples(NumericFailure):
    """Monte Carlo resampling could not produce positive constants."""


# report

class EmptySweep(ValidationError):
    """Sweep specification with no slope or kappa values."""
