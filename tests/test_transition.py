import inspect
import math
import sys
import tracemalloc
import types
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from zpfcross import constants, transition
from zpfcross.constants import HUBBLE_RADIUS, CosmologyContext, ExponentTable
from zpfcross.dissipation import solar_budget
from zpfcross.errors import (
    DegenerateSamples,
    DimensionMismatch,
    InvalidBracket,
    KappaOutOfRange,
    NoCrossing,
    NonFinite,
    SlopeOutOfRange,
    ValidationError,
)
from zpfcross.quantity import LENGTH, Dimension, Quantity, SPECTRAL_DENSITY, WAVENUMBER
from zpfcross.report import SweepSpec, run_sweep
from zpfcross.spectra import Boyer, MoisseevShivamoggi, PowerLawTurbulence, TruncatedBoyer
from moment_oracle import lognormal_moments, normal_mean, truncated_power_mean
from zpfcross.transition import (
    CROSSOVER_VOLUME,
    kolmogorov_reference_scale,
    log_form_constants,
    log_form_scale,
    monte_carlo_scale,
    numeric_crossover,
    scale_terms,
    transition_scale,
)

C, G, HBAR, H = 2.99792458e8, 6.67428e-11, 1.054571628e-34, 2.49e-18
E_G, E_C, E_HBAR, E_H = 1e-4, 0.0, 5e-5, 0.15


def rel(x, y):
    return abs(x - y) / abs(y)


def lambda0_oracle(a, kappa):
    # plain-float evaluation of the closed form, independent of the
    # quantity machinery
    inner = (8.0 * math.pi * G * HBAR / (3.0 * (a - 1.0) * kappa * C ** 2 * H)
             * (C / H) ** a)
    return 2.0 * math.pi * inner ** (1.0 / (3.0 + a))


def rel_sigma_oracle(a, e_kappa=0.0):
    return math.sqrt(E_G ** 2 + (a - 2.0) ** 2 * E_C ** 2 + E_HBAR ** 2
                     + (a + 1.0) ** 2 * E_H ** 2 + e_kappa ** 2) / (3.0 + a)


def sample_inputs(a, ctx, e_kappa):
    """(e_X, p_X) of the inputs with e_X > 0 among G, c, hbar, H and kappa:
    the columns of a normal-mode draw, in that order."""
    q = 1.0 / (3.0 + a)
    rels = np.array([ctx[name].rel_sigma for name in ("G", "c", "hbar", "H")] + [e_kappa])
    exponents = np.array([q, (a - 2.0) * q, q, -(a + 1.0) * q, -q])
    return rels[rels > 0.0], exponents[rels > 0.0]


def ratio_moments(a, kappa, ctx, log_ratios):
    """(mean, rel_sigma) by np.mean and np.std of lambda0*exp(log_ratios)."""
    lam = transition_scale(a, kappa, ctx).lambda0.value * np.exp(log_ratios)
    return float(np.mean(lam)), float(np.std(lam, ddof=1) / np.mean(lam))


def sample_moments(a, kappa, ctx, e_kappa, logs):
    """``ratio_moments`` of logs @ p, over the columns of ``sample_inputs``."""
    return ratio_moments(a, kappa, ctx, logs @ sample_inputs(a, ctx, e_kappa)[1])


def log_spread(rels, exponents):
    """s = sqrt(sum((p_X*e_X)**2)): ln(lambda/lambda0) = sum(p_X*e_X*z_X) is
    a normal of spread s, so lognormal mode draws s*z."""
    return math.sqrt(math.fsum((rels * exponents) ** 2))


def one_shot_oracle(a, kappa, n, seed, ctx, e_kappa=0.0, sampling="lognormal"):
    """(mean, rel_sigma) of the whole-array Monte Carlo. Lognormal: lambda0 *
    exp(s*z) over one draw of n normals. Normal: one (n, k) draw of the k
    inputs with e_X > 0; it holds only where nothing is rejected."""
    rels, exponents = sample_inputs(a, ctx, e_kappa)
    rng = transition._generator(seed)
    if sampling == "lognormal":
        return ratio_moments(a, kappa, ctx, log_spread(rels, exponents) * rng.standard_normal(n))
    samples = np.log(1.0 + rels * rng.standard_normal((n, rels.size)))
    return sample_moments(a, kappa, ctx, e_kappa, samples)


class TestClosedForm:
    def test_matches_float_oracle(self, ctx):
        for a in (1.3, 1.7, 5.0 / 3.0, 1.8, 2.0, 2.5):
            for kappa in (1.0, 1e-5, 1e-17):
                result = transition_scale(a, kappa, ctx)
                assert rel(result.lambda0.value, lambda0_oracle(a, kappa)) < 1e-12
                assert rel(result.rel_sigma, rel_sigma_oracle(a)) < 1e-12

    def test_published_values(self, ctx):
        r = transition_scale(1.7, 1.0, ctx)
        assert rel(r.lambda0.value, 16.0) < 0.02
        r = transition_scale(2.0, 1e-5, ctx)
        assert rel(r.lambda0.value, 5172.0) < 0.02
        assert rel(r.sigma.value, 465.0) < 0.10

    def test_kolmogorov_slope_value(self, ctx):
        # frozen from the float oracle at a = 5/3, kappa = 1
        result = transition_scale(5.0 / 3.0, 1.0, ctx)
        assert rel(result.lambda0.value, 10.624246) < 1e-6

    def test_lambda0_is_exactly_2pi_over_k0(self, ctx):
        r = transition_scale(1.8, 1e-5, ctx)
        assert r.lambda0.value == 2.0 * math.pi / r.k0.value

    def test_breakdown_sums_to_rel_sigma(self, ctx):
        r = transition_scale(1.7, 1e-5, ctx, e_kappa=0.2)
        total = math.sqrt(sum(v ** 2 for v in r.sigma_breakdown.values()))
        assert rel(r.rel_sigma, total) < 1e-15
        assert set(r.sigma_breakdown) == {"G", "c", "hbar", "H", "kappa"}

    def test_e_kappa_enters_budget(self, ctx):
        r = transition_scale(1.7, 1e-5, ctx, e_kappa=0.2)
        assert rel(r.rel_sigma, rel_sigma_oracle(1.7, e_kappa=0.2)) < 1e-12
        assert rel(r.sigma_breakdown["kappa"], 0.2 / 4.7) < 1e-12

    def test_domain_errors(self, ctx):
        with pytest.raises(SlopeOutOfRange):
            transition_scale(1.0, 1.0, ctx)
        with pytest.raises(SlopeOutOfRange):
            transition_scale(3.2, 1.0, ctx)
        with pytest.raises(KappaOutOfRange):
            transition_scale(1.7, 0.0, ctx)
        with pytest.raises(KappaOutOfRange):
            transition_scale(1.7, 1.2, ctx)
        with pytest.raises(ValidationError):
            transition_scale(1.7, 1.0, ctx, e_kappa=-0.1)

    @pytest.mark.parametrize("e_kappa", [-0.1, math.nan, math.inf])
    @pytest.mark.parametrize("scale", [
        transition_scale,
        lambda a, kappa, ctx, e_kappa: monte_carlo_scale(a, kappa, 2000, 0, ctx, e_kappa),
    ], ids=["transition_scale", "monte_carlo_scale"])
    def test_every_path_rejects_a_bad_e_kappa(self, ctx, scale, e_kappa):
        with pytest.raises(ValidationError, match=r"^e_kappa must be finite and >= 0"):
            scale(1.8, 1e-5, ctx, e_kappa)

    def test_monotone_in_kappa(self, ctx):
        kappas = [10.0 ** e for e in range(-20, 1, 2)]
        values = [transition_scale(1.8, k, ctx).lambda0.value for k in kappas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_slope(self, ctx):
        slopes = [1.6 + 0.05 * i for i in range(13)]  # 1.6 .. 2.2
        for kappa in (1.0, 1e-5, 1e-20):
            values = [transition_scale(a, kappa, ctx).lambda0.value for a in slopes]
            assert all(x < y for x, y in zip(values, values[1:]))

    def test_rel_sigma_independent_of_kappa(self, ctx):
        base = transition_scale(1.8, 1.0, ctx).rel_sigma
        for kappa in (1e-20, 1e-10, 1e-5):
            assert transition_scale(1.8, kappa, ctx).rel_sigma == base


    def test_k0_underflow_is_numeric_failure(self, ctx):
        # k0**(3+a) is about 7e-334 here, below the smallest float
        with pytest.raises(NonFinite):
            transition_scale(2.9, 1e-300, ctx)

    def test_overflowing_constants_are_numeric_failure(self):
        huge = CosmologyContext.default({"hbar": 1e308, "G": 1e308})
        with pytest.raises(NonFinite):
            transition_scale(1.8, 1.0, huge)
        # V overflows with H = 1e-300 1/s: the message blames the constants
        with pytest.raises(NonFinite, match=r"^V = G\*hbar/\(c\*\*2\*H\), R = c/H or their "
                                            r"uncertainty leaves the float range with "
                                            r"these constants$"):
            transition_scale(1.8, 1.0, CosmologyContext.default({"H": 1e-300}))

    def test_infinite_rel_sigma_fails_only_when_sigma_is_read(self, ctx):
        # (q*e_kappa)**2 overflows, so rel_sigma is inf; lambda0 and k0 are
        # still floats, and the Monte Carlo reads only lambda0
        result = transition_scale(1.8, 1.0, ctx, e_kappa=1e300)
        assert result.rel_sigma == math.inf
        assert result.lambda0.value == transition_scale(1.8, 1.0, ctx).lambda0.value
        with pytest.raises(NonFinite, match=r"^sigma = lambda0\*rel_sigma leaves the float "
                                            rf"range for lambda0 = {result.lambda0.value!r} m "
                                            r"and rel_sigma = inf$"):
            result.sigma


class TestExponentTable:
    def test_exponents_match_the_paper(self, ctx):
        # lambda0 ~ G**q hbar**q c**((a-2)q) H**(-(a+1)q) kappa**-q, q = 1/(3+a)
        custom = CosmologyContext.default({"e_G": 0.01, "e_c": 0.02, "e_hbar": 0.03,
                                           "e_H": 0.04})
        for a in (1.1, 5.0 / 3.0, 2.0, 2.9):
            q = 1.0 / (3.0 + a)
            r = transition_scale(a, 1e-5, custom, e_kappa=0.05)
            expected = {"G": q * 0.01, "c": abs(a - 2.0) * q * 0.02, "hbar": q * 0.03,
                        "H": (a + 1.0) * q * 0.04, "kappa": q * 0.05}
            assert set(r.sigma_breakdown) == set(expected)
            for name, value in expected.items():
                assert math.isclose(r.sigma_breakdown[name], value, rel_tol=1e-15)

    def test_identities_checked_at_import(self):
        assert CROSSOVER_VOLUME.dim == LENGTH ** 3
        assert dict(CROSSOVER_VOLUME.exponents) == {"G": 1, "hbar": 1, "c": -2, "H": -1}
        assert HUBBLE_RADIUS.dim == LENGTH
        assert dict(HUBBLE_RADIUS.exponents) == {"c": 1, "H": -1}

    def test_wrong_exponent_fails_the_check(self):
        # p_H = -a*q instead of -(a+1)*q means H drops out of the volume
        with pytest.raises(DimensionMismatch):
            ExponentTable({"G": 1, "hbar": 1, "c": -2, "H": 0}, LENGTH ** 3)

    def test_wrong_exponent_fails_the_module_import(self, monkeypatch):
        # the same mutation in the source of the module that defines V stops its import
        source = inspect.getsource(constants)
        right = '{"G": 1, "hbar": 1, "c": -2, "H": -1}'
        assert source.count(right) == 1

        def import_source(text):
            module = types.ModuleType("zpfcross._constants_copy")
            module.__package__ = "zpfcross"
            monkeypatch.setitem(sys.modules, module.__name__, module)
            exec(compile(text, constants.__file__, "exec"), module.__dict__)
            return module

        copy = import_source(source).CROSSOVER_VOLUME  # of the copy's own table class
        assert (dict(copy.exponents), copy.dim, copy.coeff) == (
            dict(CROSSOVER_VOLUME.exponents), CROSSOVER_VOLUME.dim, CROSSOVER_VOLUME.coeff)
        with pytest.raises(DimensionMismatch):
            import_source(source.replace(right, right.replace('"H": -1', '"H": 0')))

    def test_no_dimension_arithmetic_per_call(self, ctx, monkeypatch):
        calls = []

        def counted(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)
            return wrapper

        # spectrum models check their dimension when built, not per point
        models = [Boyer.from_context(ctx), TruncatedBoyer.from_context(ctx),
                  PowerLawTurbulence.from_kappa(ctx, 1e-5, 1.8),
                  MoisseevShivamoggi.from_context(ctx, 1.37)]
        for name in ("__mul__", "__truediv__", "__pow__"):
            monkeypatch.setattr(Dimension, name, counted(name, getattr(Dimension, name)))
        transition_scale(1.8, 1e-5, ctx, e_kappa=0.1)
        log_form_scale(1.8, 1e-5, ctx)
        monte_carlo_scale(1.8, 1e-5, 1000, 5, ctx, e_kappa=0.1)
        monte_carlo_scale(1.8, 1e-5, 1000, 5, ctx, sampling="normal")
        solar_budget(1e-5, 1.8, ctx, n0_mode="computed")
        run_sweep(SweepSpec(slopes=(1.7, 2.9), kappas=(1.0, 1e-300),
                            outputs=("epsilon", "N", "Ns"), n0_mode="computed"), ctx)
        numeric_crossover(models[0], models[2], ctx)
        numeric_crossover(models[1], models[2], ctx,
                          bracket=(Quantity(1e-20, WAVENUMBER), Quantity(1e20, WAVENUMBER)))
        for model in models:
            model.evaluate(Quantity(2.5, WAVENUMBER))
            model.kernel(np.geomspace(1e-20, 1e30, 7))
        assert calls == []
        Dimension(1) * Dimension(2)  # the counters do count
        assert calls


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=1.0, max_value=3.0, exclude_min=True, exclude_max=True),
           log_kappa=st.floats(min_value=-30.0, max_value=0.0),
           e_kappa=st.floats(min_value=0.0, max_value=1.0))
    def test_closed_form_log_form_and_budget(self, ctx, a, log_kappa, e_kappa):
        kappa = 10.0 ** log_kappa
        r = transition_scale(a, kappa, ctx, e_kappa=e_kappa)
        assert rel(r.lambda0.value, log_form_scale(a, kappa, ctx).value) < 1e-12
        assert r.lambda0.value == 2.0 * math.pi / r.k0.value
        squares = sum(v * v for v in r.sigma_breakdown.values())
        assert math.isclose(r.rel_sigma ** 2, squares, rel_tol=1e-14)
        assert rel(r.rel_sigma, rel_sigma_oracle(a, e_kappa)) < 1e-12

    @settings(max_examples=400, deadline=None)
    @given(a=st.floats(min_value=1.0, max_value=3.0, exclude_min=True, exclude_max=True),
           log_kappa=st.floats(min_value=-30.0, max_value=math.log10(0.5)),
           log_scales=st.fixed_dictionaries({name: st.floats(min_value=-3.0, max_value=3.0)
                                             for name in ("G", "hbar", "c", "H")}))
    def test_budget_vector_is_the_closed_form_power_law(self, ctx, a, log_kappa, log_scales):
        # lambda0 is an exact power law in each input, so doubling input X
        # multiplies it by 2**p_X, whatever code formed the vector
        values = {name: ctx[name].value * 10.0 ** s for name, s in log_scales.items()}
        kappa = 10.0 ** log_kappa
        scaled = CosmologyContext.default(values)
        lambda0 = transition_scale(a, kappa, scaled).lambda0.value
        budget = scale_terms(a, scaled).budget
        assert [name for name, _, _ in budget] == ["G", "c", "hbar", "H", "kappa"]
        assert budget[-1][1] == -1.0 / (3.0 + a)
        for name, p, _ in budget:
            if name == "kappa":
                doubled = transition_scale(a, 2.0 * kappa, scaled)
            else:
                doubled = transition_scale(
                    a, kappa, CosmologyContext.default({**values, name: 2.0 * values[name]}))
            assert rel(doubled.lambda0.value / lambda0, 2.0 ** p) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(min_value=1.0, max_value=3.0, exclude_min=True, exclude_max=True),
           log_kappa=st.floats(min_value=-30.0, max_value=0.0))
    def test_bisection_equals_closed_form(self, ctx, a, log_kappa):
        kappa = 10.0 ** log_kappa
        k0 = transition_scale(a, kappa, ctx).k0.value
        # the default bracket: the largest eddy to the Planck wavenumber
        assume(1.0 / HUBBLE_RADIUS.value(ctx) < k0 < 2.0 * math.pi / ctx["r_p"].value)
        turb = PowerLawTurbulence.from_kappa(ctx, kappa, a)
        assert rel(numeric_crossover(Boyer.from_context(ctx), turb, ctx).value, k0) < 1e-9


# pi to 64 digits, for the 60-digit decimal oracle
DECIMAL_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")
# the closed form's worst relative error over 20000 random cells was
# 2.6e-14 (3.2e-14 in an earlier sample of 4000): q = 1/(3+a) is rounded
# before the power, which amplifies that rounding by q*|ln base| <= 177
LAMBDA0_REL_BOUND = 6e-14


def decimal_scale(a, kappa, ctx):
    """lambda0, the numerator 3*(a-1)*kappa/(8*pi) and the base
    numerator/(V*R**a) in 60-digit decimal arithmetic, the float inputs
    taken as exact binary values."""
    with localcontext() as digits:
        digits.prec = 60
        a, kappa = Decimal(a), Decimal(kappa)
        g, hbar, c, h = (Decimal(ctx[name].value) for name in ("G", "hbar", "c", "H"))
        bracket = g * hbar / (c * c * h) * ((c / h).ln() * a).exp()
        numerator = 3 * (a - 1) * kappa / (8 * DECIMAL_PI)
        base = numerator / bracket
        return 2 * DECIMAL_PI * (-base.ln() / (3 + a)).exp(), numerator, base


class TestAccuracyOracle:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=1.0, max_value=3.0, exclude_min=True, exclude_max=True),
           log_kappa=st.floats(min_value=-300.0, max_value=0.0),
           log_scales=st.fixed_dictionaries({name: st.floats(min_value=-3.0, max_value=3.0)
                                             for name in ("G", "hbar", "c", "H")}))
    def test_closed_form_against_decimal(self, ctx, a, log_kappa, log_scales):
        # only where the base and its numerator are normal floats; where
        # either is not, the closed form loses digits (ROADMAP item 14):
        # 2.2e-13 at a = 1.0000000000000002, kappa = 1e-295, whose base is
        # normal and its numerator subnormal
        scaled = CosmologyContext.default(
            {name: ctx[name].value * 10.0 ** s for name, s in log_scales.items()})
        kappa = 10.0 ** log_kappa
        exact, numerator, base = decimal_scale(a, kappa, scaled)
        normal = Decimal(sys.float_info.min), Decimal(sys.float_info.max)
        assume(normal[0] <= min(numerator, base) and base <= normal[1])
        lambda0 = transition_scale(a, kappa, scaled).lambda0.value
        assert abs(Decimal(lambda0) - exact) / exact <= LAMBDA0_REL_BOUND


class TestNumericCrossover:
    def test_agrees_with_closed_form(self, ctx):
        vac = Boyer.from_context(ctx)
        for a in (1.7, 2.0):
            for kappa in (1.0, 1e-10):
                turb = PowerLawTurbulence.from_kappa(ctx, kappa, a)
                k0 = numeric_crossover(vac, turb, ctx)
                assert rel(k0.value, transition_scale(a, kappa, ctx).k0.value) < 1e-9

    def test_spectra_equal_at_root(self, ctx):
        vac = Boyer.from_context(ctx)
        turb = PowerLawTurbulence.from_kappa(ctx, 1e-5, 1.8)
        k0 = numeric_crossover(vac, turb, ctx)
        assert rel(vac.evaluate(k0).value, turb.evaluate(k0).value) < 1e-9

    def test_truncated_vacuum_spectrum_works(self, ctx):
        vac = TruncatedBoyer.from_context(ctx)
        turb = PowerLawTurbulence.from_kappa(ctx, 1.0, 1.8)
        k0 = numeric_crossover(vac, turb, ctx)
        assert rel(k0.value, transition_scale(1.8, 1.0, ctx).k0.value) < 1e-9

    def test_zero_amplitude_no_crossing(self, ctx):
        from fractions import Fraction
        vac = Boyer.from_context(ctx)
        dim = SPECTRAL_DENSITY * WAVENUMBER ** Fraction(2.0)
        silent = PowerLawTurbulence(Quantity(0.0, dim), 2.0)
        with pytest.raises(NoCrossing):
            numeric_crossover(vac, silent, ctx)

    def test_bracket_missing_root(self, ctx):
        vac = Boyer.from_context(ctx)
        turb = PowerLawTurbulence.from_kappa(ctx, 1.0, 1.8)
        bracket = (Quantity(1e10, WAVENUMBER), Quantity(1e12, WAVENUMBER))
        with pytest.raises(NoCrossing):
            numeric_crossover(vac, turb, ctx, bracket=bracket)

    def test_invalid_bracket(self, ctx):
        vac = Boyer.from_context(ctx)
        turb = PowerLawTurbulence.from_kappa(ctx, 1.0, 1.8)
        with pytest.raises(InvalidBracket):
            numeric_crossover(vac, turb, ctx,
                              bracket=(Quantity(1e3, WAVENUMBER), Quantity(1.0, WAVENUMBER)))
        with pytest.raises(InvalidBracket):
            numeric_crossover(vac, turb, ctx,
                              bracket=(Quantity(1.0), Quantity(2.0)))

    @pytest.mark.parametrize("overrides, message", [
        ({"c": 1e-230, "H": 1e100}, "the default kmin = 1/R overflows for R = c/H = 0.0 m"),
        ({"H": 1e-320}, "the default kmin = 1/R cannot be formed: R = c/H leaves the "
                        "float range with these constants"),
        ({"r_p": 1e-320},
         "the Planck wavenumber 2*pi/r_p overflows for r_p = 1e-320 m"),
    ], ids=["R underflows to 0", "R overflows", "r_p is subnormal"])
    def test_default_bracket_beyond_floats_is_named(self, overrides, message):
        # the default bracket [1/R, 2*pi/r_p] is computed by one helper, which
        # names the length; no ZeroDivisionError or NonFinite at k = inf
        ctx = CosmologyContext.default(overrides)
        turb = PowerLawTurbulence(Quantity(1.0, SPECTRAL_DENSITY * WAVENUMBER ** Fraction(1.8)),
                                  1.8)
        with pytest.raises(NonFinite) as info:
            numeric_crossover(Boyer.from_context(ctx), turb, ctx)
        assert str(info.value) == message


class TestSigmaApproximation:
    """The dominant-term estimate sigma/lambda0 ~ (a+1)*e_H/(a+3) is the H
    entry of the breakdown: e_H dwarfs the other uncertainties."""

    def test_reference_point(self, ctx):
        assert rel(transition_scale(2.0, 1.0, ctx).sigma_breakdown["H"], 0.09) < 1e-15

    def test_zero_uncertainty(self):
        exact_h = CosmologyContext.default({"e_H": 0.0})
        assert transition_scale(1.8, 1.0, exact_h).sigma_breakdown["H"] == 0.0

    def test_close_to_full_formula(self, ctx):
        # dominant-H approximation within 1% of the full budget
        for i in range(7):
            a = 1.7 + 0.05 * i
            result = transition_scale(a, 1.0, ctx)
            approx = result.sigma_breakdown["H"]
            assert rel(approx, (a + 1.0) * E_H / (a + 3.0)) < 1e-15
            assert abs(result.rel_sigma - approx) / result.rel_sigma < 0.01


class TestLogForm:
    def test_identity_with_closed_form(self, ctx):
        for a in (1.7, 1.8, 2.0):
            for kappa in (1.0, 1e-5):
                closed = transition_scale(a, kappa, ctx).lambda0.value
                assert rel(log_form_scale(a, kappa, ctx).value, closed) < 1e-12

    def test_constants(self, ctx):
        # oracle: direct logarithms of the default constants
        c1, c2 = log_form_constants(ctx)
        assert rel(c1, math.log(3.0 * C ** 2 * H / (8.0 * math.pi * G * HBAR))) < 1e-12
        assert rel(c2, math.log(H / C)) < 1e-12
        assert abs(c1 - 98.05) < 0.01
        assert abs(-c2 - 60.05) < 0.01

    def test_reference_value(self, ctx):
        assert rel(log_form_scale(2.0, 1e-5, ctx).value, 5.18e3) < 1e-3


class TestMonteCarlo:
    def test_deterministic_given_seed(self, ctx):
        a = monte_carlo_scale(1.8, 1e-5, 2000, 42, ctx)
        b = monte_carlo_scale(1.8, 1e-5, 2000, 42, ctx)
        assert a.mean.value == b.mean.value
        assert a.rel_sigma == b.rel_sigma

    def test_matches_analytic_budget(self, ctx):
        for a in (1.7, 2.0):
            mc = monte_carlo_scale(a, 1.0, 100000, 20260810, ctx)
            assert abs(mc.rel_sigma - rel_sigma_oracle(a)) / rel_sigma_oracle(a) < 0.03

    def test_all_exact_constants(self):
        exact = CosmologyContext.default({"e_G": 0.0, "e_hbar": 0.0, "e_H": 0.0})
        mc = monte_carlo_scale(2.0, 1.0, 1000, 7, exact)
        closed = transition_scale(2.0, 1.0, exact).lambda0.value
        # every ratio lambda/lambda0 is exactly 1.0
        assert mc.mean.value == closed
        assert mc.rel_sigma == 0.0
        assert mc.mean_se.value == 0.0
        assert mc.rejected == 0

    def test_normal_sampling_mode(self, ctx):
        mc = monte_carlo_scale(2.0, 1.0, 5000, 3, ctx, sampling="normal")
        assert mc.rel_sigma > 0.0
        assert mc.rejected == 0  # 6.7 sigma to a negative H, never drawn

    @pytest.mark.parametrize("overrides, args, kwargs, mean, rel_sigma, rejected", [
        ({}, (1.8, 1e-5, 2000, 42), {}, 591.3562046603587, 0.08610162423781652, 0),
        ({"e_H": 0.3, "e_G": 0.2}, (1.8, 1e-3, 5000, 3),
         {"e_kappa": 0.4, "sampling": "normal"}, 244.41773675972925, 0.3019645651595337, 28),
    ], ids=["lognormal", "normal-heavy"])
    def test_pinned_draws(self, overrides, args, kwargs, mean, rel_sigma, rejected):
        # lognormal: np.mean and np.std of lambda0*exp(s*z) over
        # _generator(42).standard_normal(2000); normal: the per-sample closed
        # form over the same draws, kept to show that sampling the ratios
        # X/X0 draws the same constants
        mc = monte_carlo_scale(*args, CosmologyContext.default(overrides), **kwargs)
        assert rel(mc.mean.value, mean) < 1e-12
        assert rel(mc.rel_sigma, rel_sigma) < 1e-12
        assert mc.rejected == rejected
        assert mc.n_samples == args[2]

    def test_spread_out_of_float_range_is_numeric_failure(self, ctx):
        # kappa**(-q) with e_kappa = 1000 spans hundreds of decades; at
        # e_kappa = 1e200, (p*e)**2 is beyond floats too. numpy warns of none
        # of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e_kappa in (1000.0, 1e6, 1e200):
                with pytest.raises(NonFinite):
                    monte_carlo_scale(1.8, 1.0, 1000, 0, ctx, e_kappa=e_kappa)

    def test_sample_count_precondition(self, ctx):
        with pytest.raises(ValidationError):
            monte_carlo_scale(1.8, 1.0, 999, 0, ctx)

    @pytest.mark.parametrize("n", [1e6, 2000.0, "2000", None])
    def test_sample_count_that_is_not_an_integer(self, ctx, n, monkeypatch):
        def no_generator(seed):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(transition, "_generator", no_generator)
        with pytest.raises(ValidationError, match=r"sample count n must be an integer, got "):
            monte_carlo_scale(1.8, 1.0, n, 0, ctx)

    def test_numpy_integer_sample_count(self, ctx):
        assert (monte_carlo_scale(1.8, 1.0, np.int64(2000), 0, ctx)
                == monte_carlo_scale(1.8, 1.0, 2000, 0, ctx))

    def test_unknown_sampling_mode(self, ctx):
        with pytest.raises(ValidationError):
            monte_carlo_scale(1.8, 1.0, 2000, 0, ctx, sampling="bootstrap")

    def test_negative_seed_is_validation_error(self, ctx):
        # numpy's generator takes only non-negative integer seeds
        with pytest.raises(ValidationError, match="seed .* got -1"):
            monte_carlo_scale(1.8, 1.0, 2000, -1, ctx)

    @pytest.mark.parametrize("seed", [1.5, "3"])
    def test_seed_that_is_not_an_integer_is_validation_error(self, ctx, seed):
        with pytest.raises(ValidationError, match=f"seed .* got {seed!r}"):
            monte_carlo_scale(1.8, 1.0, 2000, seed, ctx)

    @pytest.mark.parametrize("seed", [2 ** 70, [1, 2]], ids=["2**70", "[1, 2]"])
    def test_wide_and_sequence_seeds_are_deterministic(self, ctx, seed):
        assert (monte_carlo_scale(1.8, 1.0, 2000, seed, ctx)
                == monte_carlo_scale(1.8, 1.0, 2000, seed, ctx))

    def test_unseeded_draws_differ(self, ctx):
        # None seeds from the operating system's entropy
        assert (monte_carlo_scale(1.8, 1.0, 2000, None, ctx).mean
                != monte_carlo_scale(1.8, 1.0, 2000, None, ctx).mean)

    def test_generator_is_sfc64_seeded_through_a_seed_sequence(self):
        rng = transition._generator(7)
        assert type(rng.bit_generator) is np.random.SFC64
        expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(7)))
        assert rng.standard_normal(5).tolist() == expected.standard_normal(5).tolist()


BLOCK = transition._MC_BLOCK_ROWS
# normal sampling rejects about 0.6% of the kappa draws at e_kappa = 0.4
HEAVY = {"e_H": 0.3, "e_G": 0.2}


class TestMonteCarloStream:
    @pytest.mark.parametrize("n", [1000, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("overrides, e_kappa, sampling", [
        ({}, 0.0, "lognormal"), ({}, 0.0, "normal"), (HEAVY, 0.4, "lognormal"),
    ])
    def test_equals_one_shot_draws(self, n, overrides, e_kappa, sampling):
        # the heavy normal case rejects entries, so its draws differ from one
        # whole draw; TestMonteCarloMoments holds it to its exact mean
        ctx = CosmologyContext.default(overrides)
        mc = monte_carlo_scale(1.8, 1e-3, n, 3, ctx, e_kappa=e_kappa, sampling=sampling)
        mean, rel_sigma = one_shot_oracle(1.8, 1e-3, n, 3, ctx, e_kappa, sampling)
        assert mc.rejected == 0
        assert rel(mc.mean.value, mean) < 1e-12
        assert rel(mc.rel_sigma, rel_sigma) < 1e-12
        assert mc.mean_se.dim == LENGTH
        assert rel(mc.mean_se.value, rel_sigma * mean / math.sqrt(n)) < 1e-12

    def test_heavy_normal_case_rejects_in_several_blocks(self):
        # so test_rejected_entries_are_redrawn_inside_their_block sees
        # redraws in several blocks, not only in the first
        n = 3 * BLOCK + 17
        rels = sample_inputs(1.8, CosmologyContext.default(HEAVY), 0.4)[0]
        draw = transition._generator(3).standard_normal((n, rels.size))
        rows = np.flatnonzero((1.0 + rels * draw <= 0.0).any(axis=1))
        assert {0, 1, 2} <= set((rows // BLOCK).tolist())

    def test_rejected_entries_are_redrawn_inside_their_block(self, monkeypatch):
        # replays the recorded draws: each redraw (a 1-d draw) patches exactly
        # the entries of the latest block that are still rejected, and the
        # samples are those of the patched blocks
        n, a, kappa = 3 * BLOCK + 17, 1.8, 1e-3
        ctx = CosmologyContext.default(HEAVY)
        rels = sample_inputs(a, ctx, 0.4)[0]
        make_rng, draws = transition._generator, []

        class Recording:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def standard_normal(self, shape):
                draws.append(self.rng.standard_normal(shape))
                return draws[-1].copy()

        monkeypatch.setattr(transition, "_generator", Recording)
        mc = monte_carlo_scale(a, kappa, n, 3, ctx, e_kappa=0.4, sampling="normal")
        blocks, redrawn, rejected = [], set(), 0
        for z in draws:
            if z.ndim == 2:
                blocks.append(1.0 + rels * z)
                continue
            r = blocks[-1]
            bad = r <= 0.0
            assert z.size == bad.sum() > 0
            r[bad] = 1.0 + np.broadcast_to(rels, r.shape)[bad] * z
            redrawn.add(len(blocks) - 1)
            rejected += z.size
        assert len(blocks) == 4 and {0, 1, 2} <= redrawn
        assert mc.rejected == rejected
        r = np.concatenate(blocks)
        assert r.min() > 0.0
        mean, rel_sigma = sample_moments(a, kappa, ctx, 0.4, np.log(r))
        assert rel(mc.mean.value, mean) < 1e-12
        assert rel(mc.rel_sigma, rel_sigma) < 1e-12

    @pytest.mark.parametrize("sampling", ["lognormal", "normal"])
    @pytest.mark.parametrize("overrides, e_kappa, k", [
        ({}, 0.0, 3), ({}, 0.1, 4), ({"e_G": 0.0, "e_hbar": 0.0, "e_H": 0.0}, 0.0, 0)],
        ids=["defaults", "e_kappa-0.1", "all-exact"])
    def test_exact_inputs_draw_nothing(self, monkeypatch, overrides, e_kappa, k, sampling):
        # a normal block draws one column per input with e_X > 0: c is exact
        # at the defaults, and so is kappa unless e_kappa > 0. A lognormal
        # block draws one column, s*z, unless no input varies
        ctx = CosmologyContext.default(overrides)
        make_rng, shapes = transition._generator, []

        class Recording:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def standard_normal(self, shape):
                z = self.rng.standard_normal(shape)
                shapes.append(z.shape)
                return z

        monkeypatch.setattr(transition, "_generator", Recording)
        n = 2 * BLOCK + 17
        mc = monte_carlo_scale(1.8, 1e-3, n, 3, ctx, e_kappa=e_kappa, sampling=sampling)
        if sampling == "normal":
            assert shapes == [(BLOCK, k), (BLOCK, k), (17, k)]
        else:
            assert shapes == ([(BLOCK,), (BLOCK,), (17,)] if k else [])
        assert mc.rejected == 0
        if k == 0:
            assert mc.mean.value == transition_scale(1.8, 1e-3, ctx).lambda0.value
            assert mc.rel_sigma == 0.0
            assert mc.mean_se.value == 0.0

    @pytest.mark.parametrize("sampling", ["lognormal", "normal"])
    def test_every_input_varying_equals_the_five_column_draw(self, sampling):
        # with e_X > 0 for all five inputs, normal mode gives the result of
        # the former sampler, which drew one (n, 5) array of G, c, hbar, H
        # and kappa; lognormal mode gives the law of that draw, z @ (p*e),
        # as one column of normals scaled by the norm of the five p*e
        ctx = CosmologyContext.default({"e_c": 1e-3})
        n = 3 * BLOCK + 17
        mc = monte_carlo_scale(1.8, 1e-3, n, 3, ctx, e_kappa=0.1, sampling=sampling)
        rels = np.array([ctx[name].rel_sigma for name in ("G", "c", "hbar", "H")] + [0.1])
        exponents = np.array([1.0, -0.2, 1.0, -2.8, -1.0]) / 4.8
        rng = transition._generator(3)
        if sampling == "normal":
            logs = np.log(1.0 + rels * rng.standard_normal((n, 5)))
            mean, rel_sigma = ratio_moments(1.8, 1e-3, ctx, logs @ exponents)
        else:
            s = log_spread(rels, exponents)
            mean, rel_sigma = ratio_moments(1.8, 1e-3, ctx, s * rng.standard_normal(n))
        assert mc.rejected == 0
        assert rel(mc.mean.value, mean) < 1e-12
        assert rel(mc.rel_sigma, rel_sigma) < 1e-12

    @pytest.mark.parametrize("e_kappa, sampling", [
        (0.0, "lognormal"), (0.0, "normal"), (1.0, "normal")],
        ids=["lognormal", "normal", "normal-e_kappa-1"])
    def test_memory_does_not_grow_with_samples(self, ctx, e_kappa, sampling):
        # numpy reports its buffers to tracemalloc; the whole (10**6, 5)
        # array of the one-shot draw alone is 40 MB. At e_kappa = 1 about
        # 16% of the rows have a rejected entry
        monte_carlo_scale(1.8, 1e-5, 1000, 1, ctx, e_kappa=e_kappa, sampling=sampling)
        tracemalloc.start()
        try:
            monte_carlo_scale(1.8, 1e-5, 10 ** 6, 1, ctx, e_kappa=e_kappa, sampling=sampling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_stalled_rejection_is_degenerate_samples(self, ctx, monkeypatch):
        # every draw makes G, hbar and H negative; c and kappa have e = 0
        class Negative:
            def standard_normal(self, shape):
                return np.full(shape, -1e9)

        monkeypatch.setattr(transition, "_generator", lambda seed: Negative())
        with pytest.raises(DegenerateSamples, match="after 3000000 redraws"):
            monte_carlo_scale(1.8, 1.0, 1000, 0, ctx, sampling="normal")


MOMENT_CASES = [({}, 0.0), ({}, 0.4), ({}, 1.0), (HEAVY, 0.4)]


def assert_moments_hold(overrides, e_kappa, sampling, n, seeds):
    """For each seed, the sample mean within four standard errors of its
    exact value and, in lognormal mode, ``rel_sigma`` within 3% of the
    exact spread."""
    ctx = CosmologyContext.default(overrides)
    if sampling == "lognormal":
        mean, rel_sigma = lognormal_moments(1.8, 1e-5, ctx, e_kappa)
    else:
        mean, rel_sigma = normal_mean(1.8, 1e-5, ctx, e_kappa), None
    for seed in seeds:
        mc = monte_carlo_scale(1.8, 1e-5, n, seed, ctx, e_kappa=e_kappa, sampling=sampling)
        if rel_sigma is not None:
            assert rel(mc.rel_sigma, rel_sigma) < 0.03, seed
        assert abs(mc.mean.value - mean) < 4.0 * mc.mean_se.value, seed


class TestMonteCarloMoments:
    """The sample mean against its exact value (``moment_oracle``), at 1e6
    samples and seed 1, and at 1e5 samples over seeds 1-20, so that the
    check does not rest on one draw of the stream. Normal mode has no
    exact spread to hold its ``rel_sigma`` to: E[r_H**(2*p_H)] diverges."""

    @pytest.mark.parametrize("e", [0.15, 0.4, 1.0])
    def test_oracle_gives_the_truncated_normal_mean(self, e):
        # E[r] of r = 1 + e*z, z > -1/e, is 1 + e*pdf(1/e)/cdf(1/e)
        assert truncated_power_mean(0.0, e) == pytest.approx(1.0, rel=1e-10)
        exact = 1.0 + e * stats.norm.pdf(1.0 / e) / stats.norm.cdf(1.0 / e)
        assert truncated_power_mean(1.0, e) == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("sampling", ["lognormal", "normal"])
    @pytest.mark.parametrize("overrides, e_kappa", MOMENT_CASES)
    def test_mean_within_four_standard_errors(self, overrides, e_kappa, sampling):
        assert_moments_hold(overrides, e_kappa, sampling, 10 ** 6, [1])

    @pytest.mark.parametrize("sampling", ["lognormal", "normal"])
    @pytest.mark.parametrize("overrides, e_kappa", MOMENT_CASES)
    def test_mean_within_four_standard_errors_over_seeds(self, overrides, e_kappa, sampling):
        # the largest |z| over these 160 calls is 2.80, the largest
        # rel_sigma error 0.5%
        assert_moments_hold(overrides, e_kappa, sampling, 10 ** 5, range(1, 21))

    def test_readme_seed_one_figures(self, ctx):
        # the README quotes these at a = 1.8, kappa = 1e-5 and 1e6 samples:
        # seed 1 at the defaults and at e_kappa = 0.4, seeds 1-20 of normal
        # mode at the defaults, and seeds 1-3 of normal mode at the heavy
        # uncertainties, which MonteCarloScale quotes too; each is
        # recomputed at the precision it is printed to
        readme = Path(__file__).resolve().parents[1].joinpath("README.md")
        text = " ".join(readme.read_text(encoding="utf-8").split())
        docstring = " ".join(transition.MonteCarloScale.__doc__.split())
        exact = transition_scale(1.8, 1e-5, ctx)
        wide = transition_scale(1.8, 1e-5, ctx, e_kappa=0.4)
        lognormal = monte_carlo_scale(1.8, 1e-5, 10 ** 6, 1, ctx)
        normal = monte_carlo_scale(1.8, 1e-5, 10 ** 6, 1, ctx, sampling="normal")
        normal_wide = monte_carlo_scale(1.8, 1e-5, 10 ** 6, 1, ctx, e_kappa=0.4,
                                        sampling="normal")
        spreads = [monte_carlo_scale(1.8, 1e-5, 10 ** 6, seed, ctx, sampling="normal").rel_sigma
                   for seed in range(1, 21)]
        heavy = CosmologyContext.default(HEAVY)
        h1, h2, h3 = (monte_carlo_scale(1.8, 1e-5, 10 ** 6, seed, heavy, e_kappa=0.4,
                                        sampling="normal").rel_sigma for seed in (1, 2, 3))
        heavy_seeds = f"seeds 1-3 give {h1:.3f}, {h2:.3f} and {h3:.3f}"
        for quoted in (
                f"(`lambda0 = {exact.lambda0.value:.2f} m`, first-order rel sigma "
                f"{exact.rel_sigma:.4f})",
                f"lognormal: mean {lognormal.mean.value:.2f} m, spread "
                f"{lognormal.rel_sigma:.4f};",
                f"normal: mean {normal.mean.value:.1f} m, empirical spread "
                f"{normal.rel_sigma:.4f}, so sigma understates it by about "
                f"{100.0 * (normal.rel_sigma / exact.rel_sigma - 1.0):.1f}%;",
                f"spread about {normal_wide.rel_sigma:.3f} against the first-order "
                f"{wide.rel_sigma:.4f}, about "
                f"{100.0 * (normal_wide.rel_sigma / wide.rel_sigma - 1.0):.0f}% more.",
                f"`rel_sigma` reads {min(spreads):.4f}-{max(spreads):.4f} over seeds 1-20",
                f"{heavy_seeds}, so `mean_se` moves by a factor of "
                f"{max(h1, h2, h3) / min(h1, h2, h3):.1f}."):
            assert quoted in text
        assert f"1e6 samples, {heavy_seeds}" in docstring


class TestReferenceScale:
    def test_formula(self):
        # 12 * kappa**(-3/14) metres; -3/14 is -1/(3+a) at a = 5/3
        assert kolmogorov_reference_scale(1.0).value == 12.0
        expected = 12.0 * (1e-5) ** (-3.0 / 14.0)
        assert rel(kolmogorov_reference_scale(1e-5).value, expected) < 1e-15
        assert rel(expected, 141.45) < 1e-4

    def test_domain(self):
        with pytest.raises(KappaOutOfRange):
            kolmogorov_reference_scale(0.0)
