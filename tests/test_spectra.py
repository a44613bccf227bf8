import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from zpfcross.constants import (CRITICAL_DENSITY, CRITICAL_ENERGY_DENSITY, HUBBLE_RADIUS,
                                CosmologyContext)
from zpfcross.errors import (
    DimensionMismatch,
    KappaOutOfRange,
    KolmogorovPole,
    NonFinite,
    NonPositiveWavenumber,
    PoleGamma,
    SlopeOutOfRange,
    ValidationError,
)
from zpfcross.quantity import (
    DENSITY,
    ENERGY_DENSITY,
    LENGTH,
    POWER_DENSITY,
    Quantity,
    SPECTRAL_DENSITY,
    SPEED,
    WAVENUMBER,
)
from zpfcross.spectra import (
    Boyer,
    MoisseevShivamoggi,
    PowerLawTurbulence,
    TruncatedBoyer,
    amplitude_from_kappa,
    gamma_from_slope,
    horizon_injection_rate,
    horizon_spectrum_amplitude,
    slope_from_gamma,
)

from propagation_oracle import product_of_powers


def rel(x, y):
    return abs(x - y) / abs(y)


def k_of(value):
    return Quantity(value, WAVENUMBER)


# log10 k from the largest eddy 1/R to the Planck wavenumber 2*pi/r_p
LOG10_K_MIN = math.log10(2.49e-18 / 2.99792458e8)
LOG10_K_MAX = math.log10(2.0 * math.pi / 1.616e-35)


def close(x, y):
    # a value below the smallest normal float holds fewer than 12 digits
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12 * sys.float_info.min)


class TestBoyer:
    def test_cubic_law(self, ctx):
        vac = Boyer.from_context(ctx)
        assert rel(vac.evaluate(k_of(2e3)).value, 8.0 * vac.evaluate(k_of(1e3)).value) < 1e-12

    def test_value_is_hbar_c_k3(self, ctx):
        vac = Boyer.from_context(ctx)
        k = 1e5
        expected = 1.054571628e-34 * 2.99792458e8 * k ** 3
        assert rel(vac.evaluate(k_of(k)).value, expected) < 1e-12

    def test_dimension(self, ctx):
        assert Boyer.from_context(ctx).evaluate(k_of(3.7)).dim == SPECTRAL_DENSITY

    def test_nonpositive_wavenumber(self, ctx):
        vac = Boyer.from_context(ctx)
        with pytest.raises(NonPositiveWavenumber):
            vac.evaluate(k_of(0.0))
        with pytest.raises(NonPositiveWavenumber):
            vac.evaluate(k_of(-1.0))

    def test_wrong_dimension_rejected(self, ctx):
        with pytest.raises(DimensionMismatch):
            Boyer.from_context(ctx).evaluate(Quantity(1.0))

    @pytest.mark.parametrize("model", [Boyer, TruncatedBoyer])
    def test_wrong_input_dimension_names_the_input(self, ctx, model):
        hbar, c = ctx["hbar"], ctx["c"]
        cutoff = (k_of(1.0),) if model is TruncatedBoyer else ()
        with pytest.raises(DimensionMismatch,
                           match=r"^hbar must have dimension \[m\^2·kg·s\^-1\]"):
            model(c, c, *cutoff)
        with pytest.raises(DimensionMismatch, match=r"^c must have dimension \[m·s\^-1\]"):
            model(hbar, hbar, *cutoff)

    def test_overflow_is_numeric_failure(self, ctx):
        vac = Boyer.from_context(ctx)
        with pytest.raises(NonFinite):
            vac.evaluate(k_of(1e300))
        with pytest.raises(NonFinite, match="1e\\+300"):
            vac.kernel(np.array([1.0, 1e300, 1e301]))

    def test_underflow_to_zero_is_a_value(self, ctx):
        vac = Boyer.from_context(ctx)
        assert vac.evaluate(k_of(1e-110)).value == 0.0
        assert vac.kernel(np.array([1e-110])).tolist() == [0.0]


class TestTruncatedBoyer:
    def test_below_cutoff_matches_boyer(self, ctx):
        trunc = TruncatedBoyer.from_context(ctx)
        vac = Boyer.from_context(ctx)
        k = trunc.cutoff_k.value
        assert trunc.evaluate(k_of(k)).value == vac.evaluate(k_of(k)).value

    def test_above_cutoff_is_zero(self, ctx):
        trunc = TruncatedBoyer.from_context(ctx)
        k = trunc.cutoff_k.value * (1.0 + 1e-9)
        out = trunc.evaluate(k_of(k))
        assert out.value == 0.0
        assert out.dim == SPECTRAL_DENSITY

    def test_default_cutoff_is_planck(self, ctx):
        trunc = TruncatedBoyer.from_context(ctx)
        assert rel(trunc.cutoff_k.value, 2.0 * math.pi / 1.616e-35) < 1e-12

    def test_bad_cutoff(self, ctx):
        with pytest.raises(NonPositiveWavenumber):
            TruncatedBoyer(ctx["hbar"], ctx["c"], k_of(0.0))
        with pytest.raises(DimensionMismatch, match="wavenumber"):
            TruncatedBoyer(ctx["hbar"], ctx["c"], Quantity(1.0))

    def test_far_above_cutoff_is_zero_not_overflow(self, ctx):
        # k**3 overflows a float at k = 1e300; above the cutoff it is not formed
        trunc = TruncatedBoyer.from_context(ctx)
        assert trunc.kernel(1e300) == 0.0
        assert trunc.kernel(np.array([1e300])).tolist() == [0.0]


class TestSlopeMaps:
    def test_slope_from_gamma_values(self):
        assert rel(slope_from_gamma(2.0), 1.8) < 1e-15
        assert rel(slope_from_gamma(1.0), 2.0) < 1e-15

    def test_kolmogorov_limit(self):
        assert abs(slope_from_gamma(1e9) - 5.0 / 3.0) < 1e-8

    def test_pole(self):
        with pytest.raises(PoleGamma):
            slope_from_gamma(1.0 / 3.0)
        with pytest.raises(PoleGamma):
            slope_from_gamma(0.2)

    def test_gamma_from_slope(self):
        assert rel(gamma_from_slope(1.8), 2.0) < 1e-15

    def test_roundtrip(self):
        for a in (1.7, 1.8, 2.0):
            assert rel(slope_from_gamma(gamma_from_slope(a)), a) < 1e-12

    def test_kolmogorov_pole(self):
        with pytest.raises(KolmogorovPole):
            gamma_from_slope(5.0 / 3.0)

    def test_slope_domain(self):
        for bad in (1.0, 3.0, 0.5, 3.5):
            with pytest.raises(SlopeOutOfRange):
                gamma_from_slope(bad)

    def test_dissipation_exponent_identity(self):
        # (1-a)*(3*gamma-1)/(2*gamma) = -1 wherever gamma is defined
        rng = random.Random(3)
        for _ in range(50):
            a = rng.uniform(1.01, 2.99)
            if abs(a - 5.0 / 3.0) < 1e-3:
                continue
            gamma = gamma_from_slope(a)
            assert abs((1.0 - a) * (3.0 * gamma - 1.0) / (2.0 * gamma) + 1.0) < 1e-12


class TestAmplitude:
    def test_a2_equals_rho_c2_over_r(self, ctx):
        rho = CRITICAL_DENSITY.value(ctx)
        radius = HUBBLE_RADIUS.value(ctx)
        amp = amplitude_from_kappa(1.0, 2.0, ctx)
        assert rel(amp.value, rho * 2.99792458e8 ** 2 / radius) < 1e-12

    def test_uncertainty_from_base_constants(self, ctx):
        # A ~ G**-1 * H**(1+a) * c**(3-a); H enters rho and R jointly
        a = 1.7
        expected = math.sqrt(1e-4 ** 2 + ((1.0 + a) * 0.15) ** 2)
        assert rel(amplitude_from_kappa(1.0, a, ctx).rel_sigma, expected) < 1e-12

    def test_dimension_depends_on_slope(self, ctx):
        a = 1.7
        amp = amplitude_from_kappa(1.0, a, ctx)
        assert amp.dim == SPECTRAL_DENSITY * WAVENUMBER ** Fraction(a)

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True))
    def test_float_dimension_equals_the_exact_rational_one(self, ctx, a):
        # the package composes m**-a in float exponents (-1 + (1 - a));
        # for a in (1, 3) that sum is exact, so it equals the rational one
        exact = SPECTRAL_DENSITY * WAVENUMBER ** Fraction(a)
        assert amplitude_from_kappa(0.5, a, ctx).dim == exact
        assert horizon_spectrum_amplitude(a, ctx).dim == exact

    def test_budget_recovered_by_quadrature(self, ctx):
        # oracle: adaptive quadrature of A*k**-a from 1/R to infinity,
        # in log space (u = ln k) so the improper tail is exponential
        a, kappa = 1.7, 1.0
        amp = amplitude_from_kappa(kappa, a, ctx).value
        u0 = math.log(1.0 / HUBBLE_RADIUS.value(ctx))
        total, err = quad(lambda u: amp * math.exp((1.0 - a) * u), u0, math.inf,
                          epsabs=0.0, epsrel=1e-9)
        target = kappa * CRITICAL_DENSITY.value(ctx) * 2.99792458e8 ** 2
        assert rel(total, target) < 1e-6

    def test_equals_the_exact_propagation(self, ctx):
        # the merged tables against per-call exact bookkeeping over
        # the base constants, A ~ G**-1 * H**(1+a) * c**(3-a)
        custom = CosmologyContext.default({"e_G": 0.01, "e_c": 0.02, "e_H": 0.04})
        for a in (1.1, 5.0 / 3.0, 2.0, 2.9):
            af = Fraction(a)
            for fast, coeff in ((amplitude_from_kappa(0.3, a, custom),
                                 3.0 * (a - 1.0) * 0.3 / (8.0 * math.pi)),
                                (horizon_spectrum_amplitude(a, custom),
                                 3.0 ** (a - 1.0) * 3.0 / (8.0 * math.pi))):
                value, rel_sigma, dim = product_of_powers(
                    coeff, [(custom[name], p)
                            for name, p in (("G", -1), ("H", 1 + af), ("c", 3 - af))])
                assert rel(fast.value, value) < 1e-14
                assert rel(fast.rel_sigma, rel_sigma) < 1e-14
                assert fast.dim == dim

    def test_slope_boundaries(self, ctx):
        with pytest.raises(SlopeOutOfRange):
            amplitude_from_kappa(1.0, 1.0, ctx)
        with pytest.raises(SlopeOutOfRange):
            amplitude_from_kappa(1.0, 3.0, ctx)

    def test_kappa_domain(self, ctx):
        with pytest.raises(KappaOutOfRange):
            amplitude_from_kappa(0.0, 2.0, ctx)
        with pytest.raises(KappaOutOfRange):
            amplitude_from_kappa(1.5, 2.0, ctx)


class TestBudgetRoundtrip:
    def test_closed_form_inverse(self, ctx):
        # integral(A*k**-a, k = 1/R .. inf) = A*R**(a-1)/(a-1) recovers
        # kappa*rho*c**2, in plain floats
        radius = HUBBLE_RADIUS.value(ctx)
        for a in (1.3, 1.7, 1.8, 2.0, 2.7):
            for kappa in (1.0, 0.5, 1e-5):
                amp = amplitude_from_kappa(kappa, a, ctx)
                total = amp.value * radius ** (a - 1.0) / (a - 1.0)
                target = kappa * CRITICAL_DENSITY.value(ctx) * 2.99792458e8 ** 2
                assert rel(total, target) < 1e-12
                assert amp.dim * LENGTH ** (a - 1.0) == ENERGY_DENSITY

    def test_energy_budget_total(self, ctx):
        total = (CRITICAL_ENERGY_DENSITY * 0.5).evaluate(ctx)
        target = 0.5 * CRITICAL_DENSITY.value(ctx) * 2.99792458e8 ** 2
        assert rel(total.value, target) < 1e-12
        assert total.dim == ENERGY_DENSITY

    def test_kappa_linear(self, ctx):
        def total(kappa):
            return (CRITICAL_ENERGY_DENSITY * kappa).evaluate(ctx).value
        assert rel(total(0.5), 0.5 * total(1.0)) < 1e-15

    def test_finite_quadrature_matches_closed_form(self, ctx):
        # truncated budget over [1/R, 1e6/R]: quadrature vs closed form
        a = 1.8
        amp = amplitude_from_kappa(1.0, a, ctx).value
        k1 = 1.0 / HUBBLE_RADIUS.value(ctx)
        k2 = 1e6 * k1
        numeric, err = quad(lambda u: amp * math.exp((1.0 - a) * u),
                            math.log(k1), math.log(k2), epsabs=0.0, epsrel=1e-10)
        closed = amp * (k1 ** (1.0 - a) - k2 ** (1.0 - a)) / (a - 1.0)
        assert rel(numeric, closed) < 1e-6


class TestHorizonInjection:
    def test_value(self, ctx):
        # oracle: 3*rho*c**3/R by direct arithmetic
        expected = (3.0 * CRITICAL_DENSITY.value(ctx) * 2.99792458e8 ** 3
                    / HUBBLE_RADIUS.value(ctx))
        rate = horizon_injection_rate(ctx)
        assert rel(rate.value, expected) < 1e-12
        assert rel(rate.value, 7.4e-27) < 1e-2

    def test_dimension(self, ctx):
        assert horizon_injection_rate(ctx).dim == POWER_DENSITY

    def test_tables_equal_the_exact_propagation(self, ctx):
        # the import-checked tables give the numbers of plain floats with
        # the dimension composed per call
        for fast, coeff, powers in (
                (horizon_injection_rate(ctx), 9.0 / (8.0 * math.pi),
                 (("G", -1), ("H", 3), ("c", 2))),
                (CRITICAL_ENERGY_DENSITY.evaluate(ctx),
                 3.0 / (8.0 * math.pi), (("H", 2), ("G", -1), ("c", 2)))):
            slow = product_of_powers(coeff, [(ctx[name], p) for name, p in powers])
            assert (fast.value, fast.rel_sigma, fast.dim) == slow
        assert CRITICAL_ENERGY_DENSITY.dim == ENERGY_DENSITY

    def test_scales_with_h_cubed(self, ctx):
        from zpfcross import CosmologyContext
        halved = CosmologyContext.default({"H": 2.49e-18 / 2.0})
        assert rel(horizon_injection_rate(halved).value,
                   horizon_injection_rate(ctx).value / 8.0) < 1e-12

    def test_beyond_floats_is_named(self):
        # G**-1 * H**3 overflows and c**2 underflows to 0: their product is
        # NaN, reported as eps with the constants
        ctx = CosmologyContext.default({"c": 1e-230, "H": 1e100})
        with pytest.raises(NonFinite) as info:
            horizon_injection_rate(ctx)
        assert str(info.value) == ("eps = 3*rho*c**3/R leaves the float range "
                                   "with these constants")
        with pytest.raises(NonFinite, match="eps = 3"):
            MoisseevShivamoggi.from_context(ctx, 2.0)


class TestHorizonAmplitude:
    def test_ratio_to_kappa_amplitude(self, ctx):
        for a in (1.7, 1.8, 2.0):
            horizon = horizon_spectrum_amplitude(a, ctx)
            calibrated = amplitude_from_kappa(1.0, a, ctx)
            ratio = horizon.value / calibrated.value
            assert rel(ratio, 3.0 ** (a - 1.0) / (a - 1.0)) < 1e-12
            assert 0.5 < ratio < 5.0  # order unity
            assert horizon.dim == calibrated.dim
            assert horizon.rel_sigma == calibrated.rel_sigma

    def test_prefactor_exponent_identity_at_a2(self, ctx):
        # 2*gamma/(3*gamma-1) = a-1 = 1 at gamma = 1
        gamma = gamma_from_slope(2.0)
        expo = 2.0 * gamma / (3.0 * gamma - 1.0)
        assert rel(expo, 1.0) < 1e-12
        ratio = (horizon_spectrum_amplitude(2.0, ctx).value
                 / amplitude_from_kappa(1.0, 2.0, ctx).value)
        assert rel(ratio, 3.0) < 1e-12


class TestMoisseevShivamoggi:
    def test_kadomtsev_petviashvili_at_gamma_1(self, ctx):
        ms = MoisseevShivamoggi.from_context(ctx, 1.0)
        c = ctx["c"]
        for k in (1e-20, 1e-3, 1.0, 1e10):
            # eps/c * k**-2, its dimension composed alongside
            kp = ms.epsilon.value / c.value * k ** -2.0
            assert rel(ms.evaluate(k_of(k)).value, kp) < 1e-12
            assert ms.evaluate(k_of(k)).dim == POWER_DENSITY / SPEED * WAVENUMBER ** -2

    def test_kolmogorov_limit(self, ctx):
        # within 0.1% of C*rho**(1/3)*eps**(2/3)*k**(-5/3) at gamma = 1e6
        ms = MoisseevShivamoggi.from_context(ctx, 1e6)
        rho = CRITICAL_DENSITY.value(ctx)
        eps = horizon_injection_rate(ctx).value
        radius = HUBBLE_RADIUS.value(ctx)
        for i in range(11):
            k = (1.0 / radius) * 10.0 ** i
            kolmo = rho ** (1.0 / 3.0) * eps ** (2.0 / 3.0) * k ** (-5.0 / 3.0)
            assert rel(ms.evaluate(k_of(k)).value, kolmo) < 1e-3

    def test_gamma_pole_on_construction(self, ctx):
        with pytest.raises(PoleGamma):
            MoisseevShivamoggi.from_context(ctx, 1.0 / 3.0)
        with pytest.raises(PoleGamma):
            MoisseevShivamoggi.from_context(ctx, 0.25)

    @pytest.mark.parametrize("const", [-1.0, 0.0, math.nan, math.inf])
    def test_kolmogorov_constant_checked_on_construction(self, ctx, const):
        with pytest.raises(ValidationError, match="Kolmogorov constant"):
            MoisseevShivamoggi.from_context(ctx, 2.0, kolmogorov_const=const)

    def test_kolmogorov_constant_scales_linearly(self, ctx):
        base = MoisseevShivamoggi.from_context(ctx, 2.0)
        doubled = MoisseevShivamoggi.from_context(ctx, 2.0, kolmogorov_const=2.0)
        k = k_of(1.0)
        assert rel(doubled.evaluate(k).value, 2.0 * base.evaluate(k).value) < 1e-15

    @settings(max_examples=200, deadline=None)
    @given(gamma=st.floats(1.0 / 3.0, 1e6, exclude_min=True))
    def test_exponents_cancel_to_spectral_density(self, gamma):
        # (rho**(g-1) * eps**(2g) * c**-2 * k**-(5g-1))**(1/(3g-1)) is J/m^2
        # for every index, in exact rational exponents; each model checks
        # only its inputs' dimensions and relies on this identity
        gf = Fraction(gamma)
        composed = (DENSITY ** (gf - 1) * POWER_DENSITY ** (2 * gf) * SPEED ** -2
                    * WAVENUMBER ** -(5 * gf - 1)) ** (1 / (3 * gf - 1))
        assert composed == SPECTRAL_DENSITY

    @settings(max_examples=300, deadline=None)
    @given(gamma=st.floats(1.0 / 3.0, 1e300, exclude_min=True))
    def test_exponents_are_rounded_once(self, ctx, gamma):
        # 5*gamma - 1, 3*gamma - 1 and gamma - 1 each equal the exact
        # rational rounded once (5*gamma - 1.0 in floats rounds twice)
        model = MoisseevShivamoggi.from_context(ctx, gamma)
        gf = Fraction(gamma)
        assert model._k_power == float(5 * gf - 1)
        assert model._denom == float(3 * gf - 1)
        assert model._log_base == (float(gf - 1) * math.log(model.rho.value)
                                   + float(2 * gf) * math.log(model.epsilon.value)
                                   - 2.0 * math.log(model.c.value))

    @pytest.mark.parametrize("name", ["epsilon", "rho", "c"])
    def test_wrong_input_dimension_names_the_input(self, ctx, name):
        inputs = {"epsilon": horizon_injection_rate(ctx), "rho": CRITICAL_DENSITY.evaluate(ctx),
                  "c": ctx["c"]}
        inputs[name] = Quantity(1.0, WAVENUMBER)
        with pytest.raises(DimensionMismatch, match=f"^{name} must have dimension"):
            MoisseevShivamoggi(2.0, **inputs)

    def test_dimension_for_odd_gamma(self, ctx):
        # exponent cancellation is exact for any adiabatic index
        for gamma in (0.6, 1.0, 1.37, 2.0, 17.5):
            ms = MoisseevShivamoggi.from_context(ctx, gamma)
            assert ms.evaluate(k_of(2.5)).dim == SPECTRAL_DENSITY

    def test_overflow_near_the_pole_is_numeric_failure(self, ctx):
        # 1/(3*gamma - 1) = 500 at gamma = 0.334: exp overflows at small k
        ms = MoisseevShivamoggi.from_context(ctx, 0.334)
        with pytest.raises(NonFinite):
            ms.evaluate(k_of(1e-30))
        with pytest.raises(NonFinite, match="1e-30"):
            ms.kernel(np.array([1e-25, 1e-30]))


class TestSpectrumProperties:
    def test_all_variants_have_spectral_dimension(self, ctx):
        rng = random.Random(7)
        models = [
            Boyer.from_context(ctx),
            TruncatedBoyer.from_context(ctx),
            PowerLawTurbulence.from_kappa(ctx, 1.0, 1.8),
            MoisseevShivamoggi.from_context(ctx, 2.0),
        ]
        for _ in range(25):
            k = k_of(10.0 ** rng.uniform(-25, 30))
            for model in models:
                assert model.evaluate(k).dim == SPECTRAL_DENSITY

    @settings(max_examples=200, deadline=None)
    @given(log10_k=st.lists(st.floats(LOG10_K_MIN, LOG10_K_MAX), min_size=1, max_size=30),
           gamma=st.floats(0.34, 20.0, exclude_min=True, exclude_max=True),
           slope=st.floats(1.0, 3.0, exclude_min=True, exclude_max=True))
    def test_array_kernel_equals_per_point_evaluate(self, ctx, log10_k, gamma, slope):
        k = 10.0 ** np.array(log10_k)
        models = [
            Boyer.from_context(ctx),
            TruncatedBoyer.from_context(ctx),
            PowerLawTurbulence.from_kappa(ctx, 1.0, slope),
            MoisseevShivamoggi.from_context(ctx, gamma),
        ]
        for model in models:
            table = model.kernel(k)
            assert table.shape == k.shape
            for kw, energy in zip(k.tolist(), table.tolist()):
                assert close(energy, model.evaluate(k_of(kw)).value), (model, kw)

    @settings(max_examples=100, deadline=None)
    @given(log10_k=st.lists(st.floats(LOG10_K_MIN, LOG10_K_MAX), min_size=1, max_size=30),
           pick=st.integers(min_value=0))
    def test_truncation_is_inclusive(self, ctx, log10_k, pick):
        k = 10.0 ** np.array(log10_k)
        cutoff = float(k[pick % k.size])
        trunc = TruncatedBoyer(ctx["hbar"], ctx["c"], k_of(cutoff))
        boyer = Boyer.from_context(ctx).kernel(k)
        assert trunc.kernel(k).tolist() == np.where(k > cutoff, 0.0, boyer).tolist()
        assert trunc.kernel(cutoff) == Boyer.from_context(ctx).kernel(cutoff) > 0.0
        assert trunc.kernel(math.nextafter(cutoff, math.inf)) == 0.0
        for kw in k[k <= cutoff].tolist():  # the float path, bit for bit
            assert trunc.kernel(kw) == Boyer.from_context(ctx).kernel(kw)

    def test_power_law_decreasing_boyer_increasing(self, ctx):
        vac = Boyer.from_context(ctx)
        turb = PowerLawTurbulence.from_kappa(ctx, 1.0, 1.8)
        ks = [10.0 ** e for e in range(-20, 20, 2)]
        vac_vals = [vac.evaluate(k_of(k)).value for k in ks]
        turb_vals = [turb.evaluate(k_of(k)).value for k in ks]
        assert all(a < b for a, b in zip(vac_vals, vac_vals[1:]))
        assert all(a > b for a, b in zip(turb_vals, turb_vals[1:]))

    def test_power_law_amplitude_dimension_checked(self, ctx):
        with pytest.raises(DimensionMismatch):
            PowerLawTurbulence(Quantity(1.0, SPECTRAL_DENSITY), 1.8)
