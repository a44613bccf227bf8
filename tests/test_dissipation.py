import math
from fractions import Fraction

import pytest

from zpfcross.dissipation import (
    PAPER_N0,
    DissipationBudget,
    dissipation_rate,
    kappa_from_count,
    kappa_from_solar_bound,
    n0_value,
    rescaled_count,
    solar_budget,
)
from zpfcross.errors import KappaOutOfRange, NonFinite, SlopeOutOfRange, ValidationError
from zpfcross.quantity import (
    LENGTH,
    POWER_DENSITY,
    Quantity,
    TIME,
    UncertainQuantity,
    propagate,
)
from zpfcross.spectra import amplitude_from_kappa, gamma_from_slope

C = 2.99792458e8


def rel(x, y):
    return abs(x - y) / abs(y)


class TestDissipationRate:
    def test_a2_kappa1_collapses_to_rho_c3_over_r(self, ctx):
        expected = ctx.rho_crit.value * C ** 3 / ctx.hubble_radius.value
        eps = dissipation_rate(1.0, 2.0, ctx)
        assert rel(eps.value, expected) < 1e-12
        assert rel(eps.value, 2.5e-27) < 0.01
        assert eps.dim == POWER_DENSITY

    def test_uncertainty(self, ctx):
        # eps ~ G**-1 * H**3 * c**2
        expected = math.sqrt(1e-4 ** 2 + (3.0 * 0.15) ** 2)
        assert rel(dissipation_rate(1.0, 2.0, ctx).rel_sigma, expected) < 1e-12

    def test_inverting_ms_amplitude_recovers_rate(self, ctx):
        # oracle: solve the Moisseev-Shivamoggi amplitude
        # A = [rho**(gamma-1) * eps**(2*gamma) * c**-2]**(1/(3*gamma-1))
        # for eps with the calibrated A, evaluated in logs (A**(3*gamma-1)
        # underflows for a = 1.7), dimensions via exact fractions
        rho = ctx.rho_crit.quantity()
        c = ctx.registry.quantity("c").quantity()
        for a in (1.7, 1.8, 2.0, 2.5):
            for kappa in (1.0, 1e-5):
                af = Fraction(a)
                gf = (1 - af) / (5 - 3 * af)  # exact adiabatic index
                assert abs(float(gf) - gamma_from_slope(a)) < 1e-12
                amp = amplitude_from_kappa(kappa, a, ctx)
                log_eps = (float(3 * gf - 1) * math.log(amp.value)
                           + float(1 - gf) * math.log(rho.value)
                           + 2.0 * math.log(c.value)) / float(2 * gf)
                dim = (amp.dim ** (3 * gf - 1) * rho.dim ** (1 - gf)
                       * c.dim ** 2) ** (Fraction(1) / (2 * gf))
                eps = dissipation_rate(kappa, a, ctx)
                assert rel(math.exp(log_eps), eps.value) < 1e-9
                assert dim == eps.dim == POWER_DENSITY

    def test_vanishes_with_kappa(self, ctx):
        values = [dissipation_rate(k, 2.0, ctx).value for k in (1e-30, 1e-10, 1.0)]
        assert values[0] < 1e-50
        assert values[0] < values[1] < values[2]

    def test_domains(self, ctx):
        with pytest.raises(KappaOutOfRange):
            dissipation_rate(0.0, 2.0, ctx)
        with pytest.raises(SlopeOutOfRange):
            dissipation_rate(1.0, 3.0, ctx)


class TestSolarBudget:
    def test_paper_mode_count(self, ctx):
        # oracle: N = 1e57 * ((a-1)*kappa)**(1/(a-1)) by direct arithmetic
        budget = solar_budget(1e-5, 1.7, ctx)
        expected = 1e57 * (0.7e-5) ** (1.0 / 0.7)
        assert rel(budget.n_solar, expected) < 1e-12
        assert budget.n0 == PAPER_N0
        # published order of magnitude: N ~ 1e49
        assert abs(math.log10(budget.n_solar) - 49.0) < 1.0

    def test_computed_mode_n0(self, ctx):
        # oracle: rho*c*R**2*t/M from the registry
        expected = (ctx.rho_crit.value * C * ctx.hubble_radius.value ** 2
                    * 86400.0 / 1.98e30)
        n0 = n0_value(ctx, n0_mode="computed")
        assert rel(n0.value, expected) < 1e-12
        assert rel(n0.value, 2e9) < 0.2
        assert n0.dim.is_dimensionless
        # H cancels in rho*c*R**2; only c and G carry uncertainty
        assert rel(n0.rel_sigma, 1e-4) < 1e-12

    def test_tables_equal_the_exact_propagation(self, ctx):
        # the import-checked tables give the numbers that per-call exact
        # dimension bookkeeping through propagate gives
        slow = propagate([(UncertainQuantity(3.0 / (8.0 * math.pi)), 1)]
                         + [(ctx.registry.quantity(name), p)
                            for name, p in (("G", -1), ("c", 3), ("M_sun", -1))]
                         + [(UncertainQuantity(86400.0, 0.0, TIME), 1)])
        fast = n0_value(ctx, n0_mode="computed")
        assert (fast.value, fast.rel_sigma, fast.dim) == (slow.value, slow.rel_sigma, slow.dim)
        coeff = 3.0 / (8.0 * math.pi) * (0.8 * 1e-5) ** (1.0 / 0.8)
        slow = propagate([(UncertainQuantity(coeff), 1)]
                         + [(ctx.registry.quantity(name), p)
                            for name, p in (("G", -1), ("H", 3), ("c", 2))])
        fast = dissipation_rate(1e-5, 1.8, ctx)
        assert (fast.value, fast.rel_sigma, fast.dim) == (slow.value, slow.rel_sigma, slow.dim)

    def test_overflowing_rescaled_count_is_numeric_failure(self, ctx):
        with pytest.raises(NonFinite):
            solar_budget(1e-5, 1.7, ctx, ell=Quantity(1e300, LENGTH))

    def test_computed_mode_scales_with_window(self, ctx):
        one = n0_value(ctx, Quantity(86400.0, TIME), "computed").value
        two = n0_value(ctx, Quantity(2 * 86400.0, TIME), "computed").value
        assert rel(two, 2.0 * one) < 1e-12

    def test_budget_internal_identities(self, ctx):
        budget = solar_budget(1e-5, 1.8, ctx, n0_mode="paper")
        assert budget.n_solar == budget.n0 * ((1.8 - 1.0) * 1e-5) ** (1.0 / 0.8)
        ratio = budget.ell.value / ctx.hubble_radius.value
        assert budget.ns_solar == budget.n_solar * ratio ** 3
        assert isinstance(budget, DissipationBudget)

    def test_bad_mode(self, ctx):
        with pytest.raises(ValidationError):
            solar_budget(1e-5, 1.8, ctx, n0_mode="guess")


class TestRescaledCount:
    def test_identity_at_hubble_radius(self, ctx):
        radius = ctx.hubble_radius.quantity()
        assert rescaled_count(3.7e10, radius, ctx) == 3.7e10

    def test_published_chain_a17(self, ctx):
        # N = 1e49 at ell = 8 lightminutes lands at the published 1e5
        # only as an order of magnitude
        ns = rescaled_count(1e49, ctx.registry.quantity("ell").quantity(), ctx)
        assert abs(math.log10(ns) - 5.0) < 1.0

    def test_published_chain_a18(self, ctx):
        budget = solar_budget(1e-5, 1.8, ctx, n0_mode="paper")
        assert abs(math.log10(budget.ns_solar) - 6.0) < 1.0

    def test_bad_radius(self, ctx):
        with pytest.raises(ValidationError):
            rescaled_count(1.0, Quantity(1.0, TIME), ctx)


class TestKappaFromCount:
    def test_roundtrip(self, ctx):
        for a in (1.7, 1.8, 2.0, 2.5):
            for kappa in (1e-20, 1e-10, 1e-5, 1.0):
                budget = solar_budget(kappa, a, ctx, n0_mode="paper")
                back = kappa_from_count(budget.n_solar, budget.n0, a)
                assert rel(back, kappa) < 1e-12

    def test_unit_count(self):
        assert kappa_from_count(1e57, 1e57, 2.0) == 1.0

    def test_monotone_in_count(self):
        kappas = [kappa_from_count(n, 1e57, 1.7) for n in (1e40, 1e45, 1e50)]
        assert kappas[0] < kappas[1] < kappas[2]

    def test_positive_counts_required(self):
        with pytest.raises(ValidationError):
            kappa_from_count(0.0, 1e57, 1.7)
        with pytest.raises(ValidationError):
            kappa_from_count(1e10, -1.0, 1.7)

    @pytest.mark.parametrize("n_solar, n0", [(math.nan, 1.0), (math.inf, 1.0),
                                             (1.0, math.nan), (1.0, math.inf)])
    def test_finite_counts_required(self, n_solar, n0):
        with pytest.raises(ValidationError):
            kappa_from_count(n_solar, n0, 2.0)

    def test_overflowing_power_is_numeric_failure(self):
        # (N/N0)**(a-1) = (1e300)**1.9
        with pytest.raises(NonFinite):
            kappa_from_count(1e200, 1e-100, 2.9)


class TestSolarBound:
    def test_published_a17(self, ctx):
        kappa, result = kappa_from_solar_bound(1e-12, 1.7, ctx, n0_mode="paper")
        assert 0.5 < kappa / 9e-18 < 2.0
        assert rel(result.lambda0.value, 67e3) < 0.15

    def test_published_a18(self, ctx):
        kappa, result = kappa_from_solar_bound(1e-12, 1.8, ctx, n0_mode="paper")
        assert 1.0 / 3.0 < kappa / 2e-20 < 3.0
        assert rel(result.lambda0.value, 630e3) < 0.15

    def test_inverts_the_count_over_the_horizon(self, ctx):
        # the bound is kappa_from_count at N = Ns*(R/ell)**3
        for a in (1.3, 1.7, 2.6):
            kappa, _ = kappa_from_solar_bound(1e-12, a, ctx)
            budget = solar_budget(kappa, a, ctx)
            assert rel(budget.ns_solar, 1e-12) < 1e-12
            ratio = ctx.hubble_radius.value / budget.ell.value
            assert kappa == kappa_from_count(1e-12 * ratio ** 3, PAPER_N0, a)

    def test_doubling_bound_scales_kappa(self, ctx):
        a = 1.7
        k1, _ = kappa_from_solar_bound(1e-12, a, ctx)
        k2, _ = kappa_from_solar_bound(2e-12, a, ctx)
        assert rel(k2, k1 * 2.0 ** (a - 1.0)) < 1e-12

    def test_scale_decreases_with_looser_bound(self, ctx):
        scales = [kappa_from_solar_bound(ns, 1.7, ctx)[1].lambda0.value
                  for ns in (1e-14, 1e-12, 1e-10)]
        assert scales[0] > scales[1] > scales[2]

    def test_computed_mode_not_constraining(self, ctx):
        # computed-mode N0 ~ 2e9 pushes kappa far above 1
        with pytest.raises(KappaOutOfRange):
            kappa_from_solar_bound(1e-12, 1.7, ctx, n0_mode="computed")

    def test_bad_bound(self, ctx):
        with pytest.raises(ValidationError):
            kappa_from_solar_bound(0.0, 1.7, ctx)

    def test_overflowing_bound_is_numeric_failure(self, ctx):
        # N = 1e-200 * (1.2e186)**3, about 2e358, is beyond the float range
        with pytest.raises(NonFinite):
            kappa_from_solar_bound(1e-200, 2.9, ctx, ell=Quantity(1e-160, LENGTH))

    def test_cube_out_of_range_count_in_range(self, ctx):
        # (R/ell)**3 overflows at ell = 1e-90 m and underflows to a
        # subnormal at 1e130 m, while N = Ns*(R/ell)**3 is a normal float;
        # N is then Ns times R/ell three times over
        for ns, ell, a in ((1e-300, 1e-90, 1.3), (1e300, 1e130, 2.9)):
            ratio = ctx.hubble_radius.value / ell
            n_solar = ns * ratio * ratio * ratio
            assert 1e-200 < n_solar < 1e200
            kappa, _ = kappa_from_solar_bound(ns, a, ctx, ell=Quantity(ell, LENGTH))
            assert kappa == kappa_from_count(n_solar, PAPER_N0, a)
        with pytest.raises(KappaOutOfRange):
            kappa_from_solar_bound(1e-200, 2.9, ctx, ell=Quantity(1e-90, LENGTH))
