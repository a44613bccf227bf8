import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from zpfcross import CosmologyContext
from zpfcross.dissipation import (
    PAPER_N0,
    DissipationBudget,
    kappa_from_count,
    kappa_from_solar_bound,
    n0_value,
    solar_budget,
)
from zpfcross.errors import KappaOutOfRange, NonFinite, SlopeOutOfRange, ValidationError
from zpfcross.quantity import (
    LENGTH,
    POWER_DENSITY,
    Quantity,
    TIME,
    UncertainQuantity,
)
from zpfcross.report import SweepSpec, run_sweep
from zpfcross.spectra import amplitude_from_kappa, gamma_from_slope

from propagation_oracle import product_of_powers

C = 2.99792458e8


def rel(x, y):
    return abs(x - y) / abs(y)


class TestDissipationRate:
    def test_a2_kappa1_collapses_to_rho_c3_over_r(self, ctx):
        expected = ctx.rho_crit.value * C ** 3 / ctx.hubble_radius.value
        eps = solar_budget(1.0, 2.0, ctx).epsilon
        assert rel(eps.value, expected) < 1e-12
        assert rel(eps.value, 2.5e-27) < 0.01
        assert eps.dim == POWER_DENSITY

    def test_uncertainty(self, ctx):
        # eps ~ G**-1 * H**3 * c**2
        expected = math.sqrt(1e-4 ** 2 + (3.0 * 0.15) ** 2)
        assert rel(solar_budget(1.0, 2.0, ctx).epsilon.rel_sigma, expected) < 1e-12

    def test_inverting_ms_amplitude_recovers_rate(self, ctx):
        # oracle: solve the Moisseev-Shivamoggi amplitude
        # A = [rho**(gamma-1) * eps**(2*gamma) * c**-2]**(1/(3*gamma-1))
        # for eps with the calibrated A, evaluated in logs (A**(3*gamma-1)
        # underflows for a = 1.7), dimensions via exact fractions
        rho = ctx.rho_crit.quantity()
        c = ctx.quantity("c").quantity()
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
                eps = solar_budget(kappa, a, ctx).epsilon
                assert rel(math.exp(log_eps), eps.value) < 1e-9
                assert dim == eps.dim == POWER_DENSITY

    def test_vanishes_with_kappa(self, ctx):
        values = [solar_budget(k, 2.0, ctx).epsilon.value for k in (1e-30, 1e-10, 1.0)]
        assert values[0] < 1e-50
        assert values[0] < values[1] < values[2]

    def test_domains(self, ctx):
        with pytest.raises(KappaOutOfRange):
            solar_budget(0.0, 2.0, ctx).epsilon
        with pytest.raises(SlopeOutOfRange):
            solar_budget(1.0, 3.0, ctx).epsilon


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
        # oracle: rho*c*R**2*t/M from the default constants
        expected = (ctx.rho_crit.value * C * ctx.hubble_radius.value ** 2
                    * 86400.0 / 1.98e30)
        n0 = n0_value(ctx, n0_mode="computed")
        assert rel(n0.value, expected) < 1e-12
        assert rel(n0.value, 2e9) < 0.2
        assert n0.dim.is_dimensionless
        # H cancels in rho*c*R**2; only c and G carry uncertainty
        assert rel(n0.rel_sigma, 1e-4) < 1e-12

    def test_tables_equal_the_exact_propagation(self, ctx):
        # the import-checked tables give the numbers of plain floats with
        # the dimension composed per call
        slow = product_of_powers(3.0 / (8.0 * math.pi),
                                 [(ctx.quantity(name), p)
                                  for name, p in (("G", -1), ("c", 3), ("M_sun", -1))]
                                 + [(UncertainQuantity(86400.0, 0.0, TIME), 1)])
        fast = n0_value(ctx, n0_mode="computed")
        assert (fast.value, fast.rel_sigma, fast.dim) == slow
        coeff = 3.0 / (8.0 * math.pi) * (0.8 * 1e-5) ** (1.0 / 0.8)
        slow = product_of_powers(coeff, [(ctx.quantity(name), p)
                                         for name, p in (("G", -1), ("H", 3), ("c", 2))])
        fast = solar_budget(1e-5, 1.8, ctx).epsilon
        assert (fast.value, fast.rel_sigma, fast.dim) == slow

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
        budget = solar_budget(1e-5, 1.8, ctx, ell=radius)
        assert budget.ns_solar == budget.n_solar

    def test_published_chain_a17(self, ctx):
        # N = 1e49 at ell = 8 lightminutes lands at the published 1e5
        # only as an order of magnitude
        budget = solar_budget(1e-5, 1.7, ctx, ell=ctx.quantity("ell").quantity())
        assert abs(math.log10(budget.n_solar) - 49.0) < 1.0
        assert abs(math.log10(budget.ns_solar) - 5.0) < 1.0

    def test_published_chain_a18(self, ctx):
        budget = solar_budget(1e-5, 1.8, ctx, n0_mode="paper")
        assert abs(math.log10(budget.ns_solar) - 6.0) < 1.0

    def test_bad_radius(self, ctx):
        with pytest.raises(ValidationError):
            solar_budget(1e-5, 1.8, ctx, ell=Quantity(1.0, TIME))

    def test_cube_out_of_range_count_in_range(self, ctx):
        # (ell/R)**3 overflows at ell = 1e120 lightminutes and underflows
        # to zero at 1e-94, while N_s = N*(ell/R)**3 is a normal float;
        # N_s is then N times ell/R three times over
        radius = ctx.hubble_radius.value
        lightminute = 60.0 * C
        for kappa, ell, expected in ((1e-300, 1e120 * lightminute, 5.957e211),
                                     (1.0, 1e-94 * lightminute, 4.6748e-273)):
            budget = solar_budget(kappa, 2.9, ctx, ell=Quantity(ell, LENGTH))
            ratio = ell / radius
            assert budget.ns_solar == budget.n_solar * ratio * ratio * ratio
            # oracle: the same count in logs
            log_ns = math.log(budget.n_solar) + 3.0 * (math.log(ell) - math.log(radius))
            assert rel(budget.ns_solar, math.exp(log_ns)) < 1e-12
            assert rel(budget.ns_solar, expected) < 1e-4

    def test_underflowing_count_does_not_hide_a_normal_rescaled_count(self, ctx):
        # N = 1e57*(0.459*kappa)**(1/0.459) is about 1e-460, N_s about 8e-132
        lightminute = 60.0 * C
        kappa, ell = 6.86934e-238, 4.03e125 * lightminute
        budget = solar_budget(kappa, 1.459, ctx, ell=Quantity(ell, LENGTH))
        assert budget.n_solar == 0.0
        # oracle: the count in logs
        log_ns = (math.log(1e57) + math.log(0.459 * kappa) / 0.459
                  + 3.0 * (math.log(ell) - math.log(ctx.hubble_radius.value)))
        assert rel(budget.ns_solar, math.exp(log_ns)) < 1e-12
        assert rel(budget.ns_solar, 8.07237e-132) < 1e-5
        # a subnormal N (about 2e-311, computed N0) is formed in logs too
        budget = solar_budget(2e-160, 1.5, ctx, ell=Quantity(1e66 * lightminute, LENGTH),
                              n0_mode="computed")
        assert 0.0 < budget.n_solar < sys.float_info.min
        log_ns = (math.log(budget.n0) + math.log(1e-160) / 0.5
                  + 3.0 * (math.log(1e66 * lightminute) - math.log(ctx.hubble_radius.value)))
        assert rel(budget.ns_solar, math.exp(log_ns)) < 1e-12
        # the sweep's Ns column is the same cell
        big = CosmologyContext.default({"ell": ell})
        row = run_sweep(SweepSpec((1.459,), (kappa,), ("N", "Ns")), big)[0]
        assert (row.n_solar, row.ns_solar) == (0.0, solar_budget(kappa, 1.459, big).ns_solar)

    def test_overflowing_count_names_its_inputs(self, ctx):
        with pytest.raises(NonFinite, match=r"N_s = N\*\(ell/R\)\*\*3 .* ell = 1e\+300 m"):
            # N = 1e57 at a = 2, kappa = 1
            solar_budget(1.0, 2.0, ctx, ell=Quantity(1e300, LENGTH))


class TestSubnormalCascade:
    # N = N0*((a-1)*kappa)**(1/(a-1)) is a normal float where the cascade
    # factor alone is not; oracles: the same expressions in 50-digit mpmath

    @pytest.mark.parametrize("kappa, a, expected", [
        (1e-16, 1.05, 9.536743164069414e-290),  # the cascade underflows to 0
        (8.6e-17, 1.0536, 3.638156365009412e-267),  # the cascade is subnormal
    ])
    def test_count_formed_in_logs(self, ctx, kappa, a, expected):
        budget = solar_budget(kappa, a, ctx)
        assert rel(budget.n_solar, expected) < 1e-12
        row, = run_sweep(SweepSpec(slopes=(a,), kappas=(kappa,), outputs=("N",)), ctx)
        assert row.n_solar == budget.n_solar

    @pytest.mark.parametrize("kappa, a, expected", [
        (3.6e-15, 1.05, 2.0491251359121515e-289),  # the cascade is subnormal
        (8.6e-17, 1.0536, 5.847897332123776e-298),  # the cascade is the least subnormal
        (6e-16, 1.05, 5.604585166382776e-305),  # the cascade underflows to 0
    ])
    def test_epsilon_formed_in_logs(self, kappa, a, expected):
        # with H = 1 1/s, rho*c**3/R is about 1.6e26 W/m^3, so eps is a
        # normal float where the cascade factor is not
        ctx = CosmologyContext.default({"H": 1.0})
        budget = solar_budget(kappa, a, ctx)
        assert rel(budget.epsilon.value, expected) < 1e-12
        row, = run_sweep(SweepSpec(slopes=(a,), kappas=(kappa,), outputs=("epsilon",)), ctx)
        assert row.epsilon_w_m3 == budget.epsilon.value

    def test_epsilon_overflow_is_named(self):
        # rho*c**3/R is about 1e899 W/m^3: eps overflows although the
        # cascade factor underflows to 0
        ctx = CosmologyContext.default({"c": 1e150, "H": 1e100, "G": 1e-300})
        with pytest.raises(NonFinite, match=r"eps = .* a = 1\.05 and kappa = 2e-19"):
            solar_budget(2e-19, 1.05, ctx)

    def test_epsilon_of_an_underflowing_power_stays_a_product(self):
        # with H = 1e-170 1/s, H**3 underflows to 0, and so does eps
        budget = solar_budget(1.0, 1.00390625, CosmologyContext.default({"H": 1e-170}))
        assert budget.epsilon.value == 0.0

    @pytest.mark.parametrize("n_solar, n0, a, expected", [
        (1e-300, 1e57, 1.05, 2.825075089245403e-17),  # N/N0 underflows to 0
        (6e-271, 1e57, 1.05, 8.708383739061839e-16),  # N/N0 is subnormal
        (1e300, 1e-300, 1.05, 2.000000000000121e31),  # N/N0 overflows
    ])
    def test_kappa_formed_in_logs(self, n_solar, n0, a, expected):
        assert rel(kappa_from_count(n_solar, n0, a), expected) < 1e-12

    def test_kappa_overflow_names_the_counts(self):
        with pytest.raises(NonFinite, match=r"N = 1e\+300 and N0 = 1e-300"):
            kappa_from_count(1e300, 1e-300, 2.9)

    def test_bound_below_the_normal_range(self, ctx):
        # Ns = 1e-315 is subnormal; N/N0 = Ns*(R/ell)**3/1e57 underflows
        kappa, _ = kappa_from_solar_bound(1e-315, 1.05, ctx)
        assert rel(kappa, 8.697889940076813e-16) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(a=st.one_of(st.floats(min_value=1.0, max_value=3.0, exclude_min=True,
                                 exclude_max=True),
                       # where 1/(a-1) is large, the cascade factor can leave
                       # the normal range while N stays in it
                       st.floats(min_value=1.0, max_value=1.1, exclude_min=True)),
           log_kappa=st.floats(min_value=-30.0, max_value=0.0),
           n0_mode=st.sampled_from(("paper", "computed")))
    def test_kappa_count_round_trip(self, ctx, a, log_kappa, n0_mode):
        kappa = 10.0 ** log_kappa
        budget = solar_budget(kappa, a, ctx, n0_mode=n0_mode)
        assume(budget.n_solar >= sys.float_info.min)
        assert rel(kappa_from_count(budget.n_solar, budget.n0, a), kappa) < 1e-12


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
