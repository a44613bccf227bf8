"""Composed exponent tables: the algebra of ``ExponentTable``, the vectors
of the derived products, and a property test whose oracle is each
product written out as a literal float expression, in the order in
which its powers have always been multiplied."""

import copy
import math
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from zpfcross import constants
from zpfcross.constants import (
    CRITICAL_DENSITY,
    CRITICAL_ENERGY_DENSITY,
    HORIZON_POWER_DENSITY,
    HUBBLE_RADIUS,
    LIGHT_SPEED,
    N0_RATE,
    CosmologyContext,
    ExponentTable,
)
from zpfcross.dissipation import n0_value, solar_budget
from zpfcross.errors import DimensionMismatch, ValidationError
from zpfcross.quantity import (
    DENSITY,
    Dimension,
    ENERGY_DENSITY,
    FREQUENCY,
    LENGTH,
    POWER_DENSITY,
    SPECTRAL_DENSITY,
    WAVENUMBER,
)
from zpfcross.spectra import amplitude_from_kappa, horizon_injection_rate
from zpfcross.transition import CROSSOVER_VOLUME, ScaleTerms, scale_terms

RHO = 3.0 / (8.0 * math.pi)  # the critical density's coefficient
SLOPES = (1.05, 1.1, 1.5, 5.0 / 3.0, 1.7, 1.8, 2.0, 2.5, 2.9, 2.95)


def amplitude_exponents(a):
    """The exponents of rho*c**2 * R**(1-a), merged by name as they were
    written out before the tables composed."""
    exponents = {"H": 2, "G": -1, "c": 2}
    for name, p in (("c", 1), ("H", -1)):
        exponents[name] = exponents.get(name, 0) + (1.0 - a) * p
    return exponents


class TestAlgebra:
    def test_product_merges_by_name_in_order(self):
        table = CRITICAL_DENSITY * LIGHT_SPEED ** 2 / HUBBLE_RADIUS
        assert list(table.exponents.items()) == [("H", 3.0), ("G", -1.0), ("c", 1.0)]
        assert table.coeff == RHO
        assert table.dim == DENSITY * LENGTH ** 2 / constants.TIME ** 2 / LENGTH

    def test_scalar_scales_the_coefficient_only(self):
        for table in (HUBBLE_RADIUS * 3.0, HUBBLE_RADIUS * 3):
            assert table.exponents == HUBBLE_RADIUS.exponents
            assert table.coeff == 3.0 and table.dim == LENGTH
        assert (CRITICAL_DENSITY * 2.0).coeff == RHO * 2.0

    def test_power_scales_exponents_and_coefficient(self):
        table = CRITICAL_DENSITY ** -0.5
        assert dict(table.exponents) == {"H": -1.0, "G": 0.5}
        assert table.coeff == RHO ** -0.5
        assert table.dim == DENSITY ** -0.5

    def test_ordered_keeps_the_product(self, ctx):
        table = HORIZON_POWER_DENSITY.ordered("c", "H", "G")
        assert list(table.exponents) == ["c", "H", "G"]
        assert table == HORIZON_POWER_DENSITY  # equal exponents, in any order
        assert math.isclose(table.value(ctx), HORIZON_POWER_DENSITY.value(ctx), rel_tol=1e-15)

    def test_ordered_may_drop_only_a_zero_exponent(self):
        cancelled = HUBBLE_RADIUS / HUBBLE_RADIUS
        assert dict(cancelled.exponents) == {"c": 0.0, "H": 0.0}
        assert dict(cancelled.ordered().exponents) == {}
        with pytest.raises(ValidationError, match="leaves out"):
            HORIZON_POWER_DENSITY.ordered("G", "H")

    def test_checked_names_a_wrong_dimension(self):
        assert (LIGHT_SPEED / HUBBLE_RADIUS).checked(FREQUENCY).dim == FREQUENCY
        with pytest.raises(DimensionMismatch, match=r"expected \[m\]"):
            (LIGHT_SPEED / HUBBLE_RADIUS).checked(LENGTH)

    def test_composing_multiplies_the_operands_dimensions(self, monkeypatch):
        expected = (LENGTH ** 3 * LENGTH ** 1.8) ** 0.2
        calls = []
        for name in ("__mul__", "__truediv__", "__pow__", "__eq__"):
            original = getattr(Dimension, name)
            monkeypatch.setattr(Dimension, name,
                                lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        table = (CROSSOVER_VOLUME * HUBBLE_RADIUS ** 1.8) ** 0.2 * 3.0
        assert calls == ["__pow__", "__mul__", "__pow__"]  # no check, no scalar work
        monkeypatch.undo()
        assert table.dim == expected

    def test_ordered_gives_a_missing_constant_exponent_zero(self, ctx):
        table = HUBBLE_RADIUS.ordered("G", "c", "hbar", "H")
        assert list(table.exponents.items()) == [("G", 0.0), ("c", 1.0), ("hbar", 0.0),
                                                 ("H", -1.0)]
        assert table.value(ctx) == HUBBLE_RADIUS.value(ctx) and table.dim == LENGTH

    def test_aligned_pairs_the_exponents_over_the_left_constants(self):
        assert CRITICAL_ENERGY_DENSITY.aligned(HUBBLE_RADIUS) == (
            ("H", 2.0, -1.0), ("G", -1.0, 0.0), ("c", 2.0, 1.0))
        with pytest.raises(ValidationError, match="leaves out"):
            HUBBLE_RADIUS.aligned(CRITICAL_DENSITY)  # G is not among c, H

    def test_composed_table_is_a_record(self, ctx):
        table = CRITICAL_ENERGY_DENSITY * HUBBLE_RADIUS ** -0.8 * 0.5
        for clone in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert clone == table and hash(clone) == hash(table)
            assert clone.value(ctx) == table.value(ctx)
        assert repr(table).startswith("ExponentTable(exponents=mappingproxy({'H': 2.8, ")


class TestVectors:
    def test_module_tables_equal_the_written_out_exponents(self):
        for table, items, dim in (
                (CRITICAL_DENSITY, [("H", 2), ("G", -1)], DENSITY),
                (CRITICAL_ENERGY_DENSITY, [("H", 2), ("G", -1), ("c", 2)], ENERGY_DENSITY),
                (HORIZON_POWER_DENSITY, [("G", -1), ("H", 3), ("c", 2)], POWER_DENSITY),
                (N0_RATE, [("G", -1), ("c", 3), ("M_sun", -1)], FREQUENCY)):
            assert list(table.exponents.items()) == items
            assert table.coeff == RHO
            assert table.dim == dim

    @pytest.mark.parametrize("a", SLOPES)
    def test_amplitude_vector(self, ctx, a):
        table = CRITICAL_ENERGY_DENSITY * HUBBLE_RADIUS ** (1.0 - a)
        assert list(table.exponents.items()) == list(amplitude_exponents(a).items())
        for (name, p), expected in zip(table.exponents.items(), (1.0 + a, -1.0, 3.0 - a)):
            assert math.isclose(p, expected, rel_tol=1e-15), name
        assert table.dim == SPECTRAL_DENSITY * WAVENUMBER ** a
        amplitude = amplitude_from_kappa(1e-5, a, ctx)
        assert amplitude.rel_sigma == math.sqrt(sum(
            (p * e) ** 2 for _, p, e in table.budget(ctx)))

    @pytest.mark.parametrize("a", SLOPES)
    def test_scale_budget_vector(self, ctx, a):
        # lambda0 ~ G**q hbar**q c**((a-2)q) H**(-(a+1)q) kappa**-q, the
        # exponents as V's and R's were paired by hand: q*(v_X + a*r_X)
        q = 1.0 / (3.0 + a)
        pairs = (("G", 1.0, 0.0), ("c", -2.0, 1.0), ("hbar", 1.0, 0.0), ("H", -1.0, -1.0))
        assert [(name, p) for name, p, _ in scale_terms(a, ctx).budget] == (
            [(name, q * (v + a * r)) for name, v, r in pairs] + [("kappa", -q)])

    @pytest.mark.parametrize("name, value, table", [
        ("amplitude", lambda ctx: amplitude_from_kappa(1e-5, 1.8, ctx).value,
         CRITICAL_ENERGY_DENSITY * HUBBLE_RADIUS ** -0.8),
        ("eps", lambda ctx: horizon_injection_rate(ctx).value, HORIZON_POWER_DENSITY),
        ("N0 rate", lambda ctx: n0_value(ctx, n0_mode="computed").value, N0_RATE),
    ])
    def test_central_differences_match_the_vector(self, ctx, name, value, table):
        # d ln f / d ln X under overrides X*(1 +- 1e-6), for every constant
        h = 1e-6
        for constant in ("c", "G", "hbar", "H", "M_sun"):
            up, down = (value(CosmologyContext.default({constant: ctx.value(constant) * f}))
                        for f in (1.0 + h, 1.0 - h))
            slope = (math.log(up) - math.log(down)) / (math.log1p(h) - math.log1p(-h))
            expected = table.exponents.get(constant, 0.0)
            assert abs(slope - expected) < 1e-7, (name, constant, slope, expected)


def within_ulps(x, y, n):
    return abs(x - y) <= n * math.ulp(y)


class TestLiteralOracle:
    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=1.0, max_value=3.0, exclude_min=True, exclude_max=True),
           log_kappa=st.floats(min_value=-30.0, max_value=0.0),
           log_scales=st.fixed_dictionaries({name: st.floats(min_value=-3.0, max_value=3.0)
                                             for name in ("G", "hbar", "c", "H", "M_sun")}),
           rels=st.fixed_dictionaries({f"e_{name}": st.floats(min_value=0.0, max_value=0.2)
                                       for name in ("G", "hbar", "c", "H")}),
           e_kappa=st.floats(min_value=0.0, max_value=0.5))
    def test_tables_equal_the_literal_expressions(self, ctx, a, log_kappa, log_scales, rels,
                                                  e_kappa):
        kappa = 10.0 ** log_kappa
        scaled = CosmologyContext.default(
            {**{name: ctx.value(name) * 10.0 ** s for name, s in log_scales.items()}, **rels})
        G, hbar, c, H, M = (scaled.value(name) for name in ("G", "hbar", "c", "H", "M_sun"))
        e = {name: scaled.rel_sigma(name) for name in ("G", "hbar", "c", "H")}

        assert scaled.rho_crit.value == 3.0 / (8.0 * math.pi) * H ** 2.0 * G ** -1.0
        assert CRITICAL_ENERGY_DENSITY.value(scaled) == (
            3.0 / (8.0 * math.pi) * H ** 2.0 * G ** -1.0 * c ** 2.0)
        assert HORIZON_POWER_DENSITY.value(scaled) == (
            3.0 / (8.0 * math.pi) * G ** -1.0 * H ** 3.0 * c ** 2.0)
        cascade = ((a - 1.0) * kappa) ** (1.0 / (a - 1.0))
        if cascade >= sys.float_info.min:  # below, budget_cell forms eps in logs
            assert solar_budget(kappa, a, scaled).epsilon.value == (
                3.0 / (8.0 * math.pi) * cascade * G ** -1.0 * H ** 3.0 * c ** 2.0)
        assert horizon_injection_rate(scaled).value == (
            9.0 / (8.0 * math.pi) * G ** -1.0 * H ** 3.0 * c ** 2.0)
        assert N0_RATE.value(scaled) == (
            3.0 / (8.0 * math.pi) * G ** -1.0 * c ** 3.0 * M ** -1.0)

        volume = 1.0 * G ** 1.0 * hbar ** 1.0 * c ** -2.0 * H ** -1.0
        radius = 1.0 * c ** 1.0 * H ** -1.0
        q = 1.0 / (3.0 + a)
        budget = [(name, q * (v + a * r), e[name])
                  for name, v, r in (("G", 1.0, 0.0), ("c", -2.0, 1.0), ("hbar", 1.0, 0.0),
                                     ("H", -1.0, -1.0))]
        budget.append(("kappa", -q, e_kappa))
        rel_sigma = math.sqrt(sum([(p * e_x) * (p * e_x) for _, p, e_x in budget]))
        assert scale_terms(a, scaled, e_kappa) == ScaleTerms(
            a, q, volume * radius ** a, rel_sigma, tuple(budget))

        # the amplitude folds its coefficient as the other tables do,
        # (a-1)*kappa*(3/(8*pi)) for ((a-1)*kappa*3)/(8*pi): a few ulp
        exponents = amplitude_exponents(a)
        amplitude = amplitude_from_kappa(kappa, a, scaled)
        assert within_ulps(amplitude.value, (a - 1.0) * kappa * 3.0 / (8.0 * math.pi)
                           * H ** exponents["H"] * G ** -1.0 * c ** exponents["c"], 4)
        assert amplitude.rel_sigma == math.sqrt(
            (exponents["H"] * e["H"]) ** 2 + (-1.0 * e["G"]) ** 2
            + (exponents["c"] * e["c"]) ** 2)
