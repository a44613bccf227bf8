import math

import pytest

from zpfcross.constants import (
    MPC_M,
    CosmologyContext,
    ExponentTable,
    PhysicalConstant,
    load_config,
    parse_config,
)
from zpfcross.errors import BadOverride, DimensionMismatch
from zpfcross.quantity import DENSITY, FREQUENCY, LENGTH, TIME, Quantity

from propagation_oracle import product_of_powers


def rel(x, y):
    return abs(x - y) / abs(y)


class TestDefaults:
    def test_hubble_value_and_uncertainty(self, ctx):
        assert ctx.value("H") == 2.49e-18
        assert ctx.rel_sigma("H") == 0.15

    def test_quantity_carries_value_dimension_and_uncertainty(self, ctx):
        h = ctx.quantity("H")
        assert h == Quantity(2.49e-18, FREQUENCY, 0.15)
        assert h.rel_sigma == 0.15
        assert ctx.quantity("c").rel_sigma == 0.0

    def test_codata_uncertainties(self, ctx):
        assert ctx.rel_sigma("c") == 0.0
        assert ctx.rel_sigma("G") == 1e-4
        assert ctx.rel_sigma("hbar") == 5e-5

    def test_codata_values(self, ctx):
        assert ctx.value("c") == 2.99792458e8
        assert ctx.value("G") == 6.67428e-11
        assert ctx.value("hbar") == 1.054571628e-34

    def test_auxiliary_values(self, ctx):
        assert ctx.value("M_sun") == 1.98e30
        assert ctx.value("day") == 86400.0
        assert ctx.value("t") == 86400.0
        assert ctx.value("ell") == 8.0 * 60.0 * 2.99792458e8
        assert ctx.value("r_p") == 1.616e-35


class TestDerived:
    def test_critical_density_value(self, ctx):
        # oracle: direct arithmetic with the default constants
        expected = 3.0 * 2.49e-18 ** 2 / (8.0 * math.pi * 6.67428e-11)
        rho = ctx.rho_crit
        assert rel(rho.value, expected) < 1e-12
        assert rel(rho.value, 1.11e-26) < 5e-3
        assert rho.dim == DENSITY

    def test_critical_density_uncertainty(self, ctx):
        expected = math.sqrt((2.0 * 0.15) ** 2 + 1e-4 ** 2)
        assert rel(ctx.rho_crit.rel_sigma, expected) < 1e-12
        assert rel(ctx.rho_crit.rel_sigma, 0.30) < 1e-3

    def test_exact_inputs_give_exact_density(self):
        ctx = CosmologyContext.default({"e_H": 0.0, "e_G": 0.0})
        assert ctx.rho_crit.rel_sigma == 0.0

    def test_hubble_radius(self, ctx):
        expected = 2.99792458e8 / 2.49e-18
        radius = ctx.hubble_radius
        assert rel(radius.value, expected) < 1e-12
        assert rel(radius.value, 1.20e26) < 5e-3
        assert radius.dim == LENGTH
        assert radius.rel_sigma == 0.15

    def test_hubble_radius_halves_when_h_doubles(self, ctx):
        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert rel(doubled.hubble_radius.value, ctx.hubble_radius.value / 2.0) < 1e-12

    def test_density_quadruples_when_h_doubles(self, ctx):
        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert rel(doubled.rho_crit.value,
                   4.0 * ctx.rho_crit.value) < 1e-12


class TestOverrides:
    def test_unknown_name(self):
        with pytest.raises(BadOverride):
            CosmologyContext.default({"planck_mass": 1.0})

    def test_non_positive_value(self):
        with pytest.raises(BadOverride):
            CosmologyContext.default({"H": 0.0})
        with pytest.raises(BadOverride):
            CosmologyContext.default({"G": -1.0})

    def test_negative_uncertainty(self):
        with pytest.raises(BadOverride):
            CosmologyContext.default({"e_H": -0.1})

    def test_unknown_uncertainty_name(self):
        with pytest.raises(BadOverride):
            CosmologyContext.default({"e_nope": 0.1})

    def test_override_applies(self):
        ctx = CosmologyContext.default({"H": 1e-18, "e_H": 0.05})
        assert ctx.value("H") == 1e-18
        assert ctx.rel_sigma("H") == 0.05
        assert ctx["H"].source == "override"

    def test_registry_is_immutable(self, ctx):
        with pytest.raises(TypeError):
            ctx["c"] = None

    def test_dimension_cannot_be_overridden(self, ctx):
        # exponent tables rely on every context keeping the default dimensions
        constants = [ctx[name] for name in ctx if name != "H"]
        wrong_h = PhysicalConstant("H", Quantity(2.49e-18, TIME, 0.15))
        with pytest.raises(BadOverride):
            CosmologyContext(constants + [wrong_h])
        right_h = PhysicalConstant("H", Quantity(2.49e-18, FREQUENCY, 0.15))
        assert CosmologyContext(constants + [right_h]).value("H") == 2.49e-18

    def test_unknown_name_follows_the_mapping_protocol(self, ctx):
        assert "warp" not in ctx
        assert ctx.get("warp") is None
        with pytest.raises(KeyError):
            ctx["warp"]
        for read in (ctx.value, ctx.rel_sigma, ctx.quantity):
            with pytest.raises(BadOverride):
                read("warp")

    def test_missing_constant(self, ctx):
        with pytest.raises(BadOverride):
            CosmologyContext([ctx[name] for name in ctx if name != "G"])

    def test_non_positive_constant(self, ctx):
        # a sweep resolves the context's window and radius once for all cells
        constants = [ctx[name] for name in ctx if name != "t"]
        for value in (0.0, -86400.0):
            wrong_t = PhysicalConstant("t", Quantity(value, TIME))
            with pytest.raises(BadOverride):
                CosmologyContext(constants + [wrong_t])

    def test_duplicate_name(self, ctx):
        with pytest.raises(BadOverride):
            CosmologyContext(list(ctx.values()) + [ctx["H"]])

    def test_override_equals_the_context_of_its_constants(self, ctx):
        h = 3e-18
        constants = [PhysicalConstant("H", Quantity(h, FREQUENCY, 0.15), "override")
                     if name == "H" else ctx[name] for name in ctx]
        built = CosmologyContext(constants)
        assert CosmologyContext.default({"H": h}) == built
        assert built != ctx

    def test_determinism(self):
        a = CosmologyContext.default({"H": 3e-18})
        b = CosmologyContext.default({"H": 3e-18})
        assert all(a.value(n) == b.value(n) and a.rel_sigma(n) == b.rel_sigma(n)
                   for n in a)


class TestConfigParsing:
    def test_plain_si_values_and_comments(self):
        text = "# comment\nH = 2.3e-18\n\ne_H = 0.1  # trailing\n"
        assert parse_config(text) == {"H": 2.3e-18, "e_H": 0.1}

    def test_unit_conversion(self):
        overrides = parse_config("H = 77 km/s/Mpc\nell = 9 lightminutes\nt = 2 days\n")
        assert rel(overrides["H"], 77e3 / MPC_M) < 1e-15
        assert overrides["ell"] == 9.0 * 60.0 * 2.99792458e8
        assert overrides["t"] == 2.0 * 86400.0

    def test_bracketed_unit(self):
        assert parse_config("M_sun = 2 [Msun]\n") == {"M_sun": 2.0 * 1.98e30}

    def test_wrong_dimension_unit(self):
        with pytest.raises(BadOverride):
            parse_config("H = 1 m\n")

    def test_unknown_unit(self):
        with pytest.raises(BadOverride):
            parse_config("ell = 1 parsec\n")

    def test_uncertainty_with_unit_rejected(self):
        with pytest.raises(BadOverride):
            parse_config("e_H = 0.1 m\n")

    def test_garbage_line(self):
        with pytest.raises(BadOverride):
            parse_config("just some words\n")

    def test_bad_number(self):
        with pytest.raises(BadOverride):
            parse_config("H = fast\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(BadOverride):
            load_config(tmp_path / "missing.cfg")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(BadOverride):
            load_config(tmp_path)  # a directory
        binary = tmp_path / "binary.cfg"
        binary.write_bytes(b"H = \xff\xfe\n")
        with pytest.raises(BadOverride):
            load_config(binary)

    def test_feeds_default_context(self):
        ctx = CosmologyContext.default(parse_config("H = 77 km/s/Mpc\n"))
        # 77 km/s/Mpc is about 2.4966e-18 1/s under the Mpc convention here
        assert rel(ctx.value("H"), 2.4966e-18) < 1e-4


class TestExponentTable:
    def test_value_and_uncertainty_from_the_float_core(self, ctx):
        table = ExponentTable({"H": 2, "G": -1}, DENSITY)
        rho = table.evaluate(ctx, 3.0 / (8.0 * math.pi))
        assert rho.dim == DENSITY
        assert rho.value == ctx.rho_crit.value
        assert rho.rel_sigma == ctx.rho_crit.rel_sigma
        assert table.value(ctx, 3.0 / (8.0 * math.pi)) == rho.value
        # the same product in plain floats, its dimension composed per call
        slow = product_of_powers(3.0 / (8.0 * math.pi),
                                 [(ctx.quantity("H"), 2), (ctx.quantity("G"), -1)])
        assert slow == (rho.value, rho.rel_sigma, rho.dim)

    def test_wrong_dimension_rejected_at_build(self):
        with pytest.raises(DimensionMismatch):
            ExponentTable({"H": 2, "G": -1}, LENGTH)
        with pytest.raises(DimensionMismatch):
            ExponentTable({"c": 1, "H": 1}, LENGTH)

    def test_unknown_constant_rejected_at_build(self):
        with pytest.raises(BadOverride):
            ExponentTable({"warp": 1}, LENGTH)

    def test_overrides_reach_the_value(self):
        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18, "e_H": 0.0})
        radius = ExponentTable({"c": 1, "H": -1}, LENGTH).evaluate(doubled)
        assert rel(radius.value, 2.99792458e8 / (2.0 * 2.49e-18)) < 1e-15
        assert radius.rel_sigma == 0.0

    def test_exponents_are_read_only(self):
        table = ExponentTable({"c": 1, "H": -1}, LENGTH)
        with pytest.raises(TypeError):
            table.exponents["H"] = 0


class TestResolvedOnce:
    def test_default_context_is_shared(self):
        assert CosmologyContext.default() is CosmologyContext.default()
        assert CosmologyContext.default({}) is CosmologyContext.default()

    def test_overrides_build_a_fresh_context(self):
        first = CosmologyContext.default({"e_H": 0.1})
        second = CosmologyContext.default({"e_H": 0.1})
        assert first is not second and first is not CosmologyContext.default()
        assert first.rel_sigma("H") == 0.1
        assert CosmologyContext.default().rel_sigma("H") == 0.15

    def test_factor_list_resolved_once_per_registry(self, ctx):
        table = ExponentTable({"H": 2, "G": -1}, DENSITY)
        factors = ctx.factors(table._terms)
        assert factors == ((2.49e-18, 0.15, 2.0), (6.67428e-11, 1e-4, -1.0))
        assert ctx.factors(table._terms) is factors
        other = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert other.factors(table._terms)[0][0] == 2.0 * 2.49e-18
