import math

import pytest

from zpfcross.constants import (
    MPC_M,
    ConstantRegistry,
    CosmologyContext,
    ExponentTable,
    PhysicalConstant,
    load_config,
    load_registry,
    parse_config,
)
from zpfcross.errors import BadOverride, DimensionMismatch
from zpfcross.quantity import DENSITY, FREQUENCY, LENGTH, TIME, UncertainQuantity, propagate


def rel(x, y):
    return abs(x - y) / abs(y)


class TestDefaults:
    def test_hubble_value_and_uncertainty(self, ctx):
        assert ctx.registry.value("H") == 2.49e-18
        assert ctx.registry.rel_sigma("H") == 0.15

    def test_codata_uncertainties(self, ctx):
        assert ctx.registry.rel_sigma("c") == 0.0
        assert ctx.registry.rel_sigma("G") == 1e-4
        assert ctx.registry.rel_sigma("hbar") == 5e-5

    def test_codata_values(self, ctx):
        assert ctx.registry.value("c") == 2.99792458e8
        assert ctx.registry.value("G") == 6.67428e-11
        assert ctx.registry.value("hbar") == 1.054571628e-34

    def test_auxiliary_values(self, ctx):
        assert ctx.registry.value("M_sun") == 1.98e30
        assert ctx.registry.value("day") == 86400.0
        assert ctx.registry.value("t") == 86400.0
        assert ctx.registry.value("ell") == 8.0 * 60.0 * 2.99792458e8
        assert ctx.registry.value("r_p") == 1.616e-35


class TestDerived:
    def test_critical_density_value(self, ctx):
        # oracle: direct arithmetic with the registry defaults
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
            load_registry({"planck_mass": 1.0})

    def test_non_positive_value(self):
        with pytest.raises(BadOverride):
            load_registry({"H": 0.0})
        with pytest.raises(BadOverride):
            load_registry({"G": -1.0})

    def test_negative_uncertainty(self):
        with pytest.raises(BadOverride):
            load_registry({"e_H": -0.1})

    def test_unknown_uncertainty_name(self):
        with pytest.raises(BadOverride):
            load_registry({"e_nope": 0.1})

    def test_override_applies(self):
        reg = load_registry({"H": 1e-18, "e_H": 0.05})
        assert reg.value("H") == 1e-18
        assert reg.rel_sigma("H") == 0.05
        assert reg["H"].source == "override"

    def test_registry_is_immutable(self, ctx):
        with pytest.raises(TypeError):
            ctx.registry["c"] = None

    def test_dimension_cannot_be_overridden(self, ctx):
        # exponent tables rely on every registry keeping the default dimensions
        constants = [ctx.registry[name] for name in ctx.registry if name != "H"]
        wrong_h = PhysicalConstant("H", UncertainQuantity(2.49e-18, 0.15, TIME))
        with pytest.raises(BadOverride):
            ConstantRegistry(constants + [wrong_h])
        right_h = PhysicalConstant("H", UncertainQuantity(2.49e-18, 0.15, FREQUENCY))
        assert ConstantRegistry(constants + [right_h]).value("H") == 2.49e-18

    def test_determinism(self):
        a = load_registry({"H": 3e-18})
        b = load_registry({"H": 3e-18})
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

    def test_feeds_load_registry(self):
        ctx = CosmologyContext.default(parse_config("H = 77 km/s/Mpc\n"))
        # 77 km/s/Mpc is about 2.4966e-18 1/s under the Mpc convention here
        assert rel(ctx.registry.value("H"), 2.4966e-18) < 1e-4


class TestExponentTable:
    def test_value_and_uncertainty_from_the_float_core(self, ctx):
        table = ExponentTable({"H": 2, "G": -1}, DENSITY)
        rho = table.evaluate(ctx.registry, 3.0 / (8.0 * math.pi))
        assert rho.dim == DENSITY
        assert rho.value == ctx.rho_crit.value
        assert rho.rel_sigma == ctx.rho_crit.rel_sigma
        assert table.value(ctx.registry, 3.0 / (8.0 * math.pi)) == rho.value
        # the same product through the per-call exact path
        slow = propagate([(UncertainQuantity(3.0 / (8.0 * math.pi)), 1),
                          (ctx.registry.quantity("H"), 2), (ctx.registry.quantity("G"), -1)])
        assert (slow.value, slow.rel_sigma, slow.dim) == (rho.value, rho.rel_sigma, rho.dim)

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
        radius = ExponentTable({"c": 1, "H": -1}, LENGTH).evaluate(doubled.registry)
        assert rel(radius.value, 2.99792458e8 / (2.0 * 2.49e-18)) < 1e-15
        assert radius.rel_sigma == 0.0

    def test_exponents_are_read_only(self):
        table = ExponentTable({"c": 1, "H": -1}, LENGTH)
        with pytest.raises(TypeError):
            table.exponents["H"] = 0
