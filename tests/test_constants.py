import copy
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from zpfcross.constants import (
    CRITICAL_DENSITY,
    HUBBLE_RADIUS,
    MPC_M,
    CosmologyContext,
    ExponentTable,
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
        assert ctx["H"].value == 2.49e-18
        assert ctx["H"].rel_sigma == 0.15

    def test_quantity_carries_value_dimension_and_uncertainty(self, ctx):
        h = ctx["H"]
        assert h == Quantity(2.49e-18, FREQUENCY, 0.15)
        assert h.rel_sigma == 0.15
        assert ctx["c"].rel_sigma == 0.0

    def test_codata_uncertainties(self, ctx):
        assert ctx["c"].rel_sigma == 0.0
        assert ctx["G"].rel_sigma == 1e-4
        assert ctx["hbar"].rel_sigma == 5e-5

    def test_codata_values(self, ctx):
        assert ctx["c"].value == 2.99792458e8
        assert ctx["G"].value == 6.67428e-11
        assert ctx["hbar"].value == 1.054571628e-34

    def test_auxiliary_values(self, ctx):
        assert ctx["M_sun"].value == 1.98e30
        assert ctx["day"].value == 86400.0
        assert ctx["t"].value == 86400.0
        assert ctx["ell"].value == 8.0 * 60.0 * 2.99792458e8
        assert ctx["r_p"].value == 1.616e-35


class TestDerived:
    def test_critical_density_value(self, ctx):
        # oracle: direct arithmetic with the default constants
        expected = 3.0 * 2.49e-18 ** 2 / (8.0 * math.pi * 6.67428e-11)
        rho = CRITICAL_DENSITY.evaluate(ctx)
        assert rel(rho.value, expected) < 1e-12
        assert rel(rho.value, 1.11e-26) < 5e-3
        assert rho.dim == DENSITY

    def test_critical_density_uncertainty(self, ctx):
        expected = math.sqrt((2.0 * 0.15) ** 2 + 1e-4 ** 2)
        assert rel(CRITICAL_DENSITY.evaluate(ctx).rel_sigma, expected) < 1e-12
        assert rel(CRITICAL_DENSITY.evaluate(ctx).rel_sigma, 0.30) < 1e-3

    def test_exact_inputs_give_exact_density(self):
        ctx = CosmologyContext.default({"e_H": 0.0, "e_G": 0.0})
        assert CRITICAL_DENSITY.evaluate(ctx).rel_sigma == 0.0

    def test_hubble_radius(self, ctx):
        expected = 2.99792458e8 / 2.49e-18
        radius = HUBBLE_RADIUS.evaluate(ctx)
        assert rel(radius.value, expected) < 1e-12
        assert rel(radius.value, 1.20e26) < 5e-3
        assert radius.dim == LENGTH
        assert radius.rel_sigma == 0.15

    def test_hubble_radius_halves_when_h_doubles(self, ctx):
        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert rel(HUBBLE_RADIUS.value(doubled), HUBBLE_RADIUS.value(ctx) / 2.0) < 1e-12

    def test_density_quadruples_when_h_doubles(self, ctx):
        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert rel(CRITICAL_DENSITY.value(doubled), 4.0 * CRITICAL_DENSITY.value(ctx)) < 1e-12


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
        assert ctx["H"].value == 1e-18
        assert ctx["H"].rel_sigma == 0.05
        assert ctx.sources["H"] == "override"

    def test_registry_is_immutable(self, ctx):
        with pytest.raises(TypeError):
            ctx["c"] = None

    def test_dimension_cannot_be_overridden(self, ctx):
        # exponent tables rely on every context keeping the default dimensions
        with pytest.raises(BadOverride):
            CosmologyContext({**ctx, "H": Quantity(2.49e-18, TIME, 0.15)}, ctx.sources)
        right_h = Quantity(2.49e-18, FREQUENCY, 0.15)
        assert CosmologyContext({**ctx, "H": right_h}, ctx.sources)["H"] is right_h

    def test_unknown_name_follows_the_mapping_protocol(self, ctx):
        assert "warp" not in ctx
        assert ctx.get("warp") is None
        with pytest.raises(KeyError):
            ctx["warp"]

    def test_missing_constant(self, ctx):
        with pytest.raises(BadOverride, match=r"^missing constants \['G'\]$"):
            CosmologyContext({name: q for name, q in ctx.items() if name != "G"}, ctx.sources)

    def test_constructor_takes_the_default_names_alone(self, ctx):
        sources = dict(ctx.sources)
        del sources["c"]
        with pytest.raises(BadOverride, match=r"^missing sources \['c'\]$"):
            CosmologyContext(ctx, sources)
        with pytest.raises(BadOverride, match=r"^unknown constants \['warp'\]$"):
            CosmologyContext({**ctx, "warp": Quantity(1.0, LENGTH)}, ctx.sources)
        with pytest.raises(BadOverride, match=r"^unknown sources \['warp'\]$"):
            CosmologyContext(ctx, {**ctx.sources, "warp": "a guess"})

    def test_non_positive_constant(self, ctx):
        # a sweep resolves the context's window and radius once for all cells
        for value in (0.0, -86400.0):
            with pytest.raises(BadOverride):
                CosmologyContext({**ctx, "t": Quantity(value, TIME)}, ctx.sources)

    def test_override_equals_the_context_of_its_constants(self, ctx):
        h = 3e-18
        built = CosmologyContext({**ctx, "H": Quantity(h, FREQUENCY, 0.15)},
                                 {**ctx.sources, "H": "override"})
        assert CosmologyContext.default({"H": h}) == built
        assert built != ctx

    def test_contexts_compare_by_their_constants_alone(self, ctx):
        relabelled = CosmologyContext(ctx, {**ctx.sources, "H": "override"})
        assert relabelled == ctx and relabelled.sources != ctx.sources

    def test_determinism(self):
        a = CosmologyContext.default({"H": 3e-18})
        b = CosmologyContext.default({"H": 3e-18})
        assert all(a[n].value == b[n].value and a[n].rel_sigma == b[n].rel_sigma
                   for n in a)

    def test_sources_are_read_only(self, ctx):
        assert ctx.sources["H"] == "Chandra X-ray Observatory, 77 km/s/Mpc"
        with pytest.raises(TypeError):
            ctx.sources["H"] = "override"

    @pytest.mark.parametrize("name", ["sources", "_table", "_factors", "_powers", "extra"])
    def test_attributes_are_frozen(self, name):
        # the shared default is frozen too: no rebinding reaches other callers
        shared = CosmologyContext.default()
        with pytest.raises(AttributeError, match="is frozen"):
            setattr(shared, name, {})
        with pytest.raises(AttributeError, match="is frozen"):
            delattr(shared, name)
        assert not hasattr(shared, "__dict__")
        assert CosmologyContext.default() is shared and len(shared) == 9
        assert tuple(shared) == NAMES and shared.sources.keys() == shared.keys()


NAMES = tuple(CosmologyContext.default())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(NAMES), st.floats(-3.0, 3.0)),
       st.dictionaries(st.sampled_from(NAMES), st.floats(0.0, 1.0)))
def test_each_name_maps_to_its_quantity_under_any_overrides(log_scales, rels):
    base = CosmologyContext.default()
    ctx = CosmologyContext.default(
        {**{name: base[name].value * 10.0 ** s for name, s in log_scales.items()},
         **{f"e_{name}": e for name, e in rels.items()}})
    assert tuple(ctx) == NAMES
    for name, quantity in ctx.items():
        assert type(quantity) is Quantity and quantity.dim == base[name].dim
        assert (ctx.sources[name] == "override") == (name in log_scales or name in rels)
    G, c, H = (ctx[name].value for name in ("G", "c", "H"))
    assert rel(CRITICAL_DENSITY.evaluate(ctx).value, 3.0 * H ** 2 / (8.0 * math.pi * G)) <= 1e-15
    assert rel(HUBBLE_RADIUS.evaluate(ctx).value, c / H) <= 1e-15


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

    def test_byte_order_mark_and_crlf(self, tmp_path):
        # a file saved with a UTF-8 byte-order mark (as Windows Notepad saves
        # it) or with CRLF line ends reads as the plain file does
        text = "# comment\nH = 70 km/s/Mpc\ne_H = 0.1\nt = 2 days\n"
        overrides = []
        for name, data in (("plain", text.encode()), ("crlf", text.replace("\n", "\r\n").encode()),
                           ("bom", b"\xef\xbb\xbf" + text.encode())):
            path = tmp_path / f"{name}.cfg"
            path.write_bytes(data)
            overrides.append(load_config(path))
        assert overrides[0] == overrides[1] == overrides[2] == parse_config(text)
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("# °\nH = 70 km/s/Mpc\n".encode("latin-1"))
        with pytest.raises(BadOverride):
            load_config(latin1)

    def test_feeds_default_context(self):
        ctx = CosmologyContext.default(parse_config("H = 77 km/s/Mpc\n"))
        # 77 km/s/Mpc is about 2.4966e-18 1/s under the Mpc convention here
        assert rel(ctx["H"].value, 2.4966e-18) < 1e-4


class TestExponentTable:
    def test_value_and_uncertainty_from_the_float_core(self, ctx):
        table = ExponentTable({"H": 2, "G": -1}, DENSITY, 3.0 / (8.0 * math.pi))
        rho = table.evaluate(ctx)
        assert rho.dim == DENSITY
        assert rho.value == CRITICAL_DENSITY.value(ctx)
        assert rho.rel_sigma == CRITICAL_DENSITY.evaluate(ctx).rel_sigma
        assert table.value(ctx) == rho.value
        # the same product in plain floats, its dimension composed per call
        slow = product_of_powers(3.0 / (8.0 * math.pi),
                                 [(ctx["H"], 2), (ctx["G"], -1)])
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
        assert first["H"].rel_sigma == 0.1
        assert CosmologyContext.default()["H"].rel_sigma == 0.15

    def test_factor_list_resolved_once_per_registry(self, ctx):
        factors = ctx.factors(("H", "G"))
        assert factors == ((2.49e-18, 6.67428e-11), (0.15, 1e-4))
        assert ctx.factors(("H", "G")) is factors
        other = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        assert other.factors(("H", "G"))[0][0] == 2.0 * 2.49e-18


class TestTableCache:
    def test_second_evaluation_computes_no_powers(self, monkeypatch):
        import zpfcross.constants as constants
        from zpfcross.transition import transition_scale

        calls = []
        power_terms = constants.power_terms
        monkeypatch.setattr(constants, "power_terms",
                            lambda terms: calls.append(terms) or power_terms(terms))
        ctx = CosmologyContext.default({"e_H": 0.1})  # fresh, so nothing is cached yet
        first = transition_scale(1.8, 1e-5, ctx)
        assert calls
        calls.clear()
        assert transition_scale(1.8, 1e-5, ctx) == first
        assert transition_scale(2.5, 1.0, ctx).lambda0.value > 0.0
        assert calls == []

    def test_contexts_do_not_share_values(self, ctx):
        from zpfcross.transition import CROSSOVER_VOLUME

        doubled = CosmologyContext.default({"H": 2.0 * 2.49e-18})
        for context in (ctx, doubled, ctx, doubled):  # each cache filled, then read
            assert CROSSOVER_VOLUME.value(context) == (
                context["G"].value * context["hbar"].value * context["c"].value ** -2.0
                * context["H"].value ** -1.0)
        assert rel(CROSSOVER_VOLUME.value(doubled), CROSSOVER_VOLUME.value(ctx) / 2.0) < 1e-15
        assert rel(HUBBLE_RADIUS.value(doubled), HUBBLE_RADIUS.value(ctx) / 2.0) < 1e-15
        assert HUBBLE_RADIUS.powers(doubled) != HUBBLE_RADIUS.powers(ctx)
        assert (HUBBLE_RADIUS * 3.0).evaluate(doubled).value == 3.0 * HUBBLE_RADIUS.value(doubled)

    def test_failure_is_raised_again_and_never_kept(self):
        from zpfcross.errors import NonFinite
        from zpfcross.transition import CROSSOVER_VOLUME

        # with H = 1e-300, R = c/H overflows in the product; with H = 1e-320,
        # the power H**-1 itself, so V and R both fail
        for h, tables, message in (
                (1e-300, (HUBBLE_RADIUS,), "value is not finite: inf"),
                (1e-320, (HUBBLE_RADIUS, CROSSOVER_VOLUME), "(1e-320)**-1.0 overflows")):
            same = CosmologyContext.default({"H": h})
            messages = []
            for context in (same, same, same, CosmologyContext.default({"H": h})):
                for table in tables:
                    for read in (table.value, table.evaluate):
                        with pytest.raises(NonFinite) as info:
                            read(context)
                        messages.append(str(info.value))
            assert messages == [message] * len(messages)
        with pytest.raises(NonFinite, match=r"^\(1e-320\)\*\*-1\.0 overflows$"):
            HUBBLE_RADIUS.powers(same)

    def test_slopes_add_no_cache_entry_and_the_context_is_freed(self):
        import gc
        import weakref

        from zpfcross.spectra import amplitude_from_kappa, horizon_spectrum_amplitude
        from zpfcross.transition import transition_scale

        enabled = gc.isenabled()
        gc.disable()  # a context must go with its last reference, no cycle collector
        try:
            ctx = CosmologyContext.default({"e_G": 2e-4})
            sizes = []
            for n in (1, 200):  # each slope new: the caches hold module tables only
                for i in range(n):
                    a = 1.1 + i / 250
                    transition_scale(a, 1e-5, ctx), amplitude_from_kappa(1e-5, a, ctx)
                    horizon_spectrum_amplitude(a, ctx)
                sizes.append((len(ctx._factors), len(ctx._powers)))
            assert sizes[0] == sizes[1]
            freed = weakref.ref(ctx)
            del ctx
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    def test_cache_leaves_identity_alone(self):
        from zpfcross.transition import transition_scale

        ctx = CosmologyContext.default({"e_G": 2e-4})
        twin = CosmologyContext.default({"e_G": 2e-4})
        pickled = pickle.dumps(ctx)
        transition_scale(1.8, 1e-5, ctx)  # fills the caches of ctx only
        CRITICAL_DENSITY.evaluate(ctx), HUBBLE_RADIUS.evaluate(ctx)
        assert ctx == twin and twin == ctx
        assert ctx != CosmologyContext.default()
        with pytest.raises(TypeError):
            hash(ctx)  # a mapping, unhashable before and after
        assert pickle.dumps(ctx) == pickled == pickle.dumps(twin)
        for clone in (pickle.loads(pickled), copy.deepcopy(ctx), copy.copy(ctx)):
            assert clone == ctx and clone is not ctx
            assert clone.sources == ctx.sources and clone.sources["G"] == "override"
            assert transition_scale(1.8, 1e-5, clone) == transition_scale(1.8, 1e-5, ctx)
