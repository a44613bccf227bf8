"""The per-slope power laws of ``constants.PowerLaw``: their vectors
against data captured from the code that they replaced, against central
differences, and their evaluation rule.

``data/law_vectors.json`` holds, over a grid of slopes, overridden
contexts and kappa uncertainties, lambda0's budget vector with its
rel_sigma and eps's rel_sigma, as the hand-written compositions that
preceded ``PowerLaw`` gave them. To record it again (only when a change
of these numbers is intended):

    PYTHONPATH=src python3 tests/test_power_laws.py --capture
"""

import json
import math
import sys
from pathlib import Path

import pytest

from zpfcross.constants import CosmologyContext, PowerLaw, law_values
from zpfcross.dissipation import budget_terms, solar_budget
from zpfcross.errors import NonFinite
from zpfcross.transition import scale_terms

DATA = Path(__file__).parent / "data" / "law_vectors.json"
SLOPES = (1.05, 1.1, 1.5, 5.0 / 3.0, 1.7, 1.8, 2.0, 2.5, 2.9, 2.95)
E_KAPPAS = (0.0, 0.25)
# each overridden context as its overrides
CONTEXTS = (
    {},
    {"G": 6.67428e-11 * 10.0 ** 2.5, "e_G": 0.2},
    {"H": 1e-20, "e_H": 0.03, "hbar": 3.3e-33},
    {"c": 3e7, "e_c": 0.01, "e_hbar": 0.3},
    {"e_H": 0.0, "e_G": 0.0},
    {"M_sun": 4e31, "e_M_sun": 0.1, "H": 7.7e-17},
)


def capture():
    """The vectors as the code under test gives them, in the file's layout."""
    entries = []
    for overrides in CONTEXTS:
        ctx = CosmologyContext.default(overrides)
        for a in SLOPES:
            epsilon = {mode: solar_budget(1e-5, a, ctx, n0_mode=mode).epsilon.rel_sigma
                       for mode in ("paper", "computed")}
            for e_kappa in E_KAPPAS:
                law = scale_terms(a, ctx, e_kappa)
                entries.append({"overrides": overrides, "a": a, "e_kappa": e_kappa,
                                "budget": [list(entry) for entry in law.budget],
                                "rel_sigma": law.rel_sigma, "epsilon_rel_sigma": epsilon})
    return entries


@pytest.fixture(scope="module")
def captured():
    return json.loads(DATA.read_text(encoding="utf-8"))


class TestCapturedVectors:
    def test_grid_is_complete(self, captured):
        assert len(captured) == len(CONTEXTS) * len(SLOPES) * len(E_KAPPAS)

    def test_scale_vector_is_bit_for_bit(self, captured):
        for entry in captured:
            ctx = CosmologyContext.default(entry["overrides"])
            law = scale_terms(entry["a"], ctx, entry["e_kappa"])
            assert law.budget == tuple(map(tuple, entry["budget"])), entry
            assert law.rel_sigma == entry["rel_sigma"], entry

    def test_epsilon_vector_is_bit_for_bit(self, captured):
        for entry in captured:
            ctx = CosmologyContext.default(entry["overrides"])
            for mode, rel_sigma in entry["epsilon_rel_sigma"].items():
                epsilon = budget_terms(ctx, n0_mode=mode)[0][0]
                assert epsilon.rel_sigma == rel_sigma, entry
                assert solar_budget(1e-5, entry["a"], ctx, n0_mode=mode).epsilon.rel_sigma == (
                    rel_sigma)
                assert math.sqrt(sum((g * e) ** 2 for _, g, e in epsilon.budget)) == (
                    pytest.approx(rel_sigma, rel=1e-15))


def log_slope(value, ctx, name, h=1e-6):
    """d ln value / d ln X by central differences under X*(1 +- h) overrides."""
    up, down = (value(CosmologyContext.default({name: ctx[name].value * f}))
                for f in (1.0 + h, 1.0 - h))
    return (math.log(up) - math.log(down)) / (math.log1p(h) - math.log1p(-h))


class TestCentralDifferences:
    NAMES = ("c", "G", "hbar", "H", "M_sun", "t", "ell")

    @pytest.mark.parametrize("mode", ("paper", "computed"))
    @pytest.mark.parametrize("a", (1.3, 1.8, 2.6))
    def test_count_vectors(self, ctx, mode, a):
        # eps, N and N_s at kappa = 1e-5, each against its law's vector
        kappa = 1e-5
        outputs = {"epsilon": lambda c: solar_budget(kappa, a, c, n0_mode=mode).epsilon.value,
                   "N": lambda c: solar_budget(kappa, a, c, n0_mode=mode).n_solar,
                   "Ns": lambda c: solar_budget(kappa, a, c, n0_mode=mode).ns_solar}
        (epsilon, n), (ns,), _, _ = budget_terms(ctx, n0_mode=mode)
        laws = dict(zip(outputs, (epsilon, n, ns)))
        for output, value in outputs.items():
            vector = {name: g for name, g, _ in laws[output].budget}
            for name in self.NAMES:
                slope = log_slope(value, ctx, name)
                assert abs(slope - vector.get(name, 0.0)) < 1e-7, (output, name, slope)

    @pytest.mark.parametrize("a", (1.7, 1.8, 2.0))
    def test_scale_vector(self, ctx, a):
        vector = {name: g for name, g, _ in scale_terms(a, ctx).budget}
        for name in ("c", "G", "hbar", "H"):
            slope = log_slope(lambda c: scale_terms(a, c).coeff ** (1.0 / (3.0 + a)), ctx, name)
            assert abs(slope - vector[name]) < 1e-7, (name, slope)

    def test_count_vectors_carry_the_window_and_radius_uncertainty(self, ctx):
        scaled = CosmologyContext.default({"e_t": 0.1, "e_ell": 0.2})
        (_, n), (ns,), _, _ = budget_terms(scaled, n0_mode="computed")
        assert dict((name, e) for name, _, e in n.budget)["t"] == 0.1
        assert dict((name, e) for name, _, e in ns.budget)["ell"] == 0.2
        # N0 exact: the paper-mode count depends on no constant
        (_, n), (ns,), _, _ = budget_terms(scaled, n0_mode="paper")
        assert n.rel_sigma == 0.0
        assert ns.rel_sigma == pytest.approx(math.hypot(3.0 * 0.2, 3.0 * 0.15), rel=1e-15)


class TestEvaluationRule:
    LAW = PowerLaw(2.0, (3.0, 5.0), (math.log(30.0),), (), 0.0)

    def test_product_where_the_guard_is_normal(self):
        assert law_values((self.LAW,), 7.0) == [2.0 * 7.0 * 3.0 * 5.0]

    @pytest.mark.parametrize("guard", (0.0, 5e-324, sys.float_info.min / 2, math.inf))
    def test_log_where_the_guard_is_not(self, guard):
        assert law_values((self.LAW,), 7.0, -800.0, guard) == [
            math.exp(-800.0 + math.log(30.0))]

    def test_zero_constant_part_keeps_the_product(self):
        law = PowerLaw(2.0, (0.0,), (-math.inf,), (), 0.0)
        assert law_values((law,), 1e-310, -713.0) == [0.0]

    def test_non_finite_product_and_overflowing_log(self):
        with pytest.raises(NonFinite, match="value is not finite: inf"):
            law_values((self.LAW,), 1e308)
        with pytest.raises(OverflowError):
            law_values((self.LAW,), 0.0, 800.0)


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    DATA.write_text("[\n" + ",\n".join(map(json.dumps, capture())) + "\n]\n", encoding="utf-8")
