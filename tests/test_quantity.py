import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from zpfcross.constants import HUBBLE_RADIUS, CosmologyContext, ExponentTable
from zpfcross.errors import NonFinite, ValidationError
from zpfcross.quantity import (
    DIMENSIONLESS,
    Dimension,
    LENGTH,
    MASS,
    Quantity,
    SPEED,
    TIME,
    WAVENUMBER,
    power_terms,
    times_powers,
)
from zpfcross.spectra import Boyer, MoisseevShivamoggi, PowerLawTurbulence, TruncatedBoyer
from zpfcross.transition import transition_scale

AREA = LENGTH ** 2


def rel(x, y):
    return abs(x - y) / abs(y)


def product(coeff, terms):
    """coeff * prod(x**p) over (x, rel_sigma, p) terms and its rel_sigma,
    through the two float cores."""
    powers, rel_sigma = power_terms(terms)
    return times_powers(coeff, powers), rel_sigma


class TestDimension:
    def test_zero_vector_is_dimensionless(self):
        assert Dimension().is_dimensionless
        assert not LENGTH.is_dimensionless

    def test_compose(self):
        assert LENGTH * LENGTH == AREA
        assert AREA / TIME ** 2 == Dimension(2, 0, -2)
        assert (LENGTH ** Fraction(1, 2)) ** 2 == LENGTH

    def test_exact_rational_exponents(self):
        # float exponents convert once and cancel exactly afterwards
        a = 1.7
        d = LENGTH ** Fraction(a) / LENGTH ** Fraction(a)
        assert d.is_dimensionless

    def test_str(self):
        assert str(MASS / LENGTH ** 3) == "m^-3·kg"
        assert str(DIMENSIONLESS) == "1"
        # an integral exponent prints as an int, any other as a float
        assert str(LENGTH ** 2.0 / TIME ** Fraction(4, 2)) == "m^2·s^-2"
        assert str(LENGTH ** Fraction(-3, 2) * MASS ** 1.8) == "m^-1.5·kg^1.8"

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_power_rejected(self, p):
        with pytest.raises(ValidationError, match="exponent must be finite"):
            LENGTH ** p


class TestCombine:
    # products and quotients: floats through power_terms and times_powers, dimensions
    # through the Dimension operators
    def test_mul_adds_exponents(self):
        assert product(2.0, [(3.0, 0.0, 1.0)]) == (6.0, 0.0)
        assert LENGTH * LENGTH == AREA

    def test_div(self):
        assert product(6.0, [(2.0, 0.0, -1.0)]) == (3.0, 0.0)
        assert AREA / TIME ** 2 == Dimension(2, 0, -2)

    def test_overflow_is_nonfinite(self):
        with pytest.raises(NonFinite):
            product(1e308, [(1e308, 0.0, 1.0)])

    def test_division_by_zero(self):
        with pytest.raises(NonFinite):
            product(1.0, [(0.0, 0.0, -1.0)])

    def test_nan_rejected_at_construction(self):
        with pytest.raises(NonFinite):
            Quantity(float("nan"))


class TestPower:
    def test_sqrt_of_area(self):
        assert product(1.0, [(4.0, 0.0, 0.5)])[0] == 2.0
        assert AREA ** Fraction(1, 2) == LENGTH

    def test_zeroth_power_is_dimensionless_one(self):
        assert product(1.0, [(123.4, 0.0, 0.0)])[0] == 1.0
        assert (MASS / TIME) ** 0 == DIMENSIONLESS

    def test_negative_base_integer_power_ok(self):
        assert product(1.0, [(-2.0, 0.0, 2.0)])[0] == 4.0

    def test_zero_to_negative_power(self):
        with pytest.raises(NonFinite):
            product(1.0, [(0.0, 0.0, -1.0)])

    def test_overflowing_power(self):
        # float ** raises OverflowError where * would give inf
        with pytest.raises(NonFinite):
            product(1.0, [(1e300, 0.0, 3.0)])
        with pytest.raises(NonFinite):
            product(1.0, [(1e-300, 0.0, -3.0)])

    def test_roundtrip(self):
        # (x**p)**(1/p) == x to 1e-12 relative for positive values, and the
        # dimension scaled by p then 1/p is the dimension
        rng = random.Random(11)
        for _ in range(50):
            value = 10.0 ** rng.uniform(-8, 8)
            p = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            dim = LENGTH * MASS ** Fraction(1, 3)
            there = product(1.0, [(value, 0.0, float(p))])[0]
            back = product(1.0, [(there, 0.0, float(1 / p))])[0]
            assert rel(back, value) < 1e-12
            assert (dim ** p) ** (1 / p) == dim

    def test_fractional_power(self):
        assert product(1.0, [(9.0, 0.0, 0.5)])[0] == 3.0


class TestPropagate:
    def test_single_term_scales_by_exponent(self):
        value, rel_sigma = product(1.0, [(3.0, 0.01, 2.0)])
        assert value == 9.0
        assert rel(rel_sigma, 0.02) < 1e-15
        assert LENGTH ** 2 == AREA

    def test_two_equal_terms_rss(self):
        _, rel_sigma = product(1.0, [(2.0, 0.05, 1.0), (3.0, 0.05, 1.0)])
        assert rel(rel_sigma, 0.05 * math.sqrt(2.0)) < 1e-15

    def test_exact_inputs_stay_exact(self):
        assert product(1.0, [(2.0, 0.0, 3.0), (5.0, 0.0, -1.0)])[1] == 0.0

    def test_matches_finite_difference_gradient(self):
        # oracle: sigma^2 = sum((df/dx_i * sigma_i)^2), derivatives by
        # central differences on f = prod(x_i ** p_i)
        rng = random.Random(4)
        for _ in range(25):
            n = rng.randint(1, 4)
            values = [10.0 ** rng.uniform(-3, 3) for _ in range(n)]
            rels = [rng.uniform(0.0, 0.02) for _ in range(n)]
            exps = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]

            def f(xs):
                out = 1.0
                for x, p in zip(xs, exps):
                    out *= x ** float(p)
                return out

            f0 = f(values)
            var = 0.0
            for i in range(n):
                h = values[i] * 1e-6
                hi = values.copy()
                lo = values.copy()
                hi[i] += h
                lo[i] -= h
                dfdx = (f(hi) - f(lo)) / (2.0 * h)
                var += (dfdx * values[i] * rels[i]) ** 2
            sigma_fd = math.sqrt(var) / abs(f0)

            value, rel_sigma = product(1.0, [(v, e, float(p))
                                                   for v, e, p in zip(values, rels, exps)])
            assert rel(value, f0) < 1e-12
            if sigma_fd > 0:
                assert rel(rel_sigma, sigma_fd) < 1e-6
            else:
                assert rel_sigma == 0.0

    def test_float_core_matches_plain_floats(self):
        value, rel_sigma = product(2.5, [(3.0, 0.01, 2.0), (7.0, 0.02, -0.5)])
        assert value == 2.5 * 3.0 ** 2.0 * 7.0 ** -0.5
        assert rel_sigma == math.sqrt((2.0 * 0.01) ** 2 + (-0.5 * 0.02) ** 2)

    def test_float_core_out_of_range(self):
        with pytest.raises(NonFinite):
            product(1.0, [(1e300, 0.0, 3.0)])
        with pytest.raises(NonFinite):
            product(1.0, [(0.0, 0.0, -1.0)])
        with pytest.raises(NonFinite):
            product(1e300, [(1e300, 0.0, 1.0)])  # product overflows to inf
        with pytest.raises(NonFinite):
            # each (p*e)**2 is finite, their sum is not
            product(1.0, [(2.0, 1e154, 1.0), (3.0, 1e154, 1.0)])

    @pytest.mark.parametrize("rel_sigma", [-0.1, math.nan, math.inf])
    def test_rel_sigma_must_be_finite_and_nonnegative(self, rel_sigma):
        with pytest.raises(ValidationError):
            Quantity(1.0, LENGTH, rel_sigma)


class TestDimensionBookkeeping:
    def test_random_expression_trees(self):
        # independent exponent ledger carried alongside the Dimension
        # operators, and a plain-float value alongside power_terms and times_powers
        rng = random.Random(99)
        base_dims = [
            (LENGTH, (Fraction(1), Fraction(0), Fraction(0))),
            (MASS, (Fraction(0), Fraction(1), Fraction(0))),
            (TIME, (Fraction(0), Fraction(0), Fraction(1))),
        ]
        for _ in range(100):
            dim, ledger = rng.choice(base_dims)
            value = expected = 10.0 ** rng.uniform(-2, 2)
            for _ in range(rng.randint(1, 8)):
                op = rng.choice(["mul", "div", "pow"])
                if op == "pow":
                    p = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    value = product(1.0, [(value, 0.0, float(p))])[0]
                    expected = expected ** float(p)
                    dim = dim ** p
                    ledger = tuple(e * p for e in ledger)
                else:
                    other_dim, other_ledger = rng.choice(base_dims)
                    other = 10.0 ** rng.uniform(-2, 2)
                    sign = 1 if op == "mul" else -1
                    value = product(value, [(other, 0.0, float(sign))])[0]
                    expected = expected * other if op == "mul" else expected / other
                    dim = dim * other_dim if op == "mul" else dim / other_dim
                    ledger = tuple(e + sign * o for e, o in zip(ledger, other_ledger))
            assert (dim.length, dim.mass, dim.time) == ledger
            assert rel(value, expected) < 1e-12


class TestUncertainArithmetic:
    def test_mul_assumes_independence(self):
        value, rel_sigma = product(1.0, [(2.0, 0.03, 1.0), (4.0, 0.04, 1.0)])
        assert value == 8.0
        assert rel(rel_sigma, 0.05) < 1e-12
        assert LENGTH * TIME == Dimension(1, 0, 1)

    def test_pow(self):
        value, rel_sigma = product(1.0, [(2.0, 0.01, 3.0)])
        assert value == 8.0
        assert rel(rel_sigma, 0.03) < 1e-15

    def test_sigma_property(self):
        assert Quantity(200.0, LENGTH, 0.1).sigma == 20.0

    def test_overflowing_sigma_is_named(self):
        # the rule of TransitionResult.sigma: NonFinite naming value and rel_sigma
        with pytest.raises(NonFinite) as info:
            Quantity(-1e308, LENGTH, 10.0).sigma
        assert str(info.value) == ("sigma = |value|*rel_sigma leaves the float range for "
                                   "value = -1e+308 and rel_sigma = 10.0")

    def test_replace_drops_uncertainty(self):
        p = Quantity(2.5, MASS, 0.2)
        q = Quantity(p.value, p.dim)
        assert q == Quantity(2.5, MASS)
        assert q.sigma == 0.0


class TestRecord:
    # one record for exact and uncertain values
    def test_exact_is_the_default(self):
        q = Quantity(2, LENGTH)
        assert (q.value, q.dim, q.rel_sigma) == (2.0, LENGTH, 0.0)
        assert isinstance(q.value, float)
        assert Quantity(3.0).dim == DIMENSIONLESS

    def test_str(self):
        assert str(Quantity(2.5, MASS)) == "2.5 kg"
        assert str(Quantity(3.0)) == "3"
        assert str(Quantity(200.0, LENGTH, 0.1)) == "200 ± 20 m"
        assert str(Quantity(4.0, rel_sigma=0.5)) == "4 ± 2"

    def test_str_of_an_overflowing_sigma_raises(self):
        # no "1e+308 ± inf m"
        with pytest.raises(NonFinite, match="value = 1e\\+308 and rel_sigma = 10.0"):
            str(Quantity(1e308, LENGTH, 10.0))

    def test_uncertainty_is_part_of_equality(self):
        assert Quantity(1.0, LENGTH, 0.1) != Quantity(1.0, LENGTH)
        assert Quantity(1.0, LENGTH, 0.1) == Quantity(1.0, LENGTH, 0.1)
        assert Quantity(1.0, LENGTH) == Quantity(1.0, LENGTH, 0.0)
        assert hash(Quantity(1.0, LENGTH)) == hash(Quantity(1.0, LENGTH, 0.0))

    def test_never_equal_to_a_tuple(self):
        for q in (Quantity(1.0, LENGTH), Quantity(1.0, LENGTH, 0.1)):
            assert q != (q.value, q.dim)
            assert q != (q.value, q.dim, q.rel_sigma)

    def test_frozen(self):
        q = Quantity(1.0, LENGTH, 0.1)
        for name, value in (("value", 2.0), ("dim", MASS), ("rel_sigma", 0.0)):
            with pytest.raises(AttributeError):
                setattr(q, name, value)


_CTX = CosmologyContext.default()
_HBAR, _C = _CTX.quantity("hbar"), _CTX.quantity("c")
_CUTOFF = Quantity(1e30, WAVENUMBER)
# the records that are not tuples: (build one, its fields, records it must
# not equal, what it computes from its fields, derived slots included)
FROZEN_RECORDS = {
    "Dimension": (lambda: Dimension(1, 0.5, -2), ("length", "mass", "time"),
                  [Dimension(1, 0.5, -1), (1, 0.5, -2)], str),
    "Quantity": (lambda: Quantity(1.0, LENGTH, 0.1), ("value", "dim", "rel_sigma"),
                 [Quantity(1.0, LENGTH), Quantity(1.0, MASS, 0.1), (1.0, LENGTH, 0.1),
                  (1.0, LENGTH)], str),
    "ExponentTable": (lambda: ExponentTable({"c": 1, "H": -1}, LENGTH),
                      ("exponents", "dim", "coeff"),
                      [ExponentTable({"c": 2, "H": -2}, LENGTH ** 2)],
                      lambda table: table.value(_CTX)),
    "Boyer": (lambda: Boyer(_HBAR, _C), ("hbar", "c"),
              [TruncatedBoyer(_HBAR, _C, _CUTOFF), Boyer(_HBAR, Quantity(3e8, SPEED))],
              lambda model: model.kernel(1e3)),
    "TruncatedBoyer": (lambda: TruncatedBoyer(_HBAR, _C, _CUTOFF), ("hbar", "c", "cutoff_k"),
                       [Boyer(_HBAR, _C), TruncatedBoyer(_HBAR, _C, Quantity(1e3, WAVENUMBER))],
                       lambda model: model.kernel(1e3)),
    "PowerLawTurbulence": (lambda: PowerLawTurbulence.from_kappa(_CTX, 1e-5, 1.8),
                           ("amplitude", "slope"),
                           [PowerLawTurbulence.from_kappa(_CTX, 1e-4, 1.8)],
                           lambda model: model.kernel(1e3)),
    "MoisseevShivamoggi": (lambda: MoisseevShivamoggi.from_context(_CTX, 2.0),
                           ("gamma", "epsilon", "rho", "c", "kolmogorov_const"),
                           [MoisseevShivamoggi.from_context(_CTX, 2.0, kolmogorov_const=1.5)],
                           lambda model: model.kernel(1e3)),
}


@pytest.mark.parametrize("name", FROZEN_RECORDS)
def test_frozen_record_contract(name):
    build, fields, others, compute = FROZEN_RECORDS[name]
    record, twin = build(), build()
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin)
    for other in others:  # another class with equal shared fields included
        assert record != other and other != record
    values = [getattr(record, field) for field in fields]
    assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    for field in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == values
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and clone == record
        assert repr(clone) == repr(record) and compute(clone) == compute(record)


def test_records_with_a_mapping_field_hash_as_they_compare():
    # ExponentTable.exponents and TransitionResult.sigma_breakdown are
    # read-only mappings; equal mappings in another order hash alike
    table = ExponentTable({"c": 1, "H": -1}, LENGTH)
    assert hash(table) == hash(ExponentTable({"H": -1, "c": 1}, LENGTH))
    assert {table: 1}[ExponentTable({"H": -1, "c": 1}, LENGTH)] == 1
    result = transition_scale(1.8, 1e-5, _CTX)
    assert hash(result) == hash(transition_scale(1.8, 1e-5, _CTX))
    assert {HUBBLE_RADIUS, HUBBLE_RADIUS} == {HUBBLE_RADIUS}
