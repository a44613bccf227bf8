import math
import random
from fractions import Fraction

import pytest

from zpfcross.errors import (
    DimensionMismatch,
    NegativeBase,
    NonFinite,
    ValidationError,
)
from zpfcross.quantity import (
    DIMENSIONLESS,
    Dimension,
    LENGTH,
    MASS,
    Quantity,
    TIME,
    UncertainQuantity,
    power,
    power_product,
    propagate,
)

AREA = LENGTH ** 2


def rel(x, y):
    return abs(x - y) / abs(y)


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


class TestCombine:
    def test_mul_adds_exponents(self):
        q = Quantity(2.0, LENGTH) * Quantity(3.0, LENGTH)
        assert q.value == 6.0
        assert q.dim == AREA

    def test_add_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Quantity(1.0, LENGTH) + Quantity(1.0, TIME)
        with pytest.raises(DimensionMismatch):
            Quantity(1.0, LENGTH) - Quantity(1.0, TIME)

    def test_div(self):
        q = Quantity(6.0, AREA) / Quantity(2.0, TIME ** 2)
        assert q.value == 3.0
        assert q.dim == Dimension(2, 0, -2)

    def test_add_sub_same_dim(self):
        a, b = Quantity(5.0, MASS), Quantity(3.0, MASS)
        assert (a + b).value == 8.0
        assert (a - b).value == 2.0
        assert (a + b).dim == MASS

    def test_overflow_is_nonfinite(self):
        with pytest.raises(NonFinite):
            Quantity(1e308, LENGTH) * Quantity(1e308, LENGTH)

    def test_division_by_zero(self):
        with pytest.raises(NonFinite):
            Quantity(1.0) / Quantity(0.0)

    def test_nan_rejected_at_construction(self):
        with pytest.raises(NonFinite):
            Quantity(float("nan"))


class TestPower:
    def test_sqrt_of_area(self):
        q = power(Quantity(4.0, AREA), Fraction(1, 2))
        assert q.value == 2.0
        assert q.dim == LENGTH

    def test_zeroth_power_is_dimensionless_one(self):
        q = power(Quantity(123.4, MASS / TIME), 0)
        assert q.value == 1.0
        assert q.dim == DIMENSIONLESS

    def test_negative_base_fractional_power(self):
        with pytest.raises(NegativeBase):
            power(Quantity(-1.0, LENGTH), Fraction(1, 2))

    def test_negative_base_integer_power_ok(self):
        assert power(Quantity(-2.0, LENGTH), 2).value == 4.0

    def test_zero_to_negative_power(self):
        with pytest.raises(NonFinite):
            power(Quantity(0.0, LENGTH), -1)

    def test_overflowing_power(self):
        # float ** raises OverflowError where * would give inf
        with pytest.raises(NonFinite):
            power(Quantity(1e300, LENGTH), 3)
        with pytest.raises(NonFinite):
            power(Quantity(1e-300, LENGTH), -3)

    def test_roundtrip(self):
        # power(power(q, p), 1/p) == q to 1e-12 relative for positive values
        rng = random.Random(11)
        for _ in range(50):
            value = 10.0 ** rng.uniform(-8, 8)
            p = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            q = Quantity(value, LENGTH * MASS ** Fraction(1, 3))
            back = power(power(q, p), 1 / p)
            assert rel(back.value, q.value) < 1e-12
            assert back.dim == q.dim

    def test_dunder_pow(self):
        assert (Quantity(9.0, AREA) ** Fraction(1, 2)).value == 3.0


class TestPropagate:
    def test_single_term_scales_by_exponent(self):
        out = propagate([(UncertainQuantity(3.0, 0.01, LENGTH), 2)])
        assert out.value == 9.0
        assert rel(out.rel_sigma, 0.02) < 1e-15
        assert out.dim == AREA

    def test_two_equal_terms_rss(self):
        x = UncertainQuantity(2.0, 0.05, LENGTH)
        y = UncertainQuantity(3.0, 0.05, TIME)
        out = propagate([(x, 1), (y, 1)])
        assert rel(out.rel_sigma, 0.05 * math.sqrt(2.0)) < 1e-15

    def test_exact_inputs_stay_exact(self):
        out = propagate([(UncertainQuantity(2.0, 0.0, LENGTH), 3),
                         (UncertainQuantity(5.0), -1)])
        assert out.rel_sigma == 0.0

    def test_negative_base_guard(self):
        with pytest.raises(NegativeBase):
            propagate([(UncertainQuantity(-2.0, 0.1), Fraction(1, 2))])

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

            out = propagate([(UncertainQuantity(v, e), p)
                             for v, e, p in zip(values, rels, exps)])
            assert rel(out.value, f0) < 1e-12
            if sigma_fd > 0:
                assert rel(out.rel_sigma, sigma_fd) < 1e-6
            else:
                assert out.rel_sigma == 0.0

    def test_float_core_matches_propagate(self):
        x = UncertainQuantity(3.0, 0.01, LENGTH)
        y = UncertainQuantity(7.0, 0.02, TIME)
        value, rel_sigma = power_product(2.5, [(3.0, 0.01, 2.0), (7.0, 0.02, -0.5)])
        out = propagate([(UncertainQuantity(2.5), 1), (x, 2), (y, Fraction(-1, 2))])
        assert (value, rel_sigma) == (out.value, out.rel_sigma)

    def test_float_core_out_of_range(self):
        with pytest.raises(NonFinite):
            power_product(1.0, [(1e300, 0.0, 3.0)])
        with pytest.raises(NonFinite):
            power_product(1.0, [(0.0, 0.0, -1.0)])
        with pytest.raises(NonFinite):
            power_product(1e300, [(1e300, 0.0, 1.0)])  # product overflows to inf
        with pytest.raises(NonFinite):
            # each (p*e)**2 is finite, their sum is not
            power_product(1.0, [(2.0, 1e154, 1.0), (3.0, 1e154, 1.0)])

    def test_rel_sigma_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            UncertainQuantity(1.0, -0.1)


class TestDimensionBookkeeping:
    def test_random_expression_trees(self):
        # independent exponent ledger carried alongside the quantity ops
        rng = random.Random(99)
        base_dims = [
            (LENGTH, (Fraction(1), Fraction(0), Fraction(0))),
            (MASS, (Fraction(0), Fraction(1), Fraction(0))),
            (TIME, (Fraction(0), Fraction(0), Fraction(1))),
        ]
        for _ in range(100):
            dim, ledger = rng.choice(base_dims)
            q = Quantity(10.0 ** rng.uniform(-2, 2), dim)
            for _ in range(rng.randint(1, 8)):
                op = rng.choice(["mul", "div", "pow"])
                if op == "pow":
                    p = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    q = power(q, p)
                    ledger = tuple(e * p for e in ledger)
                else:
                    other_dim, other_ledger = rng.choice(base_dims)
                    other = Quantity(10.0 ** rng.uniform(-2, 2), other_dim)
                    q = q * other if op == "mul" else q / other
                    sign = 1 if op == "mul" else -1
                    ledger = tuple(e + sign * o for e, o in zip(ledger, other_ledger))
            assert (q.dim.length, q.dim.mass, q.dim.time) == ledger


class TestUncertainArithmetic:
    def test_mul_assumes_independence(self):
        x = UncertainQuantity(2.0, 0.03, LENGTH)
        y = UncertainQuantity(4.0, 0.04, TIME)
        out = x * y
        assert out.value == 8.0
        assert rel(out.rel_sigma, 0.05) < 1e-12
        assert out.dim == LENGTH * TIME

    def test_pow(self):
        out = UncertainQuantity(2.0, 0.01, LENGTH) ** 3
        assert out.value == 8.0
        assert rel(out.rel_sigma, 0.03) < 1e-15

    def test_sigma_property(self):
        assert UncertainQuantity(200.0, 0.1, LENGTH).sigma == 20.0

    def test_quantity_drops_uncertainty(self):
        q = UncertainQuantity(2.5, 0.2, MASS).quantity()
        assert isinstance(q, Quantity)
        assert q.value == 2.5
