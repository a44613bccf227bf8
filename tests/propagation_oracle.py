"""Plain-float first-order propagation, the oracle the exponent tables are
held equal to.

``product_of_powers`` restates, outside the package, what a table's
``evaluate`` computes: coeff * prod(x**p) with the factors multiplied in
the order given, rel_sigma = sqrt(sum((p*e)**2)), and the dimension
composed with the ``Dimension`` operators. Rounding happens in the same
order, so the tests compare with ``==``.
"""

import math

from zpfcross.quantity import DIMENSIONLESS


def product_of_powers(coeff, terms):
    """(value, rel_sigma, dim) of coeff * prod(q**p) over (Quantity, p) pairs."""
    value, var, dim = coeff, 0.0, DIMENSIONLESS
    for uq, p in terms:
        value *= uq.value ** float(p)
        var += (float(p) * uq.rel_sigma) ** 2
        dim = dim * uq.dim ** p
    return value, math.sqrt(var), dim
