"""The Gamma-quotient form of the structure function, the tests' independent reference for Phi.

    Phi(x) = (1/(m^m n^n)) prod_{j=1..m} (m x + p - j) prod_{j=0..n-1} ((N-x) n + q + j)

is the Gamma quotient expanded into falling/rising factorials, so it is exact at any
rational x, with no poles and no rounding.  It reads m, n, N, p and q alone, not the
library's factor table, E or u.
"""

from fractions import Fraction
from math import prod


def gamma_value(label, ratio, x) -> Fraction:
    """Phi(x) of the irrep `label` of `ratio` by the Gamma-quotient form."""
    m, n, (a, b) = ratio.m, ratio.n, Fraction(x).as_integer_ratio()
    big_n, p, q = label.N, label.p, label.q
    # each factor times b, in ints
    value = (prod(m * a + (p - j) * b for j in range(1, m + 1))
             * prod((big_n * b - a) * n + (q + j) * b for j in range(n)))
    return Fraction(value, m**m * n**n * b ** (m + n))
