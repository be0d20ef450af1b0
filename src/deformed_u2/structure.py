"""Structure functions and the ladder commutator of the deformed u(2).

The symmetry algebra of the m:n oscillator is generated by S0, S+, S- and
the (central) Hamiltonian H, and closes through

    [S-, S+] = F(H, S0 + 1) - F(H, S0),

where F(H, S0) is the product of the m raised x-mode factors and the n
lowered y-mode factors; the difference is a polynomial of degree m + n - 1
in S0.  On the irrep (N, p, q) the same data appears as the ladder-strength
function Phi(x), positive on 1..N and vanishing at 0 and N + 1, which pins
the Fock dimension to N + 1.

Everything here is exact.  Rational arithmetic is used throughout, the
bivariate polynomial algebra is done over QQ, and the Gamma-quotient form
of Phi is expanded into rising/falling factorials instead of evaluating a
transcendental Gamma function (so there are no poles and no rounding).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .core import FrequencyRatio, IrrepLabel, energy_of_irrep
from .exceptions import NotDivisibleError

__all__ = [
    "H_SYMBOL",
    "S0_SYMBOL",
    "X_SYMBOL",
    "u_constant",
    "StructureFunction",
    "CommutatorPolynomial",
    "commutator_polynomial",
    "ParafermionicForm",
    "parafermionic_decompose",
]

H_SYMBOL, S0_SYMBOL, X_SYMBOL = sympy.symbols("H S0 x")


def _to_sympy(value: Fraction) -> sympy.Rational:
    return sympy.Rational(value.numerator, value.denominator)


def _to_fraction(value: sympy.Rational) -> Fraction:
    return Fraction(int(value.p), int(value.q))


def u_constant(label: IrrepLabel, ratio: FrequencyRatio) -> Fraction:
    """Shift between S0 and the number operator: S0 = (number op) + u."""
    label.validate_for(ratio)
    return (
        Fraction(2 * label.p - 1, 2 * ratio.m)
        - Fraction(2 * label.q - 1, 2 * ratio.n)
        - label.N
    ) / 2


def _ladder_product(ratio: FrequencyRatio, h, s0):
    """F(H, S0), the operator product S+ S- expressed through H and S0:

        prod_{k=1..m} (H/2 + S0 - (2k-1)/(2m)) *
        prod_{l=1..n} (H/2 - S0 + (2l-1)/(2n)).

    The body is generic: `Fraction` arguments give the exact value, sympy
    expressions give the (unexpanded) polynomial.
    """
    half_h = h / 2
    value = 1
    for k in range(1, ratio.m + 1):
        value *= half_h + s0 - Fraction(2 * k - 1, 2 * ratio.m)
    for l in range(1, ratio.n + 1):
        value *= half_h - s0 + Fraction(2 * l - 1, 2 * ratio.n)
    return value


@dataclass(frozen=True)
class StructureFunction:
    """Exact evaluator for the ladder-strength function of one irrep.

    Phi(x) = F(E, u + x), the ladder product on the irrep's energy E and
    S0 shift u; expanded, that is the product of m + n linear factors
      prod_k (x + (2p-1)/(2m) - (2k-1)/(2m)) *
      prod_l (N - x + (2q-1)/(2n) + (2l-1)/(2n)).
    `gamma_value` keeps the Gamma-quotient form as an independent check,
    expanded exactly into falling/rising factorials
      (1/(m^m n^n)) * prod_{j=1..m} (m x + p - j) *
      prod_{j=0..n-1} ((N-x) n + q + j).
    Both are exact at any rational argument and must agree everywhere.
    """

    label: IrrepLabel
    ratio: FrequencyRatio

    def __post_init__(self) -> None:
        self.label.validate_for(self.ratio)

    @property
    def u(self) -> Fraction:
        return u_constant(self.label, self.ratio)

    @property
    def energy(self) -> Fraction:
        return energy_of_irrep(self.label, self.ratio)

    def __call__(self, x: int | Fraction) -> Fraction:
        return self.product_value(x)

    def product_value(self, x: int | Fraction) -> Fraction:
        return _ladder_product(self.ratio, self.energy, self.u + Fraction(x))

    def gamma_value(self, x: int | Fraction) -> Fraction:
        x = Fraction(x)
        m, n = self.ratio.m, self.ratio.n
        value = Fraction(1, m**m * n**n)
        for j in range(1, m + 1):
            value *= m * x + self.label.p - j
        for j in range(n):
            value *= (self.label.N - x) * n + self.label.q + j
        return value

    @functools.cache
    def values(self) -> tuple[Fraction, ...]:
        """Phi(0), Phi(1), ..., Phi(N+1), computed once per (label, ratio)."""
        return tuple(self(k) for k in range(self.label.N + 2))

    def factorials(self) -> tuple[Fraction, ...]:
        """Deformed factorials [0]!, [1]!, ..., [N]! with [k]! = Phi(k) [k-1]!."""
        phi = self.values()
        facts = [Fraction(1)]
        for k in range(1, self.label.N + 1):
            facts.append(facts[-1] * phi[k])
        return tuple(facts)

    def as_poly(self) -> sympy.Poly:
        """Phi as a univariate polynomial in x over QQ."""
        expr = _ladder_product(self.ratio, self.energy, self.u + X_SYMBOL)
        return sympy.Poly(sympy.expand(expr), X_SYMBOL, domain="QQ")


@dataclass(frozen=True)
class CommutatorPolynomial:
    """[S-, S+] as an exact bivariate polynomial in (H, S0) over QQ."""

    ratio: FrequencyRatio
    poly: sympy.Poly

    @property
    def degree_in_s0(self) -> int:
        return self.poly.degree(S0_SYMBOL)

    def coefficients(self) -> dict[tuple[int, int], Fraction]:
        """Map (H power, S0 power) -> coefficient, zero terms omitted."""
        return {
            (int(dh), int(ds)): _to_fraction(coeff)
            for (dh, ds), coeff in self.poly.terms()
        }

    def __call__(self, h: int | Fraction, s0: int | Fraction) -> Fraction:
        h, s0 = Fraction(h), Fraction(s0)
        result = self.poly.eval((_to_sympy(h), _to_sympy(s0)))
        return _to_fraction(sympy.Rational(result))

    def expression(self) -> sympy.Expr:
        return self.poly.as_expr()

    def __str__(self) -> str:
        return str(self.expression())


@functools.cache
def commutator_polynomial(ratio: FrequencyRatio) -> CommutatorPolynomial:
    """Build [S-, S+] = F(H, S0+1) - F(H, S0) for the given ratio.

    The two leading S0^(m+n) terms cancel in the difference, leaving degree
    m + n - 1 in S0; for 1:1 the result is the plain u(2) value -2*S0.
    The result is immutable, so it is built once per ratio and shared.
    """
    diff = sympy.expand(
        _ladder_product(ratio, H_SYMBOL, S0_SYMBOL + 1)
        - _ladder_product(ratio, H_SYMBOL, S0_SYMBOL)
    )
    return CommutatorPolynomial(ratio, sympy.Poly(diff, H_SYMBOL, S0_SYMBOL, domain="QQ"))


@dataclass(frozen=True)
class ParafermionicForm:
    """Factorization Phi(x) = x (N+1-x) P(x) with P positive on 1..N."""

    factor: sympy.Poly
    values: tuple[Fraction, ...]

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.values)


def parafermionic_decompose(sf: StructureFunction) -> ParafermionicForm:
    """Split off the x (N+1-x) prefactor of a 1:n structure function.

    The parafermionic reading of the algebra is established for frequency
    ratios 1:n only, so any other ratio is rejected rather than silently
    factored.  The division itself is exact and its remainder is required
    to vanish.
    """
    if sf.ratio.m != 1:
        raise NotDivisibleError(
            f"parafermionic form applies to 1:n ratios only, got {sf.ratio}"
        )
    big_n = sf.label.N
    base = sympy.Poly(X_SYMBOL * (big_n + 1 - X_SYMBOL), X_SYMBOL, domain="QQ")
    quotient, remainder = sympy.div(sf.as_poly(), base, X_SYMBOL)
    if not remainder.is_zero:
        raise NotDivisibleError(
            f"x (N+1-x) does not divide the structure function of {sf.label}"
        )
    quotient = sympy.Poly(quotient, X_SYMBOL, domain="QQ")
    values = tuple(
        _to_fraction(sympy.Rational(quotient.eval(k))) for k in range(1, big_n + 1)
    )
    return ParafermionicForm(quotient, values)
