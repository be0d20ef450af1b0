"""Structure functions and the ladder commutator of the deformed u(2).

The symmetry algebra of the m:n oscillator is generated by S0, S+, S- and
the (central) Hamiltonian H, and closes through

    [S-, S+] = F(H, S0 + 1) - F(H, S0),

where F(H, S0) is the product of the m raised x-mode factors and the n
lowered y-mode factors; the difference is a polynomial of degree m + n - 1
in S0.  On the irrep (N, p, q) the same data appears as the ladder-strength
function Phi(x), positive on 1..N and vanishing at 0 and N + 1, which pins
the Fock dimension to N + 1.

Everything here is exact.  F is written once, as its table of linear
factors with every offset scaled by 4mn to an int (`_ladder_factors`); the
commutator and the 1:n factor P of Phi(x) = x (N+1-x) P(x), whose x and
N+1-x are two rows of the table, are multiplied out of it in plain ints by
one loop, `_expand`, and a `Fraction` is built only for a returned value.
On the Fock indices the Gamma-quotient form makes P_k = m^m n^n Phi(k) an
integer, so each irrep's Phi(0..N+1) is one table of ints over
`_phi_denominator` (`StructureFunction.numerators`), and every exact check
reads that table.  The Gamma-quotient form itself is expanded into
rising/falling factorials instead of evaluating a transcendental Gamma
function (so there are no poles and no rounding).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .core import FrequencyRatio, IrrepLabel, energy_of_irrep
from .exceptions import NotDivisibleError

__all__ = [
    "u_constant",
    "StructureFunction",
    "CommutatorPolynomial",
    "commutator_polynomial",
    "ParafermionicForm",
    "parafermionic_decompose",
]


def u_constant(label: IrrepLabel, ratio: FrequencyRatio) -> Fraction:
    """Shift between S0 and the number operator: S0 = (number op) + u.

    u = ((2p-1)/(2m) - (2q-1)/(2n) - N) / 2, one `Fraction` of the int
    4mn u = n (2p-1) - m (2q-1) - 2mn N.
    """
    label.validate_for(ratio)
    m, n = ratio.m, ratio.n
    return Fraction(n * (2 * label.p - 1) - m * (2 * label.q - 1) - 2 * m * n * label.N, 4 * m * n)


@functools.cache
def _ladder_factors(ratio: FrequencyRatio) -> tuple[tuple[int, int], ...]:
    """The factor table (sigma_i, 4mn c_i) of F(H, S0) = prod_i (H/2 + sigma_i S0 + c_i).

    The m raised x-mode factors have sigma = +1, c = -(2k-1)/(2m), k = 1..m;
    the n lowered y-mode factors have sigma = -1, c = (2l-1)/(2n), l = 1..n.
    Each c_i is stored times 4mn, an int.  This table is the one written
    form of F, built once per ratio.
    """
    m, n = ratio.m, ratio.n
    return (*((1, -(2 * k - 1) * 2 * n) for k in range(1, m + 1)),
            *((-1, (2 * l - 1) * 2 * m) for l in range(1, n + 1)))


def _expand(forms: Iterable[tuple[int, ...]], variables: int) -> dict[tuple[int, ...], int]:
    """Multiply out integer linear forms (a_1, ..., a_v, c) = a_1 x_1 + ... + a_v x_v + c.

    The product (1 if there are no forms) comes back as a dict from exponent
    tuples (e_1, ..., e_v), v = `variables`, to its nonzero int coefficients.
    Callers scale each form by a common denominator (4mn for the factors of
    F) so the loop runs in plain ints, and divide once when they build the
    `Fraction` of a returned coefficient.
    """
    terms: dict[tuple[int, ...], int] = {(0,) * variables: 1}
    for *slopes, constant in forms:
        product: dict[tuple[int, ...], int] = defaultdict(int)
        for exponents, coeff in terms.items():
            product[exponents] += constant * coeff
            for i, slope in enumerate(slopes):
                raised = exponents[:i] + (exponents[i] + 1,) + exponents[i + 1 :]
                product[raised] += slope * coeff
        terms = product
    return {exponents: coeff for exponents, coeff in terms.items() if coeff}


def _phi_denominator(ratio: FrequencyRatio) -> int:
    """D = m^m n^n, the denominator of every Phi(k) at a Fock index k."""
    return ratio.m**ratio.m * ratio.n**ratio.n


@dataclass(frozen=True)
class StructureFunction:
    """Exact evaluator for the ladder-strength function of one irrep.

    Phi(x) = F(E, u + x), the ladder product on the irrep's energy E and
    S0 shift u; expanded, that is the product of m + n linear factors
      prod_k (x + (2p-1)/(2m) - (2k-1)/(2m)) *
      prod_l (N - x + (2q-1)/(2n) + (2l-1)/(2n)).
    `sf(x)` evaluates F's integer factor table (see
    `_ladder_factors`) in plain ints: each factor E/2 + sigma_i (u + x) + c_i
    is scaled by 4mn den(x), its offset 4mn (E/2 + sigma_i u + c_i) is an
    int computed once per instance, and one `Fraction` is built from the
    product.  `numerators` holds the same products at x = 0..N+1 as the
    ints P_k = D Phi(k), D = m^m n^n.  `u` and `energy` are computed once
    per instance.  `gamma_value` keeps the Gamma-quotient form as an
    independent check, expanded exactly into falling/rising factorials
      (1/(m^m n^n)) * prod_{j=1..m} (m x + p - j) *
      prod_{j=0..n-1} ((N-x) n + q + j).
    Both are exact at any rational argument and must agree everywhere.
    """

    label: IrrepLabel
    ratio: FrequencyRatio

    def __post_init__(self) -> None:
        self.label.validate_for(self.ratio)

    @functools.cached_property
    def u(self) -> Fraction:
        return u_constant(self.label, self.ratio)

    @functools.cached_property
    def energy(self) -> Fraction:
        return energy_of_irrep(self.label, self.ratio)

    @functools.cached_property
    def _scaled_factors(self) -> tuple[tuple[int, int], ...]:
        """(sigma_i, 4mn (E/2 + sigma_i u + c_i)) for each factor of F.

        E has a denominator dividing 2mn and u one dividing 4mn, so 4mn E/2
        and 4mn u are ints, read off their numerators and denominators.
        """
        scale = 4 * self.ratio.m * self.ratio.n
        energy, u = self.energy, self.u
        half_e = energy.numerator * (scale // (2 * energy.denominator))
        shift = u.numerator * (scale // u.denominator)
        return tuple(
            (sigma, half_e + sigma * shift + offset)
            for sigma, offset in _ladder_factors(self.ratio)
        )

    def _product(self, numerator: int, denominator: int) -> int:
        """F's integer product at x = numerator / denominator: Phi(x) (4mn den)^(m+n)."""
        step = 4 * self.ratio.m * self.ratio.n * numerator
        value = 1
        for sigma, offset in self._scaled_factors:
            value *= offset * denominator + sigma * step
        return value

    def __call__(self, x: int | Fraction) -> Fraction:
        x = Fraction(x)
        scale = 4 * self.ratio.m * self.ratio.n * x.denominator
        return Fraction(self._product(x.numerator, x.denominator),
                        scale ** len(self._scaled_factors))

    def gamma_value(self, x: int | Fraction) -> Fraction:
        x = Fraction(x)
        m, n = self.ratio.m, self.ratio.n
        value = Fraction(1, m**m * n**n)
        for j in range(1, m + 1):
            value *= m * x + self.label.p - j
        for j in range(n):
            value *= (self.label.N - x) * n + self.label.q + j
        return value

    @functools.cached_property
    def numerators(self) -> tuple[int, ...]:
        """P_0, ..., P_{N+1} with Phi(k) = P_k / D, D = `_phi_denominator`.

        F's product at x = k is Phi(k) (4mn)^(m+n), and (4mn)^(m+n) / D =
        4^(m+n) m^n n^m is an int, so one exact integer division gives each P_k.
        """
        m, n = self.ratio.m, self.ratio.n
        divisor = (4 * m * n) ** (m + n) // _phi_denominator(self.ratio)
        return tuple(self._product(k, 1) // divisor for k in range(self.label.N + 2))


def _monomial(h_power: int, s0_power: int) -> str:
    factors = [
        name if power == 1 else f"{name}**{power}"
        for name, power in (("H", h_power), ("S0", s0_power))
        if power
    ]
    return "*".join(factors)


@dataclass(frozen=True)
class CommutatorPolynomial:
    """[S-, S+] as an exact bivariate polynomial in (H, S0) over QQ.

    The polynomial is sum(a * H**i * S0**j) / `denominator` over the
    `numerators` (i, j, a), in lowest terms: the a and the denominator share
    no factor.  Zero terms are omitted, and the order is lex-descending in
    (H power, S0 power), the order sympy prints.
    """

    ratio: FrequencyRatio
    numerators: tuple[tuple[int, int, int], ...]
    denominator: int

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """((H power, S0 power), coefficient) pairs, in the order of `numerators`."""
        return tuple(((i, j), Fraction(a, self.denominator)) for i, j, a in self.numerators)

    @functools.cached_property
    def degree_in_s0(self) -> int:
        return max(j for _, j, _ in self.numerators)

    @functools.cached_property
    def _degree_in_h(self) -> int:
        return max(i for i, _, _ in self.numerators)

    def __call__(self, h: int | Fraction, s0: int | Fraction) -> Fraction:
        """Exact value at (h, s0), from the integer kernel `_scaled_values`."""
        (numerator,), denominator = self._scaled_values(Fraction(h), Fraction(s0), 1)
        return Fraction(numerator, denominator)

    def _scaled_values(self, h: Fraction, s0: Fraction, count: int) -> tuple[list[int], int]:
        """Numerators of poly(h, s0 + k), k = 0..count-1, over one common denominator.

        The H powers are collected once, into one int coefficient b_j per S0
        power.  With s0 + k = y / d, each value is then sum_j b_j y^j
        d^(J-j), J the S0 degree, run by integer Horner in y; no `Fraction`
        is built.
        """
        h_top, s0_top = self._degree_in_h, self.degree_in_s0
        h_powers = _scaled_powers(h.numerator, h.denominator, h_top)
        d_powers = _scaled_powers(1, s0.denominator, s0_top)
        weights = [0] * (s0_top + 1)
        for i, j, a in self.numerators:
            weights[j] += a * h_powers[i] * d_powers[j]
        weights.reverse()
        numerators = []
        for y in range(s0.numerator, s0.numerator + count * s0.denominator, s0.denominator):
            value = 0
            for weight in weights:
                value = value * y + weight
            numerators.append(value)
        denominator = self.denominator * h.denominator**h_top * s0.denominator**s0_top
        return numerators, denominator

    def __str__(self) -> str:
        """The polynomial as sympy prints it, e.g. `-H**2/4 - H*S0 + 3*S0**2 + 3/16`."""
        text = ""
        for (h_power, s0_power), coeff in self.terms:
            body = _monomial(h_power, s0_power)
            numerator = abs(coeff.numerator)
            if not body:
                body = str(numerator)
            elif numerator != 1:
                body = f"{numerator}*{body}"
            if coeff.denominator != 1:
                body += f"/{coeff.denominator}"
            if not text:
                text = "-" + body if coeff < 0 else body
            else:
                text += (" - " if coeff < 0 else " + ") + body
        return text


def _scaled_powers(numerator: int, denominator: int, top: int) -> list[int]:
    """numerator**k * denominator**(top - k) for k = 0..top."""
    up = [1]
    down = [1]
    for _ in range(top):
        up.append(up[-1] * numerator)
        down.append(down[-1] * denominator)
    return [up[k] * down[top - k] for k in range(top + 1)]


@functools.cache
def commutator_polynomial(ratio: FrequencyRatio) -> CommutatorPolynomial:
    """Build [S-, S+] = F(H, S0+1) - F(H, S0) for the given ratio.

    The two leading S0^(m+n) terms cancel in the difference, leaving degree
    m + n - 1 in S0; for 1:1 the result is the plain u(2) value -2*S0.
    Both products are expanded from the integer factor table, each factor
    scaled by 4mn, and subtracted in ints; the difference and its
    denominator (4mn)^(m+n) are divided once by their gcd.  The result is
    immutable, so it is built once per ratio and shared.
    """
    scale = 4 * ratio.m * ratio.n
    half = scale // 2
    factors = _ladder_factors(ratio)
    diff = _expand(((half, sigma * scale, offset + sigma * scale) for sigma, offset in factors), 2)
    at_s0 = _expand(((half, sigma * scale, offset) for sigma, offset in factors), 2)
    for exponents, coeff in at_s0.items():
        diff[exponents] = diff.get(exponents, 0) - coeff
    denominator = scale ** len(factors)
    common = gcd(denominator, *diff.values())
    numerators = sorted(((i, j, c // common) for (i, j), c in diff.items() if c), reverse=True)
    return CommutatorPolynomial(ratio, tuple(numerators), denominator // common)


@dataclass(frozen=True)
class ParafermionicForm:
    """Factorization Phi(x) = x (N+1-x) P(x) with P positive on 1..N.

    `coefficients` are those of P, lowest power first; `values` are
    P(1), ..., P(N).
    """

    coefficients: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.values)


def _cofactor_forms(sf: StructureFunction) -> list[tuple[int, int]]:
    """The int forms left in a 1:n irrep's factor table once x and N+1-x are split off.

    Scaled by 4n, x and N+1-x are the forms (4n, 0) and (-4n, 4n(N+1)) of
    `_scaled_factors`; the forms left multiply to (4n)^(n-1) P(x) (none for 1:1,
    so P = 1).  The parafermionic reading holds for ratios 1:n only, so any other
    ratio, and a table without both forms, raise NotDivisibleError.
    """
    if sf.ratio.m != 1:
        raise NotDivisibleError(
            f"parafermionic form applies to 1:n ratios only, got {sf.ratio}"
        )
    scale, root = 4 * sf.ratio.n, sf.label.N + 1
    forms = [(sigma * scale, offset) for sigma, offset in sf._scaled_factors]
    for form in ((scale, 0), (-scale, scale * root)):
        if form not in forms:
            raise NotDivisibleError(
                f"x (N+1-x) does not divide the structure function of {sf.label}"
            )
        forms.remove(form)
    return forms


def parafermionic_decompose(sf: StructureFunction) -> ParafermionicForm:
    """Split off the x (N+1-x) prefactor of a 1:n structure function (`_cofactor_forms`)."""
    forms = _cofactor_forms(sf)
    denominator = (4 * sf.ratio.n) ** len(forms)
    terms = _expand(forms, 1)
    coefficients = tuple(Fraction(terms.get((k,), 0), denominator) for k in range(len(forms) + 1))
    values = tuple(Fraction(prod(slope * x + offset for slope, offset in forms), denominator)
                   for x in range(1, sf.label.N + 1))
    return ParafermionicForm(coefficients, values)
