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
On the irrep (N, p, q) the ints 4mn (E/2 + u) = 2n (2p-1) and
4mn (E/2 - u) = 2m (2q-1) + 4mn N split F at x = k into its raised factors,
which read p and k alone, and its lowered ones, which read q and N - k alone:
(4mn)^(m+n) Phi(k) = X_p(k) Y_q(N-k).  On the Fock indices the Gamma-quotient
form makes P_k = m^m n^n Phi(k) an integer, so each irrep's Phi(0..N+1) is
one table of ints over `_phi_denominator` (`StructureFunction.numerators`),
each P_k one product of the two tables and one exact division, and every
exact check reads that table; a sweep builds each X_p and Y_q once for all
of its irreps (`_phi_numerators`).  The Gamma-quotient form itself is
expanded into rising/falling factorials instead of evaluating a
transcendental Gamma function (so there are no poles and no rounding).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .core import FrequencyRatio, IrrepLabel, _energy_key, energy_of_irrep
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

    u = ((2p-1)/(2m) - (2q-1)/(2n) - N) / 2, one `Fraction` of `_scaled_u`.
    """
    label.validate_for(ratio)
    return Fraction(_scaled_u(ratio, label.N, label.p, label.q), 4 * ratio.m * ratio.n)


def _scaled_u(ratio: FrequencyRatio, big_n: int, p: int, q: int) -> int:
    """4mn u(N, p, q) = n (2p-1) - m (2q-1) - 2mn N, an int."""
    return ratio.n * (2 * p - 1) - ratio.m * (2 * q - 1) - 2 * ratio.m * ratio.n * big_n


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


def _expand(forms: Iterable[tuple[int, int, int]]) -> list[list[int]]:
    """Multiply out integer linear forms (a, b, c) = a x + b y + c.

    The product (1 if there are no forms) comes back dense: after k forms,
    row i lists the int coefficients of x^i y^j for j = 0..k-i.  Callers
    scale each form by a common denominator (4mn for the factors of F) so
    the loop runs in plain ints, and divide once when they build the
    `Fraction` of a returned coefficient.
    """
    rows = [[1]]
    for a, b, c in forms:
        above, product = [0] * (len(rows[0]) + 1), []  # above: row i-1 of the old product
        for row in rows:
            product.append([c * v + b * w + a * z for v, w, z in zip(row + [0], [0] + row, above)])
            above = row
        product.append([a * above[0]])
        rows = product
    return rows


def _phi_denominator(ratio: FrequencyRatio) -> int:
    """D = m^m n^n, the denominator of every Phi(k) at a Fock index k."""
    return ratio.m**ratio.m * ratio.n**ratio.n


def _phi_numerators(records: Sequence[StructureFunction]) -> Iterator[tuple[int, ...]]:
    """P_0, ..., P_{N+1} of each of `records`, all of one ratio, in order.

    At x = k the raised factors of F on (N, p, q), scaled by 4mn, are
    2n (2p-1) + 4mn c_i + 4mn k and the lowered ones 2m (2q-1) + 4mn c_i +
    4mn (N - k), so (4mn)^(m+n) Phi(k) = X_p(k) Y_q(N-k), X_p and Y_q the
    products of the sigma = +1 and the sigma = -1 rows of `_ladder_factors`,
    and P_k = X_p(k) Y_q(N-k) // (4^(m+n) m^n n^m) exactly.  X_p(k), k >= 0,
    and Y_q(j), j >= -1, are each computed once for all of `records`, when
    the first record that reads them is reached, so a caller that stops early
    computes no table past the records it read.
    """
    ratio = records[0].ratio
    m, n, scale = ratio.m, ratio.n, 4 * ratio.m * ratio.n
    divisor = scale ** (m + n) // _phi_denominator(ratio)
    raised = [offset for sigma, offset in _ladder_factors(ratio) if sigma > 0]
    lowered = [offset for sigma, offset in _ladder_factors(ratio) if sigma < 0]
    x_tables, y_tables = defaultdict(list), defaultdict(list)  # X_p(k) at [k], Y_q(j) at [j + 1]
    for record in records:
        big_n, p, q = record.label.N, record.label.p, record.label.q
        x, y = x_tables[p], y_tables[q]
        if len(x) < big_n + 2:
            x += [prod(2 * n * (2 * p - 1) + offset + scale * k for offset in raised)
                  for k in range(len(x), big_n + 2)]
        if len(y) < big_n + 2:
            y += [prod(2 * m * (2 * q - 1) + offset + scale * j for offset in lowered)
                  for j in range(len(y) - 1, big_n + 1)]
        # X_p(k) Y_q(N - k) for k = 0..N+1
        yield tuple([a * b // divisor for a, b in zip(x, y[big_n + 1::-1])])


def _with_shared_numerators(records: Sequence[StructureFunction]) -> Iterator[StructureFunction]:
    """Each of `records`, all of one ratio, in order, its `numerators` set as it is reached
    (where not yet computed) from one `_phi_numerators` run over all of them."""
    for record, numerators in zip(records, _phi_numerators(records)):
        record.__dict__.setdefault("numerators", numerators)  # the cached property's slot
        yield record


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
    ints P_k = D Phi(k), D = m^m n^n, each read off the split
    (4mn)^(m+n) Phi(k) = X_p(k) Y_q(N-k) of `_phi_numerators`, where
    4mn (E/2 + u) = 2n (2p-1) and 4mn (E/2 - u) = 2m (2q-1) + 4mn N.
    `u` and `energy` are computed once per instance.  `gamma_value` keeps
    the Gamma-quotient form as an independent check, expanded exactly into
    falling/rising factorials
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
        """(sigma_i, 4mn (E/2 + sigma_i u + c_i)) for each factor of F, from the ints
        4mn E/2 = 2mn E (`_energy_key`) and 4mn u (`_scaled_u`)."""
        label, ratio = self.label, self.ratio
        half_e = _energy_key(ratio, label.N, label.p, label.q)
        shift = _scaled_u(ratio, label.N, label.p, label.q)
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
        m, n, (a, b) = self.ratio.m, self.ratio.n, x.as_integer_ratio()
        big_n, p, q = self.label.N, self.label.p, self.label.q
        # each factor times b, in ints
        value = (prod(m * a + (p - j) * b for j in range(1, m + 1))
                 * prod((big_n * b - a) * n + (q + j) * b for j in range(n)))
        return Fraction(value, _phi_denominator(self.ratio) * b ** (m + n))

    @functools.cached_property
    def numerators(self) -> tuple[int, ...]:
        """P_0, ..., P_{N+1} with Phi(k) = P_k / D, D = `_phi_denominator`.

        F's product at x = k is Phi(k) (4mn)^(m+n) = X_p(k) Y_q(N-k), and
        (4mn)^(m+n) / D = 4^(m+n) m^n n^m is an int, so one exact integer
        division gives each P_k: `_phi_numerators` on a sweep of one.
        """
        [numerators] = _phi_numerators((self,))
        return numerators


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
    shifted = _expand((half, sigma * scale, offset + sigma * scale) for sigma, offset in factors)
    at_s0 = _expand((half, sigma * scale, offset) for sigma, offset in factors)
    diff = [(i, j, a - b) for i, (up, down) in enumerate(zip(shifted, at_s0))
            for j, (a, b) in enumerate(zip(up, down)) if a != b]
    denominator = scale ** len(factors)
    common = gcd(denominator, *(c for _, _, c in diff))
    numerators = sorted(((i, j, c // common) for i, j, c in diff), reverse=True)
    return CommutatorPolynomial(ratio, tuple(numerators), denominator // common)


def _ladder_identity(polynomial: CommutatorPolynomial) -> bool:
    """Whether `polynomial` is [S-, S+] = (raise - lower weight) / D of the Fock realization.

    With n_x = mU - 1/2, n_y = nW - 1/2, U = H/2 + S0 and W = H/2 - S0, twice each factor of
    (n_x+1)...(n_x+m) n_y...(n_y-n+1) and n_x...(n_x-m+1) (n_y+1)...(n_y+n) is a form
    a H + b S0 + c; only m and n are read, not `_ladder_factors`, an independent check of F.
    """
    m, n = polynomial.ratio.m, polynomial.ratio.n
    raised = _expand([*((m, 2 * m, 2 * j - 1) for j in range(1, m + 1)),
                      *((n, -2 * n, -1 - 2 * l) for l in range(n))])
    lowered = _expand([*((m, 2 * m, -1 - 2 * j) for j in range(m)),
                       *((n, -2 * n, 2 * l - 1) for l in range(1, n + 1))])
    scale, claimed = 2 ** (m + n) * _phi_denominator(polynomial.ratio), defaultdict(int)
    for i, j, a in polynomial.numerators:
        claimed[i, j] += scale * a
    proven = {(i, j): (a - b) * polynomial.denominator
              for i, (up, down) in enumerate(zip(raised, lowered))
              for j, (a, b) in enumerate(zip(up, down)) if a != b}
    return proven == {key: value for key, value in claimed.items() if value}


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


def parafermionic_decompose(sf: StructureFunction) -> ParafermionicForm:
    """Split off the x (N+1-x) prefactor of a 1:n structure function.

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
    denominator = scale ** len(forms)
    coefficients = tuple(Fraction(c, denominator) for c in _expand((0, a, b) for a, b in forms)[0])
    values = tuple(Fraction(prod(slope * x + offset for slope, offset in forms), denominator)
                   for x in range(1, sf.label.N + 1))
    return ParafermionicForm(coefficients, values)
