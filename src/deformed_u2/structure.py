"""Structure functions and the ladder commutator of the deformed u(2).

The symmetry algebra of the m:n oscillator is generated by S0, S+, S- and
the (central) Hamiltonian H, and closes through

    [S-, S+] = F(H, S0 + 1) - F(H, S0),

where F(H, S0) is the product of the m raised x-mode factors and the n
lowered y-mode factors; the difference is a polynomial of degree m + n - 1
in S0.  On the irrep (N, p, q) the same data appears as the ladder-strength
function Phi(x), positive on 1..N and vanishing at 0 and N + 1, which pins
the Fock dimension to N + 1.

Everything here is exact.  F is written once, as its table of linear factors
with every offset scaled by 4mn to an int (`_ladder_factors`), and the
commutator is held as that table (`CommutatorPolynomial`): it is proven by
comparing the table's factors with the Fock weights' (`_ladder_identity`),
evaluated as the difference of two int products of its rows, and expanded in
(H, S0) only when its terms or its text are read.  The x-mode factors read
H/2 + S0 alone and the y-mode ones H/2 - S0, so that expansion and the 1:n
factor P of Phi(x) = x (N+1-x) P(x) are one-variable int products of its rows
(`_poly`), and a `Fraction` is built only for a returned value.
On the irrep (N, p, q) the ints 4mn (E/2 + u) = 2n (2p-1) and
4mn (E/2 - u) = 2m (2q-1) + 4mn N split F at x = k into its raised factors,
which read p and k alone and are each 4n times an int, and its lowered ones,
which read q and N - k alone and are each 4m times an int.  Those ints multiply
to X_p(k) and Y_q(N-k), and P_k = m^m n^n Phi(k) = X_p(k) Y_q(N-k), so each
irrep's Phi(0..N+1) is one table of ints over `_phi_denominator`
(`StructureFunction.numerators`), each P_k one product of the two tables, and
every exact check reads that table; a sweep builds each X_p and Y_q once for
all of its irreps (`_phi_numerators`).  The Gamma-quotient form, expanded into
rising/falling factorials, is kept in the tests as an independent check.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul, sub

from .core import FrequencyRatio, IrrepLabel
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


def _times(coefficients: list[int], a: int, b: int) -> list[int]:
    """(a t + b) times the polynomial `coefficients`, as ints, lowest power first."""
    return [b * c + a * d for c, d in zip(coefficients + [0], [0] + coefficients)]


def _poly(forms: Iterable[tuple[int, int]]) -> list[int]:
    """The int coefficients of prod (a t + b) over the int forms (a, b), lowest power first."""
    return functools.reduce(lambda coefficients, form: _times(coefficients, *form), forms, [1])


def _phi_denominator(ratio: FrequencyRatio) -> int:
    """D = m^m n^n, the denominator of every Phi(k) at a Fock index k."""
    return ratio.m**ratio.m * ratio.n**ratio.n


def _phi_numerators(ratio: FrequencyRatio, big_ns: Iterable[int], ps: Iterable[int],
                    qs: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """P_0, ..., P_{N+1} of each irrep of `ratio` in the Python-int columns `big_ns`, `ps`, `qs`.

    At x = k the raised factors of F on (N, p, q), scaled by 4mn, are
    2n (2p-1) + 4mn c_i + 4mn k, each 4n times the int p + (4mn c_i - 2n) / 4n + mk, and
    the lowered ones 2m (2q-1) + 4mn c_i + 4mn (N - k), each 4m times the int
    q + (4mn c_i - 2m) / 4m + n (N - k).  With X_p and Y_q the products of those ints over
    the sigma = +1 and the sigma = -1 rows of `_ladder_factors`, (4mn)^(m+n) Phi(k) =
    (4n)^m (4m)^n X_p(k) Y_q(N-k), so P_k = m^m n^n Phi(k) = X_p(k) Y_q(N-k).
    X_p(k), k >= 0, and Y_q(j), j >= -1, are each computed once for all of the irreps, when
    the first irrep that reads them is reached, so a caller that stops early
    computes no table past the irreps it read.
    """
    m, n, factors = ratio.m, ratio.n, _ladder_factors(ratio)
    raised = [(offset - 2 * n) // (4 * n) for sigma, offset in factors if sigma > 0]
    lowered = [(offset - 2 * m) // (4 * m) for sigma, offset in factors if sigma < 0]
    x_tables, y_tables = defaultdict(list), defaultdict(list)  # X_p(k) at [k], Y_q(j) at [j + 1]
    for big_n, p, q in zip(big_ns, ps, qs):
        x, y = x_tables[p], y_tables[q]
        if len(x) < big_n + 2:
            x += [prod(p + shift + m * k for shift in raised) for k in range(len(x), big_n + 2)]
        if len(y) < big_n + 2:
            y += [prod(q + shift + n * j for shift in lowered)
                  for j in range(len(y) - 1, big_n + 1)]
        yield tuple(map(mul, x, y[big_n + 1::-1]))  # X_p(k) Y_q(N - k) for k = 0..N+1


@dataclass(frozen=True)
class StructureFunction:
    """Exact evaluator for the ladder-strength function of one irrep.

    Phi(x) = F(E, u + x), the ladder product on the irrep's energy E and
    S0 shift u (`energy_of_irrep`, `u_constant`); expanded, that is the
    product of m + n linear factors
      prod_k (x + (2p-1)/(2m) - (2k-1)/(2m)) *
      prod_l (N - x + (2q-1)/(2n) + (2l-1)/(2n)).
    `sf(x)` evaluates F's integer factor table (`_ladder_factors`) in plain
    ints: each factor E/2 + sigma_i (u + x) + c_i is scaled by 4mn den(x), its
    offset 4mn (E/2 + sigma_i u + c_i) is an int read off the label once per
    instance, since 4mn (E/2 + u) = 2n (2p-1) and 4mn (E/2 - u) =
    2m (2q-1) + 4mn N, and one `Fraction` is built from the product.
    `numerators` holds the same products at x = 0..N+1 as the ints
    P_k = D Phi(k), D = m^m n^n, of `_phi_numerators`.
    """

    label: IrrepLabel
    ratio: FrequencyRatio

    def __post_init__(self) -> None:
        self.label.validate_for(self.ratio)

    @functools.cached_property
    def _scaled_factors(self) -> tuple[tuple[int, int], ...]:
        """(sigma_i, 4mn (E/2 + sigma_i u + c_i)) for each factor of F: 4mn (E/2 +- u)
        read off the label, plus the row's offset 4mn c_i."""
        m, n, label = self.ratio.m, self.ratio.n, self.label
        raised = 2 * n * (2 * label.p - 1)  # 4mn (E/2 + u)
        lowered = 2 * m * (2 * label.q - 1) + 4 * m * n * label.N  # 4mn (E/2 - u)
        return tuple((sigma, (raised if sigma > 0 else lowered) + offset)
                     for sigma, offset in _ladder_factors(self.ratio))

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

    @functools.cached_property
    def numerators(self) -> tuple[int, ...]:
        """P_0, ..., P_{N+1} with Phi(k) = P_k / D, D = `_phi_denominator`: `_phi_numerators`,
        the int products X_p(k) Y_q(N-k), on a sweep of one."""
        label = self.label
        [numerators] = _phi_numerators(self.ratio, (label.N,), (label.p,), (label.q,))
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
    """[S-, S+] = F(H, S0+1) - F(H, S0), held as F's factor table.

    `factors` is the table (sigma_i, 4mn c_i) the polynomial was built from
    (`_ladder_factors`), and it is the record: the proof (`_ladder_identity`)
    compares its rows with the Fock weights' factors, and a value is the
    difference of two int products of its rows.  The expansion,
    sum(a * H**i * S0**j) / `denominator` over the `numerators` (i, j, a) in
    lowest terms, is built on first read of `numerators`, `denominator`, `terms`
    or `str`.  Zero terms are omitted, and the order is lex-descending in
    (H power, S0 power), the order sympy prints.
    """

    ratio: FrequencyRatio
    factors: tuple[tuple[int, int], ...]
    _proven = functools.cached_property(lambda self: _ladder_identity(self))  # once per object

    @functools.cached_property
    def _expansion(self) -> tuple[tuple[tuple[int, int, int], ...], int]:
        """(numerators, denominator) of the polynomial in (H, S0).

        With V = H + 2 S0 and Z = H - 2 S0, the sigma = +1 and -1 rows of the table, scaled
        by 4mn, multiply (`_poly`) to (4mn)^(m+n) F = A(V) B(Z), and V^a Z^b is
        sum_j [t^j] (1+2t)^a (1-2t)^b H^(a+b-j) S0^j.  The int difference and (4mn)^(m+n)
        are divided once by their gcd.
        """
        scale, factors = 4 * self.ratio.m * self.ratio.n, self.factors
        # A(V), A(V+2), B(Z) and B(Z-2): S0 + 1 moves each offset of a sigma row by sigma 4mn
        a0, a1, b0, b1 = (_poly((scale // 2, offset + side * shift) for sigma, offset in factors
                                if sigma == side) for side in (1, -1) for shift in (0, scale))
        rows = [[0] * (d + 1) for d in range(len(factors) + 1)]  # rows[d][j]: H^(d-j) S0^j
        kernel = [1]
        for a in range(len(a0)):
            column = kernel
            for b in range(len(b0)):
                weight = a1[a] * b1[b] - a0[a] * b0[b]
                rows[a + b] = [c + weight * k for c, k in zip(rows[a + b], column)]
                column = _times(column, -2, 1)
            kernel = _times(kernel, 2, 1)
        diff = [(d - j, j, c) for d, row in enumerate(rows) for j, c in enumerate(row) if c]
        denominator = scale ** len(factors)
        common = gcd(denominator, *(c for _, _, c in diff))
        numerators = sorted(((i, j, c // common) for i, j, c in diff), reverse=True)
        return tuple(numerators), denominator // common

    @property
    def numerators(self) -> tuple[tuple[int, int, int], ...]:
        return self._expansion[0]

    @property
    def denominator(self) -> int:
        return self._expansion[1]

    @property
    def terms(self) -> tuple[tuple[tuple[int, int], Fraction], ...]:
        """((H power, S0 power), coefficient) pairs, in the order of `numerators`."""
        return tuple(((i, j), Fraction(a, self.denominator)) for i, j, a in self.numerators)

    @property
    def degree_in_s0(self) -> int:
        """m + n - 1, read off the table: the S0^(m+n) terms of F(H, S0+1) and F(H, S0)
        cancel, and the difference's S0^(m+n-1) coefficient is (m+n) prod(sigma_i), never 0."""
        return len(self.factors) - 1

    def __call__(self, h: int | Fraction, s0: int | Fraction) -> Fraction:
        """Exact value at (h, s0), from the integer kernel `_differences`."""
        (numerator,), denominator = self._differences(Fraction(h), Fraction(s0), 1)
        return Fraction(numerator, denominator)

    def _differences(self, h: Fraction, s0: Fraction, count: int) -> tuple[list[int], int]:
        """Numerators of poly(h, s0 + k), k = 0..count-1, over one common denominator.

        With h = x / e and s0 = y / d, each factor h/2 + sigma_i (s0 + k) + c_i of the
        table, times 4mn e d, is the int 2mn x d + sigma_i 4mn e (y + k d) + 4mn c_i e d,
        so F(h, s0 + k) is the product of those ints over (4mn e d)^(m+n), and
        poly(h, s0 + k) is the difference of two neighbouring products.  Nothing is
        expanded and no `Fraction` is built.
        """
        x, e, y, d = h.numerator, h.denominator, s0.numerator, s0.denominator
        scale = 4 * self.ratio.m * self.ratio.n
        rows = [(sigma * scale * e * d, scale // 2 * x * d + sigma * scale * e * y + offset * e * d)
                for sigma, offset in self.factors]
        products = [prod(slope * k + base for slope, base in rows) for k in range(count + 1)]
        return [*map(sub, products[1:], products)], (scale * e * d) ** len(rows)

    def __str__(self) -> str:
        """The polynomial as sympy prints it, e.g. `-H**2/4 - H*S0 + 3*S0**2 + 3/16`."""
        text = ""
        for h_power, s0_power, a in self.numerators:  # a / denominator in lowest terms, by gcd
            common = gcd(a, self.denominator)
            body, numerator = _monomial(h_power, s0_power), abs(a) // common
            if not body:
                body = str(numerator)
            elif numerator != 1:
                body = f"{numerator}*{body}"
            if common != self.denominator:
                body += f"/{self.denominator // common}"
            if not text:
                text = "-" + body if a < 0 else body
            else:
                text += (" - " if a < 0 else " + ") + body
        return text


@functools.cache
def commutator_polynomial(ratio: FrequencyRatio) -> CommutatorPolynomial:
    """[S-, S+] = F(H, S0+1) - F(H, S0) for the given ratio, held as F's factor table.

    The two leading S0^(m+n) terms cancel in the difference, leaving degree
    m + n - 1 in S0; for 1:1 the result is the plain u(2) value -2*S0.  Nothing
    is expanded here.  The result is immutable, built once per ratio and shared.
    """
    return CommutatorPolynomial(ratio, _ladder_factors(ratio))


def _ladder_identity(polynomial: CommutatorPolynomial) -> bool:
    """Whether `polynomial` is [S-, S+] = (raise - lower weight) / D of the Fock realization.

    With n_x = mU - 1/2, n_y = nW - 1/2, U = H/2 + S0 and W = H/2 - S0, twice each factor of
    the raise weight (n_x+1)...(n_x+m) n_y...(n_y-n+1) is m V + (2j-1) or n Z - (2j-1), and
    of the lower weight n_x...(n_x-m+1) (n_y+1)...(n_y+n) m V - (2j-1) or n Z + (2j-1),
    V = 2U, Z = 2W, read off m and n, not `_ladder_factors`: an independent check of F.
    Times 2n and 2m, each is a form 2mn H + s S0 + c, as is each row (sigma, 4mn c_i) of
    the table, scaled by 4mn, with (s, c) = (4mn sigma, 4mn c_i) at S0 and
    (4mn sigma, 4mn (c_i + sigma)) at S0 + 1.  When the raise weight's forms are the
    table's at S0 + 1 and the lower weight's the table's at S0, as multisets, the two
    products agree, so F(H, S0 + 1) = raise / D and F(H, S0) = lower / D, D = m^m n^n, and
    the commutator is (raise - lower) / D with nothing expanded.  Q[H, S0] factors
    uniquely and every form has H coefficient 2mn, so a table that fails has an F other
    than the Fock one; its difference can still be the Fock one when the two F differ by
    a function of H alone, and such a table takes the caller's evaluation route.
    """
    m, n = polynomial.ratio.m, polynomial.ratio.n
    scale = 4 * m * n

    def weight(sign: int) -> list[tuple[int, int]]:  # sign +1: raise, -1: lower
        return sorted([*((scale, 2 * n * sign * (2 * j - 1)) for j in range(1, m + 1)),
                       *((-scale, -2 * m * sign * (2 * j - 1)) for j in range(1, n + 1))])

    def table(shift: int) -> list[tuple[int, int]]:
        return sorted((sigma * scale, offset + sigma * scale * shift)
                      for sigma, offset in polynomial.factors)

    return table(1) == weight(1) and table(0) == weight(-1)


@dataclass(frozen=True)
class ParafermionicForm:
    """Factorization Phi(x) = x (N+1-x) P(x) with P positive on 1..N.

    P(x) = prod (a x + b) / prod |a| over the int `forms` (a, b), and `products` are the
    ints prod (a x + b) at x = 1..N.  `values`, P(1), ..., P(N), and `coefficients`, P's
    from the lowest power, are built on first read.
    """

    forms: tuple[tuple[int, int], ...]
    products: tuple[int, ...]

    @property
    def denominator(self) -> int:
        return prod(abs(a) for a, _ in self.forms)

    @functools.cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.denominator) for v in self.products)

    @functools.cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in _poly(self.forms))

    @property
    def positive(self) -> bool:
        return all(v > 0 for v in self.products)


def parafermionic_decompose(sf: StructureFunction) -> ParafermionicForm:
    """Split off the x (N+1-x) prefactor of a 1:n structure function.

    Scaled by 4n, x and N+1-x are the forms (4n, 0) and (-4n, 4n(N+1)) of
    `_scaled_factors`; the forms left multiply to (4n)^(n-1) P(x) (none for 1:1,
    so P = 1), each P(x) an int product.  The parafermionic reading holds for 1:n
    only, so any other ratio, and a table without both forms, raise NotDivisibleError.
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
    return ParafermionicForm(tuple(forms), tuple(prod(slope * x + offset for slope, offset in forms)
                                                 for x in range(1, sf.label.N + 1)))
