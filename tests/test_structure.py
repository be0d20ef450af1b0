import functools
import gc
import importlib
import inspect
import pkgutil
import re
import weakref
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import deformed_u2
from deformed_u2 import (
    CommutatorPolynomial,
    FrequencyRatio,
    IrrepLabel,
    NotDivisibleError,
    StructureFunction,
    commutator_polynomial,
    energy_of_irrep,
    parafermionic_decompose,
    u_constant,
)
from deformed_u2.structure import _ladder_factors, _phi_denominator

H, S0, X = sympy.symbols("H S0 x")


def sympy_poly(coefficients, *symbols):
    """sympy `Poly` over QQ from a dict of exponent tuples to `Fraction`s."""
    return sympy.Poly.from_dict(
        {exponents: sympy.Rational(c.numerator, c.denominator)
         for exponents, c in coefficients.items()},
        *symbols,
        domain="QQ",
    )


def poly_in_x(coefficients):
    """sympy `Poly` in x over QQ from `Fraction` coefficients, lowest power first."""
    return sympy_poly({(k,): c for k, c in enumerate(coefficients)}, X)


def _ladder_product(ratio: FrequencyRatio, h, s0):
    """F(H, S0), the operator product S+ S- expressed through H and S0:

        prod_{k=1..m} (H/2 + S0 - (2k-1)/(2m)) *
        prod_{l=1..n} (H/2 - S0 + (2l-1)/(2n)),

    multiplied out from `_ladder_factors`, whose offsets are stored times
    4mn.  The body is generic: `Fraction` arguments give the exact value,
    sympy arguments the expanded polynomial.
    """
    half_h = h / 2
    scale = 4 * ratio.m * ratio.n
    value = 1
    for sigma, offset in _ladder_factors(ratio):
        value *= half_h + sigma * s0 + Fraction(offset, scale)
    return value


def coprime_pairs(limit):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if gcd(m, n) == 1
    ]


def all_labels(m, n, n_top):
    for big_n in range(n_top + 1):
        for p in range(1, m + 1):
            for q in range(1, n + 1):
                yield IrrepLabel(big_n, p, q)


# printed closed forms of the 1:1, 1:2 and 1:3 families, as plain lambdas
SPECIAL_CASES = [
    (1, 1, 1, lambda N, x: x * (N + 1 - x), lambda N: Fraction(N + 1)),
    (1, 2, 1, lambda N, x: x * (N + 1 - x) * (N + Fraction(1, 2) - x),
     lambda N: N + Fraction(3, 4)),
    (1, 2, 2, lambda N, x: x * (N + 1 - x) * (N + Fraction(3, 2) - x),
     lambda N: N + Fraction(5, 4)),
    (1, 3, 1, lambda N, x: x * (N + 1 - x) * (N + Fraction(1, 3) - x) * (N + Fraction(2, 3) - x),
     lambda N: N + Fraction(2, 3)),
    (1, 3, 2, lambda N, x: x * (N + 1 - x) * (N + Fraction(2, 3) - x) * (N + Fraction(4, 3) - x),
     lambda N: Fraction(N + 1)),
    (1, 3, 3, lambda N, x: x * (N + 1 - x) * (N + Fraction(4, 3) - x) * (N + Fraction(5, 3) - x),
     lambda N: N + Fraction(4, 3)),
]


class TestStructureFunction:
    @pytest.mark.parametrize("m,n,q,phi_closed,energy_closed", SPECIAL_CASES)
    def test_special_case_families(self, m, n, q, phi_closed, energy_closed):
        ratio = FrequencyRatio(m, n)
        for big_n in range(9):
            label = IrrepLabel(big_n, 1, q)
            sf = StructureFunction(label, ratio)
            assert sf.energy == energy_closed(big_n)
            for x in range(big_n + 2):
                assert sf(x) == phi_closed(big_n, Fraction(x))

    def test_product_and_gamma_forms_agree(self):
        # product_value (integer evaluation of F's factor table) against F
        # multiplied out in Fractions and against the Gamma-quotient form
        rationals = [Fraction(1, 7), Fraction(9, 4), Fraction(-5, 3), Fraction(13, 2)]
        for m, n in coprime_pairs(6):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                sf = StructureFunction(label, ratio)
                for x in [*range(-3, 12), *rationals]:
                    value = sf.product_value(x)
                    assert value == _ladder_product(ratio, sf.energy, sf.u + x)
                    assert value == sf.gamma_value(x)

    @settings(deadline=None, max_examples=80)
    @given(
        ratio=st.sampled_from(coprime_pairs(6)),
        big_n=st.integers(0, 6),
        x=st.fractions(max_denominator=60).filter(lambda v: abs(v) < 30),
        data=st.data(),
    )
    def test_product_value_at_rational_arguments(self, ratio, big_n, x, data):
        m, n = ratio
        p, q = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
        sf = StructureFunction(IrrepLabel(big_n, p, q), FrequencyRatio(m, n))
        value = sf.product_value(x)
        assert value == _ladder_product(sf.ratio, sf.energy, sf.u + x)
        assert value == sf.gamma_value(x)

    def test_boundary_and_positivity(self):
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 10):
                values = StructureFunction(label, ratio).values()
                assert values[0] == 0
                assert values[-1] == 0
                assert all(v > 0 for v in values[1:-1])

    def test_factorials(self):
        sf = StructureFunction(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        facts = sf.factorials()
        assert facts[0] == 1
        for k in range(1, 4):
            assert facts[k] == facts[k - 1] * sf(k)

    def test_rejects_label_outside_ratio(self):
        with pytest.raises(ValueError):
            StructureFunction(IrrepLabel(2, 2, 1), FrequencyRatio(1, 2))

    @pytest.mark.parametrize("ratios,n_top", [(coprime_pairs(7), 12), ([(11, 13)], 4)],
                             ids=["m,n<=7", "11:13"])
    def test_numerators_are_an_exact_division(self, ratios, n_top):
        # P_k = D Phi(k) is F's integer product over (4mn)^(m+n) / D with no
        # remainder, and equals the Gamma-quotient form times D
        for m, n in ratios:
            ratio = FrequencyRatio(m, n)
            denominator = _phi_denominator(ratio)
            divisor = (4 * m * n) ** (m + n) // denominator
            assert divisor * denominator == (4 * m * n) ** (m + n)
            for label in all_labels(m, n, n_top):
                sf = StructureFunction(label, ratio)
                assert len(sf.numerators) == label.N + 2
                for k, numerator in enumerate(sf.numerators):
                    assert divmod(sf._product(k, 1), divisor) == (numerator, 0), (label, k)
                    assert sf.gamma_value(k) * denominator == numerator, (label, k)

    def test_values_do_not_keep_the_instance_alive(self):
        sf = StructureFunction(IrrepLabel(5, 2, 1), FrequencyRatio(2, 3))
        assert sf.values() == tuple(sf(k) for k in range(7))
        ref = weakref.ref(sf)
        del sf
        gc.collect()
        assert ref() is None


def test_no_class_holds_a_functools_cache():
    # a cache wrapper on a method is module-global and keeps every instance alive
    for info in pkgutil.iter_modules(deformed_u2.__path__):
        module = importlib.import_module(f"deformed_u2.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for name, attr in vars(cls).items():
                    assert not hasattr(attr, "cache_clear"), f"{cls.__qualname__}.{name}"


class TestUConstant:
    def test_worked_values_1_2(self):
        ratio = FrequencyRatio(1, 2)
        assert u_constant(IrrepLabel(1, 1, 1), ratio) == Fraction(-3, 8)
        assert u_constant(IrrepLabel(1, 1, 2), ratio) == Fraction(-5, 8)
        assert u_constant(IrrepLabel(2, 1, 2), ratio) == Fraction(-9, 8)

    def test_isotropic_shift_is_minus_half_n(self):
        ratio = FrequencyRatio(1, 1)
        for big_n in range(6):
            assert u_constant(IrrepLabel(big_n, 1, 1), ratio) == -Fraction(big_n, 2)


class TestCommutatorPolynomial:
    def test_isotropic_is_plain_u2(self):
        poly = commutator_polynomial(FrequencyRatio(1, 1))
        assert poly.coefficients() == {(0, 1): Fraction(-2)}

    def test_one_two_polynomial(self):
        poly = commutator_polynomial(FrequencyRatio(1, 2))
        assert poly.coefficients() == {
            (0, 2): Fraction(3),
            (1, 1): Fraction(-1),
            (2, 0): Fraction(-1, 4),
            (0, 0): Fraction(3, 16),
        }

    def test_one_three_polynomial(self):
        poly = commutator_polynomial(FrequencyRatio(1, 3))
        assert poly.coefficients() == {
            (0, 3): Fraction(-4),
            (1, 2): Fraction(3),
            (0, 1): Fraction(-7, 9),
            (3, 0): Fraction(-1, 4),
            (1, 0): Fraction(1, 4),
        }

    def test_degree_in_s0(self):
        for m, n in coprime_pairs(5):
            assert commutator_polynomial(FrequencyRatio(m, n)).degree_in_s0 == m + n - 1

    def test_degrees_are_read_once(self):
        # after the first call, each evaluation walks the terms once, to
        # collect them; the H and S0 degrees are kept on the instance
        class CountingTerms(tuple):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        source = commutator_polynomial(FrequencyRatio(2, 3))
        terms = CountingTerms(source.numerators)
        poly = CommutatorPolynomial(source.ratio, terms, source.denominator)
        h, s0 = Fraction(7, 2), Fraction(-1, 3)
        first = poly._scaled_values(h, s0, 4)
        assert first == source._scaled_values(h, s0, 4)
        for _ in range(3):
            before = terms.iterations
            assert poly._scaled_values(h, s0, 4) == first
            assert terms.iterations == before + 1

    def test_exact_evaluation(self):
        poly = commutator_polynomial(FrequencyRatio(1, 2))
        h, s0 = Fraction(7, 4), Fraction(-3, 8)
        expected = 3 * s0**2 - h * s0 - h**2 / 4 + Fraction(3, 16)
        assert poly(h, s0) == expected

    def test_matches_phi_differences(self):
        # the commutator acting on |k> must reproduce Phi(k+1) - Phi(k)
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            poly = commutator_polynomial(ratio)
            for label in all_labels(m, n, 5):
                sf = StructureFunction(label, ratio)
                energy = energy_of_irrep(label, ratio)
                u = sf.u
                for k in range(label.N + 1):
                    assert sf(k + 1) - sf(k) == poly(energy, u + k)


class TestParafermionicDecompose:
    def test_one_two_example(self):
        sf = StructureFunction(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        form = parafermionic_decompose(sf)
        # P(x) = 9/2 - x
        assert form.values == (Fraction(7, 2), Fraction(5, 2), Fraction(3, 2))
        assert poly_in_x(form.coefficients).all_coeffs() == [-1, Fraction(9, 2)]
        assert form.positive

    def test_isotropic_factor_is_one(self):
        for big_n in range(5):
            sf = StructureFunction(IrrepLabel(big_n, 1, 1), FrequencyRatio(1, 1))
            form = parafermionic_decompose(sf)
            assert poly_in_x(form.coefficients).all_coeffs() == [1]
            assert form.positive

    def test_one_three_example(self):
        sf = StructureFunction(IrrepLabel(2, 1, 2), FrequencyRatio(1, 3))
        form = parafermionic_decompose(sf)
        # P(x) = (8/3 - x)(10/3 - x)
        assert form.values == (
            (Fraction(8, 3) - 1) * (Fraction(10, 3) - 1),
            (Fraction(8, 3) - 2) * (Fraction(10, 3) - 2),
        )
        assert form.positive

    def test_refuses_m_not_one(self):
        sf = StructureFunction(IrrepLabel(2, 1, 1), FrequencyRatio(2, 3))
        with pytest.raises(NotDivisibleError):
            parafermionic_decompose(sf)

    # the rows of the 1:2 irrep (3, 1, 2)'s factor table that give x and
    # N+1-x: (+1, 0) and (-1, 4n(N+1))
    @pytest.mark.parametrize("row", [(1, 0), (-1, 4 * 2 * (3 + 1))], ids=["x", "N+1-x"])
    def test_refuses_a_table_without_the_factor(self, row):
        sf = StructureFunction(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        table = sf._scaled_factors
        assert table.count(row) == 1
        sf.__dict__["_scaled_factors"] = tuple(
            (sigma, offset + 1) if (sigma, offset) == row else (sigma, offset)
            for sigma, offset in table
        )
        with pytest.raises(NotDivisibleError, match=re.escape(str(sf.label))):
            parafermionic_decompose(sf)

    @settings(deadline=None)  # exact integer work grows with n and N; its timing is not tested
    @given(
        n=st.integers(1, 6),
        q=st.integers(1, 6),
        big_n=st.integers(0, 10),
    )
    def test_positivity_property_for_one_to_n(self, n, q, big_n):
        q = min(q, n)
        sf = StructureFunction(IrrepLabel(big_n, 1, q), FrequencyRatio(1, n))
        assert parafermionic_decompose(sf).positive


# sympy as an independent oracle for the exact expansion and division
ORACLE_RATIOS = coprime_pairs(8) + [(11, 13)]


@functools.cache
def sympy_commutator(m, n):
    ratio = FrequencyRatio(m, n)
    return sympy.expand(_ladder_product(ratio, H, S0 + 1) - _ladder_product(ratio, H, S0))


class TestAgainstSympy:
    @pytest.mark.parametrize("m,n", ORACLE_RATIOS, ids=lambda v: str(v))
    def test_commutator_terms_and_rendering(self, m, n):
        expected = sympy_commutator(m, n)
        expected_poly = sympy.Poly(expected, H, S0, domain="QQ")
        poly = commutator_polynomial(FrequencyRatio(m, n))
        assert poly.coefficients() == {
            (int(i), int(j)): Fraction(int(c.p), int(c.q))
            for (i, j), c in expected_poly.terms()
        }
        assert poly.degree_in_s0 == expected_poly.degree(S0) == m + n - 1
        assert str(poly) == str(expected) == str(sympy_poly(poly.coefficients(), H, S0).as_expr())
        assert sympy_poly(poly.coefficients(), H, S0) == expected_poly

    @settings(deadline=None, max_examples=60)
    @given(
        ratio=st.sampled_from(coprime_pairs(5) + [(4, 7)]),
        h=st.fractions(max_denominator=50).filter(lambda v: abs(v) < 40),
        s0=st.fractions(max_denominator=50).filter(lambda v: abs(v) < 40),
    )
    def test_evaluation_matches_sympy_eval(self, ratio, h, s0):
        expected_poly = sympy.Poly(sympy_commutator(*ratio), H, S0, domain="QQ")
        expected = expected_poly.eval((sympy.Rational(h.numerator, h.denominator),
                                       sympy.Rational(s0.numerator, s0.denominator)))
        assert commutator_polynomial(FrequencyRatio(*ratio))(h, s0) == Fraction(
            int(expected.p), int(expected.q)
        )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_parafermionic_split_matches_sympy_div(self, n):
        ratio = FrequencyRatio(1, n)
        for label in all_labels(1, n, 14):
            sf = StructureFunction(label, ratio)
            phi = sympy.expand(_ladder_product(ratio, sf.energy, sf.u + X))
            base = sympy.Poly(X * (label.N + 1 - X), X, domain="QQ")
            quotient, remainder = sympy.div(sympy.Poly(phi, X, domain="QQ"), base)
            assert remainder.is_zero
            form = parafermionic_decompose(sf)
            assert poly_in_x(form.coefficients) == quotient
            assert form.values == tuple(
                Fraction(str(quotient.eval(k))) for k in range(1, label.N + 1)
            )


# every integer kernel against the `Fraction` expression it replaced
SMALL_FRACTIONS = st.fractions(max_denominator=50).filter(lambda v: abs(v) < 40)


def fraction_horner(coefficients, x):
    value = Fraction(0)
    for c in reversed(coefficients):
        value = value * x + c
    return value


class TestIntegerKernels:
    @pytest.mark.parametrize("m,n", [(1, 1), (4, 7), (11, 13)], ids=lambda v: str(v))
    def test_commutator_terms_match_the_fraction_ladder_product(self, m, n):
        # both sides have degree <= m + n in H and in S0, so agreeing on an
        # (m+n+1) x (m+n+1) grid makes them the same polynomial
        ratio = FrequencyRatio(m, n)
        terms = commutator_polynomial(ratio).terms
        assert max(max(i, j) for (i, j), _ in terms) <= m + n
        grid = [Fraction(2 * k - m - n, 3) for k in range(m + n + 1)]
        for h in grid:
            h_powers = [h**i for i in range(m + n + 1)]
            for s0 in grid:
                s0_powers = [s0**j for j in range(m + n + 1)]
                expected = _ladder_product(ratio, h, s0 + 1) - _ladder_product(ratio, h, s0)
                assert sum(c * h_powers[i] * s0_powers[j] for (i, j), c in terms) == expected

    @settings(deadline=None, max_examples=60)
    @given(
        ratio=st.sampled_from(coprime_pairs(5) + [(4, 7)]),
        h=SMALL_FRACTIONS,
        s0=SMALL_FRACTIONS,
        count=st.integers(0, 12),
    )
    def test_values_along_the_irrep_match_call(self, ratio, h, s0, count):
        ratio = FrequencyRatio(*ratio)
        poly = commutator_polynomial(ratio)
        numerators, denominator = poly._scaled_values(h, s0, count)
        values = [Fraction(v, denominator) for v in numerators]
        assert values == [poly(h, s0 + k) for k in range(count)]
        assert values == [
            _ladder_product(ratio, h, s0 + k + 1) - _ladder_product(ratio, h, s0 + k)
            for k in range(count)
        ]

    @settings(deadline=None)
    @given(n=st.integers(1, 7), q=st.integers(1, 7), big_n=st.integers(0, 14))
    def test_parafermionic_values_match_fraction_horner(self, n, q, big_n):
        sf = StructureFunction(IrrepLabel(big_n, 1, min(q, n)), FrequencyRatio(1, n))
        form = parafermionic_decompose(sf)
        assert form.values == tuple(
            fraction_horner(form.coefficients, Fraction(x)) for x in range(1, big_n + 1)
        )
        # and x (N+1-x) P(x) is Phi at points off the irrep
        for x in (Fraction(-7, 3), Fraction(1, 2), Fraction(big_n + 5)):
            assert x * (big_n + 1 - x) * fraction_horner(form.coefficients, x) == sf(x)
