import functools
import gc
import importlib
import inspect
import math
import pkgutil
import re
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import deformed_u2
from deformed_u2 import representation, structure
from deformed_u2 import (
    CommutatorPolynomial,
    FrequencyRatio,
    IrrepLabel,
    NotDivisibleError,
    StructureFunction,
    build_irrep,
    commutator_polynomial,
    energy_of_irrep,
    parafermionic_decompose,
    u_constant,
)
from deformed_u2.structure import _ladder_factors, _ladder_identity, _phi_denominator
from gamma_form import gamma_value
from irrep_columns import all_labels, column_labels, columns_of, coprime_pairs, stack_labels
from ladder_reference import expanded_ladder_identity

H, S0, X = sympy.symbols("H S0 x")


def small_fractions(bound, max_denominator):
    """Fractions v with |v| < bound and a denominator <= max_denominator.  The draw is
    bounded to [-bound, bound], so the filter rejects only the two endpoints; filtering an
    unbounded draw to |v| < bound rejects so many that hypothesis can fail its health check."""
    return st.fractions(-bound, bound, max_denominator=max_denominator).filter(
        lambda v: abs(v) < bound
    )


SMALL_FRACTIONS = small_fractions(40, 50)


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
            assert energy_of_irrep(label, ratio) == energy_closed(big_n)
            for x in range(big_n + 2):
                assert sf(x) == phi_closed(big_n, Fraction(x))

    def test_product_and_gamma_forms_agree(self):
        # sf(x) (integer evaluation of F's factor table) against F
        # multiplied out in Fractions and against the Gamma-quotient form
        rationals = [Fraction(1, 7), Fraction(9, 4), Fraction(-5, 3), Fraction(13, 2)]
        for m, n in coprime_pairs(6):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                sf = StructureFunction(label, ratio)
                energy, u = energy_of_irrep(label, ratio), u_constant(label, ratio)
                for x in [*range(-3, 12), *rationals]:
                    value = sf(x)
                    assert value == _ladder_product(ratio, energy, u + x)
                    assert value == gamma_value(label, ratio, x)

    @settings(deadline=None, max_examples=80)
    @given(
        ratio=st.sampled_from(coprime_pairs(6)),
        big_n=st.integers(0, 6),
        x=small_fractions(30, 60),
        data=st.data(),
    )
    def test_phi_at_rational_arguments(self, ratio, big_n, x, data):
        m, n = ratio
        p, q = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
        label, ratio = IrrepLabel(big_n, p, q), FrequencyRatio(m, n)
        value = StructureFunction(label, ratio)(x)
        energy, u = energy_of_irrep(label, ratio), u_constant(label, ratio)
        assert value == _ladder_product(ratio, energy, u + x)
        assert value == gamma_value(label, ratio, x)

    def test_boundary_and_positivity(self):
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 10):
                values = build_irrep(label, ratio).phi
                assert values[0] == 0
                assert values[-1] == 0
                assert all(v > 0 for v in values[1:-1])

    def test_rejects_label_outside_ratio(self):
        with pytest.raises(ValueError):
            StructureFunction(IrrepLabel(2, 2, 1), FrequencyRatio(1, 2))

    @pytest.mark.parametrize("ratios,n_top", [(coprime_pairs(7), 12), ([(11, 13)], 4),
                                              ([(40, 41)], 1), ([(1, 300)], 2)],
                             ids=["m,n<=7", "11:13", "40:41", "1:300"])
    def test_numerators_are_an_exact_division(self, ratios, n_top):
        # P_k = D Phi(k) is F's integer product over (4mn)^(m+n) / D with no
        # remainder, and equals the Gamma-quotient form times D; the sweep's
        # X_p(k) Y_q(N-k) split gives each record the table of a lone record
        for m, n in ratios:
            ratio = FrequencyRatio(m, n)
            denominator = _phi_denominator(ratio)
            divisor = (4 * m * n) ** (m + n) // denominator
            assert divisor * denominator == (4 * m * n) ** (m + n)
            records = [StructureFunction(label, ratio) for label in all_labels(m, n, n_top)]
            tables = structure._phi_numerators(ratio, *columns_of(sf.label for sf in records))
            for sf, table in zip(records, tables, strict=True):
                assert len(sf.numerators) == sf.label.N + 2
                assert table == sf.numerators, sf.label
                for k, numerator in enumerate(sf.numerators):
                    assert divmod(sf._product(k, 1), divisor) == (numerator, 0), (sf.label, k)
                    assert gamma_value(sf.label, ratio, k) * denominator == numerator, (sf.label, k)

    def test_values_do_not_keep_the_instance_alive(self):
        sf = StructureFunction(IrrepLabel(5, 2, 1), FrequencyRatio(2, 3))
        assert sf.numerators == tuple(sf(k) * _phi_denominator(sf.ratio) for k in range(7))
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


def sweep_labels(m, n, n_top):
    return FrequencyRatio(m, n), list(all_labels(m, n, n_top))


class TestSweepSplit:
    """The stack of a sweep, whose Phi tables are X_p(k) Y_q(N-k) // divisor, against lone
    records and per-entry quotients; the tables made once, and only as far as they are read.
    `TestStructureFunction.test_numerators_are_an_exact_division` holds each table to F's
    product and the Gamma form."""

    # every coprime m, n <= 7 at N <= 8, and two ratios whose Phi entries have 81 and 301 factors
    @pytest.mark.parametrize("ratios,n_top", [(coprime_pairs(7), 8), ([(40, 41)], 1),
                                              ([(1, 300)], 2)], ids=["m,n<=7", "40:41", "1:300"])
    def test_the_stack_matches_lone_records_and_per_entry_quotients(self, ratios, n_top):
        for m, n in ratios:
            ratio, labels = sweep_labels(m, n, n_top)
            stack = representation._build_stack(ratio, *columns_of(labels))
            scale, denominator = 4 * m * n, _phi_denominator(ratio)
            assert stack_labels(stack) == labels
            for i, label in enumerate(labels):
                lone, dim = StructureFunction(label, ratio), label.N + 1
                assert stack.numerators[i] == lone.numerators
                u, energy = u_constant(label, ratio), energy_of_irrep(label, ratio)
                assert (stack.scaled_u[i], stack.energy_keys[i]) == (u * scale,
                                                                     energy * scale // 2)
                assert all(type(v) is int for v in (stack.scaled_u[i], stack.energy_keys[i]))
                scaled_u = u * scale
                assert scaled_u.denominator == 1
                rows = {
                    "s0": [(scaled_u.numerator + scale * k) / scale for k in range(dim)],
                    "s_plus": [math.sqrt(v / denominator) for v in lone.numerators[1:-1]],
                    "h": [float(energy)] * dim,
                }
                for key, expected in rows.items():
                    row = getattr(stack, f"{key}_band")[i]
                    expected += [0.0] * (row.shape[0] - len(expected))  # the padding
                    assert [v.hex() for v in row] == [v.hex() for v in expected], (label, key)

    @pytest.fixture
    def calls(self, monkeypatch):
        """One entry per `structure.prod` call: per X_p(k) or Y_q(j) computed."""
        calls = []

        def counting_prod(factors):
            calls.append(None)
            return math.prod(factors)

        monkeypatch.setattr(structure, "prod", counting_prod)
        return calls

    def test_each_table_entry_is_computed_once(self, calls):
        # a sweep computes X_p(k), k = 0..N_max+1, and Y_q(j), j = -1..N_max, once each;
        # a lone record computes the N+2 entries of its one X_p and one Y_q
        ratio, labels = sweep_labels(2, 3, 6)
        tables = list(structure._phi_numerators(ratio, *columns_of(labels)))
        assert len(calls) == (2 + 3) * (6 + 2)
        calls.clear()
        assert StructureFunction(IrrepLabel(6, 2, 1), ratio).numerators == tables[-3]
        assert len(calls) == 2 * (6 + 2)

    def test_the_first_overflow_stops_the_tables(self, calls, monkeypatch):
        # at 1:300 Phi(1) of (N=11, p=1, q=48) is the first, in sweep order, beyond float
        # range; no table entry past that irrep's is computed: X_1(0..12), Y_q(-1..10) for
        # every q and Y_q(11) for q <= 48
        ratio, labels = sweep_labels(1, 300, 20)
        yielded, numerators = [], representation._phi_numerators

        def recording_numerators(ratio, *columns):
            for label, table in zip(column_labels(*columns), numerators(ratio, *columns)):
                yielded.append(label)
                yield table

        monkeypatch.setattr(representation, "_phi_numerators", recording_numerators)
        with pytest.raises(ArithmeticError, match=re.escape(
                "Phi(1) of (N=11, p=1, q=48) of the 1:300 oscillator is about 1e308, beyond "
                "float range: the S+ entry sqrt(Phi(1)) cannot be a float")):
            representation._build_stack(ratio, *columns_of(labels))
        assert len(calls) == 13 + 300 * 12 + 48
        reached = 300 * 11 + 48
        assert yielded == labels[:reached]


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

    @given(ratio=st.sampled_from(coprime_pairs(7)), big_n=st.integers(0, 10**6), data=st.data())
    def test_is_the_three_fraction_form(self, ratio, big_n, data):
        m, n = ratio
        p, q = data.draw(st.integers(1, m)), data.draw(st.integers(1, n))
        u = u_constant(IrrepLabel(big_n, p, q), FrequencyRatio(m, n))
        assert u == (Fraction(2 * p - 1, 2 * m) - Fraction(2 * q - 1, 2 * n) - big_n) / 2


class TestCommutatorPolynomial:
    def test_isotropic_is_plain_u2(self):
        poly = commutator_polynomial(FrequencyRatio(1, 1))
        assert dict(poly.terms) == {(0, 1): Fraction(-2)}

    def test_one_two_polynomial(self):
        poly = commutator_polynomial(FrequencyRatio(1, 2))
        assert dict(poly.terms) == {
            (0, 2): Fraction(3),
            (1, 1): Fraction(-1),
            (2, 0): Fraction(-1, 4),
            (0, 0): Fraction(3, 16),
        }

    def test_one_three_polynomial(self):
        poly = commutator_polynomial(FrequencyRatio(1, 3))
        assert dict(poly.terms) == {
            (0, 3): Fraction(-4),
            (1, 2): Fraction(3),
            (0, 1): Fraction(-7, 9),
            (3, 0): Fraction(-1, 4),
            (1, 0): Fraction(1, 4),
        }

    def test_degree_in_s0(self):
        for m, n in coprime_pairs(5):
            assert commutator_polynomial(FrequencyRatio(m, n)).degree_in_s0 == m + n - 1

    def test_degrees_are_read_once(self, monkeypatch):
        # no degree or value reads the expansion: each is read off the factor table, and the
        # factor kernel's values are those of the expanded terms
        source = commutator_polynomial(FrequencyRatio(2, 3))
        h, s0 = Fraction(7, 2), Fraction(-1, 3)
        expected = [sum(c * h**i * (s0 + k) ** j for (i, j), c in source.terms) for k in range(4)]

        def no_expansion(poly):
            raise AssertionError("the commutator was expanded")

        monkeypatch.setattr(CommutatorPolynomial, "_expansion", property(no_expansion))
        poly = CommutatorPolynomial(source.ratio, source.factors)
        numerators, denominator = poly._differences(h, s0, 4)
        assert [Fraction(v, denominator) for v in numerators] == expected
        assert poly(h, s0) == expected[0]
        assert poly.degree_in_s0 == 4
        with pytest.raises(AssertionError, match="expanded"):
            str(poly)

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
                u = u_constant(label, ratio)
                for k in range(label.N + 1):
                    assert sf(k + 1) - sf(k) == poly(energy, u + k)

    def test_ladder_identity_holds_and_fails_one_coefficient_off(self):
        # the factor-list proof holds on every table `commutator_polynomial` builds, and its
        # verdict on each mutant of the first and last rows (one offset off, the sigma
        # flipped, the row dropped or duplicated) is the expanded identity's: false.  40:41
        # is not mutated: each mutant's two expansions of 81 factors take 70 ms
        wide = commutator_polynomial(FrequencyRatio(40, 41))
        assert _ladder_identity(wide)
        assert expanded_ladder_identity(wide.ratio, wide.numerators, wide.denominator)
        for m, n in coprime_pairs(7) + [(1, 60), (60, 1), (13, 17)]:
            poly = commutator_polynomial(FrequencyRatio(m, n))
            assert _ladder_identity(poly), (m, n)
            assert expanded_ladder_identity(poly.ratio, poly.numerators, poly.denominator)
            table = list(poly.factors)
            for t in (0, len(table) - 1):
                (sigma, offset), before, after = table[t], table[:t], table[t + 1:]
                mutants = [before + [row] + after
                           for row in ((sigma, offset - 1), (sigma, offset + 1), (-sigma, offset))]
                mutants += [before + after, table + [table[t]]]
                for factors in mutants:
                    mutant = CommutatorPolynomial(poly.ratio, tuple(factors))
                    assert not _ladder_identity(mutant), (m, n, factors)
                    assert not expanded_ladder_identity(mutant.ratio, mutant.numerators,
                                                        mutant.denominator), (m, n, factors)

    def test_ladder_identity_is_sufficient_not_necessary(self):
        # at 1:1 both offsets moved by one change F by H/2 + a constant and leave the
        # difference -2 S0: the expanded identity holds, the factor lists differ, so the
        # proof refuses and a sweep takes the evaluation route, which passes
        ratio = FrequencyRatio(1, 1)
        moved = CommutatorPolynomial(ratio, tuple((sigma, offset + 1)
                                                  for sigma, offset in _ladder_factors(ratio)))
        assert str(moved) == "-2*S0"
        assert expanded_ladder_identity(ratio, moved.numerators, moved.denominator)
        assert not _ladder_identity(moved)

    def test_w32_relation_is_exact(self):
        # (4/3) [S-, S+] = H_W^2 + C_W on 1:2, with H_W = -2 S0 + H/3 and
        # C_W = -(4/9) H^2 + 1/4; times 36, the right side is (2H - 12 S0)^2 - 16 H^2 + 9,
        # that is -12 H^2 - 48 H S0 + 144 S0^2 + 9
        poly = commutator_polynomial(FrequencyRatio(1, 2))
        right = {(i, j): c * poly.denominator
                 for (i, j), c in {(2, 0): -12, (1, 1): -48, (0, 2): 144, (0, 0): 9}.items()}
        assert {(i, j): 48 * a for i, j, a in poly.numerators} == right


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
        with pytest.raises(NotDivisibleError, match=re.escape(
                "parafermionic form applies to 1:n ratios only, got 2:3")):
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
        with pytest.raises(NotDivisibleError, match=re.escape(
                "x (N+1-x) does not divide the structure function of (N=3, p=1, q=2)")):
            parafermionic_decompose(sf)

    def test_splits_the_gamma_form_on_every_one_to_n_irrep(self):
        # x (N+1-x) P(x) is Phi(x) of the Gamma form, which reads no factor table
        for n in range(1, 8):
            for label in all_labels(1, n, 12):
                sf = StructureFunction(label, FrequencyRatio(1, n))
                form = parafermionic_decompose(sf)
                assert [x * (label.N + 1 - x) * value for x, value in enumerate(form.values, 1)] \
                    == [gamma_value(label, sf.ratio, x) for x in range(1, label.N + 1)], label
                assert form.positive, label

    # the 1:3 irrep (6, 1, 2)'s cofactor P(x) = (20/3 - x)(22/3 - x) is read off the two rows
    # of its factor table other than x and N+1-x; each case moves the offsets of those two rows
    @pytest.mark.parametrize("offsets, positive", [
        pytest.param((80, 88), True, id="unchanged"),
        pytest.param((36, 36), False, id="zero-at-3-only"),
        pytest.param((42, 88), False, id="negative-from-4"),
        pytest.param((42, 42), True, id="two-negatives"),
        pytest.param((0, 88), False, id="negative-everywhere"),
    ])
    def test_sign_of_a_mutated_table(self, offsets, positive):
        sf = StructureFunction(IrrepLabel(6, 1, 2), FrequencyRatio(1, 3))
        table = sf._scaled_factors
        rest = [i for i, row in enumerate(table) if row not in ((1, 0), (-1, 4 * 3 * 7))]
        assert [table[i] for i in rest] == [(-1, 80), (-1, 88)]
        mutated = list(table)
        for i, offset in zip(rest, offsets):
            mutated[i] = (-1, offset)
        sf.__dict__["_scaled_factors"] = tuple(mutated)
        assert parafermionic_decompose(sf).positive == positive

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
        assert dict(poly.terms) == {
            (int(i), int(j)): Fraction(int(c.p), int(c.q))
            for (i, j), c in expected_poly.terms()
        }
        assert poly.degree_in_s0 == expected_poly.degree(S0) == m + n - 1
        assert str(poly) == str(expected) == str(sympy_poly(dict(poly.terms), H, S0).as_expr())
        assert sympy_poly(dict(poly.terms), H, S0) == expected_poly

    @settings(deadline=None, max_examples=60)
    @given(
        ratio=st.sampled_from(coprime_pairs(5) + [(4, 7)]),
        h=SMALL_FRACTIONS,
        s0=SMALL_FRACTIONS,
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
            energy, u = energy_of_irrep(label, ratio), u_constant(label, ratio)
            phi = sympy.expand(_ladder_product(ratio, energy, u + X))
            base = sympy.Poly(X * (label.N + 1 - X), X, domain="QQ")
            quotient, remainder = sympy.div(sympy.Poly(phi, X, domain="QQ"), base)
            assert remainder.is_zero
            form = parafermionic_decompose(sf)
            assert poly_in_x(form.coefficients) == quotient
            assert form.values == tuple(
                Fraction(str(quotient.eval(k))) for k in range(1, label.N + 1)
            )


# every integer kernel against the `Fraction` expression it replaced
def fraction_horner(coefficients, x):
    value = Fraction(0)
    for c in reversed(coefficients):
        value = value * x + c
    return value


class TestIntegerKernels:
    @pytest.mark.parametrize("m,n", [(1, 1), (4, 7), (11, 13), (1, 20), (13, 4)],
                             ids=lambda v: str(v))
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
        numerators, denominator = poly._differences(h, s0, count)
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
