import dataclasses
import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_u2 import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    StructureFunction,
    angular_eigenvalues,
    build_irrep,
    build_l0,
    certify_eigenvalues,
    exact_hints,
    irrep_members,
)
from deformed_u2 import angular
from deformed_u2.angular import _count_above, _p_value, _sturm_counter
from deformed_u2.structure import _phi_denominator
from deformed_u2.suite import EIGEN_TOL


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


def p_value(label, ratio, s):
    numerators = StructureFunction(label, ratio).numerators
    return _p_value(numerators, _phi_denominator(ratio), Fraction(s))


S_POINTS = [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(5, 7), Fraction(4)]


class TestCharacteristicP:
    """P(s), with G_{N+1}(l) = l^((N+1) mod 2) P(l^2), on the recurrence."""

    def test_isotropic_p(self):
        # Phi(1) = 1 at N=1, so G_2 = l^2 - 1 and P(s) = s - 1, l = +-1
        for s in S_POINTS:
            assert p_value(IrrepLabel(1, 1, 1), FrequencyRatio(1, 1), s) == s - 1

    def test_1_2_p_for_both_q(self):
        # q=1: Phi(1) = 1/2, P(s) = s - 1/2, l = +-sqrt(1/2);
        # q=2: Phi(1) = 3/2, P(s) = s - 3/2, l = +-sqrt(3/2)
        ratio = FrequencyRatio(1, 2)
        for s in S_POINTS:
            assert p_value(IrrepLabel(1, 1, 1), ratio, s) == s - Fraction(1, 2)
            assert p_value(IrrepLabel(1, 1, 2), ratio, s) == s - Fraction(3, 2)

    def test_matches_sympy_charpoly(self):
        # The rational tridiagonal with superdiagonal 1 and subdiagonal Phi(k)
        # has the characteristic polynomial of T, with no surds.  Agreement
        # at N + 2 points pins the whole polynomial of degree N + 1.
        ell = sympy.Symbol("l")
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            denominator = _phi_denominator(ratio)
            for label in all_labels(m, n, 6):
                numerators = StructureFunction(label, ratio).numerators
                size = label.N + 1
                t = sympy.zeros(size, size)
                for k in range(1, size):
                    t[k - 1, k] = 1
                    t[k, k - 1] = sympy.Rational(numerators[k], denominator)
                charpoly = t.charpoly(ell)
                for j in range(size + 1):
                    point = Fraction(j, 3) - 1
                    expected = charpoly.eval(sympy.Rational(point.numerator, point.denominator))
                    value = point ** (size % 2) * _p_value(numerators, denominator, point**2)
                    assert value == Fraction(int(expected.p), int(expected.q)), (label, point)


def g_value(phi, k, ell):
    """G_k(l) = l^(k mod 2) R_k(l^2), with R_k from the first k + 1 values of Phi.

    The `Fraction`s of Phi are passed as numerators over the denominator 1.
    """
    return ell ** (k % 2) * _p_value(phi[: k + 1], 1, ell**2)


def g_unreduced(phi, ell):
    """G_0(l) .. G_{N+1}(l) on G_{k+1} = l G_k - Phi(k) G_{k-1}, straight in l."""
    values = [Fraction(1)]
    previous = Fraction(0)
    for phi_k in phi[:-1]:
        previous, current = values[-1], ell * values[-1] - phi_k * previous
        values.append(current)
    return values


class TestHermiteSequence:
    """G_k(l) = H_k(l / sqrt 2) / 2^(k/2), the generalized Hermite sequence of L0."""

    def test_first_polynomial_is_2x(self):
        # G_1(l) = l, the H_1(x) = 2x of the Hermite normalisation
        for m, n, big_n in [(1, 1, 0), (1, 2, 3), (2, 3, 2)]:
            phi = build_irrep(IrrepLabel(big_n, 1, 1), FrequencyRatio(m, n)).phi
            for ell in S_POINTS:
                assert g_value(phi, 1, ell) == ell

    def test_recurrence_and_degree(self):
        ratio = FrequencyRatio(2, 3)
        label = IrrepLabel(4, 2, 2)
        phi = build_irrep(label, ratio).phi
        x = Fraction(5, 7)
        for k in range(1, label.N + 1):
            assert g_value(phi, k + 1, x) == x * g_value(phi, k, x) - phi[k] * g_value(
                phi, k - 1, x
            )
        for k in range(label.N + 2):
            # G_k is monic of degree k: its k-th unit-step difference is k!,
            # its (k+1)-th is 0
            row = [g_value(phi, k, Fraction(j)) for j in range(k + 2)]
            for _ in range(k):
                row = [b - a for a, b in zip(row, row[1:])]
            assert row[0] == row[1] == math.factorial(k)

    def test_parity_is_exact(self):
        # the recurrence straight in l leaves only powers of l of the parity
        # of k, which is the reduced form l^(k mod 2) R_k(l^2)
        points = [Fraction(-5, 3), Fraction(1, 2), Fraction(7, 4)]
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                phi = build_irrep(label, ratio).phi
                for ell in points:
                    plus, minus = g_unreduced(phi, ell), g_unreduced(phi, -ell)
                    for k, value in enumerate(plus):
                        assert minus[k] == (-1) ** k * value, (label, k)
                        assert value == g_value(phi, k, ell), (label, k)

    def test_characteristic_coefficients_satisfy_shifted_recurrence(self):
        # G_{k+1}(l) = l G_k(l) - Phi(k) G_{k-1}(l), exactly
        ratio = FrequencyRatio(1, 2)
        label = IrrepLabel(5, 1, 2)
        phi = build_irrep(label, ratio).phi
        ell = Fraction(3, 4)
        g = [g_value(phi, k, ell) for k in range(label.N + 2)]
        for k in range(1, label.N + 1):
            assert g[k + 1] == ell * g[k] - phi[k] * g[k - 1]


WORKED_1_2_SPECTRA = [
    (1, 1, [-1 / math.sqrt(2), 1 / math.sqrt(2)]),
    (1, 2, [-math.sqrt(1.5), math.sqrt(1.5)]),
    (2, 1, [-2.0, 0.0, 2.0]),
    (2, 2, [-math.sqrt(8.0), 0.0, math.sqrt(8.0)]),
]


class TestEigenvalues:
    def test_single_state_irrep(self):
        spec = angular_eigenvalues(IrrepLabel(0, 1, 2), FrequencyRatio(1, 2))
        assert spec.eigenvalues == (0.0,)
        assert spec.markers == (0,)

    @pytest.mark.parametrize("big_n,q,expected", WORKED_1_2_SPECTRA)
    def test_worked_1_2_spectra(self, big_n, q, expected):
        spec = angular_eigenvalues(IrrepLabel(big_n, 1, q), FrequencyRatio(1, 2))
        assert np.max(np.abs(np.array(spec.eigenvalues) - expected)) <= 1e-10

    def test_isotropic_integer_ladder(self):
        ratio = FrequencyRatio(1, 1)
        for big_n in range(9):
            spec = angular_eigenvalues(IrrepLabel(big_n, 1, 1), ratio)
            expected = np.arange(-big_n, big_n + 1, 2, dtype=float)
            assert np.max(np.abs(np.array(spec.eigenvalues) - expected)) <= 1e-12

    def test_symmetry_and_zero_middle(self):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 8):
                values = np.array(angular_eigenvalues(label, ratio).eigenvalues)
                assert np.max(np.abs(values + values[::-1])) <= 1e-10
                if label.N % 2 == 0:
                    assert values[label.N // 2] == 0.0

    def test_markers_step_two(self):
        spec = angular_eigenvalues(IrrepLabel(3, 1, 1), FrequencyRatio(1, 2))
        assert spec.markers == (-3, -1, 1, 3)


class TestEigenvectors:
    def test_isotropic_n1_pair(self):
        # l = -1 gives (|01> + i|10>)/sqrt(2); l = +1 flips the phase sign
        ratio = FrequencyRatio(1, 1)
        label = IrrepLabel(1, 1, 1)
        spec = angular_eigenvalues(label, ratio)
        assert spec.amplitudes[0, 0] == pytest.approx(1 / math.sqrt(2))
        assert spec.amplitudes[1, 0] == pytest.approx(1j / math.sqrt(2))
        assert spec.cartesian[0] == CartesianState(0, 1)
        assert spec.cartesian[1] == CartesianState(1, 0)
        assert spec.amplitudes[1, 1] == pytest.approx(-1j / math.sqrt(2))

    def test_1_2_zero_eigenvector(self):
        # (1/2)|0,4> + (sqrt(3)/2)|2,0>, no |1,2> component
        spec = angular_eigenvalues(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        states = list(spec.cartesian)
        assert states == [CartesianState(0, 4), CartesianState(1, 2), CartesianState(2, 0)]
        amplitudes = spec.amplitudes[:, 1]
        assert amplitudes[0] == pytest.approx(0.5, abs=1e-9)
        assert amplitudes[1] == pytest.approx(0.0, abs=1e-9)
        assert amplitudes[2] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_1_2_negative_sqrt8_eigenvector(self):
        # (sqrt(5)/4)|0,5> + (i/sqrt(2))|1,3> - (sqrt(3)/4)|2,1>
        amplitudes = angular_eigenvalues(IrrepLabel(2, 1, 2), FrequencyRatio(1, 2)).amplitudes[:, 0]
        assert amplitudes[0] == pytest.approx(math.sqrt(5) / 4, abs=1e-9)
        assert amplitudes[1] == pytest.approx(1j / math.sqrt(2), abs=1e-9)
        assert amplitudes[2] == pytest.approx(-math.sqrt(3) / 4, abs=1e-9)

    def test_1_2_minus_two_eigenvector(self):
        # sqrt(3/8)|0,4> + (i/sqrt(2))|1,2> - (1/sqrt(8))|2,0>
        amplitudes = angular_eigenvalues(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2)).amplitudes[:, 0]
        assert amplitudes[0] == pytest.approx(math.sqrt(3 / 8), abs=1e-9)
        assert amplitudes[1] == pytest.approx(1j / math.sqrt(2), abs=1e-9)
        assert amplitudes[2] == pytest.approx(-1 / math.sqrt(8), abs=1e-9)

    def test_coefficient_conventions(self):
        ratio = FrequencyRatio(2, 3)
        label = IrrepLabel(4, 2, 1)
        # [0]!, ..., [N]! with [k]! = Phi(k) [k-1]!
        phi = build_irrep(label, ratio).phi
        facts = [float(f) for f in accumulate(phi[1:-1], operator.mul, initial=Fraction(1))]
        spec = angular_eigenvalues(label, ratio)
        for coefficients, amplitudes in zip(spec.coefficients.T, spec.amplitudes.T):
            assert coefficients[0] > 0
            total = sum(c * c / f for c, f in zip(coefficients, facts))
            assert total == pytest.approx(1.0, abs=1e-12)
            # amplitudes are i^k c_k / sqrt([k]!)
            for k, amp in enumerate(amplitudes):
                expected = (1j) ** k * coefficients[k] / math.sqrt(facts[k])
                assert amp == pytest.approx(expected, abs=1e-12)

    def test_residuals_and_orthonormality(self):
        for m, n in coprime_pairs(3):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                l0 = build_l0(build_irrep(label, ratio))
                spec = angular_eigenvalues(label, ratio)
                basis = spec.amplitudes
                for value, column, residual in zip(spec.eigenvalues, basis.T, spec.residuals):
                    assert (
                        np.max(np.abs(l0 @ column - value * column)) <= 1e-9
                    )
                    assert residual <= 1e-9
                gram = basis.conj().T @ basis
                assert np.max(np.abs(gram - np.eye(label.dimension))) <= 1e-9

    def test_symmetry_residual_sees_nan(self):
        spec = angular_eigenvalues(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        assert spec.symmetry_residual == 0.0
        broken = dataclasses.replace(spec, eigenvalues=(math.nan, *spec.eigenvalues[1:]))
        assert math.isnan(broken.symmetry_residual)

    def test_spectrum_carries_the_same_vectors(self):
        ratio = FrequencyRatio(2, 3)
        spec = angular_eigenvalues(IrrepLabel(5, 2, 3), ratio)
        # one column, and one residual, per eigenvalue
        assert spec.components.shape == (spec.label.dimension, len(spec.eigenvalues))
        assert len(spec.residuals) == len(spec.eigenvalues)
        # a second solve returns the same vectors
        again = angular_eigenvalues(spec.label, ratio)
        assert again.eigenvalues == spec.eigenvalues
        assert np.array_equal(again.components, spec.components)
        assert again.residuals == spec.residuals

    def test_derived_views_of_the_components(self):
        ratio = FrequencyRatio(2, 3)
        label = IrrepLabel(5, 2, 3)
        members = irrep_members(label, ratio)
        phases = [(-1j) ** k for k in range(label.dimension)]
        spec = angular_eigenvalues(label, ratio)
        for amplitudes, components in zip(spec.amplitudes.T, spec.components.T):
            assert tuple(amplitudes) == tuple(p * w for p, w in zip(phases, components))
        assert spec.cartesian == members

    def test_views_match_each_element_bit_for_bit(self):
        # one broadcast per view gives, bit for bit and with the sign of every
        # zero, the per-element products (-i)^(k mod 4) w_k and signed_k w_k
        zeros = 0
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 8):
                spec = angular_eigenvalues(label, ratio)
                signed = [1.0]
                for v in build_irrep(label, ratio).phi[1:-1]:
                    signed.append(signed[-1] * -math.sqrt(float(v)))
                for i, components in enumerate(spec.components.T.tolist()):
                    zeros += components.count(0.0)
                    amplitudes = spec.amplitudes[:, i].tolist()
                    assert [(float.hex(a.real), float.hex(a.imag)) for a in amplitudes] == [
                        (float.hex(a.real), float.hex(a.imag))
                        for a in (angular._PHASES[k % 4] * w for k, w in enumerate(components))
                    ], (label, ratio, i)
                    assert [float.hex(c) for c in spec.coefficients[:, i].tolist()] == [
                        float.hex(s * w) for s, w in zip(signed, components)
                    ], (label, ratio, i)
        # the zero-eigenvalue vectors of even-N irreps have exact-zero components
        assert zeros > 0

    def test_coefficients_derive_the_offdiagonals_once(self, monkeypatch):
        calls = Counter()
        offdiagonals = angular._offdiagonals

        def counting_offdiagonals(record):
            calls[record.ratio, record.numerators] += 1
            return offdiagonals(record)

        monkeypatch.setattr(angular, "_offdiagonals", counting_offdiagonals)
        label, ratio = IrrepLabel(6, 2, 3), FrequencyRatio(2, 3)
        spec = angular_eigenvalues(label, ratio)
        table = StructureFunction(label, ratio).numerators
        assert calls == {(ratio, table): 1}  # the eigensolve
        assert spec.coefficients.shape == (7, 7)
        assert spec.coefficients is spec.coefficients
        assert calls == {(ratio, table): 2}

    @pytest.mark.parametrize("m,n,big_n", [(1, 2, 40), (2, 3, 30)])
    def test_large_n_residuals_and_orthonormality(self, m, n, big_n):
        ratio = FrequencyRatio(m, n)
        for p in range(1, m + 1):
            for q in range(1, n + 1):
                label = IrrepLabel(big_n, p, q)
                spec = angular_eigenvalues(label, ratio)
                l0 = build_l0(build_irrep(label, ratio))
                basis = spec.amplitudes
                assert spec.max_residual <= 1e-11
                assert np.max(np.abs(l0 @ basis - basis * spec.eigenvalues)) <= 1e-11
                gram = basis.conj().T @ basis
                assert np.max(np.abs(gram - np.eye(label.dimension))) <= 1e-13

    @pytest.mark.parametrize("m,n,big_n", [(1, 2, 18), (3, 5, 8)])
    def test_amplitudes_match_high_precision_reference(self, m, n, big_n):
        ratio = FrequencyRatio(m, n)
        with mpmath.workdps(50):
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    label = IrrepLabel(big_n, p, q)
                    phi = build_irrep(label, ratio).phi
                    t = mpmath.zeros(big_n + 1)
                    for k in range(big_n):
                        v = phi[k + 1]
                        t[k, k + 1] = t[k + 1, k] = mpmath.sqrt(
                            mpmath.mpf(v.numerator) / v.denominator
                        )
                    values, vectors = mpmath.eigsy(t)
                    order = sorted(range(big_n + 1), key=lambda i: values[i])
                    spec = angular_eigenvalues(label, ratio)
                    for amplitudes, i in zip(spec.amplitudes.T, order):
                        sign = 1 if vectors[0, i] > 0 else -1
                        for k, amp in enumerate(amplitudes):
                            expected = (-1j) ** k * float(sign * vectors[k, i])
                            assert abs(amp - expected) <= 1e-13, (label, i, k)

    def test_overflowing_coefficient_raises(self):
        spec = angular_eigenvalues(IrrepLabel(60, 2, 3), FrequencyRatio(3, 5))
        with pytest.raises(ArithmeticError, match=r"c_\d+ .*\(N=60, p=2, q=3\)"):
            spec.coefficients

    def test_eigenpairs_do_not_read_the_coefficients(self):
        # sqrt([57]!) overflows a float here; only reading c_k raises
        spec = angular_eigenvalues(IrrepLabel(57, 3, 4), FrequencyRatio(3, 5))
        assert spec.max_residual <= 1e-9
        with pytest.raises(ArithmeticError, match=r"c_57 of L0 on \(N=57, p=3, q=4\) of the 3:5"):
            spec.coefficients

    def test_a_stacked_solve_names_the_first_irrep_that_fails(self):
        # an all-zero Phi table gives T = 0, whose eigenvalues are not separated
        ratio = FrequencyRatio(3, 5)
        labels = [IrrepLabel(2, p, q) for p in range(1, 4) for q in range(1, 6)]
        functions = [StructureFunction(label, ratio) for label in labels]
        for i in (3, 9):
            functions[i].__dict__["numerators"] = (0, 0, 0, 0)
        offdiag = np.array([angular._offdiagonals(f) for f in functions])
        with pytest.raises(ArithmeticError, match=r"eigenvalues of \(N=2, p=1, q=4\) not"):
            angular._eigensolve(functions, offdiag)

    def test_underflowing_first_component_raises(self):
        # w_0 of two eigenvectors underflows to 0.0, so w_0 > 0 cannot sign them
        with pytest.raises(
            ArithmeticError,
            match=r"eigenvector \d+ of L0 on \(N=1000, p=1, q=1\) of the 1:2 oscillator "
            r"has w_0 == 0.0",
        ):
            angular_eigenvalues(IrrepLabel(1000, 1, 1), FrequencyRatio(1, 2))


class TestExactHints:
    @pytest.mark.parametrize(
        "m,n,label,expected",
        [
            (1, 1, IrrepLabel(4, 1, 1), ["-4", "-2", "0", "2", "4"]),
            (1, 2, IrrepLabel(2, 1, 2), ["-sqrt(8)", "0", "sqrt(8)"]),
            (1, 2, IrrepLabel(1, 1, 1), ["-sqrt(1/2)", "sqrt(1/2)"]),
            (1, 2, IrrepLabel(1, 1, 2), ["-sqrt(3/2)", "sqrt(3/2)"]),
            (1, 1, IrrepLabel(1, 1, 1), ["-1", "1"]),
        ],
    )
    def test_closed_forms(self, m, n, label, expected):
        ratio = FrequencyRatio(m, n)
        assert list(exact_hints(angular_eigenvalues(label, ratio))) == expected

    @pytest.mark.parametrize(
        "m,n,label,value",
        [
            (3, 5, IrrepLabel(3, 2, 3), -21.4331),
            (2, 3, IrrepLabel(4, 2, 1), -14.0188),
            (1, 2, IrrepLabel(8, 1, 2), -18.6858),
        ],
    )
    def test_no_hint_for_near_miss_rationals(self, m, n, label, value):
        # once shown as -sqrt(417115/908), -sqrt(99443/506) and -18256/977
        ratio = FrequencyRatio(m, n)
        spec = angular_eigenvalues(label, ratio)
        hints = exact_hints(spec)
        assert spec.eigenvalues[0] == pytest.approx(value, abs=1e-4)
        assert hints[0] is None and hints[-1] is None

    def test_zero_only_for_even_n(self):
        ratio = FrequencyRatio(2, 3)
        for big_n in range(6):
            spec = angular_eigenvalues(IrrepLabel(big_n, 1, 2), ratio)
            assert ("0" in exact_hints(spec)) == (big_n % 2 == 0)


def shifted(spec, changes):
    """`spec` with the eigenvalues at the given indices replaced."""
    values = list(spec.eigenvalues)
    for i, value in changes.items():
        values[i] = value
    return dataclasses.replace(spec, eigenvalues=tuple(values))


class TestCertificate:
    """Exact Sturm counts at l_i +- delta, delta = 2^-30 for the tolerance 1e-9."""

    DELTA = 2.0**-30

    @pytest.mark.parametrize("big_n", [63, 64])
    def test_isotropic_values_certified(self, big_n):
        label, ratio = IrrepLabel(big_n, 1, 1), FrequencyRatio(1, 1)
        spec = angular_eigenvalues(label, ratio)
        assert certify_eigenvalues(spec, 1e-12) == (True,) * (big_n + 1)
        # -N, -N+2, ..., N are integers, so G_{N+1} vanishes exactly at each
        # count point, and a root is not counted above itself
        count_above = _sturm_counter(spec)
        roots = range(-big_n, big_n + 1, 2)
        assert [count_above(root, 0) for root in roots] == list(range(big_n, -1, -1))

    @pytest.mark.parametrize("big_n,q", [(2, 1), (10, 2), (40, 1)])
    def test_even_n_zero_is_certified(self, big_n, q):
        label, ratio = IrrepLabel(big_n, 1, q), FrequencyRatio(1, 2)
        spec = angular_eigenvalues(label, ratio)
        assert spec.eigenvalues[big_n // 2] == 0.0
        assert all(certify_eigenvalues(spec, 1e-12))
        assert _sturm_counter(spec)(0, 0) == big_n // 2

    @pytest.mark.parametrize("q", [1, 2])
    def test_certifies_n60(self, q):
        label, ratio = IrrepLabel(60, 1, q), FrequencyRatio(1, 2)
        assert all(certify_eigenvalues(angular_eigenvalues(label, ratio), 1e-12))

    def test_counts_at_any_dyadic_point(self):
        # a / 2^e is the same point for every (a 2^j, e + j), with e <= 0 too
        spec = angular_eigenvalues(IrrepLabel(12, 2, 3), FrequencyRatio(2, 3))
        count_above = _sturm_counter(spec)
        for a in (-37, -4, 0, 3, 52):
            counts = {count_above(a << j, j - 2) for j in range(6)}
            assert len(counts) == 1
            assert counts == {count_above(4 * a, 0)}
        assert count_above(-(1 << 40), -3) == 13
        assert count_above(1, -40) == 0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_value_moved_by_two_delta_fails_that_index_only(self, sign):
        ratio = FrequencyRatio(2, 3)
        spec = angular_eigenvalues(IrrepLabel(6, 2, 3), ratio)
        assert all(certify_eigenvalues(spec, EIGEN_TOL))
        for i, value in enumerate(spec.eigenvalues):
            moved = shifted(spec, {i: value + sign * 2 * self.DELTA})
            expected = tuple(j != i for j in range(len(spec.eigenvalues)))
            assert certify_eigenvalues(moved, EIGEN_TOL) == expected
            # half of delta still holds: the eigensolve is far more accurate
            moved = shifted(spec, {i: value + sign * self.DELTA / 2})
            assert all(certify_eigenvalues(moved, EIGEN_TOL))

    def test_swapped_neighbours_fail_both(self):
        ratio = FrequencyRatio(1, 2)
        spec = angular_eigenvalues(IrrepLabel(5, 1, 2), ratio)
        values = spec.eigenvalues
        swapped = shifted(spec, {2: values[3], 3: values[2]})
        assert certify_eigenvalues(swapped, EIGEN_TOL) == (
            True, True, False, False, True, True
        )

    def test_nan_is_not_certified(self):
        ratio = FrequencyRatio(1, 2)
        spec = angular_eigenvalues(IrrepLabel(3, 1, 1), ratio)
        broken = shifted(spec, {1: math.nan})
        assert certify_eigenvalues(broken, EIGEN_TOL) == (True, False, True, True)

    def record_count_points(self, monkeypatch):
        """The list that collects, as Fractions, the points certify_eigenvalues counts at.

        Every point goes through the kernel's point list (`_count_above`), as
        centre + offset; only the points it cannot decide reach `_sturm_counter`.
        """
        points = []
        count_above = angular._count_above

        def recording_count_above(records, irreps, centres, offsets):
            points.extend(Fraction(c) + Fraction(o) for c, o in zip(centres, offsets))
            return count_above(records, irreps, centres, offsets)

        monkeypatch.setattr(angular, "_count_above", recording_count_above)
        return points

    @pytest.mark.parametrize("big_n", [0, 1, 5, 6])
    def test_symmetric_spectrum_is_counted_from_the_middle_up(self, monkeypatch, big_n):
        spec = angular_eigenvalues(IrrepLabel(big_n, 2, 3), FrequencyRatio(2, 3))
        points = self.record_count_points(monkeypatch)
        assert certify_eigenvalues(spec, EIGEN_TOL) == (True,) * (big_n + 1)
        upper = spec.eigenvalues[(big_n + 1) // 2:]
        delta = Fraction(self.DELTA)
        assert sorted(points) == sorted(Fraction(v) + s * delta for v in upper for s in (-1, 1))

    @pytest.mark.parametrize("big_n", [5, 6])
    def test_asymmetric_value_below_the_middle_is_counted_itself(self, monkeypatch, big_n):
        # a certified mirror l_{N-i} proves nothing of an l_i that is not -l_{N-i}
        spec = angular_eigenvalues(IrrepLabel(big_n, 2, 3), FrequencyRatio(2, 3))
        value = spec.eigenvalues[1]
        assert value == -spec.eigenvalues[big_n - 1]
        points = self.record_count_points(monkeypatch)
        moved = shifted(spec, {1: value + 2 * self.DELTA})
        assert certify_eigenvalues(moved, EIGEN_TOL) == tuple(i != 1 for i in range(big_n + 1))
        assert Fraction(value + 2 * self.DELTA) - Fraction(self.DELTA) in points
        # one ulp off the mirror's negative, yet within delta: counted, and certified
        points.clear()
        nudged = shifted(spec, {1: math.nextafter(value, math.inf)})
        assert all(certify_eigenvalues(nudged, EIGEN_TOL))
        assert Fraction(nudged.eigenvalues[1]) - Fraction(self.DELTA) in points

    def test_huge_tolerance_passes(self):
        # delta = 2^1023 holds every eigenvalue; no separation is required
        label, ratio = IrrepLabel(4, 1, 1), FrequencyRatio(1, 1)
        spec = angular_eigenvalues(label, ratio)
        assert all(certify_eigenvalues(spec, 1.7e308))
        assert all(certify_eigenvalues(spec, 10.0))

    @pytest.mark.parametrize("tolerance", [2.0**-40, 1e-9, 3.0, 1.7e307])
    def test_counts_at_the_fraction_points(self, monkeypatch, tolerance):
        # the points are Fraction(l_i) -+ delta, each counted as the exact counter does
        label, ratio = IrrepLabel(6, 1, 2), FrequencyRatio(1, 2)
        tiny = 5e-324
        values = (0.0, tiny, -tiny, 7e5, -7e5, math.nan, math.inf)
        spec = shifted(angular_eigenvalues(label, ratio), dict(enumerate(values)))
        count = _sturm_counter(spec)
        points = self.record_count_points(monkeypatch)
        certified = certify_eigenvalues(spec, tolerance)

        def count_at(x):
            return count(x.numerator, x.denominator.bit_length() - 1)

        delta = Fraction(2) ** (math.frexp(tolerance)[1] - 1)
        expected_points, expected = [], []
        for i, value in enumerate(values):
            holds = math.isfinite(value)
            if holds:
                # the stacked kernel counts both points of a value in one pass
                expected_points += [Fraction(value) - delta, Fraction(value) + delta]
                holds = (count_at(Fraction(value) - delta) >= 7 - i
                         and count_at(Fraction(value) + delta) <= 6 - i)
            expected.append(holds)
        assert points == expected_points
        assert certified == tuple(expected)
        assert any(certified) == (tolerance > 1e6)

    @pytest.mark.parametrize("tolerance", [0.0, -1e-12, math.nan, math.inf])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tolerance):
        ratio = FrequencyRatio(1, 2)
        spec = angular_eigenvalues(IrrepLabel(2, 1, 1), ratio)
        with pytest.raises(ValueError, match="tolerance"):
            certify_eigenvalues(spec, tolerance)

    @pytest.mark.parametrize("m,n,n_max", [(4, 7, 20), (5, 7, 15), (2, 7, 25)])
    def test_certifies_where_float_values_outgrow_the_tolerance(self, m, n, n_max):
        # |l| reaches 1.1e6 here; with delta = EIGEN_TOL / 8 instead of the
        # largest power of two <= EIGEN_TOL, 406, 126 and 40 values fail
        ratio = FrequencyRatio(m, n)
        for label in all_labels(m, n, n_max):
            spec = angular_eigenvalues(label, ratio)
            assert all(certify_eigenvalues(spec, EIGEN_TOL)), label


def exact_count(spec, centre, offset):
    """The exact counter of `spec` at Fraction(centre) + Fraction(offset)."""
    x = Fraction(centre) + Fraction(offset)
    return _sturm_counter(spec)(x.numerator, x.denominator.bit_length() - 1)


def interval_counts(specs, points):
    """`_count_above` at the points (j, centre, offset) on the irreps of `specs`, as a list."""
    irreps, centres, offsets = zip(*points)
    return _count_above(specs, np.array(irreps), np.array(centres), np.array(offsets)).tolist()


@st.composite
def irreps_and_points(draw):
    """1-3 irreps and points on them: their eigenvalues, points exactly at an
    eigenvalue or at 0, tiny values and plain floats, each with an offset
    +-2^t, t in -40..1019 (the delta of tolerances 2^-40 .. 1.7e307)."""
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        m, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 3), (3, 5), (4, 7)]))
        label = IrrepLabel(draw(st.integers(0, 24)), draw(st.integers(1, m)),
                           draw(st.integers(1, n)))
        specs.append(angular_eigenvalues(label, FrequencyRatio(m, n)))
    points = []
    for _ in range(draw(st.integers(1, 12))):
        j = draw(st.integers(0, len(specs) - 1))
        values = specs[j].eigenvalues
        sign = draw(st.sampled_from([-1.0, 1.0]))
        kind = draw(st.sampled_from(["value", "at value", "at zero", "tiny", "float"]))
        if kind in ("at value", "at zero"):
            # centre + offset is exactly the eigenvalue (integer for 1:1) or 0
            offset = sign * 2.0 ** draw(st.integers(-3, 3))
            target = draw(st.sampled_from(values)) if kind == "at value" else 0.0
            centre = target - offset
        else:
            offset = sign * 2.0 ** draw(st.integers(-40, 1019))
            centre = (draw(st.sampled_from(values)) if kind == "value"
                      else draw(st.sampled_from([0.0, 5e-324, -5e-324, 2.2e-308]))
                      if kind == "tiny" else draw(st.floats(-1e6, 1e6)))
        points.append((j, centre, offset))
    return specs, points


class TestIntervalCounts:
    """The certificate's kernel: float-interval pivot counts, exact counts as fallback."""

    @settings(deadline=None, max_examples=300)
    @given(irreps_and_points())
    def test_matches_the_exact_counter(self, case):
        specs, points = case
        assert interval_counts(specs, points) == [
            exact_count(specs[j], centre, offset) for j, centre, offset in points
        ]

    def record_exact_points(self, monkeypatch):
        """The list of (N, Fraction point) of every count `_sturm_counter` makes."""
        points = []
        counter = angular._sturm_counter

        def recording_counter(record):
            count = counter(record)

            def count_above(a, e):
                points.append((record.label.N, Fraction(a, 2**e)))
                return count(a, e)

            return count_above

        monkeypatch.setattr(angular, "_sturm_counter", recording_counter)
        return points

    def test_isotropic_eigenvalues_and_zero_fall_back(self, monkeypatch):
        # at an integer root the last pivot is 0, and at 0 every odd G_k is
        # 0; no interval decides these points, so the exact counter does
        ratio = FrequencyRatio(1, 1)
        specs = [angular_eigenvalues(IrrepLabel(big_n, 1, 1), ratio) for big_n in range(41)]
        points = [(big_n, root - 1.0, 1.0) for big_n in range(41)
                  for root in range(-big_n, big_n + 1, 2)]
        points += [(big_n, 0.5, -0.5) for big_n in range(41)]
        exact = self.record_exact_points(monkeypatch)
        counts = interval_counts(specs, points)
        assert counts[:-41] == [(big_n - root) // 2 for big_n in range(41)
                                for root in range(-big_n, big_n + 1, 2)]
        assert counts[-41:] == [(big_n + 1) // 2 for big_n in range(41)]
        assert sorted(exact) == sorted((big_n, Fraction(centre) + Fraction(offset))
                                       for big_n, centre, offset in points)

    def test_decided_points_do_not_reach_the_exact_counter(self, monkeypatch):
        points = self.record_exact_points(monkeypatch)
        ratio = FrequencyRatio(2, 3)
        for label in all_labels(2, 3, 12):
            assert all(certify_eigenvalues(angular_eigenvalues(label, ratio), EIGEN_TOL))
        assert points == []

    @pytest.mark.parametrize("numerators", [(0, 10**400, 0), (0, 5, 10**400, 3, 0),
                                            (0, 6, -4, 0), (0, 2, 0, 0)])
    def test_phi_without_a_positive_float_falls_back(self, monkeypatch, numerators):
        # Phi(k) beyond float range or <= 0: every point of the irrep is counted exactly
        spec = dataclasses.replace(angular_eigenvalues(IrrepLabel(len(numerators) - 2, 1, 1),
                                                       FrequencyRatio(1, 1)),
                                   numerators=numerators)
        other = angular_eigenvalues(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        exact = self.record_exact_points(monkeypatch)
        points = [(0, x, 0.25) for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 1e200)]
        points += [(1, x, -0.125) for x in (-1.0, 0.3)]
        counts = interval_counts([spec, other], points)
        assert counts == [exact_count([spec, other][j], c, o) for j, c, o in points]
        assert [point for big_n, point in exact if big_n == spec.label.N][:6] == [
            Fraction(x) + Fraction(1, 4) for _, x, _ in points[:6]]


class TestBuildL0:
    def test_trivial_irrep(self):
        l0 = build_l0(build_irrep(IrrepLabel(0, 1, 1), FrequencyRatio(1, 2)))
        assert l0.shape == (1, 1)
        assert l0[0, 0] == 0

    def test_hermitian_with_matching_spectrum(self):
        label, ratio = IrrepLabel(2, 1, 1), FrequencyRatio(1, 1)
        l0 = build_l0(build_irrep(label, ratio))
        assert np.allclose(l0, l0.conj().T)
        assert np.sort(np.linalg.eigvalsh(l0)) == pytest.approx([-2.0, 0.0, 2.0])

    def test_2_3_extremes_match_certified_eigenvalues(self):
        label, ratio = IrrepLabel(2, 1, 1), FrequencyRatio(2, 3)
        dense = np.sort(np.linalg.eigvalsh(build_l0(build_irrep(label, ratio))))
        spec = angular_eigenvalues(label, ratio)
        assert all(certify_eigenvalues(spec, 1e-12))
        assert dense[-1] == pytest.approx(spec.eigenvalues[-1], abs=1e-10)
        assert dense[0] == pytest.approx(-spec.eigenvalues[-1], abs=1e-10)
