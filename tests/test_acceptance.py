"""Acceptance suite: one test per release criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import contextlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from deformed_u2 import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    StructureFunction,
    WrongRatioError,
    angular_eigenvalues,
    build_irrep,
    build_l0,
    certify_eigenvalues,
    commutator_polynomial,
    energy_of_cartesian,
    energy_of_irrep,
    enumerate_levels,
    irrep_members,
    oracle_compare,
    verify_algebra,
    w32_check,
)
from deformed_u2.cli import main as cli_main
from gamma_form import gamma_value
from irrep_columns import all_labels, coprime_pairs


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {description}")
        raise
    print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_01_degeneracy_patterns():
    with criterion(1, "spectrum degeneracy patterns for 1:2 and 2:3"):
        runner = CliRunner()
        result = runner.invoke(
            cli_main, ["spectrum", "--ratio", "1:2", "--count", "6"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[2:]
        assert [int(r.split()[-1]) for r in rows] == [1, 1, 2, 2, 3, 3]

        result = runner.invoke(
            cli_main, ["spectrum", "--ratio", "2:3", "--count", "15"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[2:]
        assert [int(r.split()[-1]) for r in rows] == [
            1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3,
        ]


def test_criterion_02_worked_1_2_tables():
    with criterion(2, "worked 1:2 level table with exact memberships"):
        ratio = FrequencyRatio(1, 2)
        expected = [
            (Fraction(3, 4), IrrepLabel(0, 1, 1), {(0, 0)}),
            (Fraction(5, 4), IrrepLabel(0, 1, 2), {(0, 1)}),
            (Fraction(7, 4), IrrepLabel(1, 1, 1), {(0, 2), (1, 0)}),
            (Fraction(9, 4), IrrepLabel(1, 1, 2), {(0, 3), (1, 1)}),
            (Fraction(11, 4), IrrepLabel(2, 1, 1), {(0, 4), (1, 2), (2, 0)}),
            (Fraction(13, 4), IrrepLabel(2, 1, 2), {(0, 5), (1, 3), (2, 1)}),
        ]
        levels = enumerate_levels(ratio, 6)
        for level, (energy, label, members) in zip(levels, expected):
            assert level.energy == energy
            assert level.label == label
            assert level.degeneracy == len(members)
            assert {
                (s.n_x, s.n_y) for s in irrep_members(label, ratio)
            } == members


def test_criterion_03_commutator_polynomials():
    with criterion(3, "commutator polynomials for 1:1, 1:2, 1:3, coefficient-exact"):
        assert dict(commutator_polynomial(FrequencyRatio(1, 1)).terms) == {
            (0, 1): Fraction(-2),
        }
        assert dict(commutator_polynomial(FrequencyRatio(1, 2)).terms) == {
            (0, 2): Fraction(3),
            (1, 1): Fraction(-1),
            (2, 0): Fraction(-1, 4),
            (0, 0): Fraction(3, 16),
        }
        assert dict(commutator_polynomial(FrequencyRatio(1, 3)).terms) == {
            (0, 3): Fraction(-4),
            (1, 2): Fraction(3),
            (0, 1): Fraction(-7, 9),
            (3, 0): Fraction(-1, 4),
            (1, 0): Fraction(1, 4),
        }


def test_criterion_04_special_case_structure_functions():
    with criterion(4, "1:1, 1:2, 1:3 structure functions and energies, exact"):
        cases = [
            (1, 1, lambda N, x: x * (N + 1 - x), lambda N: Fraction(N + 1)),
            (2, 1, lambda N, x: x * (N + 1 - x) * (N + Fraction(1, 2) - x),
             lambda N: N + Fraction(3, 4)),
            (2, 2, lambda N, x: x * (N + 1 - x) * (N + Fraction(3, 2) - x),
             lambda N: N + Fraction(5, 4)),
            (3, 1, lambda N, x: x * (N + 1 - x) * (N + Fraction(1, 3) - x)
             * (N + Fraction(2, 3) - x), lambda N: N + Fraction(2, 3)),
            (3, 2, lambda N, x: x * (N + 1 - x) * (N + Fraction(2, 3) - x)
             * (N + Fraction(4, 3) - x), lambda N: Fraction(N + 1)),
            (3, 3, lambda N, x: x * (N + 1 - x) * (N + Fraction(4, 3) - x)
             * (N + Fraction(5, 3) - x), lambda N: N + Fraction(4, 3)),
        ]
        for n, q, phi_closed, energy_closed in cases:
            ratio = FrequencyRatio(1, n)
            for big_n in range(9):
                label = IrrepLabel(big_n, 1, q)
                sf = StructureFunction(label, ratio)
                assert energy_of_irrep(label, ratio) == energy_closed(big_n)
                for x in range(big_n + 2):
                    assert sf(x) == phi_closed(big_n, Fraction(x))
                    assert gamma_value(label, ratio, x) == phi_closed(big_n, Fraction(x))


def test_criterion_05_angular_momentum():
    with criterion(5, "1:2 angular spectra (1e-10) and l=0 eigenvector (1e-9)"):
        ratio = FrequencyRatio(1, 2)
        expected_spectra = [
            (IrrepLabel(1, 1, 1), [-1 / math.sqrt(2), 1 / math.sqrt(2)]),
            (IrrepLabel(1, 1, 2), [-math.sqrt(1.5), math.sqrt(1.5)]),
            (IrrepLabel(2, 1, 1), [-2.0, 0.0, 2.0]),
            (IrrepLabel(2, 1, 2), [-math.sqrt(8.0), 0.0, math.sqrt(8.0)]),
        ]
        for label, expected in expected_spectra:
            values = np.array(angular_eigenvalues(label, ratio).eigenvalues)
            assert np.max(np.abs(values - np.array(expected))) <= 1e-10

        spec = angular_eigenvalues(IrrepLabel(2, 1, 1), ratio)
        states = list(spec.cartesian)
        assert states == [
            CartesianState(0, 4), CartesianState(1, 2), CartesianState(2, 0),
        ]
        amplitudes = spec.amplitudes[:, 1]
        expected = np.array([0.5, 0.0, math.sqrt(3) / 2])
        assert np.max(np.abs(amplitudes - expected)) <= 1e-9


def test_criterion_06_oracle_equivalence():
    with criterion(6, "oracle equivalence, coprime m,n <= 4, N <= 6, exact"):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                report = oracle_compare(build_irrep(label, ratio))
                assert report.residuals == {}, (label, ratio)
                assert all(report.exact_checks.values()), (label, ratio)


def test_criterion_07_algebra_identities():
    with criterion(7, "algebra identities <= 1e-12; phi boundary/positivity exact"):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 6):
                rep = build_irrep(label, ratio)
                report = verify_algebra(rep)
                assert report.max_residual <= 1e-12, (label, ratio)
                assert report.exact_checks["phi_boundary"]
                assert report.exact_checks["phi_positive"]
                assert report.exact_checks["ladder_difference"]
                assert rep.phi[0] == 0 and rep.phi[-1] == 0
                assert all(v > 0 for v in rep.phi[1:-1])


def test_criterion_08_w32_relations():
    with criterion(8, "W relations on 1:2 up to N=8 (1e-10); other ratios refused"):
        ratio = FrequencyRatio(1, 2)
        for big_n in range(9):
            for q in (1, 2):
                rep = build_irrep(IrrepLabel(big_n, 1, q), ratio)
                report = w32_check(rep, tolerance=1e-10)
                assert report.max_residual <= 1e-10
                assert report.passed
        for other in [FrequencyRatio(1, 1), FrequencyRatio(1, 3), FrequencyRatio(2, 3)]:
            rep = build_irrep(IrrepLabel(1, 1, 1), other)
            with pytest.raises(WrongRatioError):
                w32_check(rep)


def test_criterion_09_spectrum_consistency():
    with criterion(9, "Cartesian vs irrep energy multisets, 50 levels, m,n <= 5"):
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            top = enumerate_levels(ratio, 50)[-1].energy

            cartesian = Counter()
            n_x = 0
            while energy_of_cartesian(CartesianState(n_x, 0), ratio) <= top:
                n_y = 0
                while (e := energy_of_cartesian(CartesianState(n_x, n_y), ratio)) <= top:
                    cartesian[e] += 1
                    n_y += 1
                n_x += 1

            labelled = Counter()
            for big_n in range(int(top) + 1):
                for p in range(1, m + 1):
                    for q in range(1, n + 1):
                        e = energy_of_irrep(IrrepLabel(big_n, p, q), ratio)
                        if e <= top:
                            labelled[e] += big_n + 1

            assert cartesian == labelled


def test_criterion_10_method_agreement():
    with criterion(10, "eigensolver certified by Sturm counts; eigensolver vs dense L0 "
                       "(1e-9); symmetry 1e-10"):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 8):
                spec = angular_eigenvalues(label, ratio)
                tri = np.array(spec.eigenvalues)
                dense = np.sort(np.linalg.eigvalsh(build_l0(build_irrep(label, ratio))))
                # each value is proven within 2^-30 <= 1e-9 of its own true eigenvalue
                assert all(certify_eigenvalues(spec, 1e-9)), (label, ratio)
                assert np.max(np.abs(tri - dense)) <= 1e-9, (label, ratio)
                assert np.max(np.abs(tri + tri[::-1])) <= 1e-10, (label, ratio)
