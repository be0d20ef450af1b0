import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

from deformed_u2 import FrequencyRatio, IrrepLabel, StructureFunction, VerificationReport
from deformed_u2 import angular, oracle, representation, suite
from deformed_u2.suite import EIGEN_TOL, IDENTITY_TOL, run_suite


def labels_of(ratio, n_max):
    return [
        IrrepLabel(big_n, p, q)
        for big_n in range(n_max + 1)
        for p in range(1, ratio.m + 1)
        for q in range(1, ratio.n + 1)
    ]


def test_builds_each_irrep_once(monkeypatch):
    builds = Counter()
    build = suite.build_irrep

    def counting_build(label, ratio):
        builds[label] += 1
        return build(label, ratio)

    # every construction of a record, by whichever caller, goes through this class
    made = Counter()
    matrices = representation.IrrepMatrices

    def counting_matrices(label, *args):
        made[label] += 1
        return matrices(label, *args)

    monkeypatch.setattr(suite, "build_irrep", counting_build)
    monkeypatch.setattr(representation, "IrrepMatrices", counting_matrices)
    ratio = FrequencyRatio(2, 3)
    report = run_suite(ratio, 3)
    labels = labels_of(ratio, 3)
    assert builds == {label: 1 for label in labels}
    assert made == builds
    assert [irrep.label for irrep in report.irreps] == labels
    assert report.passed


def test_lists_each_irreps_members_once(monkeypatch):
    # the oracle reads the members; the eigenvectors' Cartesian view is never read
    calls = Counter()
    members = oracle.irrep_members

    def counting_members(label, ratio):
        calls[label] += 1
        return members(label, ratio)

    monkeypatch.setattr(oracle, "irrep_members", counting_members)
    monkeypatch.setattr(angular, "irrep_members", counting_members)
    ratio = FrequencyRatio(2, 3)
    run_suite(ratio, 3)
    assert calls == {label: 1 for label in labels_of(ratio, 3)}


def test_nan_residual_fails_only_its_irrep(monkeypatch):
    verify = suite.verify_algebra
    poisoned = IrrepLabel(1, 1, 1)

    def nan_for_one_irrep(rep, tolerance):
        report = verify(rep, tolerance)
        if rep.label == poisoned:
            report = VerificationReport(
                report.name, {**report.residuals, "commutator_h": math.nan},
                report.exact_checks, tolerance,
            )
        return report

    monkeypatch.setattr(suite, "verify_algebra", nan_for_one_irrep)
    report = run_suite(FrequencyRatio(1, 1), 2)
    assert not report.passed
    assert math.isnan(report.residuals["commutator_h"])
    assert not report.passes("commutator_h", report.residuals["commutator_h"])
    assert report.worst_irrep("commutator_h") == poisoned
    for irrep in report.irreps:
        assert math.isnan(irrep.residuals["commutator_h"]) == (irrep.label == poisoned)
        assert math.isnan(irrep.max_residual) == (irrep.label == poisoned)


def test_failed_oracle_checks_count_as_exact_failures(monkeypatch):
    build = suite.build_irrep
    poisoned = IrrepLabel(2, 1, 2)

    def one_entry_off(label, ratio):
        rep = build(label, ratio)
        if label == poisoned:
            s_plus = rep.s_plus.copy()
            s_plus[1, 0] = np.nextafter(np.nextafter(s_plus[1, 0], 0.0), 0.0)
            rep = dataclasses.replace(rep, s_plus=s_plus)
        return rep

    monkeypatch.setattr(suite, "build_irrep", one_entry_off)
    report = run_suite(FrequencyRatio(1, 2), 2)
    assert not report.passed
    assert report.residuals["exact_check_failures"] == 1.0
    assert [i.label for i in report.irreps if i.failures["exact_check_failures"]] == [poisoned]
    assert report.worst_irrep("exact_check_failures") == poisoned
    assert not any(key.startswith("oracle_") for key in report.residuals)


def test_tolerances_and_gate_rule():
    ratio = FrequencyRatio(1, 2)
    report = run_suite(ratio, 1)
    assert (report.identity_tolerance, report.eigen_tolerance) == (IDENTITY_TOL, EIGEN_TOL)
    assert report.passes("method_agreement", EIGEN_TOL)
    assert not report.passes("commutator_h", EIGEN_TOL)
    assert not report.passes("orthonormality", math.nan)
    assert not report.passes("exact_check_failures", 1.0)
    assert not report.passes("eigen_certificate_failures", 1.0)
    assert report.passes("parafermionic_failures", 0.0)

    tight = run_suite(ratio, 1, tolerance=1e-13)
    assert tight.eigen_tolerance == 10 * 1e-13
    assert tight.passed


def test_uncertified_eigenvalues_count_per_irrep(monkeypatch):
    eigensolve = suite._eigensolve
    poisoned = IrrepLabel(3, 1, 2)

    def swapped_pair(label, ratio, numerators):
        spec = eigensolve(label, ratio, numerators)
        if label == poisoned:
            values = spec.eigenvalues
            spec = dataclasses.replace(spec, eigenvalues=(values[1], values[0], *values[2:]))
        return spec

    monkeypatch.setattr(suite, "_eigensolve", swapped_pair)
    report = run_suite(FrequencyRatio(1, 2), 3)
    assert not report.passed
    assert report.residuals["eigen_certificate_failures"] == 2.0
    assert report.residuals["exact_check_failures"] == 0.0
    assert [i.label for i in report.irreps if i.failures["eigen_certificate_failures"]] == [
        poisoned
    ]
    assert report.worst_irrep("eigen_certificate_failures") == poisoned


def test_worst_irrep_is_the_first_holding_the_worst_value():
    ratio = FrequencyRatio(2, 3)
    report = run_suite(ratio, 3)
    agreement = [irrep.residuals["method_agreement"] for irrep in report.irreps]
    first_worst = agreement.index(max(agreement))
    assert report.worst_irrep("method_agreement") == report.irreps[first_worst].label
    # every irrep holds the worst count, 0
    assert report.worst_irrep("exact_check_failures") == IrrepLabel(0, 1, 1)


def test_rejects_negative_n_max():
    with pytest.raises(ValueError, match="n_max"):
        run_suite(FrequencyRatio(1, 2), -1)


@pytest.mark.parametrize("tolerance", [math.nan, 0.0, -1e-10, 1e308])
def test_rejects_tolerance_that_is_not_finite_and_positive(tolerance):
    # 1e308 is finite, but its eigen tolerance 10x it is not
    message = "tolerance must be finite.*" + re.escape(f"the 1:2 suite, got {tolerance!r}")
    with pytest.raises(ValueError, match=message):
        run_suite(FrequencyRatio(1, 2), 2, tolerance)


def test_computes_each_irreps_phi_table_once(monkeypatch):
    # F's product at x = 0..N+1 once per irrep; the eigensolve gets rep's table
    products = Counter()
    product = StructureFunction._product

    def counting_product(self, numerator, denominator):
        products[self.label] += 1
        return product(self, numerator, denominator)

    tables = {}
    build, eigensolve = suite.build_irrep, suite._eigensolve

    def recording_build(label, ratio):
        rep = build(label, ratio)
        tables[label] = rep.numerators
        return rep

    def checking_eigensolve(label, ratio, numerators):
        assert numerators is tables[label]
        return eigensolve(label, ratio, numerators)

    monkeypatch.setattr(StructureFunction, "_product", counting_product)
    monkeypatch.setattr(suite, "build_irrep", recording_build)
    monkeypatch.setattr(suite, "_eigensolve", checking_eigensolve)
    ratio = FrequencyRatio(1, 2)  # 1:2 also runs the 1:n split and the W_3^(2) check
    report = run_suite(ratio, 4)
    assert report.passed
    assert products == {label: label.N + 2 for label in labels_of(ratio, 4)}
    assert tables.keys() == products.keys()


def test_residuals_are_derived_once():
    report = run_suite(FrequencyRatio(2, 3), 2)
    residuals = report.residuals
    assert report.passed
    assert report.residuals is residuals
    assert residuals["method_agreement"] == max(
        irrep.residuals["method_agreement"] for irrep in report.irreps
    )
    assert residuals["exact_check_failures"] == 0.0
