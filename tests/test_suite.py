import math
from collections import Counter

import pytest

from deformed_u2 import (
    FrequencyRatio,
    IrrepLabel,
    VerificationReport,
    WrongRatioError,
    build_irrep,
    build_oracle,
    oracle_compare,
)
from deformed_u2 import representation, suite
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


def test_nan_from_the_oracle_fails_only_its_irrep(monkeypatch):
    compare = suite.oracle_compare
    poisoned = IrrepLabel(1, 1, 1)

    def nan_for_one_irrep(oracle, rep, tolerance):
        report = compare(oracle, rep, tolerance)
        if rep.label == poisoned:
            report = VerificationReport(
                report.name, {**report.residuals, "h": math.nan}, {}, tolerance
            )
        return report

    monkeypatch.setattr(suite, "oracle_compare", nan_for_one_irrep)
    report = run_suite(FrequencyRatio(1, 1), 2)
    assert not report.passed
    assert math.isnan(report.residuals["oracle_h"])
    assert not report.passes("oracle_h", report.residuals["oracle_h"])
    for irrep in report.irreps:
        assert math.isnan(irrep.residuals["oracle_h"]) == (irrep.label == poisoned)
        assert math.isnan(irrep.max_residual) == (irrep.label == poisoned)


def test_oracle_compare_rejects_a_rep_of_another_ratio():
    # (1, 1, 1) is a valid label of both ratios; only the record's ratio tells them apart
    oracle = build_oracle(FrequencyRatio(1, 2), 2)
    with pytest.raises(WrongRatioError):
        oracle_compare(oracle, build_irrep(IrrepLabel(1, 1, 1), FrequencyRatio(1, 1)))


def test_tolerances_and_gate_rule():
    ratio = FrequencyRatio(1, 2)
    report = run_suite(ratio, 1)
    assert (report.identity_tolerance, report.eigen_tolerance) == (IDENTITY_TOL, EIGEN_TOL)
    assert report.passes("method_agreement", EIGEN_TOL)
    assert not report.passes("oracle_h", EIGEN_TOL)
    assert not report.passes("orthonormality", math.nan)
    assert not report.passes("exact_check_failures", 1.0)
    assert report.passes("parafermionic_failures", 0.0)

    tight = run_suite(ratio, 1, tolerance=1e-13)
    assert tight.eigen_tolerance == 10 * 1e-13
    assert tight.passed
