import dataclasses
import gc
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from deformed_u2 import FrequencyRatio, IrrepLabel, StructureFunction, VerificationReport
from deformed_u2 import angular, core, oracle, representation, suite
from deformed_u2 import (
    angular_eigenvalues,
    build_irrep,
    build_l0,
    certify_eigenvalues,
    oracle_compare,
    parafermionic_decompose,
    verify_algebra,
    w32_check,
)
from deformed_u2.exceptions import NotDivisibleError
from deformed_u2.suite import EIGEN_TOL, IDENTITY_TOL, _cofactor_positive, run_suite


def labels_of(ratio, n_max):
    return [
        IrrepLabel(big_n, p, q)
        for big_n in range(n_max + 1)
        for p in range(1, ratio.m + 1)
        for q in range(1, ratio.n + 1)
    ]


def test_builds_each_irrep_once(monkeypatch):
    builds = Counter()
    build = suite._build_stack

    def counting_build(functions):
        builds.update(f.label for f in functions)
        return build(functions)

    # every construction of a record, by whichever caller, goes through this class
    made = Counter()
    matrices = representation.IrrepMatrices

    def counting_matrices(label, *args):
        made[label] += 1
        return matrices(label, *args)

    # and of a structure function through its __post_init__; 1:n also runs the split
    functions = Counter()
    post_init = StructureFunction.__post_init__

    def counting_post_init(self):
        functions[self.label] += 1
        post_init(self)

    monkeypatch.setattr(suite, "_build_stack", counting_build)
    monkeypatch.setattr(representation, "IrrepMatrices", counting_matrices)
    monkeypatch.setattr(StructureFunction, "__post_init__", counting_post_init)
    for ratio, n_max in ((FrequencyRatio(2, 3), 3), (FrequencyRatio(1, 2), 4)):
        for counter in (builds, made, functions):
            counter.clear()
        report = run_suite(ratio, n_max)
        labels = labels_of(ratio, n_max)
        assert builds == {label: 1 for label in labels}
        assert made == builds
        assert functions == builds
        assert [irrep.label for irrep in report.irreps] == labels
        assert report.passed


def test_lists_each_irreps_members_once(monkeypatch):
    # the oracle reads its members from the label, and the eigenvectors' Cartesian view is
    # never read, so the suite lists no members at all
    calls = Counter()
    members = core.irrep_members

    def counting_members(label, ratio):
        calls[label] += 1
        return members(label, ratio)

    for module in (core, representation, oracle, angular, suite):
        if hasattr(module, "irrep_members"):
            monkeypatch.setattr(module, "irrep_members", counting_members)
    ratio = FrequencyRatio(2, 3)
    assert run_suite(ratio, 3).passed
    assert calls == Counter()


def test_int_cofactor_sign_equals_the_fraction_route():
    for n in range(1, 8):
        ratio = FrequencyRatio(1, n)
        for label in labels_of(ratio, 12):
            sf = StructureFunction(label, ratio)
            assert _cofactor_positive(sf) == parafermionic_decompose(sf).positive, label


# the 1:3 irrep (6, 1, 2)'s cofactor P(x) = (20/3 - x)(22/3 - x) is read off the two rows of
# its factor table other than x and N+1-x; each case moves the offsets of those two rows
@pytest.mark.parametrize("offsets, positive", [
    pytest.param((80, 88), True, id="unchanged"),
    pytest.param((36, 36), False, id="zero-at-3-only"),
    pytest.param((42, 88), False, id="negative-from-4"),
    pytest.param((42, 42), True, id="two-negatives"),
    pytest.param((0, 88), False, id="negative-everywhere"),
])
def test_int_cofactor_sign_equals_the_fraction_route_on_a_mutated_table(offsets, positive):
    ratio, label = FrequencyRatio(1, 3), IrrepLabel(6, 1, 2)
    sf = StructureFunction(label, ratio)
    table = sf._scaled_factors
    rest = [i for i, row in enumerate(table) if row not in ((1, 0), (-1, 4 * 3 * 7))]
    assert [table[i] for i in rest] == [(-1, 80), (-1, 88)]
    mutated = list(table)
    for i, offset in zip(rest, offsets):
        mutated[i] = (-1, offset)
    sf.__dict__["_scaled_factors"] = tuple(mutated)
    assert _cofactor_positive(sf) == parafermionic_decompose(sf).positive == positive


def test_int_cofactor_raises_as_the_fraction_route():
    ratio = FrequencyRatio(1, 2)
    sf = StructureFunction(IrrepLabel(3, 1, 2), ratio)
    sf.__dict__["_scaled_factors"] = tuple((sigma, offset + 1) if offset == 0 else (sigma, offset)
                                            for sigma, offset in sf._scaled_factors)
    for split in (parafermionic_decompose, _cofactor_positive):
        with pytest.raises(NotDivisibleError, match=re.escape(f"divide the structure function "
                                                              f"of {sf.label}")):
            split(sf)
    with pytest.raises(NotDivisibleError, match="1:n ratios only, got 2:3"):
        _cofactor_positive(StructureFunction(IrrepLabel(1, 1, 1), FrequencyRatio(2, 3)))


def test_nan_residual_fails_only_its_irrep(monkeypatch):
    verify = suite._algebra_reports
    poisoned = IrrepLabel(1, 1, 1)

    def nan_for_one_irrep(stack, tolerance):
        reports = list(verify(stack, tolerance))
        for i, rep in enumerate(stack.irreps):
            if rep.label == poisoned:
                report = reports[i]
                reports[i] = VerificationReport(
                    report.name, {**report.residuals, "commutator_h": math.nan},
                    report.exact_checks, tolerance,
                )
        return tuple(reports)

    monkeypatch.setattr(suite, "_algebra_reports", nan_for_one_irrep)
    report = run_suite(FrequencyRatio(1, 1), 2)
    assert not report.passed
    assert math.isnan(report.residuals["commutator_h"])
    assert not report.passes("commutator_h", report.residuals["commutator_h"])
    assert report.worst_irrep("commutator_h") == poisoned
    for irrep in report.irreps:
        assert math.isnan(irrep.residuals["commutator_h"]) == (irrep.label == poisoned)
        assert math.isnan(irrep.max_residual) == (irrep.label == poisoned)


def test_failed_oracle_checks_count_as_exact_failures(monkeypatch):
    build = suite._build_stack
    poisoned = IrrepLabel(2, 1, 2)

    def one_entry_off(functions):
        stack = build(functions)
        for i, f in enumerate(functions):
            if f.label == poisoned:
                s_plus = stack.s_plus_band[i]  # S+[1, 0] is s_plus[0]
                s_plus[0] = np.nextafter(np.nextafter(s_plus[0], 0.0), 0.0)
        return stack

    monkeypatch.setattr(suite, "_build_stack", one_entry_off)
    report = run_suite(FrequencyRatio(1, 2), 2)
    assert not report.passed
    assert report.residuals["exact_check_failures"] == 1.0
    assert [i.label for i in report.irreps if i.failures["exact_check_failures"]] == [poisoned]
    assert report.worst_irrep("exact_check_failures") == poisoned
    assert not any(key.startswith("oracle_") for key in report.residuals)


def test_poison_in_the_middle_of_a_wide_stack_fails_only_that_irrep(monkeypatch):
    # (2, 2, 3) is the 8th of the 15 irreps of N = 2 in the sweep of 3:5
    ratio, poisoned = FrequencyRatio(3, 5), IrrepLabel(2, 2, 3)
    clean = run_suite(ratio, 2)
    build, eigensolve = suite._build_stack, suite._eigensolve

    def nan_in_h(functions):
        stack = build(functions)
        for i, f in enumerate(functions):
            if f.label == poisoned:
                stack.h_band[i, 0] = math.nan
        return stack

    def swapped_pair(functions, offdiag):
        spectra = list(eigensolve(functions, offdiag))
        for i, spec in enumerate(spectra):
            if spec.label == poisoned:
                values = spec.eigenvalues
                spectra[i] = dataclasses.replace(spec, eigenvalues=values[1::-1] + values[2:])
        return tuple(spectra)

    monkeypatch.setattr(suite, "_build_stack", nan_in_h)
    monkeypatch.setattr(suite, "_eigensolve", swapped_pair)
    report = run_suite(ratio, 2)
    assert [irrep.label for irrep in report.irreps].index(poisoned) == 30 + 7
    assert not report.passed
    for key in ("commutator_h", "method_agreement", "exact_check_failures",
                "eigen_certificate_failures"):
        assert report.worst_irrep(key) == poisoned
    for before, after in zip(clean.irreps, report.irreps, strict=True):
        if after.label != poisoned:
            assert after == before
            continue
        changed = {key for key in before.residuals
                   if repr(before.residuals[key]) != repr(after.residuals[key])}
        assert changed == {"commutator_h", "method_agreement", "spectrum_symmetry"}
        assert math.isnan(after.residuals["commutator_h"])
        assert after.failures == {"exact_check_failures": 1, "eigen_certificate_failures": 2}


def one_irrep_report(label, ratio, tolerance=IDENTITY_TOL):
    """The suite's residuals and failures of one irrep, from the public one-irrep functions."""
    rep = build_irrep(label, ratio)
    algebra, oracle_report = verify_algebra(rep, tolerance), oracle_compare(rep)
    spec = angular_eigenvalues(label, ratio)
    residuals = dict(algebra.residuals)
    dense = np.sort(np.linalg.eigvalsh(build_l0(rep)))
    residuals["method_agreement"] = float(np.max(np.abs(np.array(spec.eigenvalues) - dense)))
    residuals["spectrum_symmetry"] = spec.symmetry_residual
    residuals["eigenvector_residual"] = spec.max_residual
    gram = spec.amplitudes.conj().T @ spec.amplitudes
    residuals["orthonormality"] = float(np.max(np.abs(gram - np.eye(label.dimension))))
    if (ratio.m, ratio.n) == (1, 2):
        w32 = w32_check(rep, tolerance=tolerance).residuals
        residuals.update({f"w32_{key}": value for key, value in w32.items()})
    failures = {
        "exact_check_failures": algebra.failures + oracle_report.failures,
        "eigen_certificate_failures": certify_eigenvalues(spec, 10 * tolerance).count(False),
    }
    if ratio.m == 1:
        form = parafermionic_decompose(StructureFunction(label, ratio))
        failures["parafermionic_failures"] = int(not form.positive)
    return residuals, failures


@pytest.mark.parametrize("m,n,n_max", [(1, 1, 6), (1, 2, 8), (3, 5, 4), (2, 7, 3)])
def test_stacked_suite_equals_the_one_irrep_functions_bitwise(m, n, n_max):
    ratio = FrequencyRatio(m, n)
    report = run_suite(ratio, n_max)
    assert [irrep.label for irrep in report.irreps] == labels_of(ratio, n_max)
    for irrep in report.irreps:  # N = 0 included: 1x1 stacks, empty off-diagonals
        residuals, failures = one_irrep_report(irrep.label, ratio)
        assert list(irrep.residuals) == list(residuals)
        assert [v.hex() for v in irrep.residuals.values()] == [v.hex() for v in residuals.values()]
        assert irrep.failures == failures


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

    def swapped_pair(functions, offdiag):
        spectra = list(eigensolve(functions, offdiag))
        for i, spec in enumerate(spectra):
            if spec.label == poisoned:
                values = spec.eigenvalues
                spectra[i] = dataclasses.replace(
                    spec, eigenvalues=(values[1], values[0], *values[2:])
                )
        return tuple(spectra)

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
    build, eigensolve = suite._build_stack, suite._eigensolve

    def recording_build(functions):
        stack = build(functions)
        for rep in stack.irreps:
            tables[rep.label] = rep.numerators
        return stack

    def checking_eigensolve(functions, offdiag):
        for f in functions:
            assert f.numerators is tables[f.label]
        return eigensolve(functions, offdiag)

    monkeypatch.setattr(StructureFunction, "_product", counting_product)
    monkeypatch.setattr(suite, "_build_stack", recording_build)
    monkeypatch.setattr(suite, "_eigensolve", checking_eigensolve)
    ratio = FrequencyRatio(1, 2)  # 1:2 also runs the 1:n split and the W_3^(2) check
    report = run_suite(ratio, 4)
    assert report.passed
    assert products == {label: label.N + 2 for label in labels_of(ratio, 4)}
    assert tables.keys() == products.keys()


def test_certifies_the_sweep_in_one_kernel_pass(monkeypatch):
    # one interval pass over the points of every irrep, after every eigensolve;
    # it reads each irrep's record, and the spectra (their eigenvectors) are not kept
    spectra, calls = [], []
    eigensolve, count_above = suite._eigensolve, angular._count_above

    def recording_eigensolve(functions, offdiag):
        solved = eigensolve(functions, offdiag)
        spectra.extend(weakref.ref(spec) for spec in solved)
        return solved

    def recording_count_above(records, irreps, centres, offsets):
        gc.collect()
        calls.append((records, len(irreps), [spec() for spec in spectra]))
        return count_above(records, irreps, centres, offsets)

    monkeypatch.setattr(suite, "_eigensolve", recording_eigensolve)
    monkeypatch.setattr(angular, "_count_above", recording_count_above)
    ratio = FrequencyRatio(1, 2)
    report = run_suite(ratio, 6)
    assert report.passed
    [(records, points, alive)] = calls
    assert [record.label for record in records] == labels_of(ratio, 6)
    assert all(isinstance(record, StructureFunction) for record in records)
    # the symmetric spectra are counted at i >= N/2, two points each
    assert points == sum(2 * (label.N // 2 + 1) for label in labels_of(ratio, 6))
    # only the last N's spectra, still bound to the eigensolve loop's names, live on
    assert len(alive) == len(records)
    assert alive[:-2] == [None] * (len(records) - 2) and None not in alive[-2:]


def test_residuals_are_derived_once():
    report = run_suite(FrequencyRatio(2, 3), 2)
    residuals = report.residuals
    assert report.passed
    assert report.residuals is residuals
    assert residuals["method_agreement"] == max(
        irrep.residuals["method_agreement"] for irrep in report.irreps
    )
    assert residuals["exact_check_failures"] == 0.0


def test_derives_each_irreps_offdiagonals_once(monkeypatch):
    # sqrt(Phi(1..N)) has one source: the stack's S+ band feeds the eigensolve and L0
    calls = Counter()
    offdiagonals = representation._offdiagonals

    def counting_offdiagonals(record):
        calls[record.numerators] += 1
        return offdiagonals(record)

    monkeypatch.setattr(representation, "_offdiagonals", counting_offdiagonals)
    monkeypatch.setattr(angular, "_offdiagonals", counting_offdiagonals)
    ratio = FrequencyRatio(1, 2)
    assert run_suite(ratio, 4).passed
    labels = labels_of(ratio, 4)
    assert sum(calls.values()) == len(labels)
    assert calls == Counter(StructureFunction(label, ratio).numerators for label in labels)


def test_runs_the_stacked_checks_once_per_sweep_on_the_bands(monkeypatch):
    def refuse(rep):
        raise AssertionError("run_suite read a dense generator")

    for name in ("s0", "s_plus", "s_minus", "h"):
        monkeypatch.setattr(representation.IrrepMatrices, name, property(refuse))
    calls = Counter()
    for name in ("_algebra_reports", "_oracle_reports", "_w32_reports"):
        def counting(*args, _kernel=getattr(suite, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(suite, name, counting)
    for ratio, n_max, w32_runs in ((FrequencyRatio(1, 2), 6, 1), (FrequencyRatio(2, 3), 4, 0)):
        calls.clear()
        assert run_suite(ratio, n_max).passed
        assert calls == Counter(_algebra_reports=1, _oracle_reports=1, _w32_reports=w32_runs)


@pytest.mark.parametrize("m,n,n_max", [(1, 2, 12), (3, 5, 6)])
def test_padding_leaves_every_irreps_stacked_results_its_own(monkeypatch, m, n, n_max):
    # every irrep narrower than the sweep sits on zero padding in the stack
    reports = {}
    for name in ("_algebra_reports", "_oracle_reports", "_w32_reports"):
        def recording(stack, *args, _kernel=getattr(suite, name), _name=name, **kwargs):
            results = _kernel(stack, *args, **kwargs)
            reports.update({(_name, rep.label): r for rep, r in zip(stack.irreps, results)})
            return results

        monkeypatch.setattr(suite, name, recording)
    ratio = FrequencyRatio(m, n)
    run_suite(ratio, n_max)

    def hexed(report):
        return {key: value.hex() for key, value in report.residuals.items()}, report.exact_checks

    for label in labels_of(ratio, n_max):
        rep = build_irrep(label, ratio)
        assert hexed(reports["_algebra_reports", label]) == hexed(verify_algebra(rep)), label
        assert hexed(reports["_oracle_reports", label]) == hexed(oracle_compare(rep)), label
        if (m, n) == (1, 2):
            assert hexed(reports["_w32_reports", label]) == hexed(w32_check(rep)), label
    assert len(reports) == len(labels_of(ratio, n_max)) * (3 if (m, n) == (1, 2) else 2)


@pytest.mark.parametrize("band", ["s0_band", "s_plus_band", "h_band"])
def test_inf_next_to_the_padding_fails_only_its_irrep(monkeypatch, band):
    # (1, 2, 3) has dimension 2 in the 3:5 sweep to N = 2, whose bands are padded to 3
    ratio, poisoned = FrequencyRatio(3, 5), IrrepLabel(1, 2, 3)
    clean = run_suite(ratio, 2)
    build = suite._build_stack

    def inf_in_the_last_real_entry(functions):
        stack = build(functions)
        i = [f.label for f in functions].index(poisoned)
        getattr(stack, band)[i, len(getattr(stack.irreps[i], band)) - 1] = math.inf
        assert getattr(stack, band).shape[-1] > len(getattr(stack.irreps[i], band))
        return stack

    monkeypatch.setattr(suite, "_build_stack", inf_in_the_last_real_entry)
    report = run_suite(ratio, 2)
    assert not report.passed
    for before, after in zip(clean.irreps, report.irreps, strict=True):
        if after.label != poisoned:
            assert after == before
            continue
        assert after.failures["exact_check_failures"] == 1
        assert not after.max_residual <= report.identity_tolerance
