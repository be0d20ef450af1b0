import dataclasses
import gc
import hashlib
import math
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from deformed_u2 import FrequencyRatio, IrrepLabel, StructureFunction, VerificationReport
from deformed_u2 import angular, core, oracle, representation, structure, suite
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
from deformed_u2.structure import CommutatorPolynomial
from deformed_u2.suite import EIGEN_TOL, IDENTITY_TOL, run_suite
from gamma_form import gamma_value
from irrep_columns import built_labels, column_labels, labels_of, stack_labels


def test_builds_each_irrep_once(monkeypatch):
    # the sweep's one record is its stack: no `IrrepMatrices`, no u or E `Fraction` and no
    # `StructureFunction`, the 1:n split included
    builds = Counter()
    build = suite._build_stack

    def counting_build(ratio, *columns):
        builds.update(column_labels(*columns))
        return build(ratio, *columns)

    # every construction of an irrep's matrices, by whichever caller, goes through this class
    made = Counter()
    matrices = representation.IrrepMatrices

    def counting_matrices(label, *args):
        made[label] += 1
        return matrices(label, *args)

    # and of a structure function through its __post_init__
    functions = Counter()
    post_init = StructureFunction.__post_init__

    def counting_post_init(self):
        functions[self.label] += 1
        post_init(self)

    # and of u and E as `Fraction`s, wherever the two functions were imported
    fractions = Counter()
    for name, function in (("u_constant", structure.u_constant),
                           ("energy_of_irrep", core.energy_of_irrep)):
        def counting_fraction(label, ratio, _name=name, _function=function):
            fractions[_name] += 1
            return _function(label, ratio)

        for module in (core, structure, representation, oracle, angular, suite):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting_fraction)

    monkeypatch.setattr(suite, "_build_stack", counting_build)
    monkeypatch.setattr(representation, "IrrepMatrices", counting_matrices)
    monkeypatch.setattr(StructureFunction, "__post_init__", counting_post_init)
    for ratio, n_max in ((FrequencyRatio(2, 3), 3), (FrequencyRatio(1, 2), 4)):
        for counter in (builds, made, functions, fractions):
            counter.clear()
        report = run_suite(ratio, n_max)
        labels = labels_of(ratio, n_max)
        assert builds == {label: 1 for label in labels}
        assert made == Counter()
        assert functions == Counter()
        assert fractions == Counter()
        assert [irrep.label for irrep in report.irreps] == labels
        assert report.passed


def test_a_sweep_builds_no_label(monkeypatch):
    # the stack's N, p and q columns are the sweep's one record of its irreps; a label is
    # built only when one is named, as the report's worst irrep or its derived `labels`
    built = built_labels(monkeypatch)
    report = run_suite(FrequencyRatio(3, 5), 4)
    assert built == []
    worst = report.worst_irrep("method_agreement")
    assert built == [worst]
    labels = report.labels
    assert len(built) == 1 + 75 and report.labels is labels
    assert labels == tuple(labels_of(FrequencyRatio(3, 5), 4)) and worst in labels
    assert {type(value) for label in labels for value in (label.N, label.p, label.q)} == {int}
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


def test_one_to_n_sweep_multiplies_a_fixed_number_of_products(monkeypatch):
    # the sweep multiplies out no one-variable product: the commutator is proven and read as
    # its factor table, and the 1:n split is the signs of the Phi tables, so no coefficient
    # of P is built, however many irreps the sweep has
    calls = Counter()
    poly, coefficients = structure._poly, structure.ParafermionicForm.coefficients

    def counting_poly(forms):
        calls["_poly"] += 1
        return poly(forms)

    def counting_coefficients(form):
        calls["coefficients"] += 1
        return coefficients.func(form)

    monkeypatch.setattr(structure, "_poly", counting_poly)
    monkeypatch.setattr(structure.ParafermionicForm, "coefficients",
                        property(counting_coefficients))
    for n, n_max in ((3, 6), (60, 1)):
        calls.clear()
        structure.commutator_polynomial.cache_clear()
        ratio = FrequencyRatio(1, n)
        report = run_suite(ratio, n_max)
        assert len(report.irreps) == n * (n_max + 1)
        assert calls == Counter()
        for irrep in report.irreps:  # the sign of P(x) is that of the Gamma form's Phi(x)
            positive = all(gamma_value(irrep.label, ratio, x) > 0
                           for x in range(1, irrep.label.N + 1))
            assert irrep.failures["parafermionic_failures"] == int(not positive) == 0


def test_int_cofactor_raises_as_the_fraction_route():
    # the public split of one irrep: a table without the x factor, or a ratio that is not
    # 1:n, raises with the label or ratio named
    ratio = FrequencyRatio(1, 2)
    sf = StructureFunction(IrrepLabel(3, 1, 2), ratio)
    sf.__dict__["_scaled_factors"] = tuple((sigma, offset + 1) if offset == 0 else (sigma, offset)
                                            for sigma, offset in sf._scaled_factors)
    with pytest.raises(NotDivisibleError, match=re.escape(f"divide the structure function "
                                                          f"of {sf.label}")):
        parafermionic_decompose(sf)
    with pytest.raises(NotDivisibleError, match="1:n ratios only, got 2:3"):
        parafermionic_decompose(StructureFunction(IrrepLabel(1, 1, 1), FrequencyRatio(2, 3)))


def test_a_one_to_n_sweep_builds_no_structure_function_or_label(monkeypatch):
    # the 1:n split is read off the stack's `phi_positive` column, so it builds no per-irrep
    # object, however wide the ratio
    built, functions = built_labels(monkeypatch), []
    post_init = StructureFunction.__post_init__

    def recording_post_init(self):
        functions.append(self.label)
        post_init(self)

    monkeypatch.setattr(StructureFunction, "__post_init__", recording_post_init)
    for n, n_max in ((3, 6), (60, 1)):
        report = run_suite(FrequencyRatio(1, n), n_max)
        assert report.failure_columns["parafermionic_failures"].tolist() == [0] * n * (n_max + 1)
        assert built == functions == []


def test_a_negated_phi_entry_fails_the_split_of_its_irrep_alone(monkeypatch):
    # (2, 1, 1) with P_1 negated in the sweep's stack fails the 1:n split and the exact checks;
    # the split fails exactly where some P_x, x = 1..N, is not positive: not phi_positive
    ratio, poisoned = FrequencyRatio(1, 2), IrrepLabel(2, 1, 1)
    apply_mutant(monkeypatch, "p_1_negated", poisoned)
    stacks, build = [], suite._build_stack

    def recording_build(*args):
        stacks.append(build(*args))
        return stacks[-1]

    monkeypatch.setattr(suite, "_build_stack", recording_build)
    report = run_suite(ratio, 3)
    [stack] = stacks
    positive = [all(value > 0 for value in phi[1:-1]) for phi in stack.numerators]
    assert positive == representation._algebra_reports(stack, ())[1]["phi_positive"]
    split = report.failure_columns["parafermionic_failures"]
    assert split.dtype == np.int64 and split.tolist() == [int(not each) for each in positive]
    failing = {irrep.label: irrep.failures for irrep in report.irreps
               if any(irrep.failures.values())}
    assert list(failing) == [poisoned]
    assert failing[poisoned]["parafermionic_failures"] == 1
    assert failing[poisoned]["exact_check_failures"] == 4
    assert not report.passed


def test_nan_residual_fails_only_its_irrep(monkeypatch):
    verify = suite._algebra_reports
    poisoned = IrrepLabel(1, 1, 1)

    def nan_for_one_irrep(stack, proven=()):
        residuals, exact_checks = verify(stack, proven)
        for i, label in enumerate(stack_labels(stack)):
            if label == poisoned:
                residuals["commutator_h"][i] = math.nan
        return residuals, exact_checks

    monkeypatch.setattr(suite, "_algebra_reports", nan_for_one_irrep)
    report = run_suite(FrequencyRatio(1, 1), 2)
    assert not report.passed
    assert math.isnan(report.residuals["commutator_h"])
    assert not report.passes("commutator_h", report.residuals["commutator_h"])
    assert report.worst_irrep("commutator_h") == poisoned
    for irrep in report.irreps:
        assert math.isnan(irrep.residuals["commutator_h"]) == (irrep.label == poisoned)
        assert math.isnan(irrep.max_residual) == (irrep.label == poisoned)


def apply_mutant(monkeypatch, mutant, poisoned=IrrepLabel(2, 1, 1)):
    """Give `poisoned` P_1 + 1, -P_1, u + 1 or E + 1 in the stack's columns (4mn u + 4mn
    and 2mn E + 2mn for the last two), or the commutator built from a factor table with its
    first offset one off."""
    if mutant == "coefficient":
        def offset_off(ratio):
            (sigma, offset), *rest = structure._ladder_factors(ratio)
            return CommutatorPolynomial(ratio, ((sigma, offset + 1), *rest))

        monkeypatch.setattr(representation, "commutator_polynomial", offset_off)
        return
    column, change = {
        "p_k": ("numerators", lambda phi, ratio: (phi[0], phi[1] + 1, *phi[2:])),
        "p_1_negated": ("numerators", lambda phi, ratio: (phi[0], -phi[1], *phi[2:])),
        "u": ("scaled_u", lambda u, ratio: u + 4 * ratio.m * ratio.n),
        "energy": ("energy_keys", lambda key, ratio: key + 2 * ratio.m * ratio.n),
    }[mutant]
    build = suite._build_stack

    def record_off(ratio, *columns):
        stack = build(ratio, *columns)
        return dataclasses.replace(stack, **{column: tuple(
            change(value, ratio) if label == poisoned else value
            for label, value in zip(stack_labels(stack), getattr(stack, column)))})

    monkeypatch.setattr(suite, "_build_stack", record_off)


@pytest.mark.parametrize("mutant", ["p_k", "u", "energy", "coefficient"])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 3)])
def test_mutants_fail_the_checks_the_horner_route_fails(monkeypatch, mutant, m, n):
    # with no irrep proven, `_algebra_reports` evaluates the commutator's factor table along
    # every irrep; on 1:1 the commutator -2 S0 has no H, so E + 1 leaves the ladder identity
    # holding
    ratio = FrequencyRatio(m, n)
    apply_mutant(monkeypatch, mutant)
    report = run_suite(ratio, 3)
    algebra = suite._algebra_reports
    monkeypatch.setattr(suite, "_algebra_reports", lambda stack, proven: algebra(stack, ()))
    evaluated = run_suite(ratio, 3)
    counts = [irrep.failures["exact_check_failures"] for irrep in report.irreps]
    assert counts == [irrep.failures["exact_check_failures"] for irrep in evaluated.irreps]
    assert sum(counts) > 0
    assert [irrep.residuals for irrep in report.irreps] == [irrep.residuals
                                                             for irrep in evaluated.irreps]


def test_a_passing_sweep_evaluates_no_commutator(monkeypatch):
    calls = Counter()
    differences = CommutatorPolynomial._differences

    def counting(self, *args):
        calls[self.ratio] += 1
        return differences(self, *args)

    monkeypatch.setattr(CommutatorPolynomial, "_differences", counting)
    for m, n, n_max in ((1, 1, 4), (1, 2, 4), (2, 3, 3), (3, 5, 2)):
        assert run_suite(FrequencyRatio(m, n), n_max).passed
    assert calls == Counter()
    # one irrep evaluates the factor table once, whatever the oracle says of it: once for an
    # irrep the oracle passes, and once more for a copy it rejects, its S+ entries two steps off
    ratio = FrequencyRatio(1, 2)
    rep = build_irrep(IrrepLabel(2, 1, 1), ratio)
    assert verify_algebra(rep).passed
    assert calls == Counter({ratio: 1})
    band = np.nextafter(np.nextafter(rep.s_plus_band, 0.0), 0.0)
    moved = dataclasses.replace(rep, s_plus_band=band)
    assert not oracle_compare(moved).passed
    assert verify_algebra(moved).exact_checks["ladder_difference"]
    assert calls == Counter({ratio: 2})


# the length and sha256 of the commutator's text at 1:180, as `verify --ratio 1:180` prints it
WIDE_TEXT = (3061895, "46503be93d86b157fe99f4b9733c592516d6b84e7cdfa646e049dd3702c03b84")


def test_a_wide_sweep_builds_no_expansion(monkeypatch):
    # the sweep proves and reads the commutator as its factor table; the expansion is built
    # only when the text is read afterwards
    def no_expansion(poly):
        raise AssertionError("the commutator was expanded")

    structure.commutator_polynomial.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(CommutatorPolynomial, "_expansion", property(no_expansion))
        report = run_suite(FrequencyRatio(1, 180), 1)
    assert not report.failure_columns["exact_check_failures"].any()  # the ladder identity too
    text = str(report.commutator)
    structure.commutator_polynomial.cache_clear()
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == WIDE_TEXT


def test_failed_oracle_checks_count_as_exact_failures(monkeypatch):
    build = suite._build_stack
    poisoned = IrrepLabel(2, 1, 2)

    def one_entry_off(ratio, *columns):
        stack = build(ratio, *columns)
        for i, label in enumerate(column_labels(*columns)):
            if label == poisoned:
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
    build, refuse = suite._build_stack, angular._refuse

    def nan_in_h(ratio, *columns):
        stack = build(ratio, *columns)
        for i, label in enumerate(column_labels(*columns)):
            if label == poisoned:
                stack.h_band[i, 0] = math.nan
        return stack

    def swapped_pair(ratio, big_n, p, q, values):  # past the refusals and the residuals
        refuse(ratio, big_n, p, q, values)
        for i, label in enumerate(column_labels(big_n, p, q)):
            if label == poisoned:
                values[i, [0, 1]] = values[i, [1, 0]]

    monkeypatch.setattr(suite, "_build_stack", nan_in_h)
    monkeypatch.setattr(angular, "_refuse", swapped_pair)
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


@pytest.mark.parametrize("m,n,n_max", [(1, 1, 6), (1, 2, 8), (3, 5, 4), (2, 7, 3), (40, 41, 1),
                                       (1, 60, 1), (1, 1, 26), (1, 3, 16)])
def test_stacked_suite_equals_the_one_irrep_functions_bitwise(monkeypatch, m, n, n_max):
    # the sweep takes every irrep's ladder identity off its proof, and each one-irrep report
    # evaluates the factor table once, so each pair compares the two routes
    calls = []
    differences = CommutatorPolynomial._differences

    def counting(self, *args):
        calls.append(args)
        return differences(self, *args)

    monkeypatch.setattr(CommutatorPolynomial, "_differences", counting)
    ratio = FrequencyRatio(m, n)
    report = run_suite(ratio, n_max)
    assert calls == []
    assert [irrep.label for irrep in report.irreps] == labels_of(ratio, n_max)
    for irrep in report.irreps:  # N = 0 included: 1x1 stacks, empty off-diagonals
        residuals, failures = one_irrep_report(irrep.label, ratio)
        assert list(irrep.residuals) == list(residuals)
        assert [v.hex() for v in irrep.residuals.values()] == [v.hex() for v in residuals.values()]
        assert irrep.failures == failures
    assert len(calls) == len(report.irreps)


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
    refuse = angular._refuse
    poisoned = IrrepLabel(3, 1, 2)

    def swapped_pair(ratio, big_n, p, q, values):  # past the refusals and the residuals
        refuse(ratio, big_n, p, q, values)
        for i, label in enumerate(column_labels(big_n, p, q)):
            if label == poisoned:
                values[i, [0, 1]] = values[i, [1, 0]]

    monkeypatch.setattr(angular, "_refuse", swapped_pair)
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


def test_worst_irrep_of_an_unknown_key_names_it_the_ratio_and_the_known_keys():
    report = run_suite(FrequencyRatio(2, 3), 1)
    with pytest.raises(KeyError, match=r"no check 'nope' in the 2:3 suite; its keys are ") as error:
        report.worst_irrep("nope")
    known = error.value.args[0].split("its keys are ")[1].split(", ")
    assert known == [*report.residual_columns, *report.failure_columns]


def zero_s_plus_bands(monkeypatch, zeroed):
    """Give the irreps `zeroed` an all-zero S+ band, so T = 0, whose eigenvalues are not
    separated."""
    build = suite._build_stack

    def zero_bands(ratio, *columns):
        stack = build(ratio, *columns)
        for i, label in enumerate(column_labels(*columns)):
            if label in zeroed:
                stack.s_plus_band[i] = 0.0
        return stack

    monkeypatch.setattr(suite, "_build_stack", zero_bands)


@pytest.mark.parametrize("zeroed,named", [
    ((IrrepLabel(2, 2, 1), IrrepLabel(4, 1, 3)), IrrepLabel(2, 2, 1)),
    ((IrrepLabel(4, 1, 3),), IrrepLabel(4, 1, 3)),
])
def test_names_the_first_refused_irrep_in_label_order(monkeypatch, zeroed, named):
    zero_s_plus_bands(monkeypatch, zeroed)
    with pytest.raises(ArithmeticError, match=re.escape(f"eigenvalues of {named} not strictly "
                                                        f"separated in the 2:3 oscillator")):
        run_suite(FrequencyRatio(2, 3), 5)


def test_a_later_failure_does_not_pre_empt_a_refusal(monkeypatch):
    # the refusals run once, after the last N; a later N's failing LAPACK call must not win
    eigensolve, solved = angular._eigensolve, []

    def failing_at_n_4(offdiag):
        solved.append(offdiag.shape[-1])
        if offdiag.shape[-1] == 4:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigensolve(offdiag)

    monkeypatch.setattr(angular, "_eigensolve", failing_at_n_4)
    zero_s_plus_bands(monkeypatch, (IrrepLabel(2, 2, 1),))
    with pytest.raises(ArithmeticError, match=re.escape("eigenvalues of (N=2, p=2, q=1) not")):
        run_suite(FrequencyRatio(2, 3), 5)
    assert solved == [0, 1, 2, 3, 4]
    # without an earlier refusal, the failure itself propagates
    monkeypatch.setattr(suite, "_build_stack", representation._build_stack)
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        run_suite(FrequencyRatio(2, 3), 5)


def test_an_underflowed_w_0_is_not_refused(monkeypatch):
    # the sweep never signs its eigenvectors, so a w_0 of 0.0 decides nothing in it
    eigensolve = angular._eigensolve

    def zero_w_0(offdiag):
        values, vectors = eigensolve(offdiag)
        if offdiag.shape[-1] == 2:
            vectors[0, 0, 1] = 0.0  # irrep (2, 1, 1), eigenvector 1
        return values, vectors

    monkeypatch.setattr(angular, "_eigensolve", zero_w_0)
    report = run_suite(FrequencyRatio(2, 3), 3)
    assert report.worst_irrep("eigenvector_residual") == IrrepLabel(2, 1, 1)


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
    # one table per irrep from the sweep's X_p and Y_q, none of it F's factor product;
    # the certificate gets the stack's table
    computed, products = Counter(), []
    numerators = structure._phi_numerators

    def counting_numerators(ratio, *columns):
        for label, table in zip(column_labels(*columns), numerators(ratio, *columns)):
            computed[label] += 1
            yield table

    product = StructureFunction._product

    def counting_product(self, numerator, denominator):
        products.append(self.label)
        return product(self, numerator, denominator)

    tables = {}
    build, certify = suite._build_stack, angular._certify

    def recording_build(ratio, *columns):
        stack = build(ratio, *columns)
        for label, table in zip(stack_labels(stack), stack.numerators):
            tables[label] = table
        return stack

    def checking_certify(numerators, denominator, big_n, rows, tolerance, evidence):
        for label, table in zip(labels_of(ratio, 4), numerators, strict=True):
            assert table is tables[label]
        return certify(numerators, denominator, big_n, rows, tolerance, evidence)

    # the stack's route and `StructureFunction.numerators`' route are both counted
    monkeypatch.setattr(representation, "_phi_numerators", counting_numerators)
    monkeypatch.setattr(structure, "_phi_numerators", counting_numerators)
    monkeypatch.setattr(StructureFunction, "_product", counting_product)
    monkeypatch.setattr(suite, "_build_stack", recording_build)
    monkeypatch.setattr(angular, "_certify", checking_certify)
    ratio = FrequencyRatio(1, 2)  # 1:2 also runs the 1:n split and the W_3^(2) check
    report = run_suite(ratio, 4)
    assert report.passed
    assert computed == {label: 1 for label in labels_of(ratio, 4)}
    assert products == []
    assert tables.keys() == computed.keys()


def record_certificate(monkeypatch):
    """The arguments of each `_certify` and each `_count_above` call of a sweep, each with
    whether each N's eigenvectors were alive at the call."""
    vectors, calls = [], {"certify": [], "count": []}
    eigensolve, certify, count_above = angular._eigensolve, angular._certify, angular._count_above

    def alive():
        gc.collect()
        return [ref() is not None for ref in vectors]

    def recording_eigensolve(offdiag):
        solved = eigensolve(offdiag)
        vectors.append(weakref.ref(solved[1]))
        return solved

    def recording_certify(*args):
        calls["certify"].append((args, alive()))
        return certify(*args)

    def recording_count_above(*args):
        calls["count"].append((args, alive()))
        return count_above(*args)

    monkeypatch.setattr(angular, "_eigensolve", recording_eigensolve)
    monkeypatch.setattr(angular, "_certify", recording_certify)
    monkeypatch.setattr(angular, "_count_above", recording_count_above)
    return calls


def test_a_passing_sweep_is_certified_without_a_count(monkeypatch):
    # the enclosure proves every irrep from the eigen loop's columns, after every eigensolve;
    # it reads each irrep's Phi table and D, and each N's eigenvectors are not kept
    calls = record_certificate(monkeypatch)
    ratio = FrequencyRatio(1, 2)
    report = run_suite(ratio, 6)
    assert report.passed
    [((tables, denominator, *_), alive)] = calls["certify"]
    assert list(tables) == [StructureFunction(label, ratio).numerators
                            for label in labels_of(ratio, 6)]
    assert denominator == structure._phi_denominator(ratio)
    # no N's eigenvectors live on into the certificate, not even the last N's
    assert alive == [False] * 7
    assert calls["count"] == []


@pytest.mark.parametrize("m, n, n_max, tolerance", [(4, 7, 20, IDENTITY_TOL), (3, 5, 8, 1e-13)])
def test_counts_the_irreps_the_enclosure_leaves_in_one_kernel_pass(monkeypatch, m, n, n_max,
                                                                   tolerance):
    calls = record_certificate(monkeypatch)
    ratio = FrequencyRatio(m, n)
    report = run_suite(ratio, n_max, tolerance)
    labels = labels_of(ratio, n_max)
    [((every_table, denominator, *_), _)] = calls["certify"]
    [((tables, count_denominator, irreps, *_), alive)] = calls["count"]
    counted = [next(i for i, table in enumerate(every_table) if table is counted_table)
               for counted_table in tables]
    assert 0 < len(counted) < len(labels)
    assert counted == sorted(set(counted))
    assert count_denominator == denominator == structure._phi_denominator(ratio)
    # the symmetric spectra are counted at i >= N/2, two points each
    assert np.bincount(irreps).tolist() == [2 * (labels[i].N // 2 + 1) for i in counted]
    assert alive == [False] * (n_max + 1)
    # every uncertified value is on a counted irrep
    failing = np.flatnonzero(report.failure_columns["eigen_certificate_failures"])
    assert set(failing.tolist()) <= set(counted)


@pytest.mark.parametrize("m, n, n_max, tolerance", [
    (4, 7, 20, IDENTITY_TOL), (7, 6, 14, IDENTITY_TOL), (1, 20, 8, IDENTITY_TOL),
    (1, 60, 1, IDENTITY_TOL), (3, 5, 8, 1e-13)])
def test_the_enclosure_keeps_the_count_only_flags(monkeypatch, m, n, n_max, tolerance):
    calls = record_certificate(monkeypatch)
    run_suite(FrequencyRatio(m, n), n_max, tolerance)
    [((*args, evidence), _)] = calls["certify"]
    assert np.array_equal(angular._certify(*args, evidence), angular._count_certify(*args))


def test_the_radii_cover_the_isotropic_spectrum(monkeypatch):
    # at 1:1 lambda_i = -N + 2i exactly: each radius plus the band term reaches it
    calls = record_certificate(monkeypatch)
    run_suite(FrequencyRatio(1, 1), 170)
    [((_, _, big_n, rows, _, (residual, orthonormality, bands, trusted)), _)] = calls["certify"]
    rho, shift = angular._radii(rows, big_n, residual, orthonormality, bands)
    real = np.arange(rows.shape[-1]) <= big_n[:, None]
    distance = np.max(np.abs(rows - (2 * np.arange(rows.shape[-1]) - big_n[:, None])),
                      axis=-1, where=real, initial=0.0)
    assert np.all(trusted)
    assert np.all(distance <= rho + shift)
    assert 0 < np.max(distance) and np.max(rho) < 1e-11


def test_a_zero_residual_leaves_the_rounding_radius():
    # the computed residual cannot see an error below the rounding of l_i w_i, so a
    # residual column of 0.0 still leaves a radius of at least u max |l|
    values = np.array([[-3.0, 0.0, 3.0]])
    rho, shift = angular._radii(values, np.array([2]), np.zeros(1), np.zeros(1),
                                np.array([[math.sqrt(4.5)] * 2]))
    assert rho[0] >= 2.0**-53 * 3.0
    assert shift[0] == 2 * math.ulp(math.sqrt(4.5))


@pytest.mark.parametrize("shift, counted", [(0.5, True), (0.25, False)])
def test_the_band_term_counts_toward_delta(monkeypatch, shift, counted):
    # an irrep is enclosed only when its radius plus its band term is below delta
    calls = record_certificate(monkeypatch)
    run_suite(FrequencyRatio(1, 2), 6)
    [((tables, denominator, big_n, rows, tolerance, evidence), _)] = calls["certify"]
    delta = math.ldexp(1.0, math.frexp(tolerance)[1] - 1)
    radii = (np.full(len(rows), delta / 2), np.full(len(rows), shift * delta))
    monkeypatch.setattr(angular, "_radii", lambda *args: radii)
    flags = angular._certify(tables, denominator, big_n, rows, tolerance, evidence)
    assert [len(args[0]) for args, _ in calls["count"]] == ([len(rows)] if counted else [])
    assert np.array_equal(flags,
                          angular._count_certify(tables, denominator, big_n, rows, tolerance))


def move_an_s_plus_entry(monkeypatch, poisoned):
    build = suite._build_stack

    def moved_entry(ratio, *columns):
        stack = build(ratio, *columns)
        i = stack_labels(stack).index(poisoned)
        stack.s_plus_band[i, 1] = np.nextafter(np.nextafter(stack.s_plus_band[i, 1], 9), 9)
        return stack

    monkeypatch.setattr(suite, "_build_stack", moved_entry)


def poison_values(monkeypatch, poisoned, change):
    refuse = angular._refuse

    def poisoned_values(ratio, big_n, p, q, values):  # past the refusals and the residuals
        refuse(ratio, big_n, p, q, values)
        i = column_labels(big_n, p, q).index(poisoned)
        change(values[i])

    monkeypatch.setattr(angular, "_refuse", poisoned_values)


def swap_a_pair(row):
    row[[1, 2]] = row[[2, 1]]


def nan_value(row):
    row[2] = math.nan


@pytest.mark.parametrize("control", ["s_plus", "swap", "nan"])
def test_negative_controls_are_counted_and_never_enclosed(monkeypatch, control):
    ratio, poisoned = FrequencyRatio(1, 2), IrrepLabel(3, 1, 2)
    if control == "s_plus":  # 2 ulps: the oracle fails
        move_an_s_plus_entry(monkeypatch, poisoned)
    else:
        poison_values(monkeypatch, poisoned, swap_a_pair if control == "swap" else nan_value)
    calls = record_certificate(monkeypatch)
    report = run_suite(ratio, 3)
    # a swapped pair fails a mirror, so its irrep is counted again at i < N/2
    assert [args[0] for args, _ in calls["count"]] == (
        [[StructureFunction(poisoned, ratio).numerators]] * (2 if control == "swap" else 1))
    [((*args, evidence), _)] = calls["certify"]
    assert np.array_equal(angular._certify(*args, evidence), angular._count_certify(*args))
    assert report.irreps[labels_of(ratio, 3).index(poisoned)].failures[
        "exact_check_failures" if control == "s_plus" else "eigen_certificate_failures"] > 0


def test_the_sweep_builds_no_spectrum(monkeypatch):
    # the eigen stage reads `_eigensolve`'s arrays; only `angular_eigenvalues` builds a spectrum
    built = []
    init = angular.AngularSpectrum.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.label)

    monkeypatch.setattr(angular.AngularSpectrum, "__init__", counting_init)
    assert run_suite(FrequencyRatio(1, 2), 6).passed
    assert run_suite(FrequencyRatio(3, 5), 3).passed
    assert built == []
    for label in (IrrepLabel(0, 1, 1), IrrepLabel(3, 2, 4)):
        angular_eigenvalues(label, FrequencyRatio(3, 5))
    assert built == [IrrepLabel(0, 1, 1), IrrepLabel(3, 2, 4)]


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
    # sqrt(Phi(1..N)) has one source: one pass over the sweep makes the stack's S+ band,
    # which feeds the eigensolve and L0, and reads each irrep's table once
    passes, calls = [], Counter()
    offdiagonals = representation._offdiagonals

    def counting_offdiagonals(ratio, labels, tables):
        def counted():
            for table in tables:
                calls[table] += 1
                yield table

        passes.append(labels)
        return offdiagonals(ratio, labels, counted())

    monkeypatch.setattr(representation, "_offdiagonals", counting_offdiagonals)
    monkeypatch.setattr(angular, "_offdiagonals", counting_offdiagonals)
    ratio = FrequencyRatio(1, 2)
    assert run_suite(ratio, 4).passed
    labels = labels_of(ratio, 4)
    assert len(passes) == 1
    assert sum(calls.values()) == len(labels)
    assert calls == Counter(StructureFunction(label, ratio).numerators for label in labels)


def test_runs_the_stacked_checks_once_per_sweep_on_the_bands(monkeypatch):
    def refuse(rep):
        raise AssertionError("run_suite read a dense generator")

    for name in ("s0", "s_plus", "s_minus", "h"):
        monkeypatch.setattr(representation.IrrepMatrices, name, property(refuse))
    calls = Counter()
    for name in ("_algebra_reports", "_oracle_reports", "_w32_reports", "_sweep_eigen"):
        def counting(*args, _kernel=getattr(suite, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(suite, name, counting)
    for ratio, n_max, w32_runs in ((FrequencyRatio(1, 2), 6, 1), (FrequencyRatio(2, 3), 4, 0)):
        calls.clear()
        assert run_suite(ratio, n_max).passed
        assert calls == Counter(_algebra_reports=1, _oracle_reports=1, _w32_reports=w32_runs,
                                _sweep_eigen=1)


@pytest.mark.parametrize("m,n,n_max", [(1, 2, 12), (3, 5, 6)])
def test_padding_leaves_every_irreps_stacked_results_its_own(monkeypatch, m, n, n_max):
    # every irrep narrower than the sweep sits on zero padding in the stack
    reports = {}
    for name in ("_algebra_reports", "_oracle_reports", "_w32_reports"):
        def recording(stack, *args, _kernel=getattr(suite, name), _name=name, **kwargs):
            results = residuals, exact_checks = _kernel(stack, *args, **kwargs)
            for i, label in enumerate(stack_labels(stack)):  # irrep i's row of each column
                reports[_name, label] = VerificationReport(
                    _name, {key: float(values[i]) for key, values in residuals.items()},
                    {key: values[i] for key, values in exact_checks.items()}, 0.0)
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

    def inf_in_the_last_real_entry(ratio, *columns):
        stack = build(ratio, *columns)
        i, size = column_labels(*columns).index(poisoned), poisoned.N + (band != "s_plus_band")
        getattr(stack, band)[i, size - 1] = math.inf
        assert getattr(stack, band).shape[-1] > size
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
