import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from deformed_u2 import (
    FrequencyRatio,
    IrrepLabel,
    IrrepMatrices,
    ShapeMismatchError,
    VerificationReport,
    WrongRatioError,
    build_irrep,
    oracle_compare,
    verify_algebra,
    w32_check,
    worst_residual,
)
from deformed_u2 import oracle
from deformed_u2.representation import IrrepStack, _diag
from deformed_u2.structure import CommutatorPolynomial
from irrep_columns import all_labels, coprime_pairs


class TestBuildIrrep:
    def test_trivial_isotropic_irrep(self):
        rep = build_irrep(IrrepLabel(0, 1, 1), FrequencyRatio(1, 1))
        assert rep.s_plus == pytest.approx(np.zeros((1, 1)))
        assert rep.s_minus == pytest.approx(np.zeros((1, 1)))
        assert rep.s0 == pytest.approx(np.zeros((1, 1)))
        assert rep.h == pytest.approx(np.ones((1, 1)))
        assert rep.u == 0

    def test_s0_diagonals_in_1_2(self):
        # u = -3/8 for q=1 and u = -5/8 for q=2; both confirmed by the
        # Cartesian oracle below
        ratio = FrequencyRatio(1, 2)
        rep = build_irrep(IrrepLabel(1, 1, 1), ratio)
        assert np.diag(rep.s0) == pytest.approx([-3 / 8, 5 / 8])
        rep = build_irrep(IrrepLabel(1, 1, 2), ratio)
        assert np.diag(rep.s0) == pytest.approx([-5 / 8, 3 / 8])
        for q in (1, 2):
            assert oracle_compare(build_irrep(IrrepLabel(1, 1, q), ratio)).passed

    def test_h_is_scalar_matrix(self):
        rep = build_irrep(IrrepLabel(2, 1, 2), FrequencyRatio(1, 2))
        assert rep.energy == Fraction(13, 4)
        assert rep.h == pytest.approx(3.25 * np.eye(3))

    def test_ladder_entries_are_sqrt_phi(self):
        rep = build_irrep(IrrepLabel(2, 1, 2), FrequencyRatio(1, 2))
        assert rep.phi == (Fraction(0), Fraction(5), Fraction(3), Fraction(0))
        assert rep.s_plus[1, 0] == pytest.approx(math.sqrt(5))
        assert rep.s_plus[2, 1] == pytest.approx(math.sqrt(3))
        assert rep.s_minus == pytest.approx(rep.s_plus.T)

    def test_s0_is_number_plus_u(self):
        rep = build_irrep(IrrepLabel(3, 1, 1), FrequencyRatio(2, 3))
        assert rep.s0 == pytest.approx(np.diag(np.arange(4.0)) + float(rep.u) * np.eye(4))

    @pytest.mark.parametrize("name,offset", [("s0", 0), ("s_plus", -1), ("s_minus", 1), ("h", 0)])
    def test_dense_views_are_built_once_from_the_bands_and_read_only(self, name, offset):
        rep = build_irrep(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        matrix = getattr(rep, name)
        assert matrix is getattr(rep, name)
        assert matrix.shape == (4, 4)
        band = getattr(rep, "s_plus_band" if name == "s_minus" else f"{name}_band")
        assert np.diagonal(matrix, offset).tolist() == band.tolist()
        assert np.count_nonzero(matrix) == np.count_nonzero(np.diagonal(matrix, offset))
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0

    def test_s_minus_is_the_transpose_of_the_s_plus_band(self):
        rep = build_irrep(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        band = np.array([math.pi, math.e, math.sqrt(2.0)])
        moved = dataclasses.replace(rep, s_plus_band=band)
        assert moved.s_minus.tobytes() == _diag(band, 1).tobytes()
        assert moved.s_minus.tobytes() == moved.s_plus.T.copy().tobytes()

    def test_commutators_with_s0_read_one_ladder_band(self):
        # [S0, S-] = -S- is [S0, S+] = S+ negated entry for entry, residual for residual
        rep = build_irrep(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
        band = np.array([math.pi, math.e, math.sqrt(2.0)])
        residuals = verify_algebra(dataclasses.replace(rep, s_plus_band=band)).residuals
        assert residuals["commutator_s0_splus"] > 0.0
        assert residuals["commutator_s0_sminus"].hex() == residuals["commutator_s0_splus"].hex()

    def test_three_bands_are_stored(self):
        bands = ["s0_band", "s_plus_band", "h_band"]
        for cls in (IrrepMatrices, IrrepStack):
            assert [f.name for f in dataclasses.fields(cls) if f.name.endswith("_band")] == bands

    def test_records_compare_and_hash_by_identity(self):
        label, ratio = IrrepLabel(2, 1, 1), FrequencyRatio(1, 2)
        a, b = build_irrep(label, ratio), build_irrep(label, ratio)
        assert a == a
        assert not a != a
        assert a != b
        assert len({a, b}) == 2


class TestVerifyAlgebra:
    def test_constructed_irreps_pass_tightly(self):
        for m, n in coprime_pairs(4):
            if m > 3:
                continue
            ratio = FrequencyRatio(m, n)
            for label in all_labels(m, n, 8):
                report = verify_algebra(build_irrep(label, ratio))
                assert report.max_residual <= 1e-12
                assert all(report.exact_checks.values())
                assert report.passed

    def test_one_dimensional_irrep_is_exact(self):
        report = verify_algebra(build_irrep(IrrepLabel(0, 1, 2), FrequencyRatio(1, 3)))
        assert report.max_residual == 0.0

    def test_one_irrep_evaluates_the_factor_table_once_and_runs_no_oracle(self, monkeypatch):
        def refuse(stack):
            raise AssertionError("verify_algebra ran the oracle")

        calls = []
        differences = CommutatorPolynomial._differences

        def counting(self, *args):
            calls.append(args)
            return differences(self, *args)

        monkeypatch.setattr(oracle, "_oracle_reports", refuse)
        monkeypatch.setattr(CommutatorPolynomial, "_differences", counting)
        rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        report = verify_algebra(rep)
        assert report.passed and report.exact_checks["ladder_difference"]
        assert calls == [(rep.energy, rep.u, 3)]

    def test_fault_injection_is_flagged(self):
        rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        corrupted = rep.s_plus_band.copy()
        corrupted[0] += 1e-3  # S+[1, 0]
        report = verify_algebra(dataclasses.replace(rep, s_plus_band=corrupted))
        assert report.residuals["commutator_sminus_splus"] >= 1e-4
        assert not report.passed

    @pytest.mark.parametrize(
        "residuals",
        [
            {"a": 0.0, "b": math.nan},
            {"a": math.nan, "b": 0.0},
            {"a": 0.0, "b": math.inf},
        ],
    )
    def test_non_finite_residual_never_passes(self, residuals):
        report = VerificationReport("injected", residuals, {}, 1e-10)
        assert not report.max_residual <= 1e-10
        assert not report.passed

    def test_ladder_difference_sees_one_phi_value_off(self):
        # the integer cross-multiplied check against poly(E, u + k), k = 0..N
        # +-1 on a numerator is Phi off by 1/D, the smallest representable change
        rep = build_irrep(IrrepLabel(3, 2, 5), FrequencyRatio(4, 7))
        for k in range(5):
            for delta in (1, -1):
                numerators = list(rep.numerators)
                numerators[k] += delta
                report = verify_algebra(dataclasses.replace(rep, numerators=tuple(numerators)))
                assert report.exact_checks == {
                    "phi_boundary": k not in (0, 4), "phi_positive": True,
                    "ladder_difference": False,
                }
        report = verify_algebra(dataclasses.replace(rep, energy=rep.energy + Fraction(1, 10**30)))
        assert not report.exact_checks["ladder_difference"]

    def test_phi_positive_sees_an_interior_zero(self):
        rep = build_irrep(IrrepLabel(3, 2, 5), FrequencyRatio(4, 7))
        for k in range(1, 4):
            numerators = list(rep.numerators)
            numerators[k] = 0
            report = verify_algebra(dataclasses.replace(rep, numerators=tuple(numerators)))
            assert report.exact_checks == {
                "phi_boundary": True, "phi_positive": False, "ladder_difference": False,
            }

    def test_failures_count_the_exact_checks_that_do_not_hold(self):
        report = verify_algebra(build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2)))
        assert report.failures == 0
        checks = {"phi_boundary": True, "phi_positive": False, "ladder_difference": True}
        report = VerificationReport("injected", {"a": 0.0}, checks, 1e-10)
        assert report.failures == 1
        assert not report.passed

    def test_worst_residual_keeps_nan_wherever_it_is(self):
        assert worst_residual([]) == 0.0
        assert worst_residual(iter([1e-3, 2e-3])) == 2e-3
        assert math.isnan(worst_residual([1.0, math.nan, 2.0]))
        assert math.isnan(worst_residual([math.nan, 1.0]))
        assert worst_residual([0.0, math.inf]) == math.inf

    def test_shape_mismatch_raises(self):
        rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        bad = dataclasses.replace(rep, s_plus_band=np.zeros(1))
        with pytest.raises(ShapeMismatchError):
            verify_algebra(bad)
        bad = dataclasses.replace(rep, h_band=np.zeros((3, 4)))
        with pytest.raises(ShapeMismatchError):
            verify_algebra(bad)
        # a Phi table one entry short or long, named by its label
        rep = build_irrep(IrrepLabel(3, 1, 2), FrequencyRatio(2, 3))
        for numerators in (rep.numerators[:-1], rep.numerators + (0,)):
            bad = dataclasses.replace(rep, numerators=numerators)
            message = f"the Phi table of (N=3, p=1, q=2) must be 5 long, got {len(numerators)}"
            for check in (verify_algebra, oracle_compare):
                with pytest.raises(ShapeMismatchError, match=re.escape(message)):
                    check(bad)

    def test_report_shape(self):
        report = verify_algebra(build_irrep(IrrepLabel(1, 1, 1), FrequencyRatio(1, 2)))
        assert set(report.residuals) == {
            "commutator_s0_splus",
            "commutator_s0_sminus",
            "commutator_h",
            "commutator_sminus_splus",
        }
        assert set(report.exact_checks) == {
            "phi_boundary",
            "phi_positive",
            "ladder_difference",
        }


class TestW32Check:
    def test_holds_on_1_2_irreps(self):
        ratio = FrequencyRatio(1, 2)
        for big_n in range(9):
            for q in (1, 2):
                rep = build_irrep(IrrepLabel(big_n, 1, q), ratio)
                report = w32_check(rep)
                assert report.max_residual <= 1e-10
                assert report.passed

    def test_refuses_other_ratios(self):
        rep = build_irrep(IrrepLabel(1, 1, 1), FrequencyRatio(1, 3))
        with pytest.raises(WrongRatioError):
            w32_check(rep)

    def test_gauge_freedom(self):
        rep = build_irrep(IrrepLabel(4, 1, 2), FrequencyRatio(1, 2))
        assert w32_check(rep, rho=1.0).passed
        assert w32_check(rep, sigma=0.5).passed
        assert w32_check(rep, rho=2.0, sigma=2.0 / 3.0).passed

    def test_rejects_wrong_gauge_product(self):
        rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        with pytest.raises(ValueError):
            w32_check(rep, rho=1.0, sigma=1.0)

    @pytest.mark.parametrize("rho,sigma", [
        (0.0, None), (None, 0.0), (math.nan, math.nan), (math.nan, None), (None, math.nan),
        (math.inf, None), (None, math.inf), (math.inf, 0.0), (-math.inf, -math.inf),
    ])
    def test_rejects_gauge_that_is_not_finite_or_zero(self, rho, sigma):
        rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
        with pytest.raises(ValueError, match="rho\\*sigma = 4/3"):
            w32_check(rep, rho=rho, sigma=sigma)

    def test_detects_broken_representation(self):
        rep = build_irrep(IrrepLabel(3, 1, 1), FrequencyRatio(1, 2))
        corrupted = rep.s_plus_band.copy()
        corrupted[1] *= 1.001  # S+[2, 1]
        report = w32_check(dataclasses.replace(rep, s_plus_band=corrupted))
        assert not report.passed


@pytest.mark.parametrize("check", [verify_algebra, w32_check], ids=lambda f: f.__name__)
@pytest.mark.parametrize("band", ["s0_band", "s_plus_band", "h_band"])
def test_inf_in_a_band_fails_without_a_warning(band, check):
    # pytest turns warnings into errors, so an inf - inf left unguarded would raise
    rep = build_irrep(IrrepLabel(3, 1, 2), FrequencyRatio(1, 2))
    for value in (math.inf, -math.inf):
        entries = getattr(rep, band).copy()
        entries[1] = value
        report = check(dataclasses.replace(rep, **{band: entries}))
        assert not report.passed
        assert not report.max_residual <= report.tolerance


@pytest.mark.parametrize("check,name", [(verify_algebra, "algebra"), (w32_check, "W_3^(2)")],
                         ids=["verify_algebra", "w32_check"])
@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
def test_rejects_tolerance_that_is_not_finite_and_positive(check, name, tolerance):
    # inf would let every finite residual through the gate; nan, 0 and below fail every irrep
    rep = build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2))
    message = f"{name} tolerance must be finite and > 0, not {tolerance!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        check(rep, tolerance=tolerance)
