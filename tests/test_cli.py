import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deformed_u2
from deformed_u2 import IrrepLabel, StructureFunction, VerificationReport
from deformed_u2 import angular, cli, core, representation, structure, suite
from deformed_u2.cli import main
from irrep_columns import built_labels, column_labels, stack_labels

# exact fields of reference JSON outputs; float residuals vary by platform and stay out
PINNED = json.loads((Path(__file__).parent / "data" / "cli_output.json").read_text())


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestSpectrum:
    def test_1_2_table_degeneracies(self, runner):
        result = invoke(runner, "spectrum", "--ratio", "1:2", "--count", "6")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[2:]
        assert [int(row.split()[-1]) for row in rows] == [1, 1, 2, 2, 3, 3]
        assert rows[0].split()[0] == "3/4"

    def test_2_3_pattern(self, runner):
        result = invoke(runner, "spectrum", "--ratio", "2:3", "--count", "15")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[2:]
        degeneracies = [int(row.split()[-1]) for row in rows]
        assert degeneracies == [1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3]

    def test_non_coprime_exits_2(self, runner):
        result = runner.invoke(main, ["spectrum", "--ratio", "2:4", "--count", "5"])
        assert result.exit_code == 2
        assert "coprime" in result.stderr

    def test_json_schema_and_round_trip(self, runner):
        result = invoke(runner, "spectrum", "--ratio", "1:2", "--count", "4",
                        "--format", "json")
        document = json.loads(result.output)
        assert list(document) == ["schema_version", "ratio", "command", "records",
                                  "residuals", "tool_version"]
        assert document["schema_version"] == 2
        assert document["ratio"] == {"m": 1, "n": 2}
        assert document["command"] == "spectrum"
        assert document["records"][0]["energy"] == "3/4"
        # parse -> serialize -> parse is idempotent
        assert json.loads(json.dumps(document)) == document

    def test_csv_output(self, runner):
        result = invoke(runner, "spectrum", "--ratio", "1:1", "--count", "4",
                        "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(result.output)))
        assert [row["energy"] for row in rows] == ["1", "2", "3", "4"]
        assert [row["degeneracy"] for row in rows] == ["1", "2", "3", "4"]

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 10) for n in range(1, 10)
                                     if math.gcd(m, n) == 1])
    def test_energy_text_is_the_fraction_text(self, runner, m, n):
        # the energy is written from the int key 2mn E, never through a Fraction
        result = invoke(runner, "spectrum", "--ratio", f"{m}:{n}", "--count", "300",
                        "--format", "json")
        energies = [record["energy"] for record in json.loads(result.output)["records"]]
        keys = core._level_keys(core.FrequencyRatio(m, n), 300)[0]
        assert energies == [str(Fraction(key, 2 * m * n)) for key in keys]
        if (m, n) in ((1, 1), (3, 5)):
            # integer energies (every level of 1:1; p = 2, q = 3 at 3:5) have no "/"
            whole = [energy for energy, key in zip(energies, keys) if key % (2 * m * n) == 0]
            assert whole and all("/" not in energy for energy in whole)

    def test_json_builds_no_rows(self, runner, monkeypatch):
        calls = Counter()
        fmt, report = cli._fmt, cli._report

        def counting_fmt(value):
            calls["fmt"] += 1
            return fmt(value)

        def counting_report(*args):  # spectrum passes its csv and table rows last
            *head, rows = args

            def counted():
                for row in rows:
                    calls["row"] += 1
                    yield row

            report(*head, counted())

        monkeypatch.setattr(cli, "_fmt", counting_fmt)
        monkeypatch.setattr(cli, "_report", counting_report)
        result = invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500",
                        "--format", "json")
        assert len(json.loads(result.output)["records"]) == 1500
        assert calls["fmt"] == 0
        assert calls["row"] == 0
        invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500", "--format", "csv")
        assert calls["row"] == 1500

    def test_json_builds_no_label_or_level(self, runner, monkeypatch):
        calls = Counter()
        post_init, level_new = core.IrrepLabel.__post_init__, core.Level.__new__

        def counting_post_init(label):
            calls["IrrepLabel"] += 1
            post_init(label)

        def counting_new(cls, *args):
            calls["Level"] += 1
            return level_new(cls, *args)

        monkeypatch.setattr(core.IrrepLabel, "__post_init__", counting_post_init)
        monkeypatch.setattr(core.Level, "__new__", counting_new)
        result = invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500",
                        "--format", "json")
        assert len(json.loads(result.output)["records"]) == 1500
        assert calls == Counter()
        # the counters see what the library route builds
        core.enumerate_levels(core.FrequencyRatio(3, 5), 7)
        assert calls == Counter(IrrepLabel=7, Level=7)


class TestIrrep:
    def test_worked_1_2_report(self, runner):
        result = invoke(runner, "irrep", "--ratio", "1:2", "--N", "2",
                        "--p", "1", "--q", "2")
        assert result.exit_code == 0
        assert "energy: 13/4" in result.output
        assert "|0,5>" in result.output
        assert "|1,3>" in result.output
        assert "|2,1>" in result.output
        assert "PASS" in result.output

    def test_isotropic_ground_irrep(self, runner):
        result = invoke(runner, "irrep", "--ratio", "1:1", "--N", "0")
        assert result.exit_code == 0
        assert "energy: 1 (1)" in result.output
        assert "dimension: 1" in result.output

    def test_q_out_of_range_exits_2(self, runner):
        result = runner.invoke(main, ["irrep", "--ratio", "1:2", "--N", "1",
                                      "--p", "1", "--q", "3"])
        assert result.exit_code == 2

    def test_json_matrices(self, runner):
        result = invoke(runner, "irrep", "--ratio", "1:2", "--N", "1",
                        "--format", "json")
        document = json.loads(result.output)
        record = document["records"][0]
        assert record["energy"] == "7/4"
        assert record["phi"] == ["0", "1/2", "0"]
        assert record["matrices"]["s0"][0][0] == pytest.approx(-0.375)
        assert document["residuals"]["exact_check_failures"] == 0.0

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    def test_reads_no_dense_matrix_outside_json(self, runner, monkeypatch, fmt):
        # the dense generators' decimals are written only into the JSON record
        args = ["irrep", "--ratio", "1:2", "--N", "6", "--q", "2", "--format"]
        expected = invoke(runner, *args, fmt).output

        def refuse(rep):
            raise AssertionError("irrep read a dense generator")

        for name in ("s0", "s_plus", "s_minus", "h"):
            monkeypatch.setattr(representation.IrrepMatrices, name, property(refuse))
        assert invoke(runner, *args, fmt).output == expected
        with pytest.raises(AssertionError, match="dense generator"):
            invoke(runner, *args, "json")


class TestAngular:
    def test_1_2_n2_table(self, runner):
        result = invoke(runner, "angular", "--ratio", "1:2", "--N", "2",
                        "--p", "1", "--q", "1")
        assert result.exit_code == 0
        rows = result.output.strip().splitlines()[2:]
        assert len(rows) == 3
        assert "0.5|0,4>" in rows[1]
        assert "0.866025403784|2,0>" in rows[1]

    def test_isotropic_pair_phases(self, runner):
        result = invoke(runner, "angular", "--ratio", "1:1", "--N", "1",
                        "--format", "json")
        records = json.loads(result.output)["records"]
        assert [r["eigenvalue"] for r in records] == [-1.0, 1.0]
        minus = records[0]["amplitudes"]
        assert minus[0]["re"] == pytest.approx(0.707106781187)
        assert minus[1]["im"] == pytest.approx(0.707106781187)
        plus = records[1]["amplitudes"]
        assert plus[1]["im"] == pytest.approx(-0.707106781187)

    def test_single_row_for_n0(self, runner):
        result = invoke(runner, "angular", "--ratio", "1:2", "--N", "0",
                        "--p", "1", "--q", "2", "--format", "json")
        records = json.loads(result.output)["records"]
        assert len(records) == 1
        assert records[0]["eigenvalue"] == 0.0
        assert records[0]["amplitudes"] == [
            {"n_x": 0, "n_y": 1, "re": 1.0, "im": 0.0, "text": "1"}
        ]

    def test_exact_hints(self, runner):
        result = invoke(runner, "angular", "--ratio", "1:2", "--N", "2",
                        "--p", "1", "--q", "2", "--format", "json")
        records = json.loads(result.output)["records"]
        assert [r["exact_hint"] for r in records] == ["-sqrt(8)", "0", "sqrt(8)"]

    @pytest.mark.parametrize(
        "ratio,big_n,p,q",
        [("3:5", "3", "2", "3"), ("2:3", "4", "2", "1"), ("1:2", "8", "1", "2")],
    )
    def test_no_hint_without_an_exact_root(self, runner, ratio, big_n, p, q):
        result = invoke(runner, "angular", "--ratio", ratio, "--N", big_n,
                        "--p", p, "--q", q, "--format", "json")
        records = json.loads(result.output)["records"]
        assert records[0]["exact_hint"] is None
        assert records[-1]["exact_hint"] is None

    def test_json_numbers_finite_at_n40(self, runner):
        result = invoke(runner, "angular", "--ratio", "3:5", "--N", "40",
                        "--p", "2", "--q", "3", "--format", "json")
        assert result.exit_code == 0

        def reject(constant):
            raise AssertionError(f"non-finite number {constant} in the JSON")

        json.loads(result.output, parse_constant=reject)

    def test_overflow_exits_2_with_label(self, runner):
        result = runner.invoke(main, ["angular", "--ratio", "3:5", "--N", "60",
                                      "--p", "2", "--q", "3"])
        assert result.exit_code == 2
        assert "(N=60, p=2, q=3)" in result.stderr
        assert "c_" in result.stderr

    def test_lists_the_members_once(self, runner, monkeypatch):
        # every column's Cartesian view reads the one member list of the irrep
        calls = Counter()
        members = angular.irrep_members

        def counting_members(label, ratio):
            calls[label] += 1
            return members(label, ratio)

        monkeypatch.setattr(angular, "irrep_members", counting_members)
        result = invoke(runner, "angular", "--ratio", "2:3", "--N", "6", "--p", "2",
                        "--q", "3", "--format", "json")
        assert result.exit_code == 0
        assert len(json.loads(result.output)["records"]) == 7
        assert calls == {IrrepLabel(6, 2, 3): 1}


class TestVerify:
    def test_1_2_passes_with_w32_section(self, runner):
        result = invoke(runner, "verify", "--ratio", "1:2", "--N-max", "4",
                        "--format", "json")
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert any(key.startswith("w32_") for key in document["residuals"])
        summary = document["records"][0]
        assert summary["kind"] == "summary"
        assert summary["passed"] is True
        assert list(summary["worst_irreps"]) == list(document["residuals"])

    def test_2_3_passes_without_w32_section(self, runner):
        result = invoke(runner, "verify", "--ratio", "2:3", "--N-max", "3",
                        "--format", "json")
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert not any(key.startswith("w32_") for key in document["residuals"])
        assert "parafermionic_failures" not in document["residuals"]

    def test_isotropic_reports_plain_commutator(self, runner):
        result = invoke(runner, "verify", "--ratio", "1:1", "--N-max", "8")
        assert result.exit_code == 0
        assert "-2*S0" in result.output
        assert "result: PASS" in result.output

    def test_unreachable_tolerance_fails_with_report(self, runner):
        result = runner.invoke(main, ["verify", "--ratio", "1:2", "--N-max", "3",
                                      "--tol", "1e-30"])
        assert result.exit_code == 1
        assert "result: FAIL" in result.output

    def test_tight_tolerance_passes(self, runner):
        # the certificate proves every eigenvalue within 2^-44 <= 1e-13, the
        # eigen tolerance, and eigh agrees with the dense L0 within it
        result = invoke(runner, "verify", "--ratio", "1:2", "--N-max", "3",
                        "--tol", "1e-14", "--format", "json")
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["records"][0]["passed"] is True
        assert document["residuals"]["method_agreement"] <= 1e-13
        assert document["residuals"]["eigen_certificate_failures"] == 0.0

    @pytest.mark.parametrize("command", [["irrep", "--N", "3"], ["verify", "--N-max", "3"]])
    @pytest.mark.parametrize("tol", ["inf", "-1", "0", "nan"])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, runner, command, tol):
        result = runner.invoke(main, [command[0], "--ratio", "1:2", *command[1:],
                                      f"--tol={tol}"])
        assert result.exit_code == 2
        assert "--tol" in result.stderr
        assert f"{float(tol)} is not a finite number > 0" in result.stderr

    @pytest.mark.parametrize("command", [["irrep", "--N", "1"], ["verify", "--N-max", "1"]])
    @pytest.mark.parametrize("tol", ["1e308", "1.7976931348623157e308", "1.8e307"])
    def test_rejects_tolerance_whose_tenfold_overflows(self, runner, command, tol):
        result = runner.invoke(main, [command[0], "--ratio", "1:1", *command[1:],
                                      f"--tol={tol}"])
        assert result.exit_code == 2
        assert "--tol" in result.stderr
        assert f"{float(tol)} is too large" in result.stderr

    def test_largest_accepted_tolerance_gives_finite_json(self, runner):
        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        result = invoke(runner, "verify", "--ratio", "1:1", "--N-max", "1",
                        "--tol", "1.7e307", "--format", "json")
        assert result.exit_code == 0
        summary = json.loads(result.output, parse_constant=reject)["records"][0]
        assert summary["eigen_tolerance"] == 1.7e308

    def test_deterministic_output(self, runner):
        args = ["verify", "--ratio", "2:3", "--N-max", "3", "--format", "json"]
        first = invoke(runner, *args).output
        second = invoke(runner, *args).output
        assert first == second

    def test_nan_residual_fails_the_sweep(self, runner, monkeypatch):
        verify = suite._algebra_reports

        def nan_for_one_irrep(stack, proven=()):
            residuals, exact_checks = verify(stack, proven)
            for i, label in enumerate(stack_labels(stack)):
                if label == IrrepLabel(1, 1, 1):
                    residuals["commutator_h"][i] = math.nan
            return residuals, exact_checks

        monkeypatch.setattr(suite, "_algebra_reports", nan_for_one_irrep)
        result = invoke(runner, "verify", "--ratio", "1:1", "--N-max", "2",
                        "--format", "json")
        assert result.exit_code == 1
        document = json.loads(result.output)
        assert document["records"][0]["passed"] is False
        assert math.isnan(document["residuals"]["commutator_h"])
        worst = {(r["N"], r["p"], r["q"]): r["max_residual"] for r in document["records"][1:]}
        assert math.isnan(worst[(1, 1, 1)])
        assert not any(math.isnan(v) for key, v in worst.items() if key != (1, 1, 1))
        named = document["records"][0]["worst_irreps"]
        assert named["commutator_h"] == {"N": 1, "p": 1, "q": 1}

    def test_builds_no_report_object_per_irrep(self, runner, monkeypatch):
        # the sweep keeps each check as one column over its irreps, and verify renders the
        # columns: no check builds a report per irrep, and no per-irrep record or energy
        # `Fraction` is derived
        built = Counter()
        for cls in (VerificationReport, suite.IrrepReport):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built[type(self).__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)

        def refuse(name):
            def read(report):
                raise AssertionError(f"verify read SuiteReport.{name}")
            return property(read)

        for name in ("irreps", "energies"):
            monkeypatch.setattr(suite.SuiteReport, name, refuse(name))
        for ratio, n_max in (("1:2", "6"), ("3:5", "3")):
            for fmt in ("json", "table", "csv"):
                result = invoke(runner, "verify", "--ratio", ratio, "--N-max", n_max,
                                "--format", fmt)
                assert result.exit_code == 0, result.output
        assert built == Counter()

    def test_builds_a_label_only_to_name_a_worst_irrep(self, runner, monkeypatch):
        # N, p and q are written from the report's columns; each worst irrep builds its label
        built = built_labels(monkeypatch)
        result = invoke(runner, "verify", "--ratio", "3:5", "--N-max", "4", "--format", "json")
        assert result.exit_code == 0, result.output
        document = json.loads(result.output)
        worst = document["records"][0]["worst_irreps"]
        assert len(worst) == 10
        assert 0 < len(built) <= len(worst)
        assert {(label.N, label.p, label.q) for label in built} == {
            (irrep["N"], irrep["p"], irrep["q"]) for irrep in worst.values()}
        assert [(irrep["N"], irrep["p"], irrep["q"]) for irrep in document["records"][1:]] == [
            (big_n, p, q) for big_n in range(5) for p in range(1, 4) for q in range(1, 6)]

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(1, 6)
                                     if math.gcd(m, n) == 1])
    def test_energy_text_is_the_fraction_text(self, runner, m, n):
        # the energy is written from the sweep's int keys 2mn E, never through a Fraction
        result = invoke(runner, "verify", "--ratio", f"{m}:{n}", "--N-max", "4",
                        "--format", "json")
        irreps = json.loads(result.output)["records"][1:]
        assert len(irreps) == 5 * m * n
        assert [irrep["energy"] for irrep in irreps] == [
            str(Fraction(2 * m * n * irrep["N"] + n * (2 * irrep["p"] - 1)
                         + m * (2 * irrep["q"] - 1), 2 * m * n)) for irrep in irreps]

    @pytest.mark.parametrize("ratio,n_max", [("1:2", "20"), ("3:5", "8")])
    def test_passes_at_larger_n(self, runner, ratio, n_max):
        result = invoke(runner, "verify", "--ratio", ratio, "--N-max", n_max,
                        "--format", "json")
        assert result.exit_code == 0
        document = json.loads(result.output)
        assert document["records"][0]["passed"] is True
        assert document["residuals"]["eigenvector_residual"] <= 1e-9
        assert document["residuals"]["orthonormality"] <= 1e-9

    def test_phi_and_commutator_computed_once(self, runner, monkeypatch):
        # each irrep's Phi table comes from the sweep's X_p and Y_q tables, made once;
        # no Phi value is F's m + n factor product; the commutator's text is written once
        # by the formats that print it, json and table, and never by csv
        phi_calls, products = Counter(), []
        numerators = structure._phi_numerators

        def counting_numerators(ratio, *columns):
            for label, table in zip(column_labels(*columns), numerators(ratio, *columns)):
                phi_calls[label] += 1
                yield table

        product = StructureFunction._product

        def counting_product(self, numerator, denominator):
            products.append(self.label)
            return product(self, numerator, denominator)

        builds = []
        build = structure.CommutatorPolynomial

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        renders = []
        render = build.__str__

        def counting_render(self):
            renders.append(self)
            return render(self)

        monkeypatch.setattr(representation, "_phi_numerators", counting_numerators)
        monkeypatch.setattr(structure, "_phi_numerators", counting_numerators)
        monkeypatch.setattr(StructureFunction, "_product", counting_product)
        monkeypatch.setattr(structure, "CommutatorPolynomial", counting_build)
        monkeypatch.setattr(build, "__str__", counting_render)
        labels = [
            IrrepLabel(big_n, p, q)
            for big_n in range(4) for p in range(1, 3) for q in range(1, 4)
        ]
        for fmt, rendered in (("json", 1), ("table", 1), ("csv", 0)):
            structure.commutator_polynomial.cache_clear()
            for calls in (phi_calls, products, builds, renders):
                calls.clear()
            result = invoke(runner, "verify", "--ratio", "2:3", "--N-max", "3",
                            "--format", fmt)
            assert result.exit_code == 0
            assert phi_calls == {label: 1 for label in labels}
            assert products == []
            assert len(builds) == 1
            assert len(renders) == rendered, fmt


@pytest.mark.parametrize("args", [
    pytest.param(["angular", "--N", "9"], id="angular"),
    pytest.param(["verify", "--N-max", "9"], id="verify"),
])
def test_unseparated_eigenvalues_exit_2_naming_ratio_and_gap(runner, args):
    # at 1:20 N = 9 the middle pair of (9, 1, 1) is ~9.1e-4 apart, within the margin
    # 1e-12 max|l| ~ 2.2e-3
    result = runner.invoke(main, [args[0], "--ratio", "1:20", *args[1:]])
    assert result.exit_code == 2
    assert ("eigenvalues of (N=9, p=1, q=1) not strictly separated in the 1:20 oscillator"
            in result.stderr)
    assert re.search(r"closest gap 0\.0009\d\d <= margin 1e-12 max\|l\| = 0\.00218",
                     result.stderr)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("args, label", [
    pytest.param(["irrep", "--N", "20"], "(N=20, p=1, q=1)", id="irrep"),
    pytest.param(["angular", "--N", "20"], "(N=20, p=1, q=1)", id="angular"),
    # the sweep stops at the first irrep, in build order, whose Phi leaves float range
    pytest.param(["verify", "--N-max", "20"], "(N=11, p=1, q=48)", id="verify"),
])
def test_phi_beyond_float_range_exits_2_with_label(runner, args, label):
    result = runner.invoke(main, [args[0], "--ratio", "1:300", *args[1:]])
    assert result.exit_code == 2
    assert f"Phi(1) of {label} of the 1:300 oscillator is about 1e" in result.stderr
    assert "beyond float range" in result.stderr
    assert "Traceback" not in result.output


# the two eigenvalues of (N=1, p=1, q=1) are far below 1 here (+-4.1e-17 at 40:41), so
# only a separation margin relative to their size tells them apart
@pytest.mark.parametrize("args", [
    pytest.param(["verify", "--ratio", "31:32", "--N-max", "1"], id="verify-31:32"),
    pytest.param(["verify", "--ratio", "1:60", "--N-max", "1"], id="verify-1:60"),
    pytest.param(["angular", "--ratio", "40:41", "--N", "1"], id="angular-40:41"),
])
def test_wide_ratios_separate_small_eigenvalues(runner, args):
    assert invoke(runner, *args).exit_code == 0


class TestPinnedOutput:
    @pytest.mark.parametrize("case", PINNED["spectrum"], ids=lambda c: " ".join(c["args"]))
    def test_spectrum(self, runner, case):
        records = json.loads(invoke(runner, *case["args"], "--format", "json").output)["records"]
        assert [
            [r["energy"], r["N"], r["p"], r["q"], r["degeneracy"]] for r in records
        ] == case["levels"]

    @pytest.mark.parametrize("case", PINNED["irrep"], ids=lambda c: " ".join(c["args"]))
    def test_irrep(self, runner, case):
        (record,) = json.loads(invoke(runner, *case["args"], "--format", "json").output)["records"]
        assert (record["energy"], record["u"], record["phi"]) == (
            case["energy"], case["u"], case["phi"]
        )

    @pytest.mark.parametrize("case", PINNED["verify"], ids=lambda c: " ".join(c["args"]))
    def test_verify(self, runner, case):
        document = json.loads(invoke(runner, *case["args"], "--format", "json").output)
        summary, *irreps = document["records"]
        assert summary["commutator"] == case["commutator"]
        assert summary["irreps_checked"] == case["irreps_checked"]
        assert [[r["N"], r["p"], r["q"], r["energy"]] for r in irreps] == case["irreps"]
        failures = {k: v for k, v in document["residuals"].items() if k.endswith("_failures")}
        assert failures == case["failures"]

    @pytest.mark.parametrize("case", PINNED["angular"], ids=lambda c: " ".join(c["args"]))
    def test_angular(self, runner, case):
        records = json.loads(invoke(runner, *case["args"], "--format", "json").output)["records"]
        assert [r["marker"] for r in records] == case["markers"]
        assert [r["exact_hint"] for r in records] == case["exact_hints"]


class TestPinnedText:
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    @pytest.mark.parametrize("case", PINNED["verify_text"], ids=lambda c: " ".join(c["args"]))
    def test_verify(self, runner, case, fmt):
        # header and footer lines, check names in order and the status column
        result = runner.invoke(main, [*case["args"], "--format", fmt])
        assert result.exit_code == (0 if case["result"] == "result: PASS" else 1)
        lines = result.output.splitlines()
        if fmt == "table":
            assert lines[:5] == case["header"] + [""]
            assert lines[5].split() == ["check", "worst", "residual", "status"]
            assert set(lines[6]) == {"-", " "}
            assert lines[-2:] == ["", case["result"]]
            rows = [line.split() for line in lines[7:-2]]
        else:
            assert lines[0] == "check,worst residual,status"
            rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 3 for row in rows)
        assert [row[0] for row in rows] == case["checks"]
        assert [row[2] for row in rows] == case["status"]


# one command each, with the exit code it has in every format
OUTPUT_CASES = [
    pytest.param(["spectrum", "--ratio", "1:2", "--count", "3"], 0, id="spectrum"),
    pytest.param(["irrep", "--ratio", "1:2", "--N", "2", "--tol", "1e-30"], 1, id="irrep"),
    pytest.param(["angular", "--ratio", "1:2", "--N", "2"], 0, id="angular"),
    pytest.param(["verify", "--ratio", "1:2", "--N-max", "3", "--tol", "1e-30"], 1, id="verify"),
]


class TestOutputFile:
    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    @pytest.mark.parametrize("args, exit_code", OUTPUT_CASES)
    def test_writes_file(self, runner, tmp_path, args, exit_code, fmt):
        target = tmp_path / "report.out"
        printed = invoke(runner, *args, "--format", fmt)
        written = invoke(runner, *args, "--format", fmt, "--output", str(target))
        assert printed.exit_code == written.exit_code == exit_code
        assert written.output == ""
        assert target.read_text(encoding="utf-8") == printed.stdout

    @pytest.mark.parametrize("args, exit_code", OUTPUT_CASES)
    def test_unwritable_output_exits_2(self, runner, tmp_path, args, exit_code):
        # exit 2 even where the report fails (exit 1 when written)
        target = tmp_path / "missing" / "out.json"
        result = invoke(runner, *args, "--output", str(target))
        assert result.exit_code == 2
        assert f"cannot write {target}: " in result.stderr
        assert "Traceback" not in result.output
        assert not target.parent.exists()


def run_module(*args):
    """`python -m deformed_u2.cli ARGS` in a fresh interpreter, with this package's src first
    on PYTHONPATH and stdout block-buffered, as in a pipe: its output has to be whole when
    the process exits, whatever the collections at interpreter exit do."""
    src = str(Path(deformed_u2.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "deformed_u2.cli", *args], env=env,
                          capture_output=True, text=True)


class TestFreshProcess:
    def test_output_file_is_whole(self, runner, tmp_path):
        args = ["verify", "--ratio", "1:2", "--N-max", "2", "--format", "json"]
        target = tmp_path / "report.json"
        completed = run_module(*args, "--output", str(target))
        assert completed.returncode == 0
        assert completed.stdout == ""
        assert target.read_bytes() == invoke(runner, *args).stdout_bytes

    @pytest.mark.parametrize("args, exit_code", [
        (["spectrum", "--ratio", "2:3", "--count", "10", "--format", "csv"], 0),
        (["verify", "--ratio", "1:2", "--N-max", "2", "--tol", "1e-30", "--format", "json"], 1),
    ])
    def test_stdout_is_whole(self, runner, args, exit_code):
        completed = run_module(*args)
        assert completed.returncode == exit_code
        assert completed.stdout == invoke(runner, *args).stdout

    def test_usage_error_reaches_stderr(self, runner):
        args = ["irrep", "--ratio", "2:4", "--N", "1"]
        completed = run_module(*args)
        expected = runner.invoke(main, args)
        assert completed.returncode == expected.exit_code == 2
        assert completed.stdout == ""
        assert "coprime" in completed.stderr
        # the usage lines name the program, which differs; the error line does not
        assert completed.stderr.splitlines()[-1] == expected.stderr.splitlines()[-1]


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308]),
    st.text(),
    st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "😀"])),
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=30,
)


class _Int(int):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


# a column repeats a short pattern of one kind of value to the table's size, and may end
# in any value, so a type change can fall in the last chunk alone
COLUMN_VALUES = [
    st.integers() | st.integers(min_value=2**64, max_value=2**200),
    st.text() | st.text(st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "%", "é", "😀"])),
    st.floats(allow_nan=False, allow_infinity=False),  # -0.0 and subnormals included
    JSON_SCALARS | st.integers().map(_Int) | st.text().map(_Str) | st.floats().map(_Float),
]

# the floats of a column written as their number texts (`cli._numbers`)
NUMBER_TEXTS = st.floats()


@st.composite
def tables(draw):
    """Columns of a table; a column of floats may be drawn as their number texts."""
    keys = draw(st.lists(st.text(st.sampled_from('ab%"}{,\\\né'), max_size=4),
                         min_size=1, max_size=4, unique=True))
    size = draw(st.sampled_from([0, 1, cli._CHUNK - 1, cli._CHUNK, cli._CHUNK + 1])
                | st.integers(0, 5))
    columns = {}
    for key in keys:
        values = draw(st.sampled_from([*COLUMN_VALUES, NUMBER_TEXTS]))
        pattern = draw(st.lists(values, min_size=1, max_size=3))
        columns[key] = [pattern[i % len(pattern)] for i in range(size)]
        if values is NUMBER_TEXTS:
            columns[key] = cli._numbers(cli._cells(columns[key]))
        elif size and draw(st.booleans()):
            columns[key][-1] = draw(COLUMN_VALUES[-1])
    return columns


def plain(columns):
    """The columns, each column of number texts as the floats its texts stand for."""
    return {key: list(map(float, column)) if type(column) is cli._Numbers else column
            for key, column in columns.items()}


JSON_TEXT = cli._json_text


@pytest.fixture()
def item_path(monkeypatch):
    """The values that `_json_text` is called on, value by value, from here on."""
    values = []

    def recording(value, depth=0):
        values.append(value)
        return JSON_TEXT(value, depth)

    monkeypatch.setattr(cli, "_json_text", recording)
    return values


def table(records):
    """The records, dicts with one key order, as a `_Table` of columns."""
    records = list(records)
    return cli._Table({key: [record[key] for record in records] for key in records[0]}
                      if records else {})


def expanded(document):
    """The document `_json_text` writes for one that holds `_Table`s: each table replaced
    by the list of its records, spliced into a list (or tuple) that holds it."""
    if isinstance(document, cli._Table):
        return [dict(zip(document.columns, row)) for row in zip(*document.columns.values())]
    if isinstance(document, dict):
        return {key: expanded(value) for key, value in document.items()}
    if isinstance(document, (list, tuple)):
        items = []
        for item in document:
            if isinstance(item, cli._Table):
                items += expanded(item)
            else:
                items.append(expanded(item))
        return items
    return document


class TestJsonText:
    @settings(max_examples=300)
    @given(document=JSON_DOCUMENTS)
    @example(document={"a": {}, "b": [[], ()], "c": [{}, [-0.0, math.nan]]})
    def test_matches_json_dumps(self, document):
        assert cli._json_text(document) == json.dumps(document, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(columns=tables())
    @example(columns={})
    @example(columns={"%s": [1, 2], '"%%"': ["%d", "%"], "}": [-0.0, 0.5], "{": [None, True]})
    @example(columns={"%": cli._numbers(cli._cells([0.5, math.nan, -math.inf, 5e-5, 1e12, -0.0])),
                      "k": [1] * 6})
    def test_table_matches_json_dumps(self, columns):
        # bare, as a dict's value, and spliced after a dict into a list, as verify writes
        # its summary and irreps
        rows = cli._Table(columns)
        records = [dict(zip(columns, row)) for row in zip(*plain(columns).values())]
        assert cli._json_text(rows) == json.dumps(records, indent=2)
        assert cli._json_text({"records": rows}) == json.dumps({"records": records}, indent=2)
        head = {"kind": "summary", "n": [1, 2]}
        assert (cli._json_text([head, rows, rows])
                == json.dumps([head, *records, *records], indent=2))

    @pytest.mark.parametrize("document", [
        # more than two chunks of records, at several depths
        table({"k": i, "v": str(i)} for i in range(2 * cli._CHUNK + 3)),
        {"a": {"b": table({"x": i / 3, "y": None, "z": True} for i in range(2 * cli._CHUNK + 1))}},
        # tables spliced among nested items, scalars, tuples and empty tables
        [{"a": 1}, table({"c": i} for i in range(3)), {"b": [1, 2]}, 6, table(()),
         ({"g": 8}, table([{"h": 9}])), [], (), {"j": {"k": 11}}, table([{"l": 12}])],
        [table(()), table(())],
        {"a": table(()), "b": [table(()), 1]},
        # keys and values that look like record boundaries or template fields
        table({"}": "{", "},\n": "},\n    {", "%s": "%d", "%%": i} for i in range(5)),
        table({"k": "}" * i + ",\n" + " " * i + "{", '"': "%(k)s"} for i in range(200)),
        # chunk edges, then a record holding a container
        [table({"k": i} for i in range(size)) for size in (cli._CHUNK - 1, cli._CHUNK + 1)]
        + [{"k": [1, {"x": 2}]}],
        {"records": [table({"k": i} for i in range(cli._CHUNK)), {"k": {}}]},
        # bools, None and the floats no template field takes
        {"a": table({"b": i % 2 == 0, "c": None, "d": i / 7} for i in range(cli._CHUNK + 2))},
        table({"x": x, "n": -0.0} for x in (0.5, math.nan, math.inf, -math.inf, 5e-324)),
        # a type change in the last chunk alone
        table({"k": i if i < cli._CHUNK else True} for i in range(cli._CHUNK + 1)),
        table({"k": str(i) if i < cli._CHUNK else None} for i in range(cli._CHUNK + 1)),
        # ints beyond 64 bits, and strings that need escapes
        table({"k": -(2**70) * i, "s": "\u2603\x00\"\\" * i} for i in range(4)),
    ])
    def test_record_runs_match_json_dumps(self, document):
        # a table in a list is spliced in as its records, elsewhere it is their list
        assert cli._json_text(document) == json.dumps(expanded(document), indent=2)

    @pytest.mark.parametrize("record", [
        {"k": _Int(1)}, {"k": _Str("s"), "v": 1}, {"k": 1.5, "v": _Float(2.0)}, {}])
    def test_subclasses_and_empty_dicts_take_the_item_path(self, record, item_path):
        # a column of subclass values is written value by value; a table of empty
        # records has no columns and so no rows: it writes [] and splices in nothing
        rows = table([record] * 3)
        cli._records(rows, 1)
        assert item_path == [v for v in record.values() if type(v) not in (int, str, float)] * 3
        records = [record] * 3 if record else []
        assert JSON_TEXT(rows) == json.dumps(records, indent=2)
        assert JSON_TEXT([{"a": 0}, rows]) == json.dumps([{"a": 0}, *records], indent=2)

    @pytest.mark.parametrize("column, by_value", [
        ([1, -2, 2**70], False),
        (["a", '"\\%', "\u2603"], False),
        ([0.5, -0.0, 5e-324, 1e308], False),
        ([True, False], True),
        ([None, None], True),
        ([1.0, math.nan], True),
        ([math.inf, -1.0], True),
        ([1, 1.0], True),
        ([1, "1"], True),
    ])
    def test_only_exact_int_str_and_finite_float_columns_skip_the_item_path(
            self, column, by_value, item_path):
        rows = cli._Table({"k": column, "v": list(range(len(column)))})
        text = "[\n  " + ",\n  ".join(cli._records(rows, 1)) + "\n]"
        records = [{"k": k, "v": v} for v, k in enumerate(column)]
        assert text == json.dumps(records, indent=2)
        assert item_path == (column if by_value else [])

    def test_no_encoder_call_takes_more_than_a_run(self, monkeypatch):
        # each column is encoded `_CHUNK` records at a time (`_column`), and each chunk
        # is one text
        sizes = []
        column = cli._column

        def counting(values, depth):
            sizes.append(len(values))
            return column(values, depth)

        monkeypatch.setattr(cli, "_column", counting)
        size = 2 * cli._CHUNK + 1
        rows = cli._Table({"k": list(range(size)), "v": [str(i) for i in range(size)]})
        records = [{"k": i, "v": str(i)} for i in range(size)]
        assert len(cli._records(rows, 1)) == 3
        sizes.clear()
        assert cli._json_text({"records": rows}) == json.dumps({"records": records}, indent=2)
        assert sizes == [cli._CHUNK] * 4 + [1, 1]

    def test_spectrum_bypasses_the_python_encoder(self, runner, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "_make_iterencode", refuse)
            result = invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500",
                            "--format", "json")
        assert result.exit_code == 0
        text = result.output.rstrip("\n")
        assert text == json.dumps(json.loads(text), indent=2)


# floats within a few 1e-12 of the magnitudes where `.12g` or repr switches between
# fixed and exponent form
NEAR_SWITCHES = st.sampled_from([1e-4, 1e12, 1e16]).flatmap(
    lambda x: st.floats(x * (1 - 4e-12), x * (1 + 4e-12)))


class TestTextRules:
    @settings(max_examples=500)
    @given(value=st.floats() | NEAR_SWITCHES | NEAR_SWITCHES.map(lambda x: -x))
    @example(value=-0.0)
    @example(value=5e-324)
    @example(value=math.nan)
    @example(value=-math.inf)
    @example(value=999999999999.5)
    @example(value=9.99999999999995e-05)
    def test_decimal_text_is_the_cell_and_json_text_of_the_decimal(self, value):
        # the decimal of a value is the float of its 12-digit cell
        decimal = float(format(value, ".12g"))
        cells = cli._cells([value])
        assert cells == [format(decimal, ".12g")]
        assert cli._numbers(cells) == [json.dumps(decimal)]

    @given(scale=st.integers(1, 300), big_n=st.integers(0, 10**4) | st.integers(2**64, 2**80),
           keys=st.lists(st.integers(min_value=0), max_size=20))
    def test_energy_text_is_the_fraction_text_in_every_residue_class(self, scale, big_n, keys):
        # multiples of the scale included, with the classes met in any order
        keys = [*keys, *(big_n * scale + residue for residue in reversed(range(scale)))]
        assert cli._energy_texts(keys, scale) == [str(Fraction(key, scale)) for key in keys]
