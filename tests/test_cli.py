import csv
import io
import json
import math
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deformed_u2 import IrrepLabel, StructureFunction, VerificationReport
from deformed_u2 import angular, cli, structure, suite
from deformed_u2.cli import main

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

    def test_json_builds_no_rows(self, runner, monkeypatch):
        calls = Counter()
        fmt = cli._fmt

        def counting_fmt(value):
            calls["fmt"] += 1
            return fmt(value)

        monkeypatch.setattr(cli, "_fmt", counting_fmt)
        result = invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500",
                        "--format", "json")
        assert len(json.loads(result.output)["records"]) == 1500
        assert calls["fmt"] == 0
        invoke(runner, "spectrum", "--ratio", "3:5", "--count", "1500", "--format", "csv")
        assert calls["fmt"] == 1500


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

        def nan_for_one_irrep(stack, tolerance):
            reports = list(verify(stack, tolerance))
            for i, rep in enumerate(stack.irreps):
                if rep.label == IrrepLabel(1, 1, 1):
                    report = reports[i]
                    reports[i] = VerificationReport(
                        report.name, {**report.residuals, "commutator_h": math.nan},
                        report.exact_checks, tolerance,
                    )
            return tuple(reports)

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
        # each irrep's Phi table is F's product at x = 0..N+1, made once
        structure.commutator_polynomial.cache_clear()
        phi_calls = Counter()
        product = StructureFunction._product

        def counting_product(self, numerator, denominator):
            phi_calls[self.label] += 1
            return product(self, numerator, denominator)

        builds = []
        build = structure.CommutatorPolynomial

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(StructureFunction, "_product", counting_product)
        monkeypatch.setattr(structure, "CommutatorPolynomial", counting_build)
        result = invoke(runner, "verify", "--ratio", "2:3", "--N-max", "3",
                        "--format", "json")
        assert result.exit_code == 0
        labels = [
            IrrepLabel(big_n, p, q)
            for big_n in range(4) for p in range(1, 3) for q in range(1, 4)
        ]
        assert phi_calls == {label: label.N + 2 for label in labels}
        assert len(builds) == 1


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


class TestJsonText:
    @settings(max_examples=300)
    @given(document=JSON_DOCUMENTS)
    @example(document={"a": {}, "b": [[], ()], "c": [{}, [-0.0, math.nan]]})
    def test_matches_json_dumps(self, document):
        assert cli._json_text(document) == json.dumps(document, indent=2)

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
