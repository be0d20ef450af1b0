"""Tests of the benchmark itself: python -m pytest perfbench

The last test runs two traced rounds of `cli_cold` (about 20 s).
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spectrum_stdout(m, n, count, degeneracy_shift=0):
    records = [
        {"energy": str(e), "N": big_n, "p": p, "q": q, "degeneracy": big_n + 1 + degeneracy_shift}
        for e, big_n, p, q in workloads.lowest_levels(m, n, count)
    ]
    return json.dumps({"records": records})


def test_lowest_levels_known_1_2_pattern():
    levels = workloads.lowest_levels(1, 2, 6)
    assert [big_n + 1 for _, big_n, _, _ in levels] == [1, 1, 2, 2, 3, 3]
    assert levels[0][0] == Fraction(3, 4)


def test_spectrum_check():
    op = workloads.Op("spectrum", 2, 3, 40)
    assert workloads.check(op, 0, spectrum_stdout(2, 3, 40)) == []
    assert workloads.check(op, 0, spectrum_stdout(2, 3, 40, degeneracy_shift=1))
    assert workloads.check(op, 0, spectrum_stdout(2, 3, 39))
    assert workloads.check(op, 0, "not json")


def test_verify_check_requires_exit_code_to_match_report():
    op = workloads.Op("verify", 1, 2, 1)
    irreps = [
        {"kind": "irrep", "N": big_n, "p": 1, "q": q,
         "energy": str(big_n + Fraction(1, 2) + Fraction(2 * q - 1, 4))}
        for big_n in range(2)
        for q in (1, 2)
    ]

    def stdout(passed):
        summary = {"kind": "summary", "irreps_checked": 4, "passed": passed}
        return json.dumps({"records": [summary, *irreps]})

    assert workloads.check(op, 0, stdout(True)) == []
    assert workloads.check(op, 1, stdout(False)) == []
    assert workloads.check(op, 0, stdout(False))
    assert workloads.check(op, 1, stdout(True))


def test_seed_fixes_the_round():
    for name in workloads.WORKLOADS:
        assert workloads.make_round(name, 7) == workloads.make_round(name, 7)
    rounds = {tuple(workloads.make_round("cli_cold", seed)) for seed in range(20)}
    assert len(rounds) > 1
    irreps = {sum(op.irreps for op in r) for r in rounds}
    assert len(irreps) == 1


def test_round_count_depends_on_seconds_only():
    for name in workloads.WORKLOADS:
        assert workloads.rounds(name, 0, False) == 1
        assert workloads.rounds(name, 0, True) == 1
        assert workloads.rounds(name, 24, True) <= workloads.rounds(name, 24, False)
    assert workloads.rounds("verify_deep", 24, False) == 2
    assert workloads.rounds("cli_cold", 24, False) == 5


def test_sampler_times_the_probe_while_the_process_works():
    sampler = speed.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    sampler.stop()
    assert len(sampler.samples) >= 3
    total = sampler.probe_s(0.0, float("inf"))
    assert total == pytest.approx(sum(seconds for _, seconds in sampler.samples))
    assert 0 < total < 0.3
    assert sampler.scale() > 0


def test_self_times_partition_the_root():
    spans = [[0, "cli.verify", 0, 100, None], [1, "a", 10, 40, 0], [2, "b", 15, 25, 1],
             [3, "a", 50, 60, 0]]
    totals = tracing.self_times(spans)
    assert totals["a"][0] == 2
    assert totals["a"][2] == pytest.approx(30e-9)
    assert sum(v[2] for v in totals.values()) == pytest.approx(100e-9)


def test_import_breakdown_charges_nested_imports_to_outer_package():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       mpmath.core",
        "import time:       200 |        300 |     mpmath",
        "import time:       400 |        700 |   sympy",
        "import time:        50 |         50 |     fractions",
        "import time:        10 |        760 | deformed_u2.structure",
        "import time:        30 |         30 |   numpy",
        "import time:         5 |         35 | deformed_u2.cli",
    ]
    result = tracing.import_breakdown(lines)
    assert abs(result["sympy"] - 700e-6) < 1e-12
    assert abs(result["numpy"] - 30e-6) < 1e-12
    assert result["scipy"] == 0.0
    assert abs(result["total"] - 795e-6) < 1e-12


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def traced_round(seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"cli_cold-seed{seed}-trace1.json").read_text())
    return result, record


def test_traced_runs_repeat_counts_and_account_for_wall_time():
    first, record = traced_round(3)
    second, _ = traced_round(3)
    assert first["correct"] and second["correct"]
    counts = {
        name: (first["metrics"][name], second["metrics"][name])
        for name, metric in first["metrics"].items()
        if metric["unit"] == "count" or metric["unit"].startswith("calls/")
    }
    assert counts["representation.build_irrep.calls"][0]["value"] > 0
    assert all(a == b for a, b in counts.values()), counts
    # what the spans and the import leave out is the tracer's own set-up,
    # which is part of the tracing overhead
    for op in record["ops"]:
        if op["mode"] == "traced":
            assert op["unaccounted_s"] <= op["install_s"] + 1e-3
