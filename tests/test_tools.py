import importlib.util
import types
from pathlib import Path

import pytest

from deformed_u2 import FrequencyRatio, angular, suite
from deformed_u2.suite import run_suite

TOOLS = Path(__file__).resolve().parents[1] / "tools"
STAGES = ["build", "oracle", "algebra", "w32", "eigen", "certify"]


def load(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


suite_time = load("suite_time")
identity = load("identity")


def test_stage_split_reads_the_reports_and_wraps_no_function():
    kernels = [(suite, name) for name in
               ("_build_stack", "_oracle_reports", "_algebra_reports", "_sweep_eigen")]
    kernels.append((angular, "_certify"))
    originals = [getattr(module, name) for module, name in kernels]
    rounds = []

    def run():
        for (module, name), original in zip(kernels, originals):
            assert getattr(module, name) is original, name
        rounds.append(None)
        return [run_suite(FrequencyRatio(1, 2), 4), run_suite(FrequencyRatio(2, 3), 2)]

    total, split_ms = suite_time.stage_split(run)
    assert len(rounds) == 6  # a warm-up, then five timed rounds
    assert list(split_ms) == [*STAGES, "rest"]
    assert all(value >= 0 for value in split_ms.values())
    assert sum(split_ms.values()) == pytest.approx(1e3 * total)


def test_split_sums_each_stage_over_the_reports():
    reports = [types.SimpleNamespace(stage_seconds=dict.fromkeys(STAGES, seconds))
               for seconds in (0.25, 0.5)]
    assert suite_time.split(5.0, reports) == dict.fromkeys(STAGES, 0.75) | {"rest": 0.5}


def test_reports_without_stage_seconds_put_the_whole_round_in_rest():
    # as on a `src` older than `SuiteReport.stage_seconds`
    reports = [types.SimpleNamespace(), types.SimpleNamespace()]
    assert suite_time.split(0.25, reports) == dict.fromkeys(STAGES) | {"rest": 0.25}


def test_median_line_takes_each_field_s_median_at_the_first_line_s_decimals():
    lines = ["run 1.5 s (build 10.00 ms, certify n/a) 7",
             "run 9.1 s (build 30.0 ms, certify n/a) 7",
             "run 2.34 s (build 20.0 ms, certify n/a) 7"]
    assert identity.median_line(lines) == "run 2.3 s (build 20.00 ms, certify n/a) 7"
    assert identity.median_line(lines[:2]) == "run 5.3 s (build 20.00 ms, certify n/a) 7"


def test_median_line_exits_on_lines_whose_text_differs():
    with pytest.raises(SystemExit, match="differ in more than their numbers"):
        identity.median_line(["run 1.5 s (build n/a)", "run 1.5 s (build 2.0 ms)"])
