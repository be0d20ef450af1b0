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
