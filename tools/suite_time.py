"""Best-of-5 in-process times of perfbench's verify sweeps and its spectrum and verify commands,
and the median cold command and process times of those commands.

    python tools/suite_time.py SRC_DIR

imports `deformed_u2` from SRC_DIR and runs `run_suite` once on every sweep
of `perfbench`'s verify_deep and verify_wide rounds (`VERIFY_DEEP +
VERIFY_WIDE`, read from `perfbench/workloads.py`) as a warm-up, then five times
more, with `run_suite`'s private stages wrapped in timers.  Of those five
rounds, the one with the shortest total gives the total, printed in seconds,
and its stages, printed in milliseconds, so the stages sum to the total and
one load spike cannot move the one without the other: `_build_stack` (build),
`_oracle_reports` (oracle), `_algebra_reports` (algebra), `_sweep_eigen` less
its nested `angular._certify` (eigen), `_certify`, the enclosure and any counts
(certify), and the rest of `run_suite` (rest), which holds `_w32_reports`, the
1:n split's column, the report and the timers.  That time is the library
alone: no interpreter start, import, CLI rendering or JSON, so it moves with
the suite's own work.  A stage with no timed call, as when a `src` lacks its
function, prints `n/a`, and its time goes to rest.  Next comes wide: the
best-of-5 time of `run_suite(1:180, 1)`, its commutator cache cleared before
each call, so every call builds and proves the commutator of a ratio with 181
factors, as a `verify` command does once.
Then it does the same for the four
commands of perfbench's spectrum_levels round (`spectrum --format json` at each
ratio and count of `SPECTRUM_LEVELS`) through
`cli.main`, click parsing and JSON rendering included, with their stdout
captured, and prints that total too, and the same total of the eight `verify
--format json` commands of those verify_deep and verify_wide rounds, which
adds `verify`'s rendering to the sweeps.  Then comes the best-of-5 time of
`compile()` over the sources of `SRC_DIR/deformed_u2/*.py`: an interpreter
that writes no bytecode (`PYTHONDONTWRITEBYTECODE=1`) pays it at every import
of the package, so it grows with the source, docstrings included.  Last, cold:
the median over 5 rounds of the summed command time (`command_s`) of those 12
`spectrum` and `verify` commands, each run in a fresh interpreter by
`perfbench/child.py RECORD plain ...` with `PYTHONDONTWRITEBYTECODE=1`, one BLAS
thread and stdout to /dev/null, as perfbench runs its ops, and wall: the median
over the same 5 rounds of the summed time of those 12 processes from spawn to
exit, so interpreter start, the import and interpreter exit included.  Warm
in-process times can mislead about these: a cold command also pays for first
calls, cold caches and the work the import left undone.

    run_suite 0.0238 s (build 3.0 oracle 3.1 algebra 2.9 eigen 14.0 certify 0.8 rest 2.3 ms)
    wide 0.0390 s  spectrum 0.0096 s  verify 0.0320 s  compile 0.0186 s  cold 0.0610 s
    wall 1.8486 s

all on one line; the cold rounds take about 8 s of the run's 10 s (2 vCPUs, Python 3.11.7).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the BLAS thread limits perfbench sets for its children
THREAD_LIMITS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def best_of_five(run) -> float:
    """The shortest of five timed calls of `run`, after one warm-up call."""
    totals = []
    for _ in range(6):
        start = time.perf_counter()
        run()
        totals.append(time.perf_counter() - start)
    return min(totals[1:])


# each timed function, as the module it is called through, its name and its stage
STAGES = (("suite", "run_suite", "rest"), ("suite", "_build_stack", "build"),
          ("suite", "_oracle_reports", "oracle"), ("suite", "_algebra_reports", "algebra"),
          ("suite", "_sweep_eigen", "eigen"), ("angular", "_certify", "certify"))


def stage_split(package, run) -> tuple[float, dict[str, float | None]]:
    """The shortest total, in s, of five rounds of `run` after a warm-up, and that round's
    time, in ms, of each stage of `run_suite`."""
    spans = []  # (stage, start, end) of every wrapped call, in call order

    def timed(stage, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spans.append((stage, start, time.perf_counter()))
        return wrapper

    originals = []  # (module, name, function) of each wrapped function
    for module, name, stage in STAGES:
        module = getattr(package, module)
        if hasattr(module, name):
            originals.append((module, name, getattr(module, name)))
            setattr(module, name, timed(stage, originals[-1][-1]))
    rounds = []
    try:
        for _ in range(6):
            spans.clear()
            run()
            rounds.append(split(spans))
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    fastest = min(rounds[1:], key=lambda totals: sum(filter(None, totals.values())))
    return sum(filter(None, fastest.values())), {
        key: None if value is None else 1e3 * value for key, value in fastest.items()}


def split(spans) -> dict[str, float | None]:
    """One round's stage totals, in s, from its `(stage, start, end)` spans; None for a stage
    with no span."""
    totals = dict.fromkeys(("build", "oracle", "algebra", "eigen", "certify", "rest"), 0.0)
    for stage, start, end in spans:
        totals[stage] += end - start
    timed = {stage for stage, _, _ in spans}
    if "eigen" in timed:  # `_certify` runs inside `_sweep_eigen`
        totals["eigen"] -= totals["certify"]
    totals["rest"] -= sum(value for key, value in totals.items() if key != "rest")
    return {key: value if key in timed else None for key, value in totals.items()}


def cold_round(src: Path, commands: list[list[str]]) -> tuple[float, float]:
    """The summed `command_s` of `commands`, each run in a fresh interpreter by perfbench's
    `child.py` in `plain` mode, and the summed wall time of those processes from spawn to
    exit; a child that writes no record raises FileNotFoundError."""
    env = {**os.environ, **dict.fromkeys(THREAD_LIMITS, "1"), "PYTHONPATH": str(src),
           "PYTHONDONTWRITEBYTECODE": "1"}
    command = wall = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        record = Path(tmp) / "record.json"
        for args in commands:
            record.unlink(missing_ok=True)
            start = time.perf_counter()
            subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(record), "plain",
                            *args], env=env, stdout=subprocess.DEVNULL)
            wall += time.perf_counter() - start
            command += json.loads(record.read_text(encoding="utf-8"))["command_s"]
    return command, wall


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/suite_time.py SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(PERFBENCH))
    sys.path.insert(0, str(src))
    from workloads import SPECTRUM_LEVELS, VERIFY_DEEP, VERIFY_WIDE

    import deformed_u2
    from deformed_u2 import FrequencyRatio, cli, run_suite, structure, suite

    if src not in Path(deformed_u2.__file__).resolve().parents:
        sys.exit(f"deformed_u2 was imported from {deformed_u2.__file__}, not from {src}")

    sweeps = [(FrequencyRatio(m, n), n_max) for m, n, n_max in VERIFY_DEEP + VERIFY_WIDE]
    spectra = [["spectrum", "--ratio", f"{m}:{n}", "--count", str(count), "--format", "json"]
               for m, n, count in SPECTRUM_LEVELS]
    verifies = [["verify", "--ratio", f"{m}:{n}", "--N-max", str(n_max), "--format", "json"]
                for m, n, n_max in VERIFY_DEEP + VERIFY_WIDE]

    def wide_round():
        structure.commutator_polynomial.cache_clear()
        run_suite(FrequencyRatio(1, 180), 1)

    def command_round(commands):
        for args in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                cli.main(args, prog_name="deformed-u2")

    sources = [(path.read_text(encoding="utf-8"), str(path))
               for path in sorted((src / "deformed_u2").glob("*.py"))]

    def compile_round():
        for source, filename in sources:
            compile(source, filename, "exec")

    def stage_round():
        for ratio, n_max in sweeps:
            suite.run_suite(ratio, n_max)

    total, split_ms = stage_split(deformed_u2, stage_round)
    stages = " ".join(f"{key} {'n/a' if ms is None else f'{ms:.1f}'}"
                      for key, ms in split_ms.items())
    wide = best_of_five(wide_round)
    spectrum = best_of_five(lambda: command_round(spectra))
    verify = best_of_five(lambda: command_round(verifies))
    compiled = best_of_five(compile_round)
    cold, wall = zip(*(cold_round(src, spectra + verifies) for _ in range(5)))
    print(f"run_suite {total:.4f} s ({stages} ms)  wide {wide:.4f} s  spectrum {spectrum:.4f} s  "
          f"verify {verify:.4f} s  compile {compiled:.4f} s  "
          f"cold {statistics.median(cold):.4f} s  wall {statistics.median(wall):.4f} s")


if __name__ == "__main__":
    main()
