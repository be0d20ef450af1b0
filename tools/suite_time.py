"""Best-of-5 in-process times of perfbench's verify sweeps and spectrum commands.

    python tools/suite_time.py SRC_DIR

imports `deformed_u2` from SRC_DIR, runs `run_suite` once on every sweep of
`perfbench`'s verify_deep and verify_wide rounds (`VERIFY_DEEP + VERIFY_WIDE`,
read from `perfbench/workloads.py`) as a warm-up, then five times more, and
prints the shortest of those five totals in seconds.  That time is the library
alone: no interpreter start, import, CLI rendering or JSON, so it moves with
the suite's own work.  Then it does the
same for the four commands of perfbench's spectrum_levels round (`spectrum
--format json` at each ratio and count of `SPECTRUM_LEVELS`) through
`cli.main`, click parsing and JSON rendering included, with their stdout
captured, and prints that total too.  Last comes the best-of-5 time of
`compile()` over the sources of `SRC_DIR/deformed_u2/*.py`: an interpreter
that writes no bytecode (`PYTHONDONTWRITEBYTECODE=1`) pays it at every import
of the package, so it grows with the source, docstrings included:

    run_suite 0.0648 s  spectrum 0.0205 s  compile 0.0150 s
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path


def best_of_five(run) -> float:
    """The shortest of five timed calls of `run`, after one warm-up call."""
    totals = []
    for _ in range(6):
        start = time.perf_counter()
        run()
        totals.append(time.perf_counter() - start)
    return min(totals[1:])


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/suite_time.py SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    sys.path.insert(0, str(src))
    from workloads import SPECTRUM_LEVELS, VERIFY_DEEP, VERIFY_WIDE

    import deformed_u2
    from deformed_u2 import FrequencyRatio, cli, run_suite

    if src not in Path(deformed_u2.__file__).resolve().parents:
        sys.exit(f"deformed_u2 was imported from {deformed_u2.__file__}, not from {src}")

    sweeps = [(FrequencyRatio(m, n), n_max) for m, n, n_max in VERIFY_DEEP + VERIFY_WIDE]
    commands = [["spectrum", "--ratio", f"{m}:{n}", "--count", str(count), "--format", "json"]
                for m, n, count in SPECTRUM_LEVELS]

    def suite_round():
        for ratio, n_max in sweeps:
            run_suite(ratio, n_max)

    def spectrum_round():
        for args in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                cli.main(args, prog_name="deformed-u2")

    sources = [(path.read_text(encoding="utf-8"), str(path))
               for path in sorted((src / "deformed_u2").glob("*.py"))]

    def compile_round():
        for source, filename in sources:
            compile(source, filename, "exec")

    print(f"run_suite {best_of_five(suite_round):.4f} s  "
          f"spectrum {best_of_five(spectrum_round):.4f} s  "
          f"compile {best_of_five(compile_round):.4f} s")


if __name__ == "__main__":
    main()
