"""Compare the library and CLI results of a git revision with the working tree.

    python tools/identity.py [REF]

exports REF's `src` (default `HEAD`) with `git archive` into a temporary
directory, runs this tree's `tools/suite_digest.py` and `tools/cli_digest.py`
on that `src` and on this tree's `src`, each in a fresh interpreter, and prints
the four digest lines, then, for REF and for the tree, the line count of
`src/deformed_u2/*.py` (as `cat src/deformed_u2/*.py | wc -l`) and one `times`
line from `tools/suite_time.py`: the in-process `run_suite` time over
perfbench's 8 verify sweeps and its stages, from the fastest of 5 rounds, the
best-of-5 `run_suite(1:180, 1)` with a fresh commutator each call (wide), the
best-of-5 in-process times of perfbench's 4 `spectrum --format json` commands
and of its 8 `verify --format json` commands, the best-of-5 `compile()` time
of the package's sources, and the median command time (cold) and spawn-to-exit
time (wall) of those 12 commands, each in a fresh interpreter.  `suite_time.py` runs 3 times per side,
REF and tree alternating and each taking the lead in turn, since run order
alone moved a time by 45% on identical code; each number of a `times` line is
the median of that field over the side's runs.  Exits 1 when either digest pair
differs; the line counts and times are printed only.  A change that should keep
every output bitwise is checked against its parent with

    python tools/identity.py HEAD~1

It takes about a minute and a half and needs no network.
"""

from __future__ import annotations

import io
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ["suite_digest.py", "cli_digest.py"]
TIME_RUNS = 3  # suite_time.py runs per side
NUMBER = re.compile(r"(\d+\.\d+)")


def run(args: list[str]) -> bytes:
    """The stdout of `args`, run in ROOT; their stderr passes through, and a failure exits."""
    completed = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE)
    if completed.returncode:
        sys.exit(f"{' '.join(args)} exited {completed.returncode}")
    return completed.stdout


def digest(tool: str, src: Path) -> str:
    """The line `tool` prints for the package in `src`, run in a fresh interpreter."""
    return run([sys.executable, str(ROOT / "tools" / tool), str(src)]).decode().strip()


def src_lines(src: Path) -> int:
    """The number of lines of the package's modules in `src`."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "deformed_u2").glob("*.py"))


def median_line(lines: list[str]) -> str:
    """The text that `lines` share, each of its numbers the median of that field over
    `lines`, printed to as many decimals as the first line gives it."""
    fields = [NUMBER.split(line) for line in lines]
    if any(parts[::2] != fields[0][::2] for parts in fields):
        sys.exit(f"suite_time.py lines differ in more than their numbers: {lines}")
    merged = fields[0]
    for i in range(1, len(merged), 2):
        decimals = len(merged[i].partition(".")[2])
        merged[i] = f"{statistics.median(float(parts[i]) for parts in fields):.{decimals}f}"
    return "".join(merged)


def main() -> None:
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/identity.py [REF]")
    ref = sys.argv[1] if len(sys.argv) == 2 else "HEAD"
    archive = run(["git", "archive", ref, "src"])
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for tool in TOOLS:
            old, new = digest(tool, Path(tmp) / "src"), digest(tool, ROOT / "src")
            print(f"{tool} {ref}: {old}")
            print(f"{tool} tree: {new}")
            differs |= old != new
        print(f"src lines {ref}: {src_lines(Path(tmp) / 'src')}")
        print(f"src lines tree: {src_lines(ROOT / 'src')}")
        sides = {ref: Path(tmp) / "src", "tree": ROOT / "src"}
        times = {side: [] for side in sides}
        for turn in range(TIME_RUNS):
            for side in list(sides)[::-1 if turn % 2 else 1]:
                times[side].append(digest("suite_time.py", sides[side]))
        for side, lines in times.items():
            print(f"times {side}: {median_line(lines)}")
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
