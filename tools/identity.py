"""Compare the library and CLI results of a git revision with the working tree.

    python tools/identity.py [REF]

exports REF's `src` (default `HEAD`) with `git archive` into a temporary
directory, runs this tree's `tools/suite_digest.py` and `tools/cli_digest.py`
on that `src` and on this tree's `src`, each in a fresh interpreter, and prints
the four digest lines, then, for REF and for the tree, the line count of
`src/deformed_u2/*.py` (as `cat src/deformed_u2/*.py | wc -l`), the best-of-5
in-process `run_suite` time over perfbench's 8 verify sweeps, the best-of-5
in-process times of perfbench's 4 `spectrum --format json` commands and of its
8 `verify --format json` commands, the
best-of-5 `compile()` time of the package's sources, and the median cold time of
those 12 commands, each in a fresh interpreter (`tools/suite_time.py`).
Exits 1 when either digest pair differs; the line
counts and times are printed only.  A change that should keep every output
bitwise is checked against its parent with

    python tools/identity.py HEAD~1

It takes about a minute and needs no network.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ["suite_digest.py", "cli_digest.py"]


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
        print(f"times {ref}: {digest('suite_time.py', Path(tmp) / 'src')}")
        print(f"times tree: {digest('suite_time.py', ROOT / 'src')}")
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
