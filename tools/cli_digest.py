"""Digest of the CLI's output over a fixed grid of commands.

    python tools/cli_digest.py SRC_DIR

imports `deformed_u2` from SRC_DIR, runs every command of the grid in-process
with click's CliRunner, once to stdout and once with --output FILE in a
temporary directory, and prints `<commands>`, then `<subcommand> <commands>
<sha256>` for each of `irrep`, `angular`, `spectrum` and `verify`.  Each hash
covers its commands' arguments, exit code, stdout, stderr, any exception other
than SystemExit, and the text of the --output file, so a change to one
subcommand's output moves its hash alone.  Two checkouts print the same line
when their CLI output is byte-identical:

    python tools/cli_digest.py old/src
    python tools/cli_digest.py new/src

The grid covers `irrep` and `angular` on every label of each ratio at N in
{0, 1, 4}, `spectrum --count 25` and `verify --N-max 4` at each ratio, a few
failing or out-of-reach cases, a bad label, a non-coprime ratio, the eigen
refusals (1:20, whose eigenvalues at N = 9 are not separated, by `verify
--N-max` 9 and 12, the second with later N after the refused one, and by
`angular --N 9`; `angular --ratio 1:2 --N 1000`, whose w_0 underflows), the
Phi overflow at 1:300 (`verify --N-max 20` and `irrep --N 11 --p 1 --q 48`,
both refusing (N=11, p=1, q=48), whose Phi(1) is about 1e308),
`spectrum --ratio 20000:20001 --count 3`, whose decimals (about 5e-5) take
the exponent form, three large documents (`spectrum --ratio 3:5 --count
1500`, `irrep --ratio 1:2 --N 40`, `angular --ratio 1:1 --N 40`), `verify
--ratio 1:180 --N-max 0`, whose 8281-term commutator json and table print
and csv does not, and `spectrum --count` 128, 129, 255, 256, 257 and
513 at 1:1 and 2:3, at the edges of an earlier JSON writer's 128-record
encoder runs and of the table writer's 256-record chunks (`cli._CHUNK`), each
in the json, table and csv formats: 1155 commands.  Needs click >= 8.2
(separate stderr).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

RATIOS = [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 5), (4, 7)]
FORMATS = ["json", "table", "csv"]


def grid() -> list[list[str]]:
    commands = []
    for m, n in RATIOS:
        ratio = f"{m}:{n}"
        for big_n in (0, 1, 4):
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    label = ["--ratio", ratio, "--N", str(big_n), "--p", str(p), "--q", str(q)]
                    commands += [["irrep", *label], ["angular", *label]]
        commands += [
            ["spectrum", "--ratio", ratio, "--count", "25"],
            ["verify", "--ratio", ratio, "--N-max", "4"],
        ]
    commands += [
        ["verify", "--ratio", "1:2", "--N-max", "3", "--tol", "1e-30"],
        ["verify", "--ratio", "4:7", "--N-max", "20"],
        ["irrep", "--ratio", "1:2", "--N", "2", "--tol", "1e-30"],
        ["angular", "--ratio", "3:5", "--N", "60", "--p", "2", "--q", "3"],
        ["verify", "--ratio", "1:20", "--N-max", "9"],
        ["verify", "--ratio", "1:20", "--N-max", "12"],
        ["angular", "--ratio", "1:20", "--N", "9"],
        ["angular", "--ratio", "1:2", "--N", "1000"],
        ["verify", "--ratio", "1:300", "--N-max", "20"],
        ["irrep", "--ratio", "1:300", "--N", "11", "--p", "1", "--q", "48"],
        ["irrep", "--ratio", "2:3", "--N", "1", "--p", "3", "--q", "1"],
        ["spectrum", "--ratio", "2:4", "--count", "3"],
        ["spectrum", "--ratio", "20000:20001", "--count", "3"],
        ["spectrum", "--ratio", "3:5", "--count", "1500"],
        ["irrep", "--ratio", "1:2", "--N", "40"],
        ["angular", "--ratio", "1:1", "--N", "40"],
        ["verify", "--ratio", "1:180", "--N-max", "0"],
    ]
    # one 128-record encoder run, one record past it, two and one; a 256-record chunk
    # less one record, one chunk, one and one record, two and one record
    commands += [["spectrum", "--ratio", ratio, "--count", count]
                 for ratio in ("1:1", "2:3")
                 for count in ("128", "129", "255", "256", "257", "513")]
    return [[*args, "--format", fmt] for args in commands for fmt in FORMATS]


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_digest.py SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    from click.testing import CliRunner

    import deformed_u2
    from deformed_u2.cli import main as cli

    if src not in Path(deformed_u2.__file__).resolve().parents:
        sys.exit(f"deformed_u2 was imported from {deformed_u2.__file__}, not from {src}")

    runner = CliRunner()
    commands = grid()
    counts = Counter(args[0] for args in commands)
    digests = {name: hashlib.sha256() for name in counts}
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "report.out"
        for args in commands:
            digest = digests[args[0]]
            for to_file in (False, True):
                target.unlink(missing_ok=True)
                result = runner.invoke(cli, [*args, "--output", str(target)] if to_file else args)
                exception = result.exception
                if isinstance(exception, SystemExit):
                    exception = None
                written = target.read_text(encoding="utf-8") if target.exists() else None
                for part in (args, to_file, result.exit_code, result.stdout, result.stderr,
                             repr(exception), written):
                    digest.update(repr(part).encode("utf-8") + b"\0")
    print(len(commands), *(f"{name} {counts[name]} {digest.hexdigest()}"
                           for name, digest in digests.items()))


if __name__ == "__main__":
    main()
