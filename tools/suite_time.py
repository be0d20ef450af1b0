"""Best-of-5 in-process time of `run_suite` over the sweeps of perfbench's verify workloads.

    python tools/suite_time.py SRC_DIR

imports `deformed_u2` from SRC_DIR, runs `run_suite` once on every sweep of
`perfbench`'s verify_deep and verify_wide rounds (1:1 N <= 26, 1:2 and 2:1
N <= 18, 1:3 N <= 16, 3:5 N <= 8, 4:7 N <= 5, 5:7 N <= 4 and 2:7 N <= 6) as a
warm-up, then five times more, and prints the shortest of those five totals
in seconds.  It times the library alone: no interpreter start, import, CLI
rendering or JSON, so it moves with the suite's own work.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SWEEPS = [(1, 1, 26), (1, 2, 18), (2, 1, 18), (1, 3, 16),
          (3, 5, 8), (4, 7, 5), (5, 7, 4), (2, 7, 6)]


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/suite_time.py SRC_DIR")
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import deformed_u2
    from deformed_u2 import FrequencyRatio, run_suite

    if src not in Path(deformed_u2.__file__).resolve().parents:
        sys.exit(f"deformed_u2 was imported from {deformed_u2.__file__}, not from {src}")

    sweeps = [(FrequencyRatio(m, n), n_max) for m, n, n_max in SWEEPS]
    totals = []
    for _ in range(6):
        start = time.perf_counter()
        for ratio, n_max in sweeps:
            run_suite(ratio, n_max)
        totals.append(time.perf_counter() - start)
    print(f"{min(totals[1:]):.4f} s")


if __name__ == "__main__":
    main()
