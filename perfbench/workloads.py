"""Workload inputs drawn from a seed, and output checks independent of the library.

A workload is a round of CLI commands.  The benchmark runs the round a fixed
number of times, one command at a time (see `rounds`).

Sizes are fixed per ratio, because verify throughput falls roughly as N^-3:
a seed that moved `--N-max` from 18 to 19 would move the metric by ~15%.  The seed
shuffles the order of each round and, for `cli_cold`, draws the ratios and
labels of the small commands.

The checks below use only the closed forms of the model (energies
N + (2p-1)/(2m) + (2q-1)/(2n), degeneracy N+1, Phi vanishing at 0 and N+1,
eigenvalues symmetric about zero) and the CLI's documented exit codes; they
import nothing from `deformed_u2`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = {
    "verify_deep": "few large irreps: exact-sign bisection on degree-(N+1) "
    "recurrence polynomials dominates (angular layer)",
    "verify_wide": "many small irreps: per-irrep overhead of Phi values, "
    "commutator and build_irrep dominates (structure, representation)",
    "spectrum_levels": "level enumeration only (core); the structure, "
    "representation, oracle and angular layers are bypassed",
    "cli_cold": "small commands in a fresh interpreter, where the import "
    "of sympy, scipy, numpy and click is most of the wait",
}

# (m, n, N-max).  1:2 at N=18, 3:5 at N=8 and 4:7 at N=5 fail `verify`
# through the forward-recurrence eigenvectors; they stay in on purpose.
VERIFY_DEEP = ((1, 1, 26), (1, 2, 18), (2, 1, 18), (1, 3, 16))
VERIFY_WIDE = ((3, 5, 8), (4, 7, 5), (5, 7, 4), (2, 7, 6))
# (m, n, count)
SPECTRUM_LEVELS = ((1, 1, 600), (1, 2, 1000), (2, 3, 1200), (3, 5, 1500))
# ratios and sizes for cli_cold, small enough that import dominates
COLD_RATIOS = ((1, 1), (1, 2), (2, 1), (1, 3), (2, 3))
# equal m*n, so every round's verify handles the same number of irreps
COLD_VERIFY_RATIOS = ((1, 2), (2, 1))
COLD_MAX_N = 6
COLD_SPECTRUM_COUNT = 20
COLD_VERIFY_N_MAX = 2

# Nominal seconds of one untraced round on a 2-vCPU Intel Xeon (Python 3.11).
# A run makes whole rounds only, as many as fit `--seconds` at this speed, so
# the ops a run attempts, and which of them fail, depend on `--seconds` and
# `--seed` alone and never on how fast the machine happens to be.
ROUND_S = {"verify_deep": 13.0, "verify_wide": 15.0, "spectrum_levels": 9.0, "cli_cold": 4.5}
# a traced run runs each command twice, untraced and traced
TRACED_ROUND_COST = 2.5

SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI command: its arguments and what the check needs to know."""

    command: str
    m: int
    n: int
    size: int  # --N-max, --count or --N
    p: int = 1
    q: int = 1

    @property
    def args(self) -> list[str]:
        ratio = ["--ratio", f"{self.m}:{self.n}"]
        if self.command == "verify":
            extra = ["--N-max", str(self.size)]
        elif self.command == "spectrum":
            extra = ["--count", str(self.size)]
        else:
            extra = ["--N", str(self.size), "--p", str(self.p), "--q", str(self.q)]
        return [self.command, *ratio, *extra, "--format", "json"]

    @property
    def key(self) -> str:
        return " ".join(self.args[:-2])

    @property
    def irreps(self) -> int:
        """Irreps the command handles; each spectrum level is one irrep."""
        if self.command == "verify":
            return self.m * self.n * (self.size + 1)
        if self.command == "spectrum":
            return self.size
        return 1


def rounds(workload: str, seconds: float, traced: bool) -> int:
    """Whole rounds a run makes: about `seconds` at the nominal speed, at least one."""
    nominal = ROUND_S[workload] * (TRACED_ROUND_COST if traced else 1.0)
    return max(1, round(seconds / nominal))


def make_round(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_deep":
        ops = [Op("verify", m, n, size) for m, n, size in VERIFY_DEEP]
    elif workload == "verify_wide":
        ops = [Op("verify", m, n, size) for m, n, size in VERIFY_WIDE]
    elif workload == "spectrum_levels":
        ops = [Op("spectrum", m, n, size) for m, n, size in SPECTRUM_LEVELS]
    elif workload == "cli_cold":
        ops = []
        for command in ("irrep", "angular"):
            m, n = rng.choice(COLD_RATIOS)
            ops.append(
                Op(command, m, n, rng.randint(0, COLD_MAX_N), rng.randint(1, m), rng.randint(1, n))
            )
        ops.append(Op("spectrum", *rng.choice(COLD_RATIOS), COLD_SPECTRUM_COUNT))
        ops.append(Op("verify", *rng.choice(COLD_VERIFY_RATIOS), COLD_VERIFY_N_MAX))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def _energy(big_n: int, p: int, q: int, m: int, n: int) -> Fraction:
    return big_n + Fraction(2 * p - 1, 2 * m) + Fraction(2 * q - 1, 2 * n)


def lowest_levels(m: int, n: int, count: int) -> list[tuple[Fraction, int, int, int]]:
    """The `count` lowest (energy, N, p, q), straight from the label formula."""
    labels = [
        (_energy(big_n, p, q, m, n), big_n, p, q)
        for big_n in range(count)
        for p in range(1, m + 1)
        for q in range(1, n + 1)
    ]
    return sorted(labels)[:count]


def check(op: Op, exit_code: int, stdout: str) -> list[str]:
    """Problems with one op's output; an empty list means it is right.

    `verify` may exit 1 (a failed identity, report still emitted): that is
    a failed op, but its output is right when the exit code agrees with the
    report's own `passed` and the report covers every irrep.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"exit {exit_code}, output is not JSON"]
    records = doc.get("records", [])
    if op.command == "spectrum":
        return _check_spectrum(op, exit_code, records)
    if op.command == "verify":
        return _check_verify(op, exit_code, records)
    if op.command == "irrep":
        return _check_irrep(op, exit_code, records)
    return _check_angular(op, exit_code, records)


def _check_spectrum(op: Op, exit_code: int, records: list[dict]) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit {exit_code}"]
    got = [(Fraction(r["energy"]), r["N"], r["p"], r["q"]) for r in records]
    if got != lowest_levels(op.m, op.n, op.size):
        problems.append("levels differ from the lowest labels by energy")
    if any(r["degeneracy"] != r["N"] + 1 for r in records):
        problems.append("degeneracy is not N+1")
    if any(a[0] >= b[0] for a, b in zip(got, got[1:])):
        problems.append("energies not strictly ascending")
    return problems


def _check_verify(op: Op, exit_code: int, records: list[dict]) -> list[str]:
    if not records or records[0].get("kind") != "summary":
        return [f"exit {exit_code}, no summary record"]
    summary, irreps = records[0], records[1:]
    problems = []
    if exit_code != (0 if summary["passed"] else 1):
        problems.append(f"exit {exit_code} but passed={summary['passed']}")
    if summary["irreps_checked"] != op.irreps or len(irreps) != op.irreps:
        problems.append(f"{summary['irreps_checked']} irreps checked, expected {op.irreps}")
    expected = {
        (big_n, p, q): _energy(big_n, p, q, op.m, op.n)
        for big_n in range(op.size + 1)
        for p in range(1, op.m + 1)
        for q in range(1, op.n + 1)
    }
    got = {(r["N"], r["p"], r["q"]): Fraction(r["energy"]) for r in irreps}
    if got != expected:
        problems.append("irrep labels or energies differ from the label formula")
    return problems


def _check_irrep(op: Op, exit_code: int, records: list[dict]) -> list[str]:
    if len(records) != 1:
        return [f"exit {exit_code}, {len(records)} irrep records"]
    record = records[0]
    problems = []
    if exit_code != (0 if record["passed"] else 1):
        problems.append(f"exit {exit_code} but passed={record['passed']}")
    phi = [Fraction(v) for v in record["phi"]]
    if len(phi) != op.size + 2 or phi[0] != 0 or phi[-1] != 0:
        problems.append("Phi(0) = Phi(N+1) = 0 does not hold")
    if Fraction(record["energy"]) != _energy(op.size, op.p, op.q, op.m, op.n):
        problems.append("energy differs from the label formula")
    return problems


def _check_angular(op: Op, exit_code: int, records: list[dict]) -> list[str]:
    problems = [] if exit_code == 0 else [f"exit {exit_code}"]
    values = [r["eigenvalue"] for r in records]
    if len(values) != op.size + 1:
        return problems + [f"{len(values)} eigenvalues, expected {op.size + 1}"]
    scale = max(1.0, max(abs(v) for v in values))
    if any(abs(a + b) > SYMMETRY_TOL * scale for a, b in zip(values, reversed(values))):
        problems.append("eigenvalues not symmetric about zero")
    if any(a >= b for a, b in zip(values, values[1:])):
        problems.append("eigenvalues not strictly ascending")
    return problems
