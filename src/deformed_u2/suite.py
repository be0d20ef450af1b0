"""The identity suite over every irrep up to N_max; `verify` renders its report.

A sweep's one record is an `IrrepStack` (`representation._build_stack`): the
irreps' N, p and q columns, integer Phi tables, 4mn u and 2mn E, and bands
zero-padded to N_max+1, each filled in one pass; an `IrrepLabel` is built only
to name an irrep.  Padded rows beside the N column and its row mask are the one
row format every kernel of the sweep reads.  The oracle, the algebra relations
and, for 1:2, the W_3^(2) relations run once on the stack, each returning one
column per check; each irrep the oracle passes takes its ladder identity from
one proof of the commutator per sweep.  One call, `angular._sweep_eigen`, runs
the eigen pass and its certificate.  These are the six stages `run_suite` times
(`SuiteReport.stage_seconds`).  The 1:n split is read off the algebra's
`phi_positive` column, so no per-irrep object is built.  The `SuiteReport`
holds the columns, N, p, q and 2mn E included, and builds the labels and the
energies' `Fraction`s only when they are read.
Identity residuals are gated at the identity tolerance, the eigen class at 10x
it, every exact check, the oracle's included, must hold, and every eigenvalue
must be certified within the eigen tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .angular import _sweep_eigen
from .core import FrequencyRatio, IrrepLabel
from .oracle import _oracle_reports
from .representation import IDENTITY_TOL, _algebra_reports, _build_stack, _w32_reports
from .representation import worst_residual
from .structure import CommutatorPolynomial, commutator_polynomial

__all__ = ["IDENTITY_TOL", "EIGEN_TOL", "EIGEN_KEYS", "IrrepReport", "SuiteReport", "run_suite"]

EIGEN_TOL = 10 * IDENTITY_TOL
EIGEN_KEYS = frozenset({"method_agreement", "eigenvector_residual", "orthonormality"})


@dataclass(frozen=True)
class IrrepReport:
    """Every residual computed on one irrep, and its failure counts by key."""

    label: IrrepLabel
    energy: Fraction
    residuals: dict[str, float]
    failures: dict[str, int]

    @property
    def max_residual(self) -> float:
        """Largest residual, or NaN when any residual is NaN."""
        return worst_residual(self.residuals.values())


@dataclass(frozen=True, eq=False)
class SuiteReport:
    """Outcome of the identity suite on every irrep with N <= n_max; compares by identity.

    Each check is one column over the irreps, in label order: `residual_columns`
    holds the float residuals, the algebra keys, then the eigen keys, then any `w32_*`
    keys, and `failure_columns` the failure counts.  The int columns `big_n`, `p`, `q`
    and `energy_keys` (2mn E) are the one record of the irreps; `labels`, `energies`
    and `irreps`, one `IrrepReport` per irrep, are built from them on first read.

    `stage_seconds` holds the seconds of `run_suite`'s stages, in order: `build` (the label
    columns and the stack), `oracle` (its checks and pass flags), `algebra`, `w32` (only at
    1:2), `eigen` (the eigen loop and its separation check) and `certify` (the certificate).
    Input checks and building the report are outside them."""

    ratio: FrequencyRatio
    n_max: int
    commutator: CommutatorPolynomial
    identity_tolerance: float
    eigen_tolerance: float
    big_n: np.ndarray  # (irreps,) ints: each irrep's N
    p: np.ndarray  # (irreps,) ints
    q: np.ndarray  # (irreps,) ints
    energy_keys: tuple[int, ...]
    residual_columns: dict[str, np.ndarray]
    failure_columns: dict[str, np.ndarray]
    stage_seconds: dict[str, float]

    @cached_property
    def labels(self) -> tuple[IrrepLabel, ...]:
        return tuple(map(IrrepLabel, self.big_n.tolist(), self.p.tolist(), self.q.tolist()))

    @cached_property
    def energies(self) -> tuple[Fraction, ...]:
        """Each irrep's exact energy E, its 2mn E over 2mn."""
        scale = 2 * self.ratio.m * self.ratio.n
        return tuple(Fraction(key, scale) for key in self.energy_keys)

    @cached_property
    def irreps(self) -> tuple[IrrepReport, ...]:
        def rows(columns: dict[str, np.ndarray]) -> list[dict]:
            return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]

        return tuple(map(IrrepReport, self.labels, self.energies, rows(self.residual_columns),
                         rows(self.failure_columns)))

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Worst value of each check over all irreps, sorted by name, then the
        failure counts summed over all irreps, in `failure_columns` order."""
        worst = {key: float(np.max(self.residual_columns[key]))  # NaN iff some value is NaN
                 for key in sorted(self.residual_columns)}
        return worst | {key: float(np.sum(counts)) for key, counts in self.failure_columns.items()}

    @property
    def max_residuals(self) -> np.ndarray:
        """Each irrep's largest residual, or NaN when any of its residuals is NaN."""
        return np.max(list(self.residual_columns.values()), axis=0)

    def worst_irrep(self, key: str) -> IrrepLabel:
        """The first irrep holding the worst value of `key`; a NaN is the worst.  A `key`
        that names no column raises KeyError naming it, the ratio and the known keys."""
        column = self.residual_columns.get(key, self.failure_columns.get(key))
        if column is None:
            known = ", ".join([*self.residual_columns, *self.failure_columns])
            raise KeyError(f"no check {key!r} in the {self.ratio} suite; its keys are {known}")
        i = int(np.argmax(column))
        return IrrepLabel(int(self.big_n[i]), int(self.p[i]), int(self.q[i]))

    def passes(self, key: str, value: float) -> bool:
        """Whether the entry `key` of `residuals` holding `value` is within its gate."""
        if key in self.failure_columns:
            return value == 0.0
        return value <= (self.eigen_tolerance if key in EIGEN_KEYS else self.identity_tolerance)

    @property
    def passed(self) -> bool:
        return all(self.passes(key, value) for key, value in self.residuals.items())


def run_suite(ratio: FrequencyRatio, n_max: int, tolerance: float = IDENTITY_TOL) -> SuiteReport:
    """Run every identity check on every irrep (N, p, q) with N <= n_max.

    `tolerance` is the identity tolerance, `IDENTITY_TOL` by default; the eigen class, and the
    certificate of each eigenvalue, are gated at 10x it, so at `EIGEN_TOL` by default.  The
    eigen pass (`_sweep_eigen`) raises ArithmeticError naming the first irrep, in label order,
    whose eigenvalues are not separated.  An `n_max` below 0, or a `tolerance` that is not
    finite and > 0 with 10x it finite, raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 for the {ratio} suite, got {n_max}")
    if not (math.isfinite(tolerance) and tolerance > 0 and math.isfinite(10 * tolerance)):
        raise ValueError(f"tolerance must be finite and > 0, with 10x it finite, "
                         f"for the {ratio} suite, got {tolerance!r}")
    eigen_tol = 10 * tolerance

    marks = [time.perf_counter()]  # one after each stage: build, oracle, algebra, w32
    columns = np.indices((n_max + 1, ratio.m, ratio.n)).reshape(3, -1) + [[0], [1], [1]]
    stack = _build_stack(ratio, *columns)  # label order: N, then p in 1..m, then q in 1..n
    marks.append(time.perf_counter())
    _, oracle_checks = _oracle_reports(stack)
    oracle_passed = np.all([*oracle_checks.values()], axis=0)
    marks.append(time.perf_counter())
    residuals, algebra_checks = _algebra_reports(stack, oracle_passed)
    marks.append(time.perf_counter())
    w32 = _w32_reports(stack)[0] if (ratio.m, ratio.n) == (1, 2) else {}
    marks.append(time.perf_counter())
    eigen, certified, eigen_seconds = _sweep_eigen(stack, oracle_passed, eigen_tol)
    seconds = dict(zip(("build", "oracle", "algebra", "w32"), np.diff(marks).tolist()))
    residuals |= eigen | {f"w32_{key}": column for key, column in w32.items()}
    exact = [*algebra_checks.values(), *oracle_checks.values()]
    failures = {"exact_check_failures": np.sum(np.logical_not(exact), axis=0),
                "eigen_certificate_failures": np.sum(stack.real & ~certified, axis=-1)}
    if ratio.m == 1:  # the split's forms are F's table less x and N+1-x, both > 0 on 1..N, so
        # P(x) > 0 iff P_x > 0; p = 1 gives the offset-0 row, l = n+1-q the 4n(N+1) row
        positive = algebra_checks["phi_positive"]
        failures["parafermionic_failures"] = np.logical_not(positive).astype(int)
    return SuiteReport(ratio, n_max, commutator_polynomial(ratio), tolerance, eigen_tol,
                       stack.big_n, stack.p, stack.q, stack.energy_keys, residuals, failures,
                       seconds | eigen_seconds)
