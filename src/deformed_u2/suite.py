"""The identity suite over every irrep up to N_max; `verify` renders its report.

A sweep's one record is an `IrrepStack` (`representation._build_stack`): the
irreps' N, p and q columns, integer Phi tables, 4mn u and 2mn E, and bands
zero-padded to N_max+1, each filled in one pass; an `IrrepLabel` is built only
to name an irrep.  Padded rows beside the N column and its row mask are the one
row format every kernel of the sweep reads.  The oracle, the algebra relations
and, for 1:2, the W_3^(2) relations run once on the stack, each returning one
column per check; each irrep the oracle passes takes its ladder identity from
one proof of the commutator per sweep.  Only the eigen work that needs one N's
shape runs once per N, on the stack's S+ band: `eigh`, the eigenvector
residuals, the dense `eigvalsh` and the Gram matrix, whose eigenvectors are
never signed and go at the next N.  It fills padded (irreps, N_max+1) columns,
and the separation refusal, the reductions and the certificate run once on
them.  The certificate first encloses each irrep the oracle passed from the
values, residuals, orthonormality and S+ band alone, a few array operations
that prove every value of a passing sweep; only the irreps it leaves take the
Sturm counts, one float-interval pass over their points, and the points it
cannot decide are counted exactly.  The flags are the counts' flags either way.
Only the 1:n split builds a per-irrep object.  The `SuiteReport` holds the
columns, N, p, q and 2mn E included, and builds the labels and the energies'
`Fraction`s only when they are read.  Identity residuals are gated at the
identity tolerance, the eigen class at 10x it, every exact check, the oracle's
included, must hold, and every eigenvalue must be certified within the eigen
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .angular import _certify, _eigensolve, _phases, _refuse, _residuals, build_l0
from .core import FrequencyRatio, IrrepLabel
from .oracle import _oracle_reports
from .representation import IDENTITY_TOL, _algebra_reports, _build_stack, _w32_reports
from .representation import worst_residual
from .structure import CommutatorPolynomial, StructureFunction, _phi_denominator
from .structure import commutator_polynomial, parafermionic_decompose

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
    and `irreps`, one `IrrepReport` per irrep, are built from them on first read."""

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

    `tolerance` is the identity tolerance, `IDENTITY_TOL` by default; the
    eigen class, and the certificate of each eigenvalue, are gated at 10x
    it, so at `EIGEN_TOL` by default.  The eigen kernel runs `_eigensolve`
    once per N and `_refuse` once, after the last N, on the whole sweep: its
    `ArithmeticError` names the first refused irrep in label order, and it
    wins over any error of a later N.  An `n_max` below 0, or a `tolerance`
    that is not finite and > 0 with 10x it finite, raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 for the {ratio} suite, got {n_max}")
    if not (math.isfinite(tolerance) and tolerance > 0 and math.isfinite(10 * tolerance)):
        raise ValueError(f"tolerance must be finite and > 0, with 10x it finite, "
                         f"for the {ratio} suite, got {tolerance!r}")
    eigen_tol = 10 * tolerance

    columns = np.indices((n_max + 1, ratio.m, ratio.n)).reshape(3, -1) + [[0], [1], [1]]
    stack = _build_stack(ratio, *columns)  # label order: N, then p in 1..m, then q in 1..n
    _, oracle_checks = _oracle_reports(stack)
    oracle_passed = [all(checks) for checks in zip(*oracle_checks.values())]  # irrep by irrep
    residuals, algebra_checks = _algebra_reports(stack, oracle_passed)
    w32 = _w32_reports(stack)[0] if (ratio.m, ratio.n) == (1, 2) else {}

    # each irrep's row of these (irreps, N_max+1) columns holds its N+1 entries, then 0.0
    values = np.zeros((len(stack.big_n), n_max + 1))
    dense, errors = np.zeros((2, len(stack.big_n), n_max + 1))
    orthonormality = np.empty(len(stack.big_n))
    phases, identity = _phases(n_max + 1), np.eye(n_max + 1)  # each N reads its corner
    solved, mn = 0, ratio.m * ratio.n  # solved: the irreps whose eigh has run
    try:
        for big_n in range(n_max + 1):
            rows, size = slice(big_n * mn, (big_n + 1) * mn), big_n + 1
            offdiag = stack.s_plus_band[rows, :big_n]
            eigs, vectors = _eigensolve(offdiag)
            values[rows, :size] = eigs
            solved = rows.stop
            errors[rows, :size] = _residuals(offdiag, vectors, eigs)
            dense[rows, :size] = np.linalg.eigvalsh(build_l0(offdiag))  # ascending, as numpy has it
            amplitudes = phases[:size] * vectors
            gram = amplitudes.conj().swapaxes(-1, -2) @ amplitudes
            orthonormality[rows] = np.abs(gram - identity[:size, :size]).max(axis=(-2, -1))
    finally:  # the first refused irrep, in label order, wins over a later N's failure
        _refuse(ratio, stack.big_n[:solved], stack.p[:solved], stack.q[:solved], values[:solved])
    index = np.arange(n_max + 1)
    mirror = np.where(stack.real, stack.big_n[:, None] - index, index)  # i -> N-i
    mirrored = np.take_along_axis(values, mirror, axis=-1)  # l_{N-i}, and 0.0 past N
    residuals |= {"method_agreement": np.max(np.abs(values - dense), axis=-1),
                  "spectrum_symmetry": np.max(np.abs(values + mirrored), axis=-1),
                  "eigenvector_residual": np.max(errors, axis=-1),
                  "orthonormality": orthonormality}
    residuals |= {f"w32_{key}": column for key, column in w32.items()}
    # the certificate reads the values and per-irrep columns
    del offdiag, eigs, vectors, amplitudes, gram, dense, errors, mirror, mirrored

    exact = [*algebra_checks.values(), *oracle_checks.values()]
    evidence = (residuals["eigenvector_residual"], orthonormality, stack.s_plus_band,
                np.array(oracle_passed))
    certified = _certify(stack.numerators, _phi_denominator(ratio), stack.big_n, values, eigen_tol,
                         evidence)
    failures = {"exact_check_failures": np.sum(np.logical_not(exact), axis=0),
                "eigen_certificate_failures": np.sum(stack.real & ~certified, axis=-1)}
    if ratio.m == 1:
        failures["parafermionic_failures"] = np.array(
            [not parafermionic_decompose(StructureFunction(label, ratio)).positive
             for label in map(IrrepLabel, *columns.tolist())], dtype=int)
    return SuiteReport(ratio, n_max, commutator_polynomial(ratio), tolerance, eigen_tol,
                       stack.big_n, stack.p, stack.q, stack.energy_keys, residuals, failures)
