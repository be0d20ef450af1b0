"""The identity suite over every irrep up to N_max; `verify` renders its report.

The suite builds each irrep's record, its `StructureFunction`, once and stacks
the bands of every irrep of the sweep, zero-padded, in one `IrrepStack`.  The
algebra relations, the oracle's band reads and, for 1:2, the W_3^(2) relations
run once on it, by the kernels the one-irrep functions run.  The eigensolves and
the Gram matrix need one shape, so they run once per N, on the stack's S+ band.
The Sturm certificate runs once per sweep, after the last eigensolve: one
float-interval pass of `certify_eigenvalues`' kernel counts every point of every
irrep, and the points it cannot decide are counted exactly.  The sweep keeps
each irrep's eigenvalues for it, and drops each spectrum's eigenvectors after
its N.  Each integer Phi table, computed once, feeds the ladder identity, the
oracle's weights and ulp tests and the certificate, and each factor table the
1:n split.  Identity residuals are gated at the identity tolerance, the eigen
class at 10x it, every exact check, the oracle's included, must hold, and
every eigenvalue must be certified within the eigen tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .angular import _certify, _eigensolve, _phased, build_l0
from .core import FrequencyRatio, IrrepLabel
from .oracle import _oracle_reports
from .representation import IDENTITY_TOL, _algebra_reports, _build_stack, _w32_reports
from .representation import worst_residual
from .structure import CommutatorPolynomial, StructureFunction, commutator_polynomial
from .structure import _cofactor_forms

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


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of the identity suite on every irrep with N <= n_max."""

    ratio: FrequencyRatio
    n_max: int
    commutator: CommutatorPolynomial
    identity_tolerance: float
    eigen_tolerance: float
    irreps: tuple[IrrepReport, ...]

    @cached_property
    def _columns(self) -> dict[str, tuple[float, ...]]:
        """Each key's values over the irreps, in irrep order: the residual keys
        sorted by name, then the failure keys in `IrrepReport.failures` order."""
        keys = sorted({key for irrep in self.irreps for key in irrep.residuals})
        columns = {key: tuple(irrep.residuals[key] for irrep in self.irreps) for key in keys}
        for key in self.irreps[0].failures:
            columns[key] = tuple(irrep.failures[key] for irrep in self.irreps)
        return columns

    @cached_property
    def residuals(self) -> dict[str, float]:
        """Worst value of each check over all irreps, sorted by name, then the
        failure counts summed over all irreps, in `IrrepReport.failures` order."""
        failure_keys = self.irreps[0].failures
        return {
            key: float(sum(values)) if key in failure_keys else worst_residual(values)
            for key, values in self._columns.items()
        }

    def worst_irrep(self, key: str) -> IrrepLabel:
        """The first irrep holding the worst value of `key`; a NaN is the worst."""
        values = self._columns[key]
        worst = worst_residual(values)  # NaN iff some value is NaN
        return next(irrep.label for irrep, value in zip(self.irreps, values)
                    if value == worst or math.isnan(value))

    def passes(self, key: str, value: float) -> bool:
        """Whether the entry `key` of `residuals` holding `value` is within its gate."""
        if key in self.irreps[0].failures:
            return value == 0.0
        return value <= (self.eigen_tolerance if key in EIGEN_KEYS else self.identity_tolerance)

    @property
    def passed(self) -> bool:
        return all(self.passes(key, value) for key, value in self.residuals.items())


def _cofactor_positive(function: StructureFunction) -> bool:
    """`parafermionic_decompose(function).positive`: each P(1..N) > 0, read in ints."""
    forms = _cofactor_forms(function)
    return all(math.prod(a * x + b for a, b in forms) > 0 for x in range(1, function.label.N + 1))


def run_suite(ratio: FrequencyRatio, n_max: int, tolerance: float = IDENTITY_TOL) -> SuiteReport:
    """Run every identity check on every irrep (N, p, q) with N <= n_max.

    `tolerance` is the identity tolerance, `IDENTITY_TOL` by default; the
    eigen class, and the certificate of each eigenvalue, are gated at 10x
    it, so at `EIGEN_TOL` by default.  An `ArithmeticError` from the
    eigensolve propagates; an `n_max` below 0, or a `tolerance` that is not
    finite and > 0 with 10x it finite, raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0 for the {ratio} suite, got {n_max}")
    if not (math.isfinite(tolerance) and tolerance > 0 and math.isfinite(10 * tolerance)):
        raise ValueError(f"tolerance must be finite and > 0, with 10x it finite, "
                         f"for the {ratio} suite, got {tolerance!r}")
    eigen_tol = 10 * tolerance

    functions = [StructureFunction(IrrepLabel(big_n, p, q), ratio) for big_n in range(n_max + 1)
                 for p in range(1, ratio.m + 1) for q in range(1, ratio.n + 1)]
    stack = _build_stack(functions)
    algebras = _algebra_reports(stack, tolerance)
    oracles = _oracle_reports(stack)
    w32 = _w32_reports(stack, tolerance=tolerance) if (ratio.m, ratio.n) == (1, 2) else ()

    residuals, eigenvalues = [], []
    for big_n in range(n_max + 1):
        rows = slice(big_n * ratio.m * ratio.n, (big_n + 1) * ratio.m * ratio.n)
        offdiag = stack.s_plus_band[rows, :big_n]
        spectra = _eigensolve(functions[rows], offdiag)
        dense = np.sort(np.linalg.eigvalsh(build_l0(offdiag)), axis=-1)
        values = np.array([spec.eigenvalues for spec in spectra])
        agreement = np.max(np.abs(values - dense), axis=-1).tolist()
        amplitudes = _phased(np.stack([spec.components for spec in spectra]))
        gram = amplitudes.conj().swapaxes(-1, -2) @ amplitudes
        orthonormality = np.max(np.abs(gram - np.eye(big_n + 1)), axis=(-2, -1)).tolist()

        for j, (i, spec) in enumerate(zip(range(rows.start, rows.stop), spectra)):
            residual = {**algebras[i].residuals, "method_agreement": agreement[j],
                        "spectrum_symmetry": spec.symmetry_residual,
                        "eigenvector_residual": spec.max_residual,
                        "orthonormality": orthonormality[j]}
            if w32:
                residual.update({f"w32_{key}": value for key, value in w32[i].residuals.items()})
            residuals.append(residual)
        eigenvalues.extend(values)  # rows of one array per N, not the spectra

    irreps = []
    certified = _certify(functions, eigenvalues, eigen_tol)
    for function, algebra, oracle, residual, flags in zip(functions, algebras, oracles, residuals,
                                                          certified):
        failures = {"exact_check_failures": algebra.failures + oracle.failures,
                    "eigen_certificate_failures": flags.count(False)}
        if ratio.m == 1:
            failures["parafermionic_failures"] = int(not _cofactor_positive(function))
        irreps.append(IrrepReport(function.label, function.energy, residual, failures))

    return SuiteReport(ratio, n_max, commutator_polynomial(ratio), tolerance, eigen_tol,
                       tuple(irreps))
