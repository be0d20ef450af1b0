"""The identity suite over every irrep up to N_max; `verify` renders its report.

Each irrep is built once (`build_irrep`), and that record feeds the algebra
relations, the exact Fock-space oracle, the dense L0 and, for 1:2, the
W_3^(2) relations; the eigenvalue routes read the per-irrep Phi cache.
Identity residuals are gated at the identity tolerance, the eigen class at
10x it, and every exact check, the oracle's included, must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .angular import angular_eigenvalues, bisection_eigenvalues, build_l0
from .core import FrequencyRatio, IrrepLabel
from .oracle import oracle_compare
from .representation import build_irrep, verify_algebra, w32_check, worst_residual
from .structure import CommutatorPolynomial, StructureFunction, commutator_polynomial
from .structure import parafermionic_decompose

__all__ = ["IDENTITY_TOL", "EIGEN_TOL", "EIGEN_KEYS", "IrrepReport", "SuiteReport", "run_suite"]

IDENTITY_TOL = 1e-10
EIGEN_TOL = 1e-9
EIGEN_KEYS = frozenset({"method_agreement", "eigenvector_residual", "orthonormality"})


@dataclass(frozen=True)
class IrrepReport:
    """Every residual computed on one irrep, and its failed exact checks."""

    label: IrrepLabel
    energy: Fraction
    residuals: dict[str, float]
    exact_check_failures: int

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
    parafermionic_failures: int | None  # 1:n irreps with P(x) not positive; None unless m = 1

    @property
    def residuals(self) -> dict[str, float]:
        """Worst value of each check over all irreps, sorted by name, then the
        failure counts (`exact_check_failures`, `parafermionic_failures`)."""
        keys = sorted({key for irrep in self.irreps for key in irrep.residuals})
        residuals = {
            key: worst_residual(irrep.residuals[key] for irrep in self.irreps) for key in keys
        }
        residuals["exact_check_failures"] = float(sum(i.exact_check_failures for i in self.irreps))
        if self.parafermionic_failures is not None:
            residuals["parafermionic_failures"] = float(self.parafermionic_failures)
        return residuals

    def passes(self, key: str, value: float) -> bool:
        """Whether the entry `key` of `residuals` holding `value` is within its gate."""
        if key.endswith("_failures"):
            return value == 0.0
        return value <= (self.eigen_tolerance if key in EIGEN_KEYS else self.identity_tolerance)

    @property
    def passed(self) -> bool:
        return all(self.passes(key, value) for key, value in self.residuals.items())


def run_suite(ratio: FrequencyRatio, n_max: int, tolerance: float | None = None) -> SuiteReport:
    """Run every identity check on every irrep (N, p, q) with N <= n_max.

    `tolerance` is the identity tolerance (default `IDENTITY_TOL`); the
    eigen class is gated at 10x it (default `EIGEN_TOL`).  An
    `ArithmeticError` from the eigenvalue routes propagates.
    """
    identity_tol = IDENTITY_TOL if tolerance is None else tolerance
    eigen_tol = EIGEN_TOL if tolerance is None else 10 * tolerance
    # the bisection cells' width must not eat into the method-agreement gate
    bisection_tol = min(1e-12, eigen_tol / 10)

    parafermionic_failures = 0 if ratio.m == 1 else None
    irreps = []
    labels = [IrrepLabel(big_n, p, q) for big_n in range(n_max + 1)
              for p in range(1, ratio.m + 1) for q in range(1, ratio.n + 1)]
    for label in labels:
        rep = build_irrep(label, ratio)
        algebra = verify_algebra(rep, identity_tol)
        oracle = oracle_compare(rep)
        residuals = dict(algebra.residuals)

        spec = angular_eigenvalues(label, ratio)
        eigenvalues = np.array(spec.eigenvalues)
        roots = np.array(bisection_eigenvalues(label, ratio, bisection_tol))
        dense = np.sort(np.linalg.eigvalsh(build_l0(rep)))
        gaps = (eigenvalues - roots, eigenvalues - dense, roots - dense)
        residuals["method_agreement"] = worst_residual(float(np.max(np.abs(g))) for g in gaps)
        residuals["spectrum_symmetry"] = spec.symmetry_residual
        residuals["eigenvector_residual"] = spec.max_residual
        basis = np.array([v.amplitudes for v in spec.vectors]).T
        gram = basis.conj().T @ basis
        residuals["orthonormality"] = float(np.max(np.abs(gram - np.eye(label.dimension))))

        if ratio.m == 1:
            form = parafermionic_decompose(StructureFunction(label, ratio))
            parafermionic_failures += not form.positive
        if (ratio.m, ratio.n) == (1, 2):
            w32 = w32_check(rep, tolerance=identity_tol).residuals
            residuals.update({f"w32_{key}": value for key, value in w32.items()})

        exact_checks = (*algebra.exact_checks.values(), *oracle.exact_checks.values())
        failures = sum(not ok for ok in exact_checks)
        irreps.append(IrrepReport(label, rep.energy, residuals, failures))

    return SuiteReport(ratio, n_max, commutator_polynomial(ratio), identity_tol, eigen_tol,
                       tuple(irreps), parafermionic_failures)
