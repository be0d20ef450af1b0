"""The "angular momentum" L0 = -i(S+ - S-) and its eigenbasis on an irrep.

Up to the alternating phases (-i)^k the Fock basis already tridiagonalizes
L0: stripping the phases leaves the real symmetric tridiagonal matrix with
zero diagonal and off-diagonals sqrt(Phi(k)).  Its characteristic recurrence

    G_{k+1}(l) = l G_k(l) - Phi(k) G_{k-1}(l),   G_0 = 1,  G_1 = l,

is a rescaling G_k(l) = H_k(l / sqrt(2)) / 2^(k/2) of the generalized
Hermite recurrence H_{k+1}(x) = 2x H_k(x) - 2 Phi(k) H_{k-1}(x).  The N+1
eigenvalues are the roots of G_{N+1}; they are simple (Phi > 0 on 1..N) and
symmetric about zero (G_k has the parity of k), and in the isotropic 1:1
case they are exactly -N, -N+2, ..., N.

The primary eigensolver is the symmetric tridiagonal eigenproblem, which is
numerically stable for clustered roots; root finding on the recurrence
polynomial is retained as an independent cross-check with exact rational
sign evaluation, so its bracketing cannot be fooled by rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import CartesianState, FrequencyRatio, IrrepLabel, IrrepState, irrep_to_cartesian
from .exceptions import NotAnEigenvalueError
from .representation import build_irrep
from .structure import StructureFunction

__all__ = [
    "GeneralizedHermite",
    "hermite_sequence",
    "AngularSpectrum",
    "angular_eigenvalues",
    "bisection_eigenvalues",
    "AngularEigenvector",
    "angular_eigenvector",
    "build_l0",
]


@dataclass(frozen=True)
class GeneralizedHermite:
    """Recurrence polynomials H_0 .. H_{N+1} with exact coefficients.

    `coefficients[k]` lists the coefficients of H_k in ascending powers;
    H_k has degree k and the parity of k, so alternating entries are zero.
    """

    label: IrrepLabel
    ratio: FrequencyRatio
    coefficients: tuple[tuple[Fraction, ...], ...]

    def __call__(self, k: int, x: int | Fraction) -> Fraction:
        """Evaluate H_k exactly at a rational argument."""
        return _eval_poly(self.coefficients[k], Fraction(x))

    def characteristic_coefficients(self, k: int) -> tuple[Fraction, ...]:
        """Coefficients of G_k(l) = H_k(l / sqrt(2)) / 2^(k/2), still rational.

        The j-th coefficient of H_k is divided by 2^((k+j)/2); k and j share
        parity, so the exponent is an integer and no surd appears.
        """
        return tuple(
            coeff / Fraction(2) ** ((k + j) // 2) if coeff else Fraction(0)
            for j, coeff in enumerate(self.coefficients[k])
        )


def hermite_sequence(label: IrrepLabel, ratio: FrequencyRatio) -> GeneralizedHermite:
    """Build H_0 .. H_{N+1} from H_{k+1} = 2x H_k - 2 Phi(k) H_{k-1}."""
    phi = StructureFunction(label, ratio).values()
    polys: list[list[Fraction]] = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    for k in range(1, label.N + 1):
        phi_k = phi[k]
        previous, current = polys[k - 1], polys[k]
        nxt = [Fraction(0)] * (k + 2)
        for j, coeff in enumerate(current):
            nxt[j + 1] += 2 * coeff
        for j, coeff in enumerate(previous):
            nxt[j] -= 2 * phi_k * coeff
        polys.append(nxt)
    return GeneralizedHermite(label, ratio, tuple(tuple(p) for p in polys))


@dataclass(frozen=True)
class AngularSpectrum:
    """Sorted eigenvalues of L0 on one irrep, labelled -L, -L+2, ..., L."""

    label: IrrepLabel
    eigenvalues: tuple[float, ...]

    @property
    def markers(self) -> tuple[int, ...]:
        big_n = self.label.N
        return tuple(range(-big_n, big_n + 1, 2))


def _offdiagonals(label: IrrepLabel, ratio: FrequencyRatio) -> np.ndarray:
    phi = StructureFunction(label, ratio).values()
    return np.array([math.sqrt(float(v)) for v in phi[1:-1]])


def angular_eigenvalues(label: IrrepLabel, ratio: FrequencyRatio) -> AngularSpectrum:
    """Eigenvalues via the symmetric tridiagonal eigenproblem.

    The computed spectrum is projected onto its provable symmetry
    eigs[i] = -eigs[N-i] (this also pins the middle eigenvalue of an
    even-N irrep to exactly zero), and simplicity of the roots is asserted.
    """
    label.validate_for(ratio)
    if label.N == 0:
        return AngularSpectrum(label, (0.0,))
    eigs = eigh_tridiagonal(
        np.zeros(label.N + 1), _offdiagonals(label, ratio), eigvals_only=True
    )
    eigs = np.sort(eigs)
    eigs = (eigs - eigs[::-1]) / 2.0
    margin = 1e-12 * max(1.0, float(np.max(np.abs(eigs))))
    if np.any(np.diff(eigs) <= margin):
        raise ArithmeticError(
            f"eigenvalues of {label} not strictly separated; numerical failure"
        )
    return AngularSpectrum(label, tuple(float(v) for v in eigs))


def _eval_poly(coeffs: tuple[Fraction, ...], x: Fraction) -> Fraction:
    result = Fraction(0)
    for coeff in reversed(coeffs):
        result = result * x + coeff
    return result


def bisection_eigenvalues(
    label: IrrepLabel,
    ratio: FrequencyRatio,
    tolerance: float = 1e-12,
) -> tuple[float, ...]:
    """Roots of the top recurrence polynomial by exact-sign bisection.

    Signs of G_{N+1} are evaluated in rational arithmetic at rational
    points, so every bracket is rigorous.  A uniform scan inside the
    Gershgorin bound is refined until all N+1 sign changes appear (the
    roots are simple, so they must), then each bracket is bisected down
    to `tolerance`.
    """
    label.validate_for(ratio)
    if label.N == 0:
        return (0.0,)
    hermites = hermite_sequence(label, ratio)
    coeffs = hermites.characteristic_coefficients(label.N + 1)
    offdiag = _offdiagonals(label, ratio)
    radius = Fraction(math.ceil(2 * float(np.max(offdiag)) + 1))

    expected = label.N + 1
    intervals = 8 * expected
    for _ in range(24):
        roots, brackets = _scan(coeffs, radius, intervals)
        if len(roots) + len(brackets) == expected:
            break
        intervals *= 2
    else:
        raise ArithmeticError(f"could not isolate all {expected} roots of {label}")

    tol = Fraction(tolerance).limit_denominator(10**15)
    for lo, hi in brackets:
        sign_lo = _eval_poly(coeffs, lo) > 0
        while hi - lo > tol:
            mid = (lo + hi) / 2
            value = _eval_poly(coeffs, mid)
            if value == 0:
                lo = hi = mid
                break
            if (value > 0) == sign_lo:
                lo = mid
            else:
                hi = mid
        roots.append((lo + hi) / 2)
    return tuple(sorted(float(r) for r in roots))


def _scan(
    coeffs: tuple[Fraction, ...], radius: Fraction, intervals: int
) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    step = 2 * radius / intervals
    exact_roots: list[Fraction] = []
    brackets: list[tuple[Fraction, Fraction]] = []
    previous_x = -radius
    previous_value = _eval_poly(coeffs, previous_x)
    if previous_value == 0:
        exact_roots.append(previous_x)
    for i in range(1, intervals + 1):
        x = -radius + i * step
        value = _eval_poly(coeffs, x)
        if value == 0:
            exact_roots.append(x)
        elif previous_value != 0 and (value > 0) != (previous_value > 0):
            brackets.append((previous_x, x))
        previous_x, previous_value = x, value
    return exact_roots, brackets


@dataclass(frozen=True)
class AngularEigenvector:
    """One normalized eigenvector of L0, in both bases.

    `coefficients` are the real recurrence coefficients c_k (c_0 > 0);
    the state is sum_k i^k c_k / sqrt([k]!) |N, (p, q), k>, so `amplitudes`
    carry the alternating phases explicitly and `cartesian` re-expresses
    the same amplitudes on the occupation states |n_x, n_y>.  `residual`
    is the recurrence endpoint term, which equals ||L0 v - l v||_inf.
    """

    label: IrrepLabel
    eigenvalue: float
    coefficients: tuple[float, ...]
    amplitudes: tuple[complex, ...]
    cartesian: tuple[tuple[CartesianState, complex], ...]
    residual: float


def angular_eigenvector(
    label: IrrepLabel,
    ratio: FrequencyRatio,
    eigenvalue: float,
    tolerance: float = 1e-9,
) -> AngularEigenvector:
    """Eigenvector of L0 for a known eigenvalue, via the recurrence.

    The unnormalized real components are w_k = G_k(l) / sqrt([k]!); the
    recurrence closes only when G_{N+1}(l) vanishes, so the normalized
    endpoint term |G_{N+1}(l)| / (sqrt([N]!) ||w||) equals ||L0 v - l v||_inf
    and is required to stay within `tolerance`.
    """
    big_n = label.N
    phis = [float(v) for v in StructureFunction(label, ratio).values()]
    facts = [1.0]
    for k in range(1, big_n + 1):
        facts.append(facts[-1] * phis[k])

    g = [1.0, eigenvalue]
    for k in range(1, big_n + 1):
        g.append(eigenvalue * g[k] - phis[k] * g[k - 1])

    w = np.array([g[k] / math.sqrt(facts[k]) for k in range(big_n + 1)])
    norm = float(np.linalg.norm(w))
    endpoint = abs(g[big_n + 1]) / (math.sqrt(facts[big_n]) * norm)
    if endpoint > tolerance:
        raise NotAnEigenvalueError(
            f"{eigenvalue} is not an eigenvalue of L0 on {label}: "
            f"recurrence endpoint residual {endpoint:.3e} > {tolerance:.1e}"
        )

    w_hat = w / norm
    coefficients = tuple(
        float((-1) ** k * math.sqrt(facts[k]) * w_hat[k]) for k in range(big_n + 1)
    )
    amplitudes = tuple(complex((-1j) ** k * w_hat[k]) for k in range(big_n + 1))
    cartesian = tuple(
        (irrep_to_cartesian(IrrepState(label, k), ratio), amplitudes[k])
        for k in range(big_n + 1)
    )
    return AngularEigenvector(
        label, eigenvalue, coefficients, amplitudes, cartesian, endpoint
    )


def build_l0(label: IrrepLabel, ratio: FrequencyRatio) -> np.ndarray:
    """Dense complex matrix of L0 = -i(S+ - S-) on the irrep."""
    rep = build_irrep(label, ratio)
    return -1j * (rep.s_plus - rep.s_minus)
