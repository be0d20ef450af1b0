"""Dense matrix realizations of the deformed u(2) generators, with checks.

On the irrep (N, p, q) the generators act on the Fock basis k = 0..N as

    H  = E * Id                      (E the exact level energy),
    S0 = diag(k + u),
    S+ |k> = sqrt(Phi(k+1)) |k+1>,   S- = transpose(S+),

so S+/S- carry the only irrational entries.  Matrices are stored in floating
point; every identity that is rational after squaring (the Phi values, the
ladder-product diagonals, the commutator polynomial through Phi differences)
is additionally verified in exact rational arithmetic, and the remaining
identities are checked as max-norm matrix residuals normalized by the
natural scale of the identity, max(1, ||target||_inf), so a residual near
machine epsilon means "holds to working precision" at every irrep size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import FrequencyRatio, IrrepLabel
from .exceptions import ShapeMismatchError, WrongRatioError
from .structure import StructureFunction, _phi_denominator, commutator_polynomial

__all__ = [
    "IrrepMatrices",
    "build_irrep",
    "VerificationReport",
    "verify_algebra",
    "worst_residual",
    "w32_check",
]


@dataclass(frozen=True)
class IrrepMatrices:
    """Matrices of one irrep plus the exact data they were built from."""

    label: IrrepLabel
    ratio: FrequencyRatio
    s0: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    h: np.ndarray
    number: np.ndarray
    numerators: tuple[int, ...]  # P_0, ..., P_{N+1}: Phi(k) = P_k / m^m n^n, exact
    u: Fraction
    energy: Fraction

    @property
    def dimension(self) -> int:
        return self.label.N + 1

    @property
    def phi(self) -> tuple[Fraction, ...]:
        """Phi(0), ..., Phi(N+1), the `Fraction`s of `numerators`."""
        denominator = _phi_denominator(self.ratio)
        return tuple(Fraction(v, denominator) for v in self.numerators)


def worst_residual(values: Iterable[float]) -> float:
    """Largest of `values` (0.0 when empty), or NaN when any of them is NaN.

    The built-in max() keeps its running value when compared with a NaN,
    so a NaN would otherwise vanish from the maximum.
    """
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals per identity, with the exact-arithmetic outcomes alongside.

    `residuals` holds max-norm floating-point residuals; `exact_checks`
    holds the outcomes of the checks that can be decided exactly (these are
    the identities that are 0 by construction when the arithmetic is done
    over the rationals).  The report passes when every residual is within
    tolerance and every exact check holds; a NaN residual never passes.
    """

    name: str
    residuals: dict[str, float]
    exact_checks: dict[str, bool]
    tolerance: float

    @property
    def max_residual(self) -> float:
        """Largest residual, or NaN when any residual is NaN."""
        return worst_residual(self.residuals.values())

    @property
    def failures(self) -> int:
        """Number of exact checks that do not hold."""
        return sum(not ok for ok in self.exact_checks.values())

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance and all(self.exact_checks.values())


def _offdiagonals(ratio: FrequencyRatio, numerators: Sequence[int]) -> np.ndarray:
    """sqrt(Phi(1)), ..., sqrt(Phi(N)), each the root of a correctly rounded P_k / D."""
    denominator = _phi_denominator(ratio)
    return np.array([math.sqrt(v / denominator) for v in numerators[1:-1]])


def build_irrep(label: IrrepLabel, ratio: FrequencyRatio) -> IrrepMatrices:
    """Construct the (N+1)-dimensional matrices of the labelled irrep."""
    sf = StructureFunction(label, ratio)
    numerators = sf.numerators
    u = sf.u
    energy = sf.energy
    dim = label.N + 1

    # float(u + k), with the sum taken on u's numerator
    s0 = np.diag([(u.numerator + k * u.denominator) / u.denominator for k in range(dim)])
    s_plus = np.diag(_offdiagonals(ratio, numerators), -1)
    s_minus = s_plus.T.copy()
    h = float(energy) * np.eye(dim)
    number = np.diag(np.arange(dim, dtype=float))
    return IrrepMatrices(label, ratio, s0, s_plus, s_minus, h, number, numerators, u, energy)


def _max_abs(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix))) if matrix.size else 0.0


def _residual(lhs: np.ndarray, target: np.ndarray) -> float:
    """Max-norm difference, relative to max(1, ||target||_inf)."""
    return _max_abs(lhs - target) / max(1.0, _max_abs(target))


def _require_square(rep: IrrepMatrices) -> int:
    shapes = {m.shape for m in (rep.s0, rep.s_plus, rep.s_minus, rep.h)}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"generator matrices differ in shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeMismatchError(f"generator matrices must be square, got {shape}")
    return shape[0]


def verify_algebra(rep: IrrepMatrices, tolerance: float = 1e-10) -> VerificationReport:
    """Check the defining relations of the algebra on one representation.

    Floating residuals: [S0, S+] = S+, [S0, S-] = -S-, centrality of H, and
    [S-, S+] against the commutator polynomial evaluated on the diagonal.
    Exact checks: Phi boundary (Phi(0) = Phi(N+1) = 0), Phi positivity on
    1..N, and the rational identity Phi(k+1) - Phi(k) = poly(E, u + k).
    The Phi checks read the integer table `rep.numerators`; the polynomial
    is evaluated along the irrep by its integer kernel, and the identity is
    compared cross-multiplied in ints; the diagonal target of [S-, S+] is
    the correctly rounded quotient of the same ints.
    """
    dim = _require_square(rep)
    s0, sp, sm, h = rep.s0, rep.s_plus, rep.s_minus, rep.h
    # poly(E, u + k) = ladder[k] / ladder_den for k = 0..N and Phi(k) =
    # phi[k] / phi_den, each over one denominator, in plain ints
    ladder, ladder_den = commutator_polynomial(rep.ratio)._scaled_values(
        rep.energy, rep.u, dim
    )
    phi, phi_den = rep.numerators, _phi_denominator(rep.ratio)
    ladder_target = np.diag([v / ladder_den for v in ladder])

    residuals = {
        "commutator_s0_splus": _residual(s0 @ sp - sp @ s0, sp),
        "commutator_s0_sminus": _residual(s0 @ sm - sm @ s0, -sm),
        "commutator_h": max(_max_abs(h @ x - x @ h) for x in (s0, sp, sm)),
        "commutator_sminus_splus": _residual(sm @ sp - sp @ sm, ladder_target),
    }
    exact_checks = {
        "phi_boundary": phi[0] == 0 and phi[-1] == 0,
        "phi_positive": all(v > 0 for v in phi[1:-1]),
        "ladder_difference": all(
            (phi[k + 1] - phi[k]) * ladder_den == ladder[k] * phi_den for k in range(dim)
        ),
    }
    return VerificationReport("algebra", residuals, exact_checks, tolerance)


_W32_PRODUCT = 4.0 / 3.0


def w32_check(
    rep: IrrepMatrices,
    rho: float | None = None,
    sigma: float | None = None,
    tolerance: float = 1e-10,
) -> VerificationReport:
    """Check the finite W_3^(2) relations on a 1:2 representation.

    The identifications are F_W = sigma S+, E_W = rho S-, H_W = -2 S0 + H/3
    and C_W = -(4/9) H^2 + 1/4, valid for any rho*sigma = 4/3; the default
    takes the symmetric gauge rho = sigma = 2/sqrt(3).  Verified relations:
    [H_W, E_W] = 2 E_W, [H_W, F_W] = -2 F_W, [E_W, F_W] = H_W^2 + C_W, and
    centrality of C_W.  A missing factor is taken from the other; ValueError
    unless both are finite and rho*sigma is within 1e-12 of 4/3.
    """
    if (rep.ratio.m, rep.ratio.n) != (1, 2):
        raise WrongRatioError(
            f"the W_3^(2) identification requires ratio 1:2, got {rep.ratio}"
        )
    if rho is None and sigma is None:
        rho = sigma = 2.0 / math.sqrt(3.0)
    elif rho is None:
        rho = _W32_PRODUCT / sigma if sigma else math.inf
    elif sigma is None:
        sigma = _W32_PRODUCT / rho if rho else math.inf
    if not (math.isfinite(rho) and math.isfinite(sigma)
            and abs(rho * sigma - _W32_PRODUCT) <= 1e-12):
        raise ValueError(f"need finite rho, sigma with rho*sigma = 4/3, got {rho}, {sigma}")

    dim = _require_square(rep)
    f_w = sigma * rep.s_plus
    e_w = rho * rep.s_minus
    h_w = -2.0 * rep.s0 + rep.h / 3.0
    c_w = -(4.0 / 9.0) * rep.h @ rep.h + np.eye(dim) / 4.0

    residuals = {
        "commutator_hw_ew": _residual(h_w @ e_w - e_w @ h_w, 2.0 * e_w),
        "commutator_hw_fw": _residual(h_w @ f_w - f_w @ h_w, -2.0 * f_w),
        "commutator_ew_fw": _residual(e_w @ f_w - f_w @ e_w, h_w @ h_w + c_w),
        "cw_central": max(_max_abs(c_w @ x - x @ c_w) for x in (e_w, f_w, h_w)),
    }
    return VerificationReport("w32", residuals, {}, tolerance)
