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

IDENTITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class IrrepMatrices:
    """Matrices of one irrep plus the exact data they were built from; compares by identity."""

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


def _diag(rows: Sequence[Sequence[float]], offset: int = 0) -> np.ndarray:
    """One matrix per row of `rows`, the row on diagonal `offset` and 0.0 elsewhere."""
    rows = np.asarray(rows, dtype=float)
    k, size = np.arange(rows.shape[-1]), rows.shape[-1] + abs(offset)
    matrices = np.zeros((*rows.shape[:-1], size, size))
    matrices[..., k + max(-offset, 0), k + max(offset, 0)] = rows
    return matrices


@dataclass(frozen=True, eq=False)
class IrrepStack:
    """Irreps of one N with their generators stacked on a leading axis, so that
    `irreps[i].s0` is `s0[i]`; the float checks run on stacks, one irrep as a stack of one."""

    ratio: FrequencyRatio
    irreps: tuple[IrrepMatrices, ...]
    s0: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    h: np.ndarray

    @classmethod
    def of(cls, rep: IrrepMatrices) -> IrrepStack:
        return cls(rep.ratio, (rep,), *(m[None] for m in (rep.s0, rep.s_plus, rep.s_minus, rep.h)))


def _build_stack(functions: Sequence[StructureFunction]) -> IrrepStack:
    """The irreps of the records `functions`, all of one N and one ratio, built at once."""
    ratio, dim = functions[0].ratio, functions[0].label.N + 1
    # float(u + k), with the sum taken on u's numerator
    s0 = _diag([[(f.u.numerator + k * f.u.denominator) / f.u.denominator for k in range(dim)]
                for f in functions])
    s_plus = _diag([_offdiagonals(ratio, f.numerators) for f in functions], -1)
    s_minus = s_plus.swapaxes(-1, -2).copy()
    h = np.array([float(f.energy) for f in functions])[:, None, None] * np.eye(dim)
    number = np.broadcast_to(np.diag(np.arange(dim, dtype=float)), s0.shape)  # read-only
    irreps = tuple(IrrepMatrices(f.label, ratio, s0[i], s_plus[i], s_minus[i], h[i], number[i],
                                 f.numerators, f.u, f.energy) for i, f in enumerate(functions))
    return IrrepStack(ratio, irreps, s0, s_plus, s_minus, h)


def build_irrep(label: IrrepLabel, ratio: FrequencyRatio) -> IrrepMatrices:
    """Construct the (N+1)-dimensional matrices of the labelled irrep."""
    return _build_stack((StructureFunction(label, ratio),)).irreps[0]


def _max_abs(matrices: np.ndarray) -> np.ndarray:
    """Max |entry| of each matrix (0.0 when empty)."""
    return np.max(np.abs(matrices), axis=(-2, -1), initial=0.0)


def _residual(lhs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Max-norm difference, relative to max(1, ||target||_inf), of each matrix."""
    return _max_abs(lhs - target) / np.fmax(1.0, _max_abs(target))


def _reports(name: str, residuals: dict[str, np.ndarray], exact_checks: Sequence[dict],
             tolerance: float) -> tuple[VerificationReport, ...]:
    """One report per irrep of a stack, from each key's residuals over the stack."""
    columns = {key: values.tolist() for key, values in residuals.items()}
    return tuple(VerificationReport(name, {key: column[i] for key, column in columns.items()},
                                    checks, tolerance) for i, checks in enumerate(exact_checks))


def _require_square(stack: IrrepStack) -> int:
    shapes = {m.shape[1:] for m in (stack.s0, stack.s_plus, stack.s_minus, stack.h)}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"generator matrices differ in shape: {sorted(shapes)}")
    (shape,) = shapes
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ShapeMismatchError(f"generator matrices must be square, got {shape}")
    return shape[0]


def verify_algebra(rep: IrrepMatrices, tolerance: float = IDENTITY_TOL) -> VerificationReport:
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
    return _algebra_reports(IrrepStack.of(rep), tolerance)[0]


def _algebra_reports(stack: IrrepStack, tolerance: float) -> tuple[VerificationReport, ...]:
    """`verify_algebra` on every irrep of `stack`."""
    dim = _require_square(stack)
    polynomial, phi_den = commutator_polynomial(stack.ratio), _phi_denominator(stack.ratio)
    ladder_targets, exact_checks = [], []
    for rep in stack.irreps:
        # poly(E, u + k) = ladder[k] / ladder_den for k = 0..N and Phi(k) =
        # phi[k] / phi_den, each over one denominator, in plain ints
        ladder, ladder_den = polynomial._scaled_values(rep.energy, rep.u, dim)
        phi = rep.numerators
        ladder_targets.append([v / ladder_den for v in ladder])
        exact_checks.append({
            "phi_boundary": phi[0] == 0 and phi[-1] == 0,
            "phi_positive": all(v > 0 for v in phi[1:-1]),
            "ladder_difference": all((phi[k + 1] - phi[k]) * ladder_den == ladder[k] * phi_den
                                     for k in range(dim)),
        })
    s0, sp, sm, h = stack.s0, stack.s_plus, stack.s_minus, stack.h
    residuals = {
        "commutator_s0_splus": _residual(s0 @ sp - sp @ s0, sp),
        "commutator_s0_sminus": _residual(s0 @ sm - sm @ s0, -sm),
        "commutator_h": np.maximum.reduce([_max_abs(h @ x - x @ h) for x in (s0, sp, sm)]),
        "commutator_sminus_splus": _residual(sm @ sp - sp @ sm, _diag(ladder_targets)),
    }
    return _reports("algebra", residuals, exact_checks, tolerance)


_W32_PRODUCT = 4.0 / 3.0


def w32_check(
    rep: IrrepMatrices,
    rho: float | None = None,
    sigma: float | None = None,
    tolerance: float = IDENTITY_TOL,
) -> VerificationReport:
    """Check the finite W_3^(2) relations on a 1:2 representation.

    The identifications are F_W = sigma S+, E_W = rho S-, H_W = -2 S0 + H/3
    and C_W = -(4/9) H^2 + 1/4, valid for any rho*sigma = 4/3; the default
    takes the symmetric gauge rho = sigma = 2/sqrt(3).  Verified relations:
    [H_W, E_W] = 2 E_W, [H_W, F_W] = -2 F_W, [E_W, F_W] = H_W^2 + C_W, and
    centrality of C_W.  A missing factor is taken from the other; ValueError
    unless both are finite and rho*sigma is within 1e-12 of 4/3.
    """
    return _w32_reports(IrrepStack.of(rep), rho, sigma, tolerance)[0]


def _w32_reports(stack: IrrepStack, rho: float | None = None, sigma: float | None = None,
                 tolerance: float = IDENTITY_TOL) -> tuple[VerificationReport, ...]:
    """`w32_check` on every irrep of `stack`."""
    if (stack.ratio.m, stack.ratio.n) != (1, 2):
        raise WrongRatioError(
            f"the W_3^(2) identification requires ratio 1:2, got {stack.ratio}"
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

    dim = _require_square(stack)
    f_w = sigma * stack.s_plus
    e_w = rho * stack.s_minus
    h_w = -2.0 * stack.s0 + stack.h / 3.0
    c_w = -(4.0 / 9.0) * stack.h @ stack.h + np.eye(dim) / 4.0

    residuals = {
        "commutator_hw_ew": _residual(h_w @ e_w - e_w @ h_w, 2.0 * e_w),
        "commutator_hw_fw": _residual(h_w @ f_w - f_w @ h_w, -2.0 * f_w),
        "commutator_ew_fw": _residual(e_w @ f_w - f_w @ e_w, h_w @ h_w + c_w),
        "cw_central": np.maximum.reduce([_max_abs(c_w @ x - x @ c_w) for x in (e_w, f_w, h_w)]),
    }
    return _reports("w32", residuals, [{} for _ in stack.irreps], tolerance)
