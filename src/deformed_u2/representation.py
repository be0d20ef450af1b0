"""Banded realizations of the deformed u(2) generators, with checks.

On the irrep (N, p, q) the generators act on the Fock basis k = 0..N as

    H  = E * Id                      (E the exact level energy),
    S0 = diag(k + u),
    S+ |k> = sqrt(Phi(k+1)) |k+1>,   S- = transpose(S+),

each one band, and S+/S- carry the only irrational entries.  Three bands are
stored, in floating point: S0's, H's and S+'s, which S- reads as its
transpose.  Every identity that is rational after squaring (the Phi values,
the ladder-product diagonals, the commutator polynomial through Phi
differences) is additionally verified in exact rational arithmetic, and the
remaining identities are checked, on the bands and bit for bit as on the dense
matrices, as max-norm matrix residuals normalized by max(1, ||target||_inf), so
a residual near machine epsilon means "holds to working precision" at any size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
_BANDS = ("s0_band", "s_plus_band", "h_band")  # the fields of one irrep's bands


@dataclass(frozen=True, eq=False)
class IrrepMatrices:
    """The generator bands of one irrep plus the exact data they were built from; compares by
    identity.  `s0`, `s_plus`, `s_minus` and `h` are their dense matrices, built on first read;
    `s_minus` is `s_plus`'s transpose, read from the same band."""

    label: IrrepLabel
    ratio: FrequencyRatio
    s0_band: np.ndarray  # S0's diagonal, float(u + k) for k = 0..N
    s_plus_band: np.ndarray  # S+'s sub-diagonal and S-'s super-diagonal, sqrt(Phi(k)), k = 1..N
    h_band: np.ndarray  # H's diagonal, float(E) N+1 times
    numerators: tuple[int, ...]  # P_0, ..., P_{N+1}: Phi(k) = P_k / m^m n^n, exact
    u: Fraction
    energy: Fraction

    s0 = cached_property(lambda self: _diag(self.s0_band))
    s_plus = cached_property(lambda self: _diag(self.s_plus_band, -1))
    s_minus = cached_property(lambda self: _diag(self.s_plus_band, 1))
    h = cached_property(lambda self: _diag(self.h_band))

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
    if any(map(math.isnan, values)):
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


def _offdiagonals(record: StructureFunction) -> np.ndarray:
    """sqrt(Phi(1)), ..., sqrt(Phi(N)) of `record`, each the root of a correctly rounded
    P_k / D; any record with a `label`, a `ratio` and `numerators` serves.  A Phi(k) beyond
    float range raises ArithmeticError naming the ratio, the label, k and Phi(k)'s decimal
    exponent, read from the bit lengths of P_k and D."""
    denominator, numerators = _phi_denominator(record.ratio), record.numerators
    try:
        return np.array([math.sqrt(v / denominator) for v in numerators[1:-1]])
    except OverflowError:
        for k, value in enumerate(numerators):
            try:
                value / denominator
            except OverflowError:
                break
        exponent = int((value.bit_length() - denominator.bit_length()) * math.log10(2))
        raise ArithmeticError(
            f"Phi({k}) of {record.label} of the {record.ratio} oscillator is about 1e{exponent}, "
            f"beyond float range: the S+ entry sqrt(Phi({k})) cannot be a float"
        ) from None


def _diag(rows: Sequence[Sequence[float]], offset: int = 0) -> np.ndarray:
    """One read-only matrix per row of `rows`, the row on diagonal `offset` and 0.0 elsewhere."""
    rows = np.asarray(rows, dtype=float)
    k, size = np.arange(rows.shape[-1]), rows.shape[-1] + abs(offset)
    matrices = np.zeros((*rows.shape[:-1], size, size))
    matrices[..., k + max(-offset, 0), k + max(offset, 0)] = rows
    matrices.flags.writeable = False
    return matrices


@dataclass(frozen=True, eq=False)
class IrrepStack:
    """Irreps of one ratio, their bands stacked on a leading axis and zero-padded to the
    widest: `irreps[i].s0_band` is `s0_band[i, :irreps[i].label.N + 1]`.  The float checks
    run on stacks, and map the 0.0 padding to 0.0, so each irrep's maxima are its own."""

    ratio: FrequencyRatio
    irreps: tuple[IrrepMatrices, ...]
    s0_band: np.ndarray  # (irreps, width)
    s_plus_band: np.ndarray  # (irreps, width - 1)
    h_band: np.ndarray  # (irreps, width)

    @classmethod
    def of(cls, rep: IrrepMatrices) -> IrrepStack:
        """`rep` as a stack of one; ShapeMismatchError unless its bands are N+1, N, N+1 long."""
        bands = [np.asarray(getattr(rep, key), dtype=float) for key in _BANDS]
        dim, shapes = rep.label.N + 1, [band.shape for band in bands]
        if shapes != [(dim,), (dim - 1,), (dim,)]:
            raise ShapeMismatchError(f"the bands of {rep.label} must be {dim}, {dim - 1} "
                                     f"and {dim} long, got shapes {shapes}")
        return cls(rep.ratio, (rep,), *(band[None] for band in bands))


def _build_stack(functions: Sequence[StructureFunction]) -> IrrepStack:
    """The irreps of the records `functions`, all of one ratio, built at once."""
    ratio, width = functions[0].ratio, max(f.label.N for f in functions) + 1
    s0, h = np.zeros((2, len(functions), width))
    s_plus = np.zeros((len(functions), width - 1))
    irreps = []
    for i, f in enumerate(functions):
        dim = f.label.N + 1
        # float(u + k), with the sum taken on u's numerator
        s0[i, :dim] = [(f.u.numerator + k * f.u.denominator) / f.u.denominator for k in range(dim)]
        s_plus[i, :dim - 1] = _offdiagonals(f)
        h[i, :dim] = float(f.energy)
        irreps.append(IrrepMatrices(f.label, ratio, s0[i, :dim], s_plus[i, :dim - 1], h[i, :dim],
                                    f.numerators, f.u, f.energy))
    return IrrepStack(ratio, tuple(irreps), s0, s_plus, h)


def build_irrep(label: IrrepLabel, ratio: FrequencyRatio) -> IrrepMatrices:
    """Construct the generator bands of the labelled irrep."""
    return _build_stack((StructureFunction(label, ratio),)).irreps[0]


def _max_abs(bands: np.ndarray) -> np.ndarray:
    """Max |entry| of each row (0.0 when empty)."""
    return np.max(np.abs(bands), axis=-1, initial=0.0)


def _residual(lhs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Max-norm difference, relative to max(1, ||target||_inf), of each row."""
    return _max_abs(lhs - target) / np.fmax(1.0, _max_abs(target))


def _commutator(d: np.ndarray, band: np.ndarray, offset: int) -> np.ndarray:
    """[diag(d), X] on the band of X, which holds `band` on diagonal `offset` (-1, 0 or 1):
    entry (r, c) is fl(d_r x) - fl(x d_c), as the dense products form it."""
    low, high = max(-offset, 0), max(offset, 0)
    return d[:, low:d.shape[-1] - high] * band - band * d[:, high:d.shape[-1] - low]


def _ladder_commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The diagonal of [X, Y], for X holding `x` on the super-diagonal and Y holding `y` on
    the sub-diagonal: fl(x_k y_k) - fl(y_{k-1} x_{k-1}), a product past either end 0.0."""
    return np.diff(x * y, prepend=0.0, append=0.0)


def _check_tolerance(check: str, tolerance: float) -> None:
    """ValueError unless `tolerance`, the gate of `check`, is finite and > 0."""
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"{check} tolerance must be finite and > 0, not {tolerance!r}")


def _reports(name: str, residuals: dict[str, np.ndarray], exact_checks: Sequence[dict],
             tolerance: float) -> tuple[VerificationReport, ...]:
    """One report per irrep of a stack, from each key's residuals over the stack."""
    columns = {key: values.tolist() for key, values in residuals.items()}
    return tuple(VerificationReport(name, {key: column[i] for key, column in columns.items()},
                                    checks, tolerance) for i, checks in enumerate(exact_checks))


def verify_algebra(rep: IrrepMatrices, tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Check the defining relations of the algebra on one representation.

    Floating residuals: [S0, S+] = S+, [S0, S-] = -S-, centrality of H, and
    [S-, S+] against the commutator polynomial evaluated on the diagonal.
    Exact checks: Phi boundary (Phi(0) = Phi(N+1) = 0), Phi positivity on
    1..N, and the rational identity Phi(k+1) - Phi(k) = poly(E, u + k).
    The Phi checks read the integer table `rep.numerators`; the polynomial
    is evaluated along the irrep by its integer kernel, and the identity is
    compared cross-multiplied in ints; the diagonal target of [S-, S+] is
    the correctly rounded quotient of the same ints.  A tolerance that is
    not finite and > 0 raises ValueError.
    """
    _check_tolerance("algebra", tolerance)
    return _algebra_reports(IrrepStack.of(rep), tolerance)[0]


def _algebra_reports(stack: IrrepStack, tolerance: float) -> tuple[VerificationReport, ...]:
    """`verify_algebra` on every irrep of `stack`."""
    polynomial, phi_den = commutator_polynomial(stack.ratio), _phi_denominator(stack.ratio)
    width = stack.s0_band.shape[-1]
    ladder_targets, exact_checks = [], []
    for rep in stack.irreps:
        # poly(E, u + k) = ladder[k] / ladder_den for k = 0..N and Phi(k) =
        # phi[k] / phi_den, each over one denominator, in plain ints
        dim = rep.label.N + 1
        ladder, ladder_den = polynomial._scaled_values(rep.energy, rep.u, dim)
        phi = rep.numerators
        ladder_targets.append([v / ladder_den for v in ladder] + [0.0] * (width - dim))
        exact_checks.append({
            "phi_boundary": phi[0] == 0 and phi[-1] == 0,
            "phi_positive": all(v > 0 for v in phi[1:-1]),
            "ladder_difference": all((phi[k + 1] - phi[k]) * ladder_den == ladder[k] * phi_den
                                     for k in range(dim)),
        })
    # S-'s band is S+'s; [H, S-] is -[H, S+] entry for entry, so |[H, S+]| covers both
    s0, sp, h = stack.s0_band, stack.s_plus_band, stack.h_band
    with np.errstate(invalid="ignore"):  # an inf in a band makes a NaN, which fails the gate
        residuals = {
            "commutator_s0_splus": _residual(_commutator(s0, sp, -1), sp),
            "commutator_s0_sminus": _residual(_commutator(s0, sp, 1), -sp),
            "commutator_h": np.maximum(_max_abs(_commutator(h, s0, 0)),
                                       _max_abs(_commutator(h, sp, -1))),
            "commutator_sminus_splus": _residual(_ladder_commutator(sp, sp),
                                                 np.array(ladder_targets)),
        }
    return _reports("algebra", residuals, exact_checks, tolerance)


_W32_PRODUCT = 4.0 / 3.0


def w32_check(rep: IrrepMatrices, rho: float | None = None, sigma: float | None = None,
              tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Check the finite W_3^(2) relations on a 1:2 representation.

    The identifications are F_W = sigma S+, E_W = rho S-, H_W = -2 S0 + H/3
    and C_W = -(4/9) H^2 + 1/4, valid for any rho*sigma = 4/3; the default
    takes the symmetric gauge rho = sigma = 2/sqrt(3).  Verified relations:
    [H_W, E_W] = 2 E_W, [H_W, F_W] = -2 F_W, [E_W, F_W] = H_W^2 + C_W, and
    centrality of C_W.  A missing factor is taken from the other; ValueError
    unless both are finite and rho*sigma is within 1e-12 of 4/3, or when the
    tolerance is not finite and > 0.
    """
    _check_tolerance("W_3^(2)", tolerance)
    return _w32_reports(IrrepStack.of(rep), rho, sigma, tolerance)[0]


def _w32_reports(stack: IrrepStack, rho: float | None = None, sigma: float | None = None,
                 tolerance: float = IDENTITY_TOL) -> tuple[VerificationReport, ...]:
    """`w32_check` on every irrep of `stack`."""
    if (stack.ratio.m, stack.ratio.n) != (1, 2):
        raise WrongRatioError(f"the W_3^(2) identification requires ratio 1:2, got {stack.ratio}")
    if rho is None and sigma is None:
        rho = sigma = 2.0 / math.sqrt(3.0)
    elif rho is None:
        rho = _W32_PRODUCT / sigma if sigma else math.inf
    elif sigma is None:
        sigma = _W32_PRODUCT / rho if rho else math.inf
    if not (math.isfinite(rho) and math.isfinite(sigma)
            and abs(rho * sigma - _W32_PRODUCT) <= 1e-12):
        raise ValueError(f"need finite rho, sigma with rho*sigma = 4/3, got {rho}, {sigma}")

    # (-(4/9) H) H + Id/4, with no 1/4 on the padding
    real = np.arange(stack.h_band.shape[-1]) < [[rep.label.N + 1] for rep in stack.irreps]
    with np.errstate(invalid="ignore"):  # an inf in a band makes a NaN, which fails the gate
        f_w, e_w = sigma * stack.s_plus_band, rho * stack.s_plus_band
        h_w = -2.0 * stack.s0_band + stack.h_band / 3.0
        c_w = -(4.0 / 9.0) * stack.h_band * stack.h_band + np.where(real, 0.25, 0.0)
        residuals = {
            "commutator_hw_ew": _residual(_commutator(h_w, e_w, 1), 2.0 * e_w),
            "commutator_hw_fw": _residual(_commutator(h_w, f_w, -1), -2.0 * f_w),
            "commutator_ew_fw": _residual(_ladder_commutator(e_w, f_w), h_w * h_w + c_w),
            "cw_central": np.maximum.reduce([_max_abs(_commutator(c_w, x, offset))
                                             for x, offset in ((e_w, 1), (f_w, -1), (h_w, 0))]),
        }
    return _reports("w32", residuals, [{} for _ in stack.irreps], tolerance)
