"""Banded realizations of the deformed u(2) generators, with checks.

On the irrep (N, p, q) the generators act on the Fock basis k = 0..N as

    H  = E * Id                      (E the exact level energy),
    S0 = diag(k + u),
    S+ |k> = sqrt(Phi(k+1)) |k+1>,   S- = transpose(S+),

each one band, and S+/S- carry the only irrational entries.  Three bands are
stored, in floating point: S0's, H's and S+'s, which S- reads as its
transpose.  They are built for many irreps of one ratio at once, each band in
one pass: S0 and H as correctly rounded quotients of the ints 4mn u and 2mn E,
S+ as one sqrt over the correctly rounded P_k / D, in an `IrrepStack` beside
each irrep's N, p and q, Phi table and those ints.  Every identity that is
rational after squaring (the Phi values, the ladder-product diagonals, the
commutator polynomial through Phi differences, proved once per sweep for the
irreps the oracle passed) is additionally verified in exact rational
arithmetic, and the remaining identities are checked, on the bands and bit
for bit as on the dense matrices, as max-norm matrix residuals normalized by
max(1, ||target||_inf), so a residual near machine epsilon means "holds to
working precision" at any size.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat, tee
from operator import itemgetter, le, not_, sub, truediv

import numpy as np

from .core import FrequencyRatio, IrrepLabel, _energy_key
from .exceptions import ShapeMismatchError, WrongRatioError
from .structure import _phi_denominator, _phi_numerators, _scaled_u
from .structure import commutator_polynomial

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


def _offdiagonals(ratio: FrequencyRatio, labels: Iterable[IrrepLabel],
                  tables: Iterable[tuple[int, ...]]) -> np.ndarray:
    """sqrt(Phi(1)), ..., sqrt(Phi(N)) of each of `labels`, irreps of `ratio`, one after another:
    the root of a correctly rounded P_k / D of its table P_0..P_{N+1} in `tables`, or, if that
    quotient is below 2^-1022, 2^-j times the root of a normal P_k 4^j / D.  The first Phi(k)
    beyond float range raises ArithmeticError naming the ratio, k, Phi(k)'s decimal exponent
    (from the bit lengths of P_k and D) and the label: only then are `labels` read, one a table."""
    denominator, (tables, read) = _phi_denominator(ratio), tee(tables)
    try:
        quotients = np.array([*map(truediv, chain.from_iterable(
            map(itemgetter(slice(1, -1)), tables)), repeat(denominator))])
    except OverflowError:
        for label, table in zip(labels, read):  # only the tables the map reached
            for k, value in enumerate(table[1:-1], 1):
                try:
                    value / denominator
                except OverflowError:
                    exponent = int((value.bit_length() - denominator.bit_length()) * math.log10(2))
                    raise ArithmeticError(
                        f"Phi({k}) of {label} of the {ratio} oscillator is about 1e{exponent}, "
                        f"beyond float range: the S+ entry sqrt(Phi({k})) cannot be a float"
                    ) from None
    roots, tiny = np.sqrt(quotients), np.flatnonzero(quotients < 2.0**-1022).tolist()
    values = [*chain.from_iterable(map(itemgetter(slice(1, -1)), read))] if tiny else []
    for j in (j for j in tiny if values[j] > 0):  # P_k 4^j / D is near 1, so normal
        shift = (denominator.bit_length() - values[j].bit_length() + 1) // 2
        roots[j] = math.ldexp(math.sqrt((values[j] << 2 * shift) / denominator), -shift)
    return roots


def _diag(rows: Sequence[Sequence[float]], offset: int = 0) -> np.ndarray:
    """One read-only matrix per row of `rows`, the row on diagonal `offset` and 0.0 elsewhere."""
    rows = np.asarray(rows, dtype=float)
    length = rows.shape[-1]
    size = length + abs(offset)
    flat = np.zeros((*rows.shape[:-1], size * size))
    start = offset if offset > 0 else -offset * size  # the diagonal's first entry, row-major
    flat[..., start:start + length * (size + 1):size + 1] = rows  # one strided slice
    matrices = flat.reshape(*rows.shape[:-1], size, size)
    matrices.flags.writeable = False
    return matrices


@dataclass(frozen=True, eq=False)
class IrrepStack:
    """Irreps of one ratio as columns: each irrep's N, p, q (the one record of the irreps; a
    label is built only to name one), Phi table, 4mn u and 2mn E, and its bands stacked on a
    leading axis and zero-padded to the widest.  The kernels read each irrep's shape off
    `big_n` and the row mask `real` alone, so irrep i's S0 band is `s0_band[i, real[i]]`.  The
    float checks map the 0.0 padding to 0.0, so each irrep's maxima are its own."""

    ratio: FrequencyRatio
    big_n: np.ndarray  # (irreps,) ints: each irrep's N
    p: np.ndarray  # (irreps,) ints
    q: np.ndarray  # (irreps,) ints
    numerators: tuple[tuple[int, ...], ...]  # P_0, ..., P_{N+1}: Phi(k) = P_k / m^m n^n
    scaled_u: tuple[int | Fraction, ...]  # 4mn u (`_scaled_u`); `Fraction`s from `of`
    energy_keys: tuple[int | Fraction, ...]  # 2mn E (`_energy_key`); likewise
    s0_band: np.ndarray  # (irreps, width)
    s_plus_band: np.ndarray  # (irreps, width - 1)
    h_band: np.ndarray  # (irreps, width)

    @cached_property
    def real(self) -> np.ndarray:
        """Whether entry k of each S0 or H row is its irrep's (k <= N), not padding; `real[:, 1:]`
        is S+'s."""
        return np.arange(self.s0_band.shape[-1]) <= self.big_n[:, None]

    @classmethod
    def of(cls, rep: IrrepMatrices) -> IrrepStack:
        """`rep` as a stack of one, 4mn u and 2mn E as `Fraction`s (a value off the grid fails
        the oracle); ShapeMismatchError unless its bands are N+1, N, N+1 and its table N+2 long."""
        bands = [np.asarray(getattr(rep, key), dtype=float) for key in _BANDS]
        dim, shapes = rep.label.N + 1, [band.shape for band in bands]
        if shapes != [(dim,), (dim - 1,), (dim,)]:
            raise ShapeMismatchError(f"the bands of {rep.label} must be {dim}, {dim - 1} "
                                     f"and {dim} long, got shapes {shapes}")
        scale, label = 4 * rep.ratio.m * rep.ratio.n, rep.label
        return cls(rep.ratio, *np.array([[label.N], [label.p], [label.q]]),
                   (_phi_table(label, rep.numerators),), (rep.u * scale,),
                   (rep.energy * (scale // 2),), *(band[None] for band in bands))


def _phi_table(label: IrrepLabel, table: Sequence[int]) -> Sequence[int]:
    """`table`, the Phi table of `label`, checked to be N+2 long: ShapeMismatchError otherwise."""
    if len(table) != label.N + 2:
        raise ShapeMismatchError(f"the Phi table of {label} must be {label.N + 2} long, "
                                 f"got {len(table)}")
    return table


def _build_stack(ratio: FrequencyRatio, big_n: Sequence[int], p: Sequence[int],
                 q: Sequence[int]) -> IrrepStack:
    """The irreps (N, p, q) of `ratio` in the int columns `big_n`, `p`, `q` built at once: Phi
    tables from the sweep's X_p and Y_q (`_phi_numerators`), none past the first Phi beyond
    float range, whose error alone builds labels, to name its irrep; each band in one pass.  S0's
    (4mn u + 4mn k) / 4mn and H's 2mn E / 2mn, of the int columns `_scaled_u` and `_energy_key`,
    are numpy quotients of ints at most 6mn (N+1), far below 2^53, so each is correctly rounded."""
    scale = 4 * ratio.m * ratio.n
    big_n, p, q = columns = np.array([big_n, p, q])
    ints = columns.tolist()  # numpy's int64 would wrap in the Phi products
    tables, numerators = tee(_phi_numerators(ratio, *ints))
    offdiagonals = _offdiagonals(ratio, map(IrrepLabel, *ints), tables)
    scaled_u, energy_keys = _scaled_u(ratio, big_n, p, q), _energy_key(ratio, big_n, p, q)
    s0, s_plus, h = np.zeros((3, len(big_n), big_n.max() + 1))  # S+'s rows are one shorter
    stack = IrrepStack(ratio, big_n, p, q, tuple(numerators),
                       tuple(scaled_u.tolist()), tuple(energy_keys.tolist()), s0, s_plus[:, 1:], h)
    stack.s_plus_band[stack.real[:, 1:]] = offdiagonals
    np.divide(scaled_u[:, None] + scale * np.arange(s0.shape[-1]), scale, out=s0, where=stack.real)
    np.divide(energy_keys[:, None], scale // 2, out=h, where=stack.real)
    return stack


def build_irrep(label: IrrepLabel, ratio: FrequencyRatio) -> IrrepMatrices:
    """Construct the generator bands of the labelled irrep: row 0 of a stack of one."""
    label.validate_for(ratio)
    stack, scale = _build_stack(ratio, [label.N], [label.p], [label.q]), 4 * ratio.m * ratio.n
    return IrrepMatrices(label, ratio, stack.s0_band[0], stack.s_plus_band[0], stack.h_band[0],
                         stack.numerators[0], Fraction(stack.scaled_u[0], scale),
                         Fraction(stack.energy_keys[0], scale // 2))


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


# a check kernel's outcome on a stack: one residual array and one list of exact outcomes per
# key, each over the stack's irreps
_Columns = tuple[dict[str, np.ndarray], dict[str, list[bool]]]


def _first_report(name: str, columns: _Columns, tolerance: float) -> VerificationReport:
    """Row 0 of a kernel's `columns` as a report, for the one-irrep functions."""
    residuals, exact_checks = columns
    return VerificationReport(name, {key: float(values[0]) for key, values in residuals.items()},
                              {key: values[0] for key, values in exact_checks.items()}, tolerance)


def verify_algebra(rep: IrrepMatrices, tolerance: float = IDENTITY_TOL) -> VerificationReport:
    """Check the defining relations of the algebra on one representation.

    Floating residuals: [S0, S+] = S+, [S0, S-] = -S-, centrality of H, and
    [S-, S+] against the commutator polynomial evaluated on the diagonal.
    Exact checks: Phi boundary (Phi(0) = Phi(N+1) = 0), Phi positivity on
    1..N, and the rational identity Phi(k+1) - Phi(k) = poly(E, u + k).
    The Phi checks read the integer table `rep.numerators`.  The identity evaluates the
    commutator's factor table once along the irrep and compares it with the Phi
    differences, cross-multiplied in ints; the target of [S-, S+] is the correctly rounded
    quotient of the same rationals, as `run_suite`'s proof gives it.  A tolerance that is
    not finite and > 0 raises ValueError.
    """
    _check_tolerance("algebra", tolerance)
    return _first_report("algebra", _algebra_reports(IrrepStack.of(rep), [False]), tolerance)


def _algebra_reports(stack: IrrepStack, proven: Sequence[bool]) -> _Columns:
    """`verify_algebra`'s columns on every irrep of `stack`.  Irrep i holds the ladder identity,
    with the P_k differences as its values, when `proven[i]` (its oracle passed: u, E and P_k
    are the Fock ones) and the commutator read here is the Fock one (`_ladder_identity`);
    others evaluate the commutator's factor table along the irrep (`_differences`), on
    `Fraction`s of the u and E columns.  Only `run_suite` passes a proof; `verify_algebra`
    passes none."""
    polynomial, phi_den = commutator_polynomial(stack.ratio), _phi_denominator(stack.ratio)
    identity = any(proven) and polynomial.ratio == stack.ratio and polynomial._proven
    known = np.array(proven if identity else [False] * len(stack.big_n), dtype=bool)
    scale, lengths = 4 * stack.ratio.m * stack.ratio.n, stack.big_n + 2
    column = [*chain.from_iterable(stack.numerators)]  # table i: column[starts[i]:ends[i] + 1]
    ends = np.cumsum(lengths) - 1
    starts, zero = ends + 1 - lengths, np.fromiter(map(not_, column), bool, len(column))
    low = np.cumsum([0, *map(le, column, repeat(0))])  # low[j]: the entries <= 0 before j
    boundary, positive = zero[starts] & zero[ends], low[ends] == low[starts + 1]
    # poly(E, u + k) = (P_{k+1} - P_k) / D, k = 0..N, read off the column on proven irreps
    ladder_targets, taken = np.zeros(stack.s0_band.shape), np.repeat(known, lengths)
    taken[ends] = False  # the step from one table's P_{N+1} to the next one's P_0
    targets = map(truediv, compress(map(sub, column[1:], column), taken.tolist()), repeat(phi_den))
    ladder_targets[stack.real & known[:, None]] = [*targets]
    difference, sizes = known.copy(), (stack.big_n + 1).tolist()
    for i in np.flatnonzero(~known).tolist():
        # poly(E, u + k) = ladder[k] / ladder_den, k = 0..N, and Phi(k) = phi[k] / phi_den
        phi, dim = stack.numerators[i], sizes[i]
        ladder, ladder_den = polynomial._differences(
            Fraction(stack.energy_keys[i], scale // 2), Fraction(stack.scaled_u[i], scale), dim)
        ladder_targets[i, :dim] = [v / ladder_den for v in ladder]
        difference[i] = all((phi[k + 1] - phi[k]) * ladder_den == ladder[k] * phi_den
                            for k in range(dim))
    # S-'s band is S+'s; [H, S-] is -[H, S+] entry for entry, so |[H, S+]| covers both
    s0, sp, h = stack.s0_band, stack.s_plus_band, stack.h_band
    with np.errstate(invalid="ignore"):  # an inf in a band makes a NaN, which fails the gate
        residuals = {
            "commutator_s0_splus": _residual(_commutator(s0, sp, -1), sp),
            "commutator_s0_sminus": _residual(_commutator(s0, sp, 1), -sp),
            "commutator_h": np.maximum(_max_abs(_commutator(h, s0, 0)),
                                       _max_abs(_commutator(h, sp, -1))),
            "commutator_sminus_splus": _residual(_ladder_commutator(sp, sp), ladder_targets),
        }
    return residuals, {"phi_boundary": boundary.tolist(), "phi_positive": positive.tolist(),
                       "ladder_difference": difference.tolist()}


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
    return _first_report("w32", _w32_reports(IrrepStack.of(rep), rho, sigma), tolerance)


def _w32_reports(stack: IrrepStack, rho: float | None = None,
                 sigma: float | None = None) -> _Columns:
    """`w32_check`'s columns on every irrep of `stack`."""
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
    with np.errstate(invalid="ignore"):  # an inf in a band makes a NaN, which fails the gate
        f_w, e_w = sigma * stack.s_plus_band, rho * stack.s_plus_band
        h_w = -2.0 * stack.s0_band + stack.h_band / 3.0
        c_w = -(4.0 / 9.0) * stack.h_band * stack.h_band + np.where(stack.real, 0.25, 0.0)
        residuals = {
            "commutator_hw_ew": _residual(_commutator(h_w, e_w, 1), 2.0 * e_w),
            "commutator_hw_fw": _residual(_commutator(h_w, f_w, -1), -2.0 * f_w),
            "commutator_ew_fw": _residual(_ladder_commutator(e_w, f_w), h_w * h_w + c_w),
            "cw_central": np.maximum.reduce([_max_abs(_commutator(c_w, x, offset))
                                             for x, offset in ((e_w, 1), (f_w, -1), (h_w, 0))]),
        }
    return residuals, {}
