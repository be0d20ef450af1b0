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

One symmetric tridiagonal eigensolve gives every eigenpair, and the
`AngularSpectrum` of `angular_eigenvalues` is the only public route to them:
the eigenvalues and the (N+1) x (N+1) matrix of eigenvectors, one column each,
whose phased, Cartesian and coefficient views are derived once for the whole
basis.  The kernel has two halves: `_eigensolve`, which needs T's shape and so
runs once per N, and `_refuse`, the separation check, which reads zero-padded
rows beside the N, p and q columns and so runs once on any number of N.  Only
`angular_eigenvalues` signs its eigenvectors, by w_0 > 0, and so only it
refuses a w_0 that underflows to 0.0; `_sweep_eigen`, a sweep's whole eigen
pass, runs both halves unsigned and builds no spectrum.  The forward float run
of the recurrence is unstable and never builds an eigenvector.  The certificate
decides, for each computed value l_i, whether the i-th true eigenvalue lies
within delta of it: a sweep's enclosure (`_certify`) only proves, so its flags
are those of the Sturm counts, which decide every irrep it leaves and every
spectrum of `certify_eigenvalues`.  They count at dyadic points beside each
value, on the integer Phi table (`StructureFunction.numerators`, Phi(k) = P_k /
D, D = m^m n^n), running the pivots r_k = G_k / G_{k-1} in float intervals
widened outward at every rounding; where an interval meets 0 or leaves float
range, the sign changes of G_0 .. G_{N+1} are counted in integer arithmetic
instead, so no rounding can misplace a root.  One kernel counts a whole sweep's
padded rows at once.  The integer count and the exact hints, each an integer
root t = round(D l^2) proven at its index, run one recurrence, `_even_part`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import cycle, repeat
from operator import truediv

import numpy as np

from .core import CartesianState, FrequencyRatio, IrrepLabel, irrep_members
from .representation import IrrepMatrices, IrrepStack, _check_tolerance, _diag, _offdiagonals
from .representation import _phi_table, worst_residual
from .structure import StructureFunction, _phi_denominator

__all__ = ["AngularSpectrum", "angular_eigenvalues", "certify_eigenvalues",
           "build_l0", "exact_hints"]


# (-i)^k by k mod 4, exact for every k
_PHASES = (1 + 0j, -1j, -1 + 0j, 1j)


@dataclass(frozen=True, eq=False)
class AngularSpectrum:
    """The eigenbasis of L0 on one irrep: eigenvalues labelled -L, -L+2, ..., L.

    Column i of `components` is the real eigenvector w_i of the tridiagonal
    T (w_0 > 0) for `eigenvalues[i]`, and row k is the Fock state |k>; the
    `amplitudes`, `cartesian` and `coefficients` views are derived from it
    on first read.  `residuals[i]` is ||T w_i - l_i w_i||_inf, which equals
    ||L0 v_i - l_i v_i||_inf.  `numerators` is the integer Phi table T was
    built from.  It holds an ndarray, so it compares by identity.
    """

    label: IrrepLabel
    ratio: FrequencyRatio
    eigenvalues: tuple[float, ...]
    components: np.ndarray
    residuals: tuple[float, ...]
    numerators: tuple[int, ...]

    @property
    def markers(self) -> tuple[int, ...]:
        big_n = self.label.N
        return tuple(range(-big_n, big_n + 1, 2))

    @property
    def max_residual(self) -> float:
        """Worst eigenvector residual; NaN when any residual is NaN."""
        return worst_residual(self.residuals)

    @property
    def symmetry_residual(self) -> float:
        """max |l_i + l_{N-i}|; NaN when any eigenvalue is NaN.  `angular_eigenvalues` projects
        its values onto l_i = -l_{N-i}, so this is exactly 0.0 on every finite spectrum."""
        values = self.eigenvalues
        return worst_residual(abs(a + b) for a, b in zip(values, reversed(values)))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """(-i)^k w_k: column i is the eigenvector of L0 for `eigenvalues[i]`,
        with its alternating phases explicit (a complex multiply, so the
        signs of zero parts are those of `_PHASES[k % 4] * w_k`)."""
        return _phases(len(self.components)) * self.components

    @cached_property
    def cartesian(self) -> tuple[CartesianState, ...]:
        """The occupation state |n_x, n_y> of each row k of the vectors."""
        return irrep_members(self.label, self.ratio)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The real recurrence coefficients c_k = (-1)^k sqrt([k]!) w_k (c_0 > 0):
        column i is the state sum_k i^k c_k / sqrt([k]!) |N, (p, q), k> for
        `eigenvalues[i]`.  A sqrt([k]!) beyond float range raises ArithmeticError."""
        offdiag = _offdiagonals(self.ratio, (self.label,), (self.numerators,))
        with np.errstate(over="ignore"):  # (-1)^k sqrt([k]!)
            signed = np.cumprod([1.0, *-offdiag])
        if not np.all(np.isfinite(signed)):
            k = int(np.argmin(np.isfinite(signed)))
            raise ArithmeticError(
                f"eigenvector coefficient c_{k} of L0 on {self.label} of the {self.ratio} "
                f"oscillator is not finite: sqrt([{k}]!) overflows a float"
            )
        return signed[:, None] * self.components


def _phases(size: int) -> np.ndarray:
    """The column (-i)^k, k = 0 .. size-1, which phases row k of a matrix of eigenvectors."""
    return np.resize(_PHASES, size)[:, None]


def _residuals(offdiag: np.ndarray, w: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """||T w_i - l_i w_i||_inf for each column w_i of each matrix of `w`."""
    tw = np.zeros_like(w)
    tw[..., 1:, :] = offdiag[..., :, None] * w[..., :-1, :]
    tw[..., :-1, :] += offdiag[..., :, None] * w[..., 1:, :]
    tw -= w * eigs[..., None, :]
    return np.abs(tw, out=tw).max(axis=-2)


def angular_eigenvalues(label: IrrepLabel, ratio: FrequencyRatio) -> AngularSpectrum:
    """Eigenpairs via one symmetric tridiagonal eigenproblem.

    The computed spectrum is projected onto its provable symmetry
    eigs[i] = -eigs[N-i] (this also pins the middle eigenvalue of an
    even-N irrep to exactly zero), and simplicity of the roots is asserted.
    Each eigenvector is signed so that w_0 > 0 (T is unreduced, so
    w_0 != 0 in exact arithmetic; a w_0 that underflows to 0.0 raises
    ArithmeticError); the zero-eigenvalue vector of an even-N irrep has the
    parity of G_k(0), so its odd components are set to exactly zero.  It is
    the one place an `AngularSpectrum` is built.
    """
    numerators = StructureFunction(label, ratio).numerators
    offdiag = _offdiagonals(ratio, (label,), (numerators,))[None]
    values, vectors = _eigensolve(offdiag, signed=True)
    _refuse(ratio, *np.array([[label.N], [label.p], [label.q]]), values)
    if np.any(vectors[0, 0] == 0.0):  # w_0 > 0 is what signs an eigenvector
        raise ArithmeticError(f"eigenvector {np.argmin(np.abs(vectors[0, 0]))} of L0 on {label} of "
                              f"the {ratio} oscillator has w_0 == 0.0 (underflow), so its sign "
                              f"cannot be fixed by w_0 > 0")
    errors = _residuals(offdiag, vectors, values)
    return AngularSpectrum(label, ratio, tuple(values[0].tolist()), vectors[0],
                           tuple(errors[0].tolist()), numerators)


def _eigensolve(offdiag: np.ndarray, signed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (k, N+1), ascending and projected onto l_i = -l_{N-i}, and eigenvectors
    (k, N+1, N+1) of the k tridiagonals T of one N with rows sqrt(Phi(1..N)) of `offdiag`, from
    one stacked `eigh`, which reads T's lower band only (`UPLO="L"`).  `signed` turns each
    vector so that w_0 >= 0; the odd components of an even N's zero-eigenvalue vector are set
    to exactly 0.0.  Nothing here is checked: `_refuse` checks separation, on any number of N
    at once, and `angular_eigenvalues` checks the w_0 that signs its vectors.  `_residuals`
    and the Gram matrix are bitwise the same on unsigned vectors, so `_sweep_eigen` skips the
    sign, and with it w_0."""
    big_n = offdiag.shape[-1]
    eigs, w = np.linalg.eigh(_diag(offdiag, -1))
    eigs = (eigs - eigs[..., ::-1]) / 2.0
    if signed:
        w = w * np.sign(w[..., :1, :])
    if big_n % 2 == 0:
        w[..., 1::2, big_n // 2] = 0.0
    return eigs, w


def _refuse(ratio: FrequencyRatio, big_n: np.ndarray, p: np.ndarray, q: np.ndarray,
            values: np.ndarray) -> None:
    """ArithmeticError naming the first irrep of the columns `big_n`, `p`, `q` whose values,
    row i for irrep i (N+1 entries, N = `big_n[i]`, then 0.0 padding), are not strictly
    separated by a margin of 1e-12 max|l|, relative because `eigh`'s error scales with ||T||."""
    gaps = np.diff(values, axis=-1)
    margin = 1e-12 * np.max(np.abs(values), axis=-1)  # padding 0.0 moves no max of |l|
    unseparated = np.any((gaps <= margin[:, None])
                         & (np.arange(gaps.shape[-1]) < big_n[:, None]), axis=-1)
    for i in np.flatnonzero(unseparated)[:1]:  # the first failure, the one label built
        raise ArithmeticError(
            f"eigenvalues of {IrrepLabel(int(big_n[i]), int(p[i]), int(q[i]))} not strictly "
            f"separated in the {ratio} oscillator (numerical failure): closest gap "
            f"{np.min(gaps[i, :big_n[i]]):.3g} <= margin 1e-12 max|l| = {margin[i]:.3g}")


def _even_part(numerators: Sequence[int], a: int, shift: int) -> Iterator[int]:
    """r_0 .. r_{N+1}: G_k(x) = x^(k mod 2) r_k / (D 2^shift)^floor(k/2) at D x^2 = a / 2^shift.

    sqrt(D) T has off-diagonals sqrt(P_k) (`numerators`, Phi(k) = P_k / D), so
    its characteristic polynomials l^(k mod 2) R_k(D l^2) have R_k monic in
    ZZ[t]; r_k = 2^(shift floor(k/2)) R_k(a / 2^shift) is their even part in ints:

        r_{k+1} = (a if k odd else 1) r_k - (P_k r_{k-1} << shift),   r_{-1} = 0,  r_0 = 1.
    """
    previous, current = 0, 1
    yield current
    for odd, p in zip(cycle((False, True)), numerators[:-1]):  # k = 0, 1, ..., N
        previous, current = current, (a * current if odd else current) - ((p * previous) << shift)
        yield current


def exact_hints(spectrum: AngularSpectrum) -> tuple[str | None, ...]:
    """Closed forms like '2', '-sqrt(8)' or 'sqrt(3/2)' of the eigenvalues, each proven.

    G_{N+1}(l) = l^((N+1) mod 2) R(D l^2) with R monic in ZZ[t] (`_even_part`), so a closed
    form of lambda_i != 0 is an integer root t = D lambda_i^2 (the rational root theorem).
    l_i only picks t = round(D l_i^2): one run of the recurrence at t proves lambda_i =
    +-sqrt(t / D) when its last term R(t) is 0 and its sign changes, the count of eigenvalues
    above sqrt(t / D), are N-i for l_i > 0 or i for l_i < 0.  A zero is '0' iff N is even,
    NaN, inf and an unproven value get None, and a Phi table not N+2 long is a ShapeMismatchError.
    """
    big_n, numerators = spectrum.label.N, _phi_table(spectrum.label, spectrum.numerators)
    denominator = _phi_denominator(spectrum.ratio)

    @cache  # l_i = -l_{N-i} share their t, so a symmetric spectrum runs each t once
    def run(t: int) -> tuple[int, int]:
        terms = [*_even_part(numerators, t, 0)]
        return terms[-1], _sign_changes(terms)

    def hint(i: int, value: float) -> str | None:
        if value == 0.0:
            return "0" if big_n % 2 == 0 else None
        if not math.isfinite(value):
            return None
        t = round(denominator * Fraction(value) ** 2)
        last, changes = run(t)
        if last or changes != (big_n - i if value > 0 else i):
            return None
        square, sign = Fraction(t, denominator), "-" if value < 0 else ""
        root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
        return f"{sign}{root}" if root * root == square else f"{sign}sqrt({square})"

    return tuple(hint(i, value) for i, value in enumerate(spectrum.eigenvalues))


def _sign_changes(terms: Iterable[int]) -> int:
    """The number of sign changes in `terms`, zeros dropped, from a positive start."""
    changes, positive = 0, True
    for r in terms:
        if r and (r > 0) != positive:
            changes, positive = changes + 1, not positive
    return changes


def _exact_count(numerators: Sequence[int], denominator: int, a: int, e: int) -> int:
    """count_above(x) = #{eigenvalues of L0 > x}, x = a / 2^e, exactly, at Phi(k) = P_k / D.

    It is the number of sign changes in G_0(x) .. G_{N+1}(x), zeros dropped (Sturm's
    theorem; Barth, Martin & Wilkinson 1967), whose signs are those of x^(k mod 2) r_k
    (`_even_part` at D a^2 and shift 2e, e <= 0 too); P_k, D = `numerators[k]`, `denominator`.
    """
    if e < 0:
        a, e = a << -e, 0
    terms = _even_part(numerators, denominator * a * a, 2 * e)
    if a <= 0:  # an odd G_k(x) has the sign of x r_k
        terms = (r if k % 2 == 0 else -r if a else 0 for k, r in enumerate(terms))
    return _sign_changes(terms)


# the directions in which an interval's (lo, hi) rows are widened; a tuple, so
# that importing the module builds no array
_OUTWARD = ((-math.inf,), (math.inf,))


def _excludes_zero(r: np.ndarray) -> np.ndarray:
    """Whether each interval (r[0], r[1]) has finite bounds and excludes 0.

    0 lies outside [lo, hi] iff |lo + hi| > hi - lo; rounding can only turn
    that False, and an inf or NaN bound makes it False.
    """
    return np.abs(r[0] + r[1]) > r[1] - r[0]


def _phi_intervals(tables: Sequence[Sequence[int]], denominator: int,
                   big_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float enclosures of Phi(1..N) for each irrep, N = `big_n[j]`, and whether each is usable.

    Entry [k-1, :, j] of the (N_max, 2, irreps) table is the lower and upper
    bound of Phi(k) = P_k / D of irrep j, P_k = `tables[j][k]` and D =
    `denominator`: the correctly rounded int quotient, widened by one step
    each way.  Past the irrep's N it is 1.0.  An irrep is unusable when some
    Phi(k) on 1..N is <= 0 or does not convert to a float.
    """
    values, usable = [], np.ones(len(tables), dtype=bool)
    for row, table in enumerate(tables):
        try:  # the row is a whole list before `values` takes it: an overflow adds no part
            values += [*map(truediv, table[1:-1], repeat(denominator))]
        except OverflowError:
            usable[row] = False
            values += [1.0] * (len(table) - 2)
    phi = np.ones((len(tables), big_n.max()))
    phi[np.arange(phi.shape[1]) < big_n[:, None]] = values
    usable &= np.all(phi > 0, axis=1)
    bounds = np.empty((phi.shape[1], 2, len(tables)))
    np.nextafter(phi.T, -np.inf, out=bounds[:, 0])
    np.nextafter(phi.T, np.inf, out=bounds[:, 1])
    return bounds, usable


def _dyadic(centre: float, offset: float) -> tuple[int, int]:
    """(a, e) with a / 2^e = centre + offset exactly, e >= 0, by integer shifts."""
    (a, b), (c, d) = centre.as_integer_ratio(), offset.as_integer_ratio()
    e, f = b.bit_length() - 1, d.bit_length() - 1
    shift = max(e, f)
    return (a << (shift - e)) + (c << (shift - f)), shift


def _count_above(tables: Sequence[Sequence[int]], denominator: int, irreps: np.ndarray,
                 centres: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """count_above(centre + offset) of each point j it can decide, on irrep i = `irreps[j]`
    (Phi(k) = `tables[i][k]` / `denominator`), and the indices, ascending, of the rest.

    The points, all finite, are counted together in one float-interval pass
    of the pivot form of the Sturm count (the LDL^T inertia count; Kahan 1966):

        r_1 = x,  r_{k+1} = x - Phi(k) / r_k,  count_above(x) = #{k <= N+1 : r_k < 0}.

    Each r_k is run on an interval [lo, hi] whose every quotient and
    difference, rounded to nearest, is widened by one `np.nextafter` each
    way, from the interval of x, fl(centre + offset) widened likewise, and
    those of Phi (`_phi_intervals`); so each interval holds the exact r_k.
    A point whose intervals all exclude 0 and have finite bounds has no zero
    G_k, and its count is the exact sign-change count.  Every other point is
    left to the caller, to count in ints by `_exact_count` at the exact dyadic
    point (`_dyadic`) where it needs the count.  The points are sorted stably
    by N, largest first, so step k runs on the prefix of points whose irrep has
    N >= k, gathering each one's Phi(k).
    """
    counts = np.zeros(len(irreps), dtype=np.int64)
    if not len(irreps):
        return counts, np.arange(0)
    sizes = np.array([len(table) - 2 for table in tables])
    phi, usable = _phi_intervals(tables, denominator, sizes)
    big_n = sizes[irreps]
    order = np.argsort(-big_n, kind="stable")
    rows = irreps[order]
    # active[k - 1] points have N >= k, the ones that take step k
    active = np.cumsum(np.bincount(big_n, minlength=len(phi) + 1)[::-1])[::-1][1:]
    with np.errstate(all="ignore"):
        x = np.nextafter(centres[order] + offsets[order], _OUTWARD)  # rows: lo, hi
        r = x
        decided = usable[rows] & _excludes_zero(r)
        negative = (r[1] < 0).astype(np.int64)
        for k, n in enumerate(active.tolist()):  # Phi(k + 1)
            if not n:
                break
            r, p = r[:, :n], phi[k][:, rows[:n]]
            # Phi / r falls as r rises, on either side of 0, and its size rises
            # with Phi: [Phi_lo / hi, Phi_hi / lo] for r > 0, [Phi_hi / hi, Phi_lo / lo] for r < 0
            q = np.nextafter(np.where(r[0] > 0, p, p[::-1]) / r[::-1], _OUTWARD)
            r = np.nextafter(x[:, :n] - q[::-1], _OUTWARD)  # [x_lo - q_hi, x_hi - q_lo]
            decided[:n] &= _excludes_zero(r)
            negative[:n] += r[1] < 0
    counts[order] = negative
    return counts, np.sort(order[~decided])


# the unit roundoff of a float, and a bound of the underflow of a residual entry: each of its
# three products rounds by at most 2^-1075 below 2^-1022, and the sums add no underflow
_UNIT = 2.0**-53
_UNDERFLOW = 2.0**-1072


def _up(x: np.ndarray) -> np.ndarray:
    """The float above each x: at or above the exact result that rounds to nearest to x."""
    return np.nextafter(x, math.inf)


def _down(x: np.ndarray) -> np.ndarray:
    """The float below each x: at or below the exact result that rounds to nearest to x."""
    return np.nextafter(x, -math.inf)


def _gamma(n: int) -> float:
    """An upper bound of Higham's gamma_n = n u / (1 - n u), u = 2^-53."""
    return math.nextafter(n * _UNIT / math.nextafter(1 - n * _UNIT, 0), math.inf)


def _radii(values: np.ndarray, big_n: np.ndarray, residuals: np.ndarray,
           orthonormality: np.ndarray, bands: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per irrep, rho, an upper bound of ||T~ w_i - l_i w_i||_2 / ||w_i||_2 over the values
    l_i of its row of `values`, and 2 ulp(max s), from its eigen columns; `_certify` proves
    the bound, which holds on an ascending row whose orthonormality is < 1/2."""
    gram = _gamma(2 * values.shape[-1])  # the real part of a Gram entry sums 2(N+1) products
    norm = math.nextafter(1.5 / math.nextafter(1 - gram, 0), math.inf)  # >= ||w_i||_inf
    top = np.max(bands, axis=-1, initial=0.0)
    largest = np.maximum(-values[:, 0], values[np.arange(len(values)), big_n])  # max |l_i|
    terms = _up(_up(2 * top + largest) * math.nextafter(_gamma(3) * norm, math.inf))
    residual = _up(residuals + _up(terms + _UNDERFLOW))  # >= max_i ||r_i||_inf
    # sqrt(N+1) / ||w_i||_2 <= sqrt((N+1) (1 + gamma_{2N+2}) / (1 - o))
    growth = math.nextafter(1 + gram, math.inf)
    factor = _up(np.sqrt(_up(_up((big_n + 1) * growth) / _down(1 - orthonormality))))
    return _up(residual * factor), 2 * np.spacing(top)


def _certify(tables: Sequence[Sequence[int]], denominator: int, big_n: np.ndarray,
             rows: np.ndarray, tolerance: float, evidence: tuple[np.ndarray, ...]) -> np.ndarray:
    """`certify_eigenvalues` on each row of `rows`, at Phi(k) = `tables[j][k]` / `denominator`.

    Row j holds the values of irrep j, N = `big_n[j]`, in its first N+1 entries, then
    padding, and its flags are True only where a value is certified, so never on the padding.
    The flags are those of the exact counts (`_count_certify`) on every row.  `evidence`
    holds each irrep's residual, orthonormality, S+ band and oracle verdict (`_sweep_eigen`),
    a first stage encloses whole irreps from them, and only the irreps it leaves are counted.
    For irrep j, with N its N, l_i its values, w_i the computed vectors, e = residual[j] the
    largest computed ||T~ w_i - l_i w_i||_inf, o = orthonormality[j] (max |Gram - I| of the
    phased vectors), s = band[j] its S+ band, T~ the float tridiagonal `eigh` solved, T the
    exact one and u = 2^-53:

    - an entry of a residual is three rounded products summed, so each exact
      ||r_i||_inf <= e + gamma_3 (2 max s + max |l|) ||w_i||_inf + 2^-1072 (underflow),
      with Higham's gamma_n = n u / (1 - n u), and ||r_i||_2 <= sqrt(N+1) ||r_i||_inf;
    - the phases (-i)^k are exact, the real part of a Gram entry sums at most 2(N+1)
      rounded products, and o < 1/2 makes G_ii - 1 exact, so (1 - o) / (1 + gamma_{2N+2})
      <= ||w_i||_2^2 <= 1.5 / (1 - gamma_{2N+2}), which also bounds ||w_i||_inf;
    - so rho >= ||r_i||_2 / ||w_i||_2 for every i, and [l_i - rho, l_i + rho] holds an
      eigenvalue of T~ (the residual bound; Parlett, The Symmetric Eigenvalue Problem);
    - if every gap l_{i+1} - l_i exceeds 2 rho, those N+1 intervals are disjoint, each
      holds one of the N+1 eigenvalues, and interval i holds lambda_i(T~);
    - `trusted[j]`, the irrep's oracle, proves each entry of s within 1 ulp of sqrt(P_k / D),
      so ||T - T~||_2 <= 2 ulp(max s), and Weyl's theorem moves lambda_i by no more;
    - so rho + 2 ulp(max s) < delta proves each lambda_i(T) in (l_i - delta, l_i + delta).

    Each operation of the bound is rounded upward, and each lower bound downward, by one
    nextafter (`_radii`; N+1 is taken as the rows' width in gamma), so a True is a proof.
    A NaN or inf, an unsorted or too close pair, an o >= 1/2 or an untrusted irrep leaves
    the irrep to the counts, so the stage never refutes.  Its flags are the counts' flags:
    the counts decide the same predicate exactly, and a strict enclosure passes both a
    value's own counts and its mirror's.
    """
    residual, orthonormality, bands, trusted = evidence
    real = np.arange(rows.shape[-1]) <= big_n[:, None]
    with np.errstate(all="ignore"):  # a NaN compares False, and so is unproven
        rho, shift = _radii(rows, big_n, residual, orthonormality, bands)
        gaps = np.min(rows[:, 1:] - rows[:, :-1], axis=-1, where=real[:, 1:], initial=math.inf)
        enclosed = (trusted & (orthonormality < 0.5) & (rho < _down(_delta(tolerance) - shift))
                    & (2 * rho < _down(gaps)))
    certified = real & enclosed[:, None]
    counted = np.flatnonzero(~enclosed)
    if counted.size:
        certified[counted] = _count_certify([tables[j] for j in counted.tolist()], denominator,
                                            big_n[counted], rows[counted], tolerance)
    return certified


def _delta(tolerance: float) -> float:
    """The largest power of two <= `tolerance`, the certificate's radius."""
    return math.ldexp(1.0, math.frexp(tolerance)[1] - 1)


def _count_certify(tables: Sequence[Sequence[int]], denominator: int, big_n: np.ndarray,
                   rows: np.ndarray, tolerance: float) -> np.ndarray:
    """`_certify`'s flags on each row of `rows` by exact Sturm counts at l_i -+ `_delta(tolerance)`.

    Every count point of every row goes to one `_count_above` pass.  Of the
    points it leaves undecided, the - points are counted exactly first, and a
    + point only where its value's - point held.  A value at i < N/2 with
    l_i == -l_{N-i} takes its mirror's result, and is counted itself, in a
    second pass, when its mirror fails.  A NaN or inf gets no point.
    """
    delta, width = _delta(tolerance), rows.shape[-1]
    values, index = rows.ravel(), np.arange(width)
    mirror = np.arange(len(values)) + (big_n[:, None] - 2 * index).ravel()  # where l_{N-i} is
    mirrored = (2 * index < big_n[:, None]).ravel() & (values == -values[mirror])
    finite = np.isfinite(values) & (index <= big_n[:, None]).ravel()

    def holds(points: np.ndarray) -> np.ndarray:
        """count_above(l_i - delta) >= N+1-i and count_above(l_i + delta) <= N-i."""
        owners, centres = np.repeat(points // width, 2), np.repeat(values[points], 2)
        offsets = np.tile([-delta, delta], len(points))
        counts, undecided = _count_above(tables, denominator, owners, centres, offsets)
        upper = big_n[points // width] - points % width
        for plus in (0, 1):  # point 2j is l_j - delta, point 2j + 1 is l_j + delta
            for j in undecided[undecided % 2 == plus].tolist():
                if not plus or counts[j - 1] >= upper[j // 2] + 1:
                    counts[j] = _exact_count(tables[owners[j]], denominator,
                                             *_dyadic(float(centres[j]), float(offsets[j])))
        return (counts[0::2] >= upper + 1) & (counts[1::2] <= upper)

    certified = np.zeros(len(values), dtype=bool)
    counted = np.flatnonzero(finite & ~mirrored)
    certified[counted] = holds(counted)
    certified[mirrored] = certified[mirror[mirrored]]
    recounted = np.flatnonzero(finite & mirrored & ~certified)
    if recounted.size:
        certified[recounted] = holds(recounted)
    return certified.reshape(rows.shape)


def certify_eigenvalues(spectrum: AngularSpectrum, tolerance: float) -> tuple[bool, ...]:
    """Whether each eigenvalue of `spectrum` is proven within `tolerance` of its own.

    With delta the largest power of two <= `tolerance`, the i-th value l_i
    (ascending, from 0) passes its count iff count_above(l_i - delta) >= N+1-i
    and count_above(l_i + delta) <= N-i, which proves the i-th true eigenvalue
    in (l_i - delta, l_i + delta].  Both counts are exact: they run in
    outward-rounded float intervals, and a point the intervals cannot decide
    is counted in integers (`_count_above`).  As lambda_i = -lambda_{N-i}
    (G_k has the parity of k), a value below the middle is certified without
    a count when l_i == -l_{N-i} and its mirror passes; so a symmetric
    spectrum is counted at i >= N/2 only, and each certified value is proven
    within the closed [l_i - delta, l_i + delta].  A NaN or inf is not
    certified.  Every value is counted (`_count_certify`), since a spectrum may
    pair its values with residuals not computed from them.  A tolerance that is
    not finite and > 0 raises ValueError.
    """
    _check_tolerance("certificate", tolerance)
    row = np.array([spectrum.eigenvalues], dtype=float)
    return tuple(_count_certify((_phi_table(spectrum.label, spectrum.numerators),),
                                _phi_denominator(spectrum.ratio), np.array([row.shape[-1] - 1]),
                                row, tolerance)[0].tolist())


def _sweep_eigen(stack: IrrepStack, trusted: np.ndarray, tolerance: float
                 ) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, float]]:
    """A sweep's eigen pass: the eigen columns and the certificate's flags at `tolerance` of
    every irrep of `stack`, in label order (N ascending), and the seconds of its two calls,
    `eigen` (`_eigen_columns`) and `certify` (`_certify`).  Only the work that needs one N's
    shape runs once per N, on the S+ band: an unsigned `_eigensolve`, the residuals, the dense
    `eigvalsh` of `build_l0` and the Gram matrix of the phased vectors, into padded (irreps,
    N_max+1) rows.  `_refuse` runs once, on the rows solved, after the last N or the first
    error, so the first refused irrep in label order wins over any error of a later N.  The
    padded rows reduce to the columns `method_agreement`, `spectrum_symmetry`,
    `eigenvector_residual` and `orthonormality`, in that order.  Then, with no N's vectors
    alive, `_certify` proves the values, reading `trusted[j]`, irrep j's oracle verdict.
    """
    start = time.perf_counter()
    values, columns = _eigen_columns(stack)
    solved = time.perf_counter()
    evidence = (columns["eigenvector_residual"], columns["orthonormality"], stack.s_plus_band,
                trusted)
    certified = _certify(stack.numerators, _phi_denominator(stack.ratio), stack.big_n, values,
                         tolerance, evidence)
    return columns, certified, {"eigen": solved - start, "certify": time.perf_counter() - solved}


def _eigen_columns(stack: IrrepStack) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """`_sweep_eigen`'s padded values and its four columns; each N's vectors die with the call."""
    irreps, width = len(stack.big_n), stack.s0_band.shape[-1]
    values, orthonormality = np.zeros((irreps, width)), np.empty(irreps)
    dense, errors = np.zeros((2, irreps, width))  # not `values`' buffer: they die with the call
    phases, identity, index = _phases(width), np.eye(width), np.arange(width)  # N reads a corner
    starts = np.searchsorted(stack.big_n, range(width + 1)).tolist()  # N's rows: starts[N:N+2]
    solved = slice(0)  # the rows whose eigh has run
    try:
        for big_n in range(width):
            rows, size = slice(starts[big_n], starts[big_n + 1]), big_n + 1
            offdiag = stack.s_plus_band[rows, :big_n]
            eigs, vectors = _eigensolve(offdiag)
            values[rows, :size] = eigs
            solved = slice(rows.stop)
            errors[rows, :size] = _residuals(offdiag, vectors, eigs)
            dense[rows, :size] = np.linalg.eigvalsh(build_l0(offdiag))  # ascending, as numpy has it
            amplitudes = phases[:size] * vectors
            gram = amplitudes.conj().swapaxes(-1, -2) @ amplitudes
            orthonormality[rows] = np.abs(gram - identity[:size, :size]).max(axis=(-2, -1))
    finally:  # the first refused irrep, in label order, wins over a later N's failure
        _refuse(stack.ratio, stack.big_n[solved], stack.p[solved], stack.q[solved], values[solved])
    mirror = np.where(stack.real, stack.big_n[:, None] - index, index)  # i -> N-i
    mirrored = np.take_along_axis(values, mirror, axis=-1)  # l_{N-i}, and 0.0 past N
    return values, {"method_agreement": np.max(np.abs(values - dense), axis=-1),
                    "spectrum_symmetry": np.max(np.abs(values + mirrored), axis=-1),
                    "eigenvector_residual": np.max(errors, axis=-1),
                    "orthonormality": orthonormality}


def build_l0(rep: IrrepMatrices | np.ndarray) -> np.ndarray:
    """Dense complex matrix of L0 = -i(S+ - S-) on the irrep `rep`, or on each S+ band row;
    S- is S+'s transpose."""
    s_plus = _diag(rep.s_plus_band if isinstance(rep, IrrepMatrices) else rep, -1)
    with np.errstate(invalid="ignore"):  # -1j * inf makes a NaN, which fails the eigen checks
        return -1j * (s_plus - s_plus.swapaxes(-1, -2))
