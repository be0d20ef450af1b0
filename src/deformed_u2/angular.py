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
`AngularSpectrum` it returns is the only route to them: the eigenvalues and
the (N+1) x (N+1) matrix of eigenvectors, one column each, whose phased,
Cartesian and coefficient views are derived once for the whole basis.  The
forward float run of the recurrence is unstable and never builds an
eigenvector.  The spectrum carries the irrep's integer Phi table
(`StructureFunction.numerators`, Phi(k) = P_k / m^m n^n), and the functions
below read it and the label and ratio of the spectrum they are given.  Its
eigenvalues are certified by Sturm counts at dyadic points beside each
computed value.  A count runs the pivots r_k = G_k / G_{k-1} in float
intervals widened outward at every rounding, so each holds the exact pivot;
where an interval meets 0 or leaves float range, the sign changes of G_0 ..
G_{N+1} are counted in integer arithmetic instead.  Either way no rounding
can misplace a root, and one kernel counts the points of a whole sweep at
once.  The exact hints evaluate G_{N+1}, as P(l^2), on the same recurrence
in `Fraction`s.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import CartesianState, FrequencyRatio, IrrepLabel, irrep_members
from .representation import IrrepMatrices, _check_tolerance, _diag, _offdiagonals, worst_residual
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
        """max |l_i + l_{N-i}|; NaN when any eigenvalue is NaN.

        `angular_eigenvalues` projects its values onto l_i = -l_{N-i}, so on
        any finite spectrum it returns this is exactly 0.0; only a NaN fails it.
        """
        values = self.eigenvalues
        return worst_residual(abs(a + b) for a, b in zip(values, reversed(values)))

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """(-i)^k w_k: column i is the eigenvector of L0 for `eigenvalues[i]`,
        with its alternating phases explicit (a complex multiply, so the
        signs of zero parts are those of `_PHASES[k % 4] * w_k`)."""
        return _phased(self.components)

    @cached_property
    def cartesian(self) -> tuple[CartesianState, ...]:
        """The occupation state |n_x, n_y> of each row k of the vectors."""
        return irrep_members(self.label, self.ratio)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The real recurrence coefficients c_k = (-1)^k sqrt([k]!) w_k (c_0 > 0):
        column i is the state sum_k i^k c_k / sqrt([k]!) |N, (p, q), k> for
        `eigenvalues[i]`.  A sqrt([k]!) beyond float range raises ArithmeticError."""
        with np.errstate(over="ignore"):  # (-1)^k sqrt([k]!)
            signed = np.cumprod([1.0, *-_offdiagonals(self)])
        if not np.all(np.isfinite(signed)):
            k = int(np.argmin(np.isfinite(signed)))
            raise ArithmeticError(
                f"eigenvector coefficient c_{k} of L0 on {self.label} of the {self.ratio} "
                f"oscillator is not finite: sqrt([{k}]!) overflows a float"
            )
        return signed[:, None] * self.components


def _phased(components: np.ndarray) -> np.ndarray:
    """(-i)^k times row k of each matrix of `components` (the last two axes)."""
    phases = np.array([_PHASES[k % 4] for k in range(components.shape[-2])])
    return phases[:, None] * components


def _residuals(offdiag: np.ndarray, w: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """||T w_i - l_i w_i||_inf for each column w_i of each matrix of `w`."""
    tw = np.zeros_like(w)
    tw[..., 1:, :] += offdiag[..., :, None] * w[..., :-1, :]
    tw[..., :-1, :] += offdiag[..., :, None] * w[..., 1:, :]
    return np.max(np.abs(tw - w * eigs[..., None, :]), axis=-2)


def angular_eigenvalues(label: IrrepLabel, ratio: FrequencyRatio) -> AngularSpectrum:
    """Eigenpairs via one symmetric tridiagonal eigenproblem.

    The computed spectrum is projected onto its provable symmetry
    eigs[i] = -eigs[N-i] (this also pins the middle eigenvalue of an
    even-N irrep to exactly zero), and simplicity of the roots is asserted.
    Each eigenvector is signed so that w_0 > 0 (T is unreduced, so
    w_0 != 0 in exact arithmetic; a w_0 that underflows to 0.0 raises
    ArithmeticError); the zero-eigenvalue vector of an even-N irrep has the
    parity of G_k(0), so its odd components are set to exactly zero.
    """
    function = StructureFunction(label, ratio)
    return _eigensolve((function,), _offdiagonals(function)[None])[0]


def _eigensolve(functions: Sequence[StructureFunction],
                offdiag: np.ndarray) -> tuple[AngularSpectrum, ...]:
    """`angular_eigenvalues` on the irreps of the records `functions`, all of one N and one
    ratio, as one stacked eigensolve of the rows sqrt(Phi(1..N)) of `offdiag`."""
    ratio, big_n = functions[0].ratio, functions[0].label.N
    eigs, w = np.linalg.eigh(_diag(offdiag, 1) + _diag(offdiag, -1))
    eigs = (eigs - eigs[..., ::-1]) / 2.0
    margin = 1e-12 * np.fmax(1.0, np.max(np.abs(eigs), axis=-1))
    unseparated = np.any(np.diff(eigs, axis=-1) <= margin[:, None], axis=-1)
    signs = np.sign(w[..., 0, :])
    for i in np.flatnonzero(unseparated | ~np.all(signs, axis=-1))[:1]:  # the first failure
        if unseparated[i]:
            raise ArithmeticError(
                f"eigenvalues of {functions[i].label} not strictly separated; numerical failure")
        raise ArithmeticError(
            f"eigenvector {np.argmin(np.abs(signs[i]))} of L0 on {functions[i].label} of the "
            f"{ratio} oscillator has w_0 == 0.0 (underflow), so its sign cannot be fixed by w_0 > 0"
        )
    w = w * signs[..., None, :]
    if big_n % 2 == 0:
        w[..., 1::2, big_n // 2] = 0.0
    residuals = _residuals(offdiag, w, eigs).tolist()
    return tuple(AngularSpectrum(f.label, ratio, tuple(row), vectors, tuple(errors), f.numerators)
                 for f, row, vectors, errors in zip(functions, eigs.tolist(), w, residuals))


def _p_value(numerators: Sequence[int], denominator: int, s: Fraction) -> Fraction:
    """P(s), where G_{N+1}(l) = l^((N+1) mod 2) P(l^2), from Phi(k) = P_k / D.

    G_k(l) = l^(k mod 2) R_k(l^2), and P = R_{N+1} is run exactly on

        R_{k+1}(s) = (s if k odd else 1) R_k(s) - Phi(k) R_{k-1}(s),
        R_{-1} = 0,  R_0 = 1.
    """
    previous, current = Fraction(0), Fraction(1)
    for k, p in enumerate(numerators[:-1]):
        previous, current = current, (s if k % 2 else 1) * current - previous * p / denominator
    return current


def exact_hints(spectrum: AngularSpectrum) -> tuple[str | None, ...]:
    """Closed forms like '2', '-sqrt(8)' or 'sqrt(3/2)' of the eigenvalues.

    A candidate is the rational with denominator <= 1000 nearest l (or l^2)
    and within 1e-10 of it; it is kept only when it is an exact root.  With
    G_{N+1}(l) = l^((N+1) mod 2) P(l^2) over the rationals, a rational r is
    a root iff P(r^2) = 0, sqrt(s) iff P(s) = 0, and 0 iff N is even; P is
    evaluated exactly on the recurrence (`_p_value`).  Eigenvalues without a
    confirmed closed form get None.
    """
    label, numerators = spectrum.label, spectrum.numerators
    denominator = _phi_denominator(spectrum.ratio)

    def near_rational(value: float) -> Fraction | None:
        candidate = Fraction(value).limit_denominator(1000)
        close = abs(value - candidate) <= 1e-10 * max(1.0, abs(value))
        return candidate if candidate and close else None

    def hint(value: float) -> str | None:
        if value == 0.0:
            return "0" if label.N % 2 == 0 else None
        rational = near_rational(value)
        if rational is not None and _p_value(numerators, denominator, rational**2) == 0:
            return str(rational)
        square = near_rational(value * value)
        if square is not None and _p_value(numerators, denominator, square) == 0:
            return f"{'-' if value < 0 else ''}sqrt({square})"
        return None

    return tuple(hint(value) for value in spectrum.eigenvalues)


def _sturm_counter(spectrum: AngularSpectrum | StructureFunction) -> Callable[[int, int], int]:
    """count_above(a, e) = #{eigenvalues of L0 on the irrep > a / 2^e}, exactly.

    It is the number of sign changes in G_0(x) .. G_{N+1}(x), zeros dropped
    (Sturm's theorem; Barth, Martin & Wilkinson 1967).  With Phi(k) = P_k / D
    (`spectrum.numerators`), g_k = (2^e D)^k G_k(a / 2^e) obey an integer
    recurrence with weights P_k D, so the count is exact at every dyadic
    point, e <= 0 too.  A `StructureFunction` serves as well as a spectrum:
    only the ratio and the integer table are read.
    """
    denominator = _phi_denominator(spectrum.ratio)
    weights = [v * denominator for v in spectrum.numerators[1:-1]]

    def count_above(a: int, e: int) -> int:
        if e < 0:
            a, e = a << -e, 0
        ad = a * denominator
        previous, current = 0, 1  # g_{-1}, g_0; then g_1 = aD
        changes, positive = 0, True
        for weight in (0, *weights):
            previous, current = current, ad * current - ((weight * previous) << (2 * e))
            if current and (current > 0) != positive:
                changes, positive = changes + 1, not positive
        return changes

    return count_above


# the directions in which an interval's (lo, hi) rows are widened; a tuple, so
# that importing the module builds no array
_OUTWARD = ((-math.inf,), (math.inf,))


def _excludes_zero(r: np.ndarray) -> np.ndarray:
    """Whether each interval (r[0], r[1]) has finite bounds and excludes 0.

    0 lies outside [lo, hi] iff |lo + hi| > hi - lo; rounding can only turn
    that False, and an inf or NaN bound makes it False.
    """
    return np.abs(r[0] + r[1]) > r[1] - r[0]


def _phi_intervals(records: Sequence[AngularSpectrum | StructureFunction],
                   big_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float enclosures of Phi(1..N) for each record, N = `big_n[j]`, and whether each is usable.

    Entry [k-1, :, j] of the (N_max, 2, records) table is the lower and upper
    bound of Phi(k) = P_k / D of `records[j]`: the correctly rounded int
    quotient, widened by one step each way.  Past the record's N it is 1.0.
    A record is unusable when some Phi(k) on 1..N is <= 0 or does not convert
    to a float.
    """
    values, usable = [], np.ones(len(records), dtype=bool)
    ratio = denominator = None
    for row, record in enumerate(records):
        if record.ratio is not ratio:
            ratio, denominator = record.ratio, _phi_denominator(record.ratio)
        try:
            values += [p / denominator for p in record.numerators[1:-1]]
        except OverflowError:
            usable[row] = False
            values += [1.0] * record.label.N
    phi = np.ones((len(records), big_n.max()))
    phi[np.arange(phi.shape[1]) < big_n[:, None]] = values
    usable &= np.all(phi > 0, axis=1)
    bounds = np.empty((phi.shape[1], 2, len(records)))
    np.nextafter(phi.T, -np.inf, out=bounds[:, 0])
    np.nextafter(phi.T, np.inf, out=bounds[:, 1])
    return bounds, usable


def _dyadic(centre: float, offset: float) -> tuple[int, int]:
    """(a, e) with a / 2^e = centre + offset exactly, e >= 0, by integer shifts."""
    (a, b), (c, d) = centre.as_integer_ratio(), offset.as_integer_ratio()
    e, f = b.bit_length() - 1, d.bit_length() - 1
    shift = max(e, f)
    return (a << (shift - e)) + (c << (shift - f)), shift


def _count_above(records: Sequence[AngularSpectrum | StructureFunction], irreps: np.ndarray,
                 centres: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """count_above(centre + offset) on the irrep `records[irrep]` for each point, exactly.

    The points, all finite, are counted together in one float-interval pass
    of the pivot form of the Sturm count (the LDL^T inertia count; Kahan 1966):

        r_1 = x,  r_{k+1} = x - Phi(k) / r_k,  count_above(x) = #{k <= N+1 : r_k < 0}.

    Each r_k is run on an interval [lo, hi] whose every quotient and
    difference, rounded to nearest, is widened by one `np.nextafter` each
    way, from the interval of x, fl(centre + offset) widened likewise, and
    those of Phi (`_phi_intervals`); so each interval holds the exact r_k.
    A point whose intervals all exclude 0 and have finite bounds has no zero
    G_k, and its count is the exact sign-change count.  Every other point is
    counted by `_sturm_counter` at the exact dyadic point (`_dyadic`).  The
    points are sorted by N, largest first, so step k runs on the prefix of
    points whose irrep has N >= k, gathering each one's Phi(k).
    """
    counts = np.zeros(len(irreps), dtype=np.int64)
    if not len(irreps):
        return counts
    sizes = np.array([record.label.N for record in records])
    phi, usable = _phi_intervals(records, sizes)
    big_n = sizes[irreps]
    key = big_n.tolist()  # sorted in Python: numpy's sorts page in code verify never runs
    order = np.array(sorted(range(len(key)), key=key.__getitem__, reverse=True), dtype=np.intp)
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
    counters: dict[int, Callable[[int, int], int]] = {}
    for point in order[~decided].tolist():
        j = int(irreps[point])
        if j not in counters:
            counters[j] = _sturm_counter(records[j])
        counts[point] = counters[j](*_dyadic(float(centres[point]), float(offsets[point])))
    return counts


def _certify(records: Sequence[AngularSpectrum | StructureFunction],
             rows: Sequence[Sequence[float]], tolerance: float) -> list[tuple[bool, ...]]:
    """`certify_eigenvalues` on each row of eigenvalues, those of the irrep `records[j]`.

    Every count point of every row goes to one `_count_above` pass.  A value
    at i < N/2 with l_i == -l_{N-i} takes its mirror's result, and is counted
    itself, in a second pass, when its mirror fails.  A NaN or inf gets no point.
    """
    delta = math.ldexp(1.0, math.frexp(tolerance)[1] - 1)
    sizes = np.array([len(row) for row in rows])
    values = np.concatenate(rows, dtype=float)
    irreps = np.repeat(np.arange(len(rows)), sizes)
    starts = np.cumsum(sizes) - sizes
    index = np.arange(len(values)) - starts[irreps]
    big_n = sizes[irreps] - 1
    mirror = starts[irreps] + big_n - index  # where l_{N-i} is
    mirrored = (2 * index < big_n) & (values == -values[mirror])
    finite = np.isfinite(values)

    def holds(points: np.ndarray) -> np.ndarray:
        """count_above(l_i - delta) >= N+1-i and count_above(l_i + delta) <= N-i."""
        counts = _count_above(records, np.repeat(irreps[points], 2), np.repeat(values[points], 2),
                              np.tile([-delta, delta], len(points)))
        upper = big_n[points] - index[points]
        return (counts[0::2] >= upper + 1) & (counts[1::2] <= upper)

    certified = np.zeros(len(values), dtype=bool)
    counted = np.flatnonzero(finite & ~mirrored)
    certified[counted] = holds(counted)
    certified[mirrored] = certified[mirror[mirrored]]
    recounted = np.flatnonzero(finite & mirrored & ~certified)
    if recounted.size:
        certified[recounted] = holds(recounted)
    flags = certified.tolist()
    return [tuple(flags[start:start + size]) for start, size in zip(starts.tolist(), sizes.tolist())]


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
    certified.  `run_suite` runs the same kernel once on a whole sweep.  A
    tolerance that is not finite and > 0 raises ValueError.
    """
    _check_tolerance("certificate", tolerance)
    return _certify((spectrum,), (spectrum.eigenvalues,), tolerance)[0]


def build_l0(rep: IrrepMatrices | np.ndarray) -> np.ndarray:
    """Dense complex matrix of L0 = -i(S+ - S-) on the irrep `rep`, or on each S+ band row."""
    band = rep.s_plus_band if isinstance(rep, IrrepMatrices) else rep
    with np.errstate(invalid="ignore"):  # -1j * inf makes a NaN, which fails the eigen checks
        return -1j * (_diag(band, -1) - _diag(band, 1))
