"""Exact two-mode Fock-space oracle, derived from one-mode ladder factors.

This is the independent route to the algebra.  The one-mode ladders act as
a|n_x> = sqrt(n_x/m)|n_x - 1> and b|n_y> = sqrt(n_y/n)|n_y - 1>, and the
generators are the monomials

    S+ = (a+)^m b^n,  S- = a^m (b+)^n,  S0 = (U - W)/2,  H = U + W,

with U = {a, a+}/2 = (2 n_x + 1)/(2m) and W = {b, b+}/2 = (2 n_y + 1)/(2n)
diagonal.  So S+ takes |n_x, n_y> to the one state |n_x + m, n_y - n> with
squared weight (n_x + 1)...(n_x + m) * n_y (n_y - 1)...(n_y - n + 1) / (m^m n^n),
and S- takes it to |n_x - m, n_y + n> with squared weight
n_x (n_x - 1)...(n_x - m + 1) * (n_y + 1)...(n_y + n) / (m^m n^n).
The lower from member k + 1 undoes the raise from member k with the same
weight, so S- = transpose(S+) on the irrep: `build_irrep` stores one ladder
band, and the oracle tests S-'s weights exactly and S+'s band entries to 1 ulp.

Member k of (N, p, q) is |p - 1 + k m, (N - k) n + q - 1>, read off the label,
along which S+ steps by construction.  Every quantity is a plain integer over
a known denominator, so the oracle needs no truncated basis and no tolerance,
and no structure function enters: its comparison with `build_irrep` is a set
of exact checks.  On a stack the members of every irrep are two int64 tables,
the S0 and H checks run once on them and on the stack's bands, and an irrep's
lower and raise weights are one sequence of products of per-mode tables built
once per stack.  The S+ entries' 1-ulp test has two routes with one outcome.
Lemma: if t = w / D, correctly rounded as Python's int division is, is finite
and normal (t >= 2^-1022), RN(sqrt(t)) is within 1 ulp of sqrt(w / D).
Rounding the quotient moves the root by at most ulp(t) / (4 sqrt(t)): 0.36 ulp
of the root in the upper of the two binades of t that map to its binade, 0.25
ulp in the lower; rounding the root adds 0.5 ulp.  So an entry equal to
`np.sqrt(t)` of a normal t passes; the rest (NaN, inf, a subnormal t, every
entry if a quotient overflows) take `_within_one_ulp`.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import eq, mul, truediv

import numpy as np

from .representation import IrrepMatrices, IrrepStack, VerificationReport, _Columns
from .representation import _first_report

__all__ = ["oracle_compare"]


def _within_one_ulp(s: float, num: int, den: int) -> bool:
    """Whether (s - ulp)^2 < num/den < (s + ulp)^2, with ulp = ulp(s).

    With s = S 2^e, S an int and 2^e = ulp, that is (S - 1)^2 den < num 4^-e <
    (S + 1)^2 den, decided in ints.  NaN and inf fail, and so do 0 and a
    negative s, whose intervals are empty.
    """
    if not math.isfinite(s):
        return False
    ulp = math.ulp(s)
    scaled, e = int(s / ulp), math.frexp(ulp)[1] - 1
    low, high = (scaled - 1) ** 2 * den, (scaled + 1) ** 2 * den
    return low < num << -2 * e < high if e < 0 else low << 2 * e < num < high << 2 * e


def oracle_compare(rep: IrrepMatrices) -> VerificationReport:
    """Check `rep` against the Fock-space action on its member states, exactly.

    The members come from `rep.label`, as in `irrep_members`, so the raise from
    member k lands on member k+1, and:

    - `s_plus`: the raise from member k has squared weight Phi(k+1), so the
      raise from k = N has weight 0;
    - `s_minus`: the lower from member k has squared weight Phi(k), so the
      lower from k = 0 has weight 0.  S- reads S+'s band, and when both
      weight tests hold the lower from k+1 and the raise from k share the
      weight P_{k+1}, so the `s_plus` ulp test covers S-'s entries too;
    - `s0`, `h`: 4mn (U - W)/2 == 4mn (u + k) and 2mn (U + W) == 2mn E in ints,
      and the bands `rep.s0_band` and `rep.h_band` are their float()s.

    The weights and `rep.numerators` are both over m^m n^n, so Phi(k) is
    compared as the int P_k.  Each entry of the S+ band must lie within
    1 ulp of the square root of its weight (two routes, one outcome: see the
    module).  In a stack, each row must also be 0.0 past its irrep's pattern.
    """
    rep.label.validate_for(rep.ratio)
    return _first_report("oracle", _oracle_reports(IrrepStack.of(rep)), 0.0)


def _oracle_reports(stack: IrrepStack) -> _Columns:
    """`oracle_compare`'s exact checks on every irrep of `stack`, one list per check.

    S0 and H are checked on the whole stack at once: member k of row i is
    (n_x, n_y) = (p - 1 + k m, (N - k) n + q - 1), one int64 table each, and so
    are 4mn S0 and 2mn H on the members.  Their entries stay below 4mn (N_max + 2),
    at most 8 times the mn (N_max + 1) irreps of a sweep, so far below 2^53: each
    is exact, and each quotient numpy forms is the correctly rounded one.  A band
    entry must equal its quotient (a NaN fails, -0.0 passes 0.0) and the padding
    must be 0.0.  An irrep's weights are one sequence w_j = X(j) Y(N+1-j), j = 0..N+1, of
    an x-mode table by p and a y-mode table by q, each built once per stack: the lower
    from member k weighs w_k and the raise w_{k+1}, as `s_minus` and `s_plus` read them.
    """
    ratio = stack.ratio
    m, n, den = ratio.m, ratio.n, ratio.m**ratio.m * ratio.n**ratio.n
    # 4mn S0 = 2mn (U - W) and 2mn H = 2mn (U + W) are integers on every state
    s0_den, h_den = 4 * m * n, 2 * m * n
    big_n, p, q, real = stack.big_n[:, None], stack.p[:, None], stack.q[:, None], stack.real
    k = np.arange(real.shape[-1])
    n_x, n_y = p - 1 + k * m, (big_n - k) * n + q - 1
    s0_num = n * (2 * n_x + 1) - m * (2 * n_y + 1)
    h_num = n * (2 * n_x + 1) + m * (2 * n_y + 1)
    # along a row 4mn S0 steps by 4mn, as 4mn (u + k) does, and 2mn H by 0, as 2mn E does, so
    # each holds its int equality iff it does at member 0, against the 4mn u and 2mn E columns
    s0_ok = np.array([*map(eq, s0_num[:, 0].tolist(), stack.scaled_u)], dtype=bool)
    h_ok = np.array([*map(eq, h_num[:, 0].tolist(), stack.energy_keys)], dtype=bool)
    s0, h, s_plus = stack.s0_band, stack.h_band, stack.s_plus_band
    s0_ok &= np.all(np.where(real, s0 == s0_num / s0_den, s0 == 0), axis=-1)
    h_ok &= np.all(np.where(real, h == h_num / h_den, h == 0), axis=-1)

    # X(j) = n_x ... (n_x - m + 1) at n_x = p - 1 + j m, by p, and Y(j) = n_y ... (n_y - n + 1)
    # at n_y = j n + q - 1, by q, for j = 0..N_max+1
    steps = range(len(k) + 1)
    x = {v: [math.perm(v - 1 + j * m, m) for j in steps] for v in set(stack.p.tolist())}
    y = {v: [math.perm(j * n + v - 1, n) for j in steps] for v in set(stack.q.tolist())}
    plus, minus, weights = [], [], []  # weights: the Fock P_1..P_N of each irrep, back to back
    for last, p_i, q_i, phi in zip(stack.big_n.tolist(), stack.p.tolist(), stack.q.tolist(),
                                   stack.numerators):  # last: the irrep's N
        w = [*map(mul, x[p_i][:last + 2], y[q_i][last + 1::-1])]
        plus.append(w[1:] == [*phi[1:]])
        minus.append(w[:-1] == [*phi[:-1]])
        weights += w[1:-1]
    # the real S+ entries in row order, one per weight: the module's lemma passes most of them
    band, plus = s_plus[real[:, 1:]], np.array(plus, dtype=bool)
    try:
        t = np.array([*map(truediv, weights, repeat(den))], dtype=float)
    except OverflowError:
        t = np.full(len(weights), math.nan)
    inside = (t >= 2.0**-1022) & (band == np.sqrt(t))
    for j in np.flatnonzero(~inside).tolist():
        inside[j] = _within_one_ulp(float(band[j]), weights[j], den)
    irreps = len(stack.big_n)
    outside = np.bincount(np.repeat(np.arange(irreps), stack.big_n)[~inside],
                          minlength=irreps)  # entries outside 1 ulp, per irrep
    plus &= (outside == 0) & ~np.any((s_plus != 0) & ~real[:, 1:], axis=-1)
    return {}, {"s0": s0_ok.tolist(), "s_plus": plus.tolist(), "s_minus": minus,
                "h": h_ok.tolist()}
