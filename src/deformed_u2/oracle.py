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

Every quantity is a plain integer over a known denominator, so the oracle
needs no truncated basis and no tolerance, and no structure function enters:
its comparison with `build_irrep` is a set of exact checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import irrep_members
from .representation import _BANDS, IrrepMatrices, IrrepStack, VerificationReport

__all__ = ["oracle_compare"]


def _equals(num: int, den: int, value: Fraction) -> bool:
    """Whether num/den == value, by cross-multiplying integers."""
    return num * value.denominator == value.numerator * den


def _within_one_ulp(s: float, num: int, den: int) -> bool:
    """Whether (s - ulp)^2 < num/den < (s + ulp)^2, with ulp = ulp(s).

    s and ulp are dyadic, so over their common denominator d the bounds are
    integers and the test is decided in integers.  NaN and inf fail, and so
    does a negative s, whose interval is empty.
    """
    if not math.isfinite(s):
        return False
    (s_num, s_den), (u_num, u_den) = s.as_integer_ratio(), math.ulp(s).as_integer_ratio()
    d = max(s_den, u_den)
    s_d, ulp_d = s_num * (d // s_den), u_num * (d // u_den)
    return (s_d - ulp_d) ** 2 * den < num * d * d < (s_d + ulp_d) ** 2 * den


def oracle_compare(rep: IrrepMatrices) -> VerificationReport:
    """Check `rep` against the Fock-space action on its member states, exactly.

    With |n_x, n_y> the k-th member of `rep.label` (see `irrep_members`):

    - `s_plus`: the raise from member k lands on member k+1 and its squared
      weight is Phi(k+1), so the raise from k = N has weight 0;
    - `s_minus`: the lower from member k has squared weight Phi(k), so the
      lower from k = 0 has weight 0.  S- reads S+'s band, and when both
      weight tests hold the lower from k+1 and the raise from k share the
      weight P_{k+1}, so the `s_plus` ulp test covers S-'s entries too;
    - `s0`, `h`: (U - W)/2 == u + k and U + W == E, and the bands
      `rep.s0_band` and `rep.h_band` are the float()s of those values.

    The weights and `rep.numerators` are both over m^m n^n, so Phi(k) is
    compared as the int P_k.  Each entry of the S+ band must lie within
    1 ulp of the square root of its weight.  In a stack, each row
    must also be 0.0 past its irrep's pattern, on the padding.
    """
    return _oracle_reports(IrrepStack.of(rep))[0]


def _oracle_reports(stack: IrrepStack) -> tuple[VerificationReport, ...]:
    """`oracle_compare` on every irrep of `stack`: the bands read at once, the weights per irrep."""
    m, n = stack.ratio.m, stack.ratio.n
    den = m**m * n**n
    s0_rows, s_plus_rows, h_rows = (getattr(stack, key).tolist() for key in _BANDS)
    # 4mn S0 = 2mn (U - W) and 2mn H = 2mn (U + W) are integers on every state
    s0_den, h_den = 4 * m * n, 2 * m * n
    reports = []
    for i, rep in enumerate(stack.irreps):
        members = irrep_members(rep.label, rep.ratio)
        raises = [math.perm(s.n_x + m, m) * math.perm(s.n_y, n) for s in members]
        lowers = [math.perm(s.n_x, m) * math.perm(s.n_y + n, n) for s in members]
        s0_num = [n * (2 * s.n_x + 1) - m * (2 * s.n_y + 1) for s in members]
        h_num = [n * (2 * s.n_x + 1) + m * (2 * s.n_y + 1) for s in members]
        dim, big_n = rep.label.N + 1, rep.label.N
        checks = {
            "s0": all(_equals(v - s0_den * k, s0_den, rep.u) for k, v in enumerate(s0_num))
            and s0_rows[i][:dim] == [v / s0_den for v in s0_num] and not any(s0_rows[i][dim:]),
            "s_plus": all((a.n_x + m, a.n_y - n) == (b.n_x, b.n_y)
                          for a, b in zip(members, members[1:]))
            and raises == list(rep.numerators[1:]) and not any(s_plus_rows[i][big_n:])
            and all(_within_one_ulp(s, w, den)
                    for s, w in zip(s_plus_rows[i][:big_n], raises[:-1], strict=True)),
            "s_minus": lowers == list(rep.numerators[:-1]),
            "h": all(_equals(v, h_den, rep.energy) for v in h_num)
            and h_rows[i][:dim] == [v / h_den for v in h_num] and not any(h_rows[i][dim:]),
        }
        reports.append(VerificationReport("oracle", {}, checks, 0.0))
    return tuple(reports)
