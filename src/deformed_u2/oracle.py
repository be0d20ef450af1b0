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

Member k of (N, p, q) is |p - 1 + k m, (N - k) n + q - 1>, read off the label as
two int ranges, along which S+ steps by construction.  Every quantity is a
plain integer over a known denominator, so the oracle needs no truncated basis
and no tolerance, and no structure function enters: its comparison with
`build_irrep` is a set of exact checks.
"""

from __future__ import annotations

import math
from itertools import repeat, starmap

from .representation import _BANDS, IrrepMatrices, IrrepStack, VerificationReport

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
        rep.label.validate_for(stack.ratio)
        big_n, p, q = rep.label.N, rep.label.p, rep.label.q
        dim = big_n + 1
        members = list(zip(range(p - 1, p + big_n * m, m), range(big_n * n + q - 1, q - 2, -n)))
        raises = [math.perm(x + m, m) * math.perm(y, n) for x, y in members]
        lowers = [math.perm(x, m) * math.perm(y + n, n) for x, y in members]
        s0_num = [n * (2 * x + 1) - m * (2 * y + 1) for x, y in members]
        h_num = [n * (2 * x + 1) + m * (2 * y + 1) for x, y in members]
        # 4mn u and 2mn E, ints with no remainder unless `rep` carries a wrong u or E
        u, u_rest = divmod(s0_den * rep.u.numerator, rep.u.denominator)
        energy, energy_rest = divmod(h_den * rep.energy.numerator, rep.energy.denominator)
        checks = {
            "s0": not u_rest and s0_num == list(range(u, u + dim * s0_den, s0_den))
            and s0_rows[i][:dim] == [v / s0_den for v in s0_num] and not any(s0_rows[i][dim:]),
            "s_plus": raises == list(rep.numerators[1:]) and not any(s_plus_rows[i][big_n:])
            and all(starmap(_within_one_ulp, zip(s_plus_rows[i][:big_n], raises[:-1],
                                                 repeat(den, big_n), strict=True))),
            "s_minus": lowers == list(rep.numerators[:-1]),
            "h": not energy_rest and h_num == [energy] * dim
            and h_rows[i][:dim] == [v / h_den for v in h_num] and not any(h_rows[i][dim:]),
        }
        reports.append(VerificationReport("oracle", {}, checks, 0.0))
    return tuple(reports)
