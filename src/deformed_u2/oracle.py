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

Every quantity is a plain integer over a known denominator, so the oracle
needs no truncated basis and no tolerance, and no structure function enters:
its comparison with `build_irrep` is a set of exact checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import irrep_members
from .representation import IrrepMatrices, IrrepStack, VerificationReport

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


def _only_on(matrices: np.ndarray, dim: int, offset: int) -> np.ndarray:
    """Per matrix of a stack: whether it is dim x dim and exactly 0 off its diagonal `offset`."""
    if matrices.shape[-2:] != (dim, dim):
        return np.zeros(len(matrices), dtype=bool)
    on_diagonal = np.count_nonzero(np.diagonal(matrices, offset, -2, -1), axis=-1)
    return np.count_nonzero(matrices, axis=(-2, -1)) == on_diagonal


def oracle_compare(rep: IrrepMatrices) -> VerificationReport:
    """Check `rep` against the Fock-space action on its member states, exactly.

    With |n_x, n_y> the k-th member of `rep.label` (see `irrep_members`):

    - `s_plus`: the raise from member k lands on member k+1 and its squared
      weight is Phi(k+1), so the raise from k = N has weight 0;
    - `s_minus`: the lower from member k has squared weight Phi(k), so the
      lower from k = 0 has weight 0;
    - `s0`, `h`: (U - W)/2 == u + k and U + W == E, and the diagonals of
      `rep.s0` and `rep.h` are the float()s of those values.

    The weights and `rep.numerators` are both over m^m n^n, so Phi(k) is
    compared as the int P_k.  Each S+ and S- entry must lie within 1 ulp of
    the square root of its weight, and every entry off a generator's pattern
    must be exactly 0.
    """
    return _oracle_reports(IrrepStack.of(rep))[0]


def _oracle_reports(stack: IrrepStack) -> tuple[VerificationReport, ...]:
    """`oracle_compare` on every irrep of `stack`; the patterns and diagonals
    are read from the stacked matrices at once, the weights per irrep."""
    m, n = stack.ratio.m, stack.ratio.n
    dim, den = stack.irreps[0].dimension, m**m * n**n
    offsets = {"s0": 0, "s_plus": -1, "s_minus": 1, "h": 0}
    on = {key: _only_on(getattr(stack, key), dim, k).tolist() for key, k in offsets.items()}
    diagonals = {key: np.diagonal(getattr(stack, key), k, -2, -1).tolist()
                 for key, k in offsets.items()}
    # 4mn S0 = 2mn (U - W) and 2mn H = 2mn (U + W) are integers on every state
    s0_den, h_den = 4 * m * n, 2 * m * n
    reports = []
    for i, rep in enumerate(stack.irreps):
        members = irrep_members(rep.label, rep.ratio)
        raises = [math.perm(s.n_x + m, m) * math.perm(s.n_y, n) for s in members]
        lowers = [math.perm(s.n_x, m) * math.perm(s.n_y + n, n) for s in members]
        s0_num = [n * (2 * s.n_x + 1) - m * (2 * s.n_y + 1) for s in members]
        h_num = [n * (2 * s.n_x + 1) + m * (2 * s.n_y + 1) for s in members]
        checks = {
            "s0": all(_equals(v - s0_den * k, s0_den, rep.u) for k, v in enumerate(s0_num))
            and on["s0"][i] and diagonals["s0"][i] == [v / s0_den for v in s0_num],
            "s_plus": all(
                (a.n_x + m, a.n_y - n) == (b.n_x, b.n_y) for a, b in zip(members, members[1:])
            )
            and raises == list(rep.numerators[1:]) and on["s_plus"][i]
            and all(_within_one_ulp(s, w, den)
                    for s, w in zip(diagonals["s_plus"][i], raises[:-1], strict=True)),
            "s_minus": lowers == list(rep.numerators[:-1]) and on["s_minus"][i]
            and all(_within_one_ulp(s, w, den)
                    for s, w in zip(diagonals["s_minus"][i], lowers[1:], strict=True)),
            "h": all(_equals(v, h_den, rep.energy) for v in h_num)
            and on["h"][i] and diagonals["h"][i] == [v / h_den for v in h_num],
        }
        reports.append(VerificationReport("oracle", {}, checks, 0.0))
    return tuple(reports)
