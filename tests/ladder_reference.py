"""The ladder identity by expansion, the tests' reference for the factor-list proof.

[S-, S+] = (raise - lower weight) / D of the Fock realization, D = m^m n^n, is expanded in
(H, S0) and compared, coefficient by coefficient, with a polynomial's expansion.  It reads m
and n alone, not the library's factor table.
"""

from collections import defaultdict
from math import comb

from deformed_u2.structure import _phi_denominator, _poly, _times


def expanded_ladder_identity(ratio, numerators, denominator) -> bool:
    """Whether sum(a H^i S0^j) / denominator over `numerators` (i, j, a) is (raise - lower) / D.

    With n_x = mU - 1/2, n_y = nW - 1/2, U = H/2 + S0 and W = H/2 - S0, twice each factor of
    (n_x+1)...(n_x+m) n_y...(n_y-n+1) and n_x...(n_x-m+1) (n_y+1)...(n_y+n) is m V +- (2j-1)
    or n Z +- (2j-1), V = 2U, Z = 2W.  The weights' difference is expanded in (H, S0) by
    Horner over the mode with fewer factors, the other's powers written out binomially.
    """
    m, n = ratio.m, ratio.n
    x_mode = (*(_poly((m, s * (2 * j - 1)) for j in range(1, m + 1)) for s in (1, -1)), 2)
    y_mode = (*(_poly((n, s * (2 * j - 1)) for j in range(1, n + 1)) for s in (-1, 1)), -2)
    (h_raise, h_lower, h_slope), (b_raise, b_lower, b_slope) = (
        (x_mode, y_mode) if m <= n else (y_mode, x_mode))  # raise, lower, S0 slope of V or Z
    powers = [[comb(b, j) * b_slope**j for j in range(b + 1)] for b in range(len(b_raise))]
    rows = [[0] * d for d in range(1, len(b_raise))]  # rows[d][j]: H^(d-j) S0^j
    for a in reversed(range(len(h_raise))):
        rows = [[0]] + [_times(row, h_slope, 1) for row in rows]
        for b, power in enumerate(powers):
            weight = h_raise[a] * b_raise[b] - h_lower[a] * b_lower[b]
            rows[b] = [c + weight * k for c, k in zip(rows[b], power)]
    scale, claimed = 2 ** (m + n) * _phi_denominator(ratio), defaultdict(int)
    for i, j, a in numerators:
        claimed[i, j] += scale * a
    proven = {(d - j, j): c * denominator
              for d, row in enumerate(rows) for j, c in enumerate(row) if c}
    return proven == {key: value for key, value in claimed.items() if value}
