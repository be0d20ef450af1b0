"""Exact quantum-number bookkeeping for the m:n anisotropic oscillator.

All energies are rationals whose denominators divide 2*m*n (hbar = 1, the
overall frequency scale fixed), so this module works in exact rational
arithmetic throughout; no floating point enters.  The Cartesian occupation
basis |n_x, n_y> and the irrep-label basis |N, (p, q), k> describe the same
states, related by

    N = [n_x/m] + [n_y/n],   p = (n_x mod m) + 1,
    q = (n_y mod n) + 1,     k = [n_x/m],

with [.] the integer part.  For coprime m, n each energy level carries
exactly one irrep label and the level degeneracy is N + 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exceptions import NonCoprimeError

__all__ = [
    "FrequencyRatio",
    "CartesianState",
    "IrrepLabel",
    "IrrepState",
    "Level",
    "energy_of_irrep",
    "energy_of_cartesian",
    "cartesian_to_irrep",
    "irrep_to_cartesian",
    "irrep_members",
    "enumerate_levels",
]

_RATIO_RE = re.compile(r"^\s*(\d+)\s*:\s*(\d+)\s*$")


@dataclass(frozen=True)
class FrequencyRatio:
    """Validated coprime pair (m, n) fixing the two oscillator frequencies.

    m scales the x axis and n the y axis; the two play asymmetric roles in
    the (p, q) sublabels, so a ratio is never reordered implicitly.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(
                f"frequency ratio needs positive integers, got {self.m}:{self.n}"
            )
        g = gcd(self.m, self.n)
        if g != 1:
            raise NonCoprimeError(
                f"ratio {self.m}:{self.n} is not coprime (gcd = {g}); "
                "its energy levels would carry reducible representations"
            )

    @classmethod
    def parse(cls, text: str) -> "FrequencyRatio":
        """Parse 'M:N' notation, e.g. '1:2'."""
        match = _RATIO_RE.match(text)
        if match is None:
            raise ValueError(f"expected a ratio of the form M:N, got {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return f"{self.m}:{self.n}"


@dataclass(frozen=True)
class CartesianState:
    """Occupation numbers |n_x, n_y> of the two Cartesian modes."""

    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        if self.n_x < 0 or self.n_y < 0:
            raise ValueError(f"occupation numbers must be >= 0, got {self}")

    def __str__(self) -> str:
        return f"|{self.n_x},{self.n_y}>"


@dataclass(frozen=True)
class IrrepLabel:
    """Label (N, p, q) of an irreducible module of dimension N + 1.

    p ranges over 1..m and q over 1..n; those bounds depend on the ratio,
    so they are checked by :meth:`validate_for` at the point of use.
    """

    N: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"representation index N must be >= 0, got {self.N}")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"sublabels p, q must be >= 1, got p={self.p}, q={self.q}")

    @property
    def dimension(self) -> int:
        return self.N + 1

    def validate_for(self, ratio: FrequencyRatio) -> None:
        if self.p > ratio.m or self.q > ratio.n:
            raise ValueError(
                f"label (N={self.N}, p={self.p}, q={self.q}) is not valid for "
                f"ratio {ratio}: need 1 <= p <= {ratio.m} and 1 <= q <= {ratio.n}"
            )

    def __str__(self) -> str:
        return f"(N={self.N}, p={self.p}, q={self.q})"


@dataclass(frozen=True)
class IrrepState:
    """Basis state |N, (p, q), k> inside one irrep, k = 0..N."""

    label: IrrepLabel
    k: int

    def __post_init__(self) -> None:
        if not 0 <= self.k <= self.label.N:
            raise ValueError(
                f"Fock index k={self.k} outside 0..{self.label.N} of {self.label}"
            )


class Level(NamedTuple):
    """One energy level: exact energy, its unique irrep label, degeneracy."""

    energy: Fraction
    label: IrrepLabel
    degeneracy: int


def _energy_key(ratio: FrequencyRatio, big_n: int, p: int, q: int) -> int:
    """2mn E(N, p, q) = 2mn N + n (2p-1) + m (2q-1), the int that orders the levels."""
    return 2 * ratio.m * ratio.n * big_n + ratio.n * (2 * p - 1) + ratio.m * (2 * q - 1)


def energy_of_irrep(label: IrrepLabel, ratio: FrequencyRatio) -> Fraction:
    """Exact level energy N + (2p-1)/(2m) + (2q-1)/(2n), one `Fraction` of `_energy_key`."""
    label.validate_for(ratio)
    return Fraction(_energy_key(ratio, label.N, label.p, label.q), 2 * ratio.m * ratio.n)


def energy_of_cartesian(state: CartesianState, ratio: FrequencyRatio) -> Fraction:
    """Exact level energy (n_x + 1/2)/m + (n_y + 1/2)/n."""
    return Fraction(2 * state.n_x + 1, 2 * ratio.m) + Fraction(
        2 * state.n_y + 1, 2 * ratio.n
    )


def cartesian_to_irrep(state: CartesianState, ratio: FrequencyRatio) -> IrrepState:
    """Identify |n_x, n_y> as the k-th state of its irrep."""
    k = state.n_x // ratio.m
    big_n = k + state.n_y // ratio.n
    p = state.n_x % ratio.m + 1
    q = state.n_y % ratio.n + 1
    return IrrepState(IrrepLabel(big_n, p, q), k)


def irrep_to_cartesian(state: IrrepState, ratio: FrequencyRatio) -> CartesianState:
    """Inverse of :func:`cartesian_to_irrep` on valid labels.

    Forced by the forward map: n_x = k*m + p - 1, n_y = (N-k)*n + q - 1.
    """
    state.label.validate_for(ratio)
    n_x = state.k * ratio.m + state.label.p - 1
    n_y = (state.label.N - state.k) * ratio.n + state.label.q - 1
    return CartesianState(n_x, n_y)


def irrep_members(label: IrrepLabel, ratio: FrequencyRatio) -> tuple[CartesianState, ...]:
    """Cartesian states of one irrep, ordered by the Fock index k (see `irrep_to_cartesian`)."""
    label.validate_for(ratio)
    return tuple(CartesianState(k * ratio.m + label.p - 1, (label.N - k) * ratio.n + label.q - 1)
                 for k in range(label.N + 1))


def enumerate_levels(ratio: FrequencyRatio, count: int) -> list[Level]:
    """First `count` energy levels in strictly ascending exact order.

    Each level carries exactly one irrep label, so the levels are the label
    energies in ascending order.  E(N, p, q) rises with p and with q, so a
    label with p q > count lies above the p q - 1 > count - 1 labels
    (N, p', q') with p' <= p, q' <= q and is never kept: only the pairs with
    p <= count and q <= count // p are listed.  With P such pairs, since
    E(N, p, q) lies in (N, N + 2), the K P labels with N < K = count // P + 1,
    more than `count`, all lie below K + 1, while every label with N > K lies
    above it; the labels with N <= K therefore hold the lowest `count`
    levels.  They are sorted on the exact integer key 2mn E (`_energy_key`);
    labels and energies are built only for the levels kept.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    m, n = ratio.m, ratio.n
    pairs = [
        (p, q)
        for p in range(1, min(m, count) + 1)
        for q in range(1, min(n, count // p) + 1)
    ]
    top = count // len(pairs) + 1
    scale = 2 * m * n
    # the key is 2mn N plus the key of (0, p, q)
    offsets = [(_energy_key(ratio, 0, p, q), p, q) for p, q in pairs]
    keys = sorted(
        (scale * big_n + offset, big_n, p, q)
        for big_n in range(top + 1)
        for offset, p, q in offsets
    )
    return [
        Level(Fraction(key, scale), IrrepLabel(big_n, p, q), big_n + 1)
        for key, big_n, p, q in keys[:count]
    ]
