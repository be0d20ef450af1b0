"""The tests' irrep labels: the coprime ratios and every label of a sweep, and labels to and
from the N, p and q int columns that stacks and reports keep."""

from math import gcd

import numpy as np

from deformed_u2 import IrrepLabel


def coprime_pairs(limit):
    """Every coprime (m, n) with m, n <= limit, m ascending, then n."""
    return [(m, n) for m in range(1, limit + 1) for n in range(1, limit + 1) if gcd(m, n) == 1]


def all_labels(m, n, n_top):
    """Every label (N, p, q) of the m:n ratio with N <= n_top, in label order: N, then p, then q."""
    return [IrrepLabel(big_n, p, q)
            for big_n in range(n_top + 1) for p in range(1, m + 1) for q in range(1, n + 1)]


def labels_of(ratio, n_max):
    """`all_labels` of `ratio` up to N = n_max."""
    return all_labels(ratio.m, ratio.n, n_max)


def columns_of(labels):
    """The N, p and q columns of `labels`, three lists of ints, in order."""
    labels = list(labels)
    return ([label.N for label in labels], [label.p for label in labels],
            [label.q for label in labels])


def column_labels(big_n, p, q):
    """The label of each row of the N, p and q columns, in order."""
    return [IrrepLabel(*row) for row in zip(*(np.asarray(c).tolist() for c in (big_n, p, q)))]


def stack_labels(stack):
    """The label of each irrep of a stack (or a suite report), in order."""
    return column_labels(stack.big_n, stack.p, stack.q)


def built_labels(monkeypatch):
    """A list that collects every `IrrepLabel` constructed from now on, through a wrapped
    `IrrepLabel.__post_init__`."""
    built, post_init = [], IrrepLabel.__post_init__

    def recording_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(IrrepLabel, "__post_init__", recording_post_init)
    return built
