"""Irrep labels to and from the N, p and q int columns that stacks and reports keep."""

import numpy as np

from deformed_u2 import IrrepLabel


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
