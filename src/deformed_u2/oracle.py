"""Truncated two-mode Fock-space oracle built from raw ladder operators.

This is the independent route to the algebra: the one-mode ladders act as
a|n_x> = sqrt(n_x/m)|n_x - 1> (so [a, a+] = 1/m, and likewise 1/n for b),
and every generator is assembled purely by sparse matrix products,

    S+ = (a+)^m b^n,  S- = a^m (b+)^n,  S0 = (U - W)/2,  H = U + W,

with U = {a, a+}/2 and W = {b, b+}/2.  No structure function enters, which
is what makes the entrywise comparison against `build_irrep` meaningful.

Truncating to n_x < X, n_y < Y corrupts anticommutators and products on the
outermost shells (a+ annihilates the top state instead of leaving the box),
so only states with n_x + m < X and n_y + n < Y are trustworthy; the default
box X = m (N_max + 2), Y = n (N_max + 2) keeps every irrep with N <= N_max
strictly interior.

Restricting a generator to one irrep copies its entries on the irrep's
member rows and columns straight out of the CSR arrays; nothing is summed
or multiplied on the way, so the comparison sees the oracle's own values.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse

from .core import CartesianState, FrequencyRatio, irrep_members
from .exceptions import TruncationTooSmallError, WrongRatioError
from .representation import IrrepMatrices, VerificationReport

__all__ = ["CartesianOracle", "build_oracle", "oracle_compare"]


class CartesianOracle:
    """Sparse generator matrices on the truncated basis {|n_x, n_y>}."""

    def __init__(self, ratio: FrequencyRatio, n_max: int):
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.ratio = ratio
        self.n_max = n_max
        self.x_dim = ratio.m * (n_max + 2)
        self.y_dim = ratio.n * (n_max + 2)
        self.dim = self.x_dim * self.y_dim

        a_x = sparse.diags(np.sqrt(np.arange(1, self.x_dim) / ratio.m), 1, format="csr")
        b_y = sparse.diags(np.sqrt(np.arange(1, self.y_dim) / ratio.n), 1, format="csr")
        eye_x = sparse.identity(self.x_dim, format="csr")
        eye_y = sparse.identity(self.y_dim, format="csr")

        self.a = sparse.kron(a_x, eye_y, format="csr")
        self.b = sparse.kron(eye_x, b_y, format="csr")
        self.a_dag = self.a.T.tocsr()
        self.b_dag = self.b.T.tocsr()

        self.u_op = (self.a @ self.a_dag + self.a_dag @ self.a) / 2.0
        self.w_op = (self.b @ self.b_dag + self.b_dag @ self.b) / 2.0

        s_plus = sparse.identity(self.dim, format="csr")
        for _ in range(ratio.m):
            s_plus = s_plus @ self.a_dag
        for _ in range(ratio.n):
            s_plus = s_plus @ self.b
        s_minus = sparse.identity(self.dim, format="csr")
        for _ in range(ratio.m):
            s_minus = s_minus @ self.a
        for _ in range(ratio.n):
            s_minus = s_minus @ self.b_dag

        self.s_plus = s_plus.tocsr()
        self.s_minus = s_minus.tocsr()
        self.s0 = ((self.u_op - self.w_op) / 2.0).tocsr()
        self.h = (self.u_op + self.w_op).tocsr()

    def index(self, state: CartesianState) -> int:
        if state.n_x >= self.x_dim or state.n_y >= self.y_dim:
            raise TruncationTooSmallError(f"{state} outside truncation {self.x_dim}x{self.y_dim}")
        return state.n_x * self.y_dim + state.n_y

    def state_at(self, index: int) -> CartesianState:
        return CartesianState(index // self.y_dim, index % self.y_dim)

    def is_interior(self, state: CartesianState) -> bool:
        """True when every generator product on `state` stays in the box."""
        return (
            state.n_x + self.ratio.m < self.x_dim
            and state.n_y + self.ratio.n < self.y_dim
        )

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.dim, dtype=bool)
        for i in range(self.dim):
            mask[i] = self.is_interior(self.state_at(i))
        return mask


def build_oracle(ratio: FrequencyRatio, n_max: int) -> CartesianOracle:
    """Oracle whose box holds every irrep with N <= n_max strictly inside."""
    return CartesianOracle(ratio, n_max)


def _block(op: sparse.csr_matrix, rows: list[int]) -> np.ndarray:
    """Dense op[rows][:, rows], copied entry by entry from op's CSR arrays.

    Row `rows[i]` is read as its slice of `indices`/`data`; an entry whose
    column is `rows[k]` lands at [i, k], and the others are dropped.  `op`
    must be in canonical format: one stored entry per (row, column).
    """
    k_of = {row: k for k, row in enumerate(rows)}
    block = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        start, stop = op.indptr[row], op.indptr[row + 1]
        for column, value in zip(op.indices[start:stop].tolist(), op.data[start:stop].tolist()):
            k = k_of.get(column)
            if k is not None:
                block[i, k] = value
    return block


def oracle_compare(
    oracle: CartesianOracle, rep: IrrepMatrices, tolerance: float = 1e-10
) -> VerificationReport:
    """Restrict the oracle to one energy eigenspace and compare entrywise.

    The eigenspace of `rep.label` is spanned by its Cartesian member states
    ordered by k; the restriction of each generator is its (N+1)x(N+1)
    block on those basis vectors, read from the generator's CSR rows (see
    `_block`), so every entry is the oracle's own value.  Residuals are
    entrywise max differences against `rep`, built for the oracle's ratio.
    """
    label = rep.label
    if rep.ratio != oracle.ratio:
        raise WrongRatioError(f"irrep {label} is of ratio {rep.ratio}, the oracle of {oracle.ratio}")
    members = irrep_members(label, oracle.ratio)
    for state in members:
        if not oracle.is_interior(state):
            raise TruncationTooSmallError(
                f"eigenspace of {label} touches the truncation boundary at {state}; "
                f"rebuild the oracle with n_max >= {label.N}"
            )
    rows = [oracle.index(state) for state in members]

    residuals = {}
    for name in ("s0", "s_plus", "s_minus", "h"):
        block = _block(getattr(oracle, name), rows)
        residuals[name] = float(np.max(np.abs(block - getattr(rep, name))))
    return VerificationReport("oracle", residuals, {}, tolerance)
