import math
from math import gcd

import numpy as np
import pytest
import scipy.sparse as sparse

from deformed_u2 import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    TruncationTooSmallError,
    build_irrep,
    build_oracle,
    irrep_members,
    oracle_compare,
)
from deformed_u2.oracle import _block

# (m, n, N-max) of the benchmark's verify_deep and verify_wide rounds
VERIFY_INPUTS = [
    (1, 1, 26), (1, 2, 18), (2, 1, 18), (1, 3, 16),
    (3, 5, 8), (4, 7, 5), (5, 7, 4), (2, 7, 6),
]
GENERATORS = ("s0", "s_plus", "s_minus", "h")


def projected_block(oracle, op, label):
    """Reference restriction: selector @ op @ selector.T with a 0/1 selector."""
    indices = [oracle.index(state) for state in irrep_members(label, oracle.ratio)]
    selector = sparse.csr_matrix(
        (np.ones(len(indices)), (range(len(indices)), indices)),
        shape=(len(indices), oracle.dim),
    )
    return (selector @ op @ selector.T).toarray()


def coprime_pairs(limit):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if gcd(m, n) == 1
    ]


class TestConstruction:
    def test_truncation_box(self):
        oracle = build_oracle(FrequencyRatio(2, 3), 1)
        assert (oracle.x_dim, oracle.y_dim) == (6, 9)
        assert oracle.dim == 54

    def test_index_round_trip(self):
        oracle = build_oracle(FrequencyRatio(2, 3), 1)
        for i in range(oracle.dim):
            assert oracle.index(oracle.state_at(i)) == i

    def test_isotropic_hamiltonian_diagonal(self):
        oracle = build_oracle(FrequencyRatio(1, 1), 2)
        diag = oracle.h.diagonal()
        for i in np.flatnonzero(oracle.interior_mask()):
            state = oracle.state_at(i)
            assert diag[i] == pytest.approx(state.n_x + state.n_y + 1)

    def test_commutators_on_interior(self):
        # [a, a+] = 1/m and [b, b+] = 1/n hold wherever truncation is clean
        for m, n in [(1, 2), (2, 3)]:
            oracle = build_oracle(FrequencyRatio(m, n), 2)
            comm_a = (oracle.a @ oracle.a_dag - oracle.a_dag @ oracle.a).toarray()
            comm_b = (oracle.b @ oracle.b_dag - oracle.b_dag @ oracle.b).toarray()
            for i in np.flatnonzero(oracle.interior_mask()):
                assert comm_a[i, i] == pytest.approx(1 / m)
                assert comm_b[i, i] == pytest.approx(1 / n)

    def test_level_multiplicity_11_4(self):
        # the E = 11/4 eigenspace of the 1:2 oscillator holds three states
        oracle = build_oracle(FrequencyRatio(1, 2), 2)
        diag = oracle.h.diagonal()[oracle.interior_mask()]
        assert int(np.sum(np.abs(diag - 2.75) < 1e-12)) == 3

    def test_ladder_coefficient_2_3(self):
        # <2,0| S+ |0,3> = sqrt((1*2/2^2) * (3*2*1/3^3)) = sqrt(1/9)
        oracle = build_oracle(FrequencyRatio(2, 3), 1)
        row = oracle.index(CartesianState(2, 0))
        col = oracle.index(CartesianState(0, 3))
        assert oracle.s_plus[row, col] == pytest.approx(1 / 3)

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError):
            build_oracle(FrequencyRatio(1, 1), -1)


class TestOracleCompare:
    def test_1_2_member_listing_and_agreement(self):
        ratio = FrequencyRatio(1, 2)
        label = IrrepLabel(2, 1, 2)
        members = irrep_members(label, ratio)
        assert members == (
            CartesianState(0, 5),
            CartesianState(1, 3),
            CartesianState(2, 1),
        )
        report = oracle_compare(build_oracle(ratio, 2), build_irrep(label, ratio))
        assert report.max_residual <= 1e-10

    def test_isotropic_ladder_entry(self):
        # Phi(x) = x(N+1-x) at N=1 gives sqrt(Phi(1)) = 1
        ratio = FrequencyRatio(1, 1)
        oracle = build_oracle(ratio, 1)
        label = IrrepLabel(1, 1, 1)
        report = oracle_compare(oracle, build_irrep(label, ratio))
        assert report.passed
        up = oracle.s_plus[
            oracle.index(CartesianState(1, 0)), oracle.index(CartesianState(0, 1))
        ]
        assert up == pytest.approx(1.0)

    def test_2_3_agreement(self):
        ratio = FrequencyRatio(2, 3)
        report = oracle_compare(build_oracle(ratio, 2), build_irrep(IrrepLabel(2, 2, 1), ratio))
        assert report.max_residual <= 1e-10

    def test_truncation_guard(self):
        oracle = build_oracle(FrequencyRatio(1, 2), 1)
        with pytest.raises(TruncationTooSmallError):
            oracle_compare(oracle, build_irrep(IrrepLabel(2, 1, 1), FrequencyRatio(1, 2)))

    def test_sweep_agreement(self):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            oracle = build_oracle(ratio, 6)
            for big_n in range(7):
                for p in range(1, m + 1):
                    for q in range(1, n + 1):
                        report = oracle_compare(oracle, build_irrep(IrrepLabel(big_n, p, q), ratio))
                        assert report.max_residual <= 1e-10

    @pytest.mark.parametrize("m,n,n_max", VERIFY_INPUTS, ids=lambda v: str(v))
    def test_blocks_equal_selector_products(self, m, n, n_max):
        # the CSR row read copies one entry per (row, column), so the oracle's
        # operators must hold no duplicates for it to match the product
        ratio = FrequencyRatio(m, n)
        oracle = build_oracle(ratio, n_max)
        for name in GENERATORS:
            assert getattr(oracle, name).has_canonical_format
        for big_n in range(n_max + 1):
            for p in range(1, m + 1):
                for q in range(1, n + 1):
                    label = IrrepLabel(big_n, p, q)
                    rows = [oracle.index(s) for s in irrep_members(label, ratio)]
                    for name in GENERATORS:
                        op = getattr(oracle, name)
                        assert np.array_equal(
                            _block(op, rows), projected_block(oracle, op, label)
                        ), (label, name)
