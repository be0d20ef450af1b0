import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deformed_u2 import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    IrrepState,
    Level,
    NonCoprimeError,
    cartesian_to_irrep,
    energy_of_cartesian,
    energy_of_irrep,
    enumerate_levels,
    irrep_members,
    irrep_to_cartesian,
)


def coprime_pairs(limit):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if gcd(m, n) == 1
    ]


COPRIME_RATIOS = st.sampled_from([FrequencyRatio(m, n) for m, n in coprime_pairs(6)])


class TestFrequencyRatio:
    def test_accepts_coprime_pairs(self):
        assert FrequencyRatio(1, 2) == FrequencyRatio(1, 2)
        assert FrequencyRatio(1, 1).m == 1
        assert FrequencyRatio(3, 4).n == 4

    def test_rejects_common_divisor(self):
        with pytest.raises(NonCoprimeError):
            FrequencyRatio(2, 4)

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_nonpositive(self, m, n):
        with pytest.raises(ValueError):
            FrequencyRatio(m, n)

    def test_parse(self):
        assert FrequencyRatio.parse("2:3") == FrequencyRatio(2, 3)
        assert str(FrequencyRatio.parse(" 1 : 2 ")) == "1:2"

    @pytest.mark.parametrize("text", ["12", "1:2:3", "a:b", "1.5:2", ""])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            FrequencyRatio.parse(text)


class TestStateValidation:
    def test_cartesian_rejects_negative(self):
        with pytest.raises(ValueError):
            CartesianState(-1, 0)

    def test_label_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            IrrepLabel(-1, 1, 1)
        with pytest.raises(ValueError):
            IrrepLabel(0, 0, 1)

    def test_label_validate_for_ratio(self):
        with pytest.raises(ValueError):
            IrrepLabel(1, 1, 3).validate_for(FrequencyRatio(1, 2))

    def test_irrep_state_bounds_k(self):
        with pytest.raises(ValueError):
            IrrepState(IrrepLabel(2, 1, 1), 3)


class TestEnergies:
    def test_irrep_energy_worked_values(self):
        assert energy_of_irrep(IrrepLabel(2, 1, 2), FrequencyRatio(1, 2)) == Fraction(13, 4)
        assert energy_of_irrep(IrrepLabel(0, 1, 1), FrequencyRatio(1, 1)) == 1

    def test_irrep_energy_ground_state_2_3(self):
        # independent route: the Cartesian formula at the ground state
        ratio = FrequencyRatio(2, 3)
        expected = energy_of_cartesian(CartesianState(0, 0), ratio)
        assert expected == Fraction(5, 12)
        assert energy_of_irrep(IrrepLabel(0, 1, 1), ratio) == expected

    @given(ratio=COPRIME_RATIOS, big_n=st.integers(0, 10**6), data=st.data())
    def test_irrep_energy_is_the_three_term_sum(self, ratio, big_n, data):
        p, q = data.draw(st.integers(1, ratio.m)), data.draw(st.integers(1, ratio.n))
        energy = energy_of_irrep(IrrepLabel(big_n, p, q), ratio)
        assert energy == (big_n + Fraction(2 * p - 1, 2 * ratio.m)
                          + Fraction(2 * q - 1, 2 * ratio.n))
        assert str(energy) == str(big_n + Fraction(2 * p - 1, 2 * ratio.m)
                                  + Fraction(2 * q - 1, 2 * ratio.n))

    def test_cartesian_energy_worked_values(self):
        ratio = FrequencyRatio(1, 2)
        assert energy_of_cartesian(CartesianState(0, 0), ratio) == Fraction(3, 4)
        assert energy_of_cartesian(CartesianState(1, 2), ratio) == Fraction(11, 4)
        assert energy_of_cartesian(CartesianState(0, 0), FrequencyRatio(1, 1)) == 1

    def test_energy_denominator_divides_2mn(self):
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            for n_x in range(8):
                for n_y in range(8):
                    energy = energy_of_cartesian(CartesianState(n_x, n_y), ratio)
                    assert (2 * m * n) % energy.denominator == 0
                    assert energy > 0


class TestBasisMaps:
    def test_cartesian_to_irrep_worked_values(self):
        ratio = FrequencyRatio(1, 2)
        state = cartesian_to_irrep(CartesianState(1, 2), ratio)
        assert state == IrrepState(IrrepLabel(2, 1, 1), 1)
        state = cartesian_to_irrep(CartesianState(0, 5), ratio)
        assert state == IrrepState(IrrepLabel(2, 1, 2), 0)

    def test_ground_state_maps_to_trivial_label(self):
        for m, n in coprime_pairs(5):
            state = cartesian_to_irrep(CartesianState(0, 0), FrequencyRatio(m, n))
            assert state == IrrepState(IrrepLabel(0, 1, 1), 0)

    def test_irrep_to_cartesian_worked_values(self):
        assert irrep_to_cartesian(
            IrrepState(IrrepLabel(2, 1, 1), 2), FrequencyRatio(1, 2)
        ) == CartesianState(2, 0)
        assert irrep_to_cartesian(
            IrrepState(IrrepLabel(0, 1, 1), 0), FrequencyRatio(2, 3)
        ) == CartesianState(0, 0)

    def test_round_trip_exhaustive_2_3(self):
        ratio = FrequencyRatio(2, 3)
        for n_x in range(12):
            for n_y in range(12):
                state = CartesianState(n_x, n_y)
                assert irrep_to_cartesian(cartesian_to_irrep(state, ratio), ratio) == state

    @given(ratio=COPRIME_RATIOS, n_x=st.integers(0, 200), n_y=st.integers(0, 200))
    def test_round_trip_property(self, ratio, n_x, n_y):
        state = CartesianState(n_x, n_y)
        assert irrep_to_cartesian(cartesian_to_irrep(state, ratio), ratio) == state

    @given(ratio=COPRIME_RATIOS, n_x=st.integers(0, 200), n_y=st.integers(0, 200))
    def test_energy_agrees_between_bases(self, ratio, n_x, n_y):
        state = CartesianState(n_x, n_y)
        irrep = cartesian_to_irrep(state, ratio)
        assert energy_of_irrep(irrep.label, ratio) == energy_of_cartesian(state, ratio)

    def test_members_equal_the_irrep_state_route(self):
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            for label in (IrrepLabel(big_n, p, q) for big_n in range(11)
                          for p in range(1, m + 1) for q in range(1, n + 1)):
                assert irrep_members(label, ratio) == tuple(
                    irrep_to_cartesian(IrrepState(label, k), ratio) for k in range(label.N + 1)
                ), (label, ratio)
        with pytest.raises(ValueError, match="not valid for ratio 2:3"):
            irrep_members(IrrepLabel(1, 3, 1), FrequencyRatio(2, 3))

    def test_members_step_by_the_splus_action(self):
        # S+ = (a+)^m b^n takes member k to member k + 1, the oracle's order
        for m, n in coprime_pairs(5):
            ratio = FrequencyRatio(m, n)
            for label in (IrrepLabel(big_n, p, q) for big_n in range(11)
                          for p in range(1, m + 1) for q in range(1, n + 1)):
                members = irrep_members(label, ratio)
                assert all((a.n_x + m, a.n_y - n) == (b.n_x, b.n_y)
                           for a, b in zip(members, members[1:])), (label, ratio)

    def test_label_to_energy_injective(self):
        for m, n in coprime_pairs(6):
            ratio = FrequencyRatio(m, n)
            seen = set()
            for big_n in range(11):
                for p in range(1, m + 1):
                    for q in range(1, n + 1):
                        energy = energy_of_irrep(IrrepLabel(big_n, p, q), ratio)
                        assert energy not in seen
                        seen.add(energy)


class TestEnumerateLevels:
    @pytest.mark.parametrize(
        "m,n,count,pattern",
        [
            (1, 2, 6, [1, 1, 2, 2, 3, 3]),
            (2, 3, 15, [1, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3]),
            (1, 1, 4, [1, 2, 3, 4]),
        ],
    )
    def test_degeneracy_patterns(self, m, n, count, pattern):
        levels = enumerate_levels(FrequencyRatio(m, n), count)
        assert [level.degeneracy for level in levels] == pattern

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_to_n_repeats_each_degeneracy_n_times(self, n):
        levels = enumerate_levels(FrequencyRatio(1, n), 4 * n)
        expected = [d for d in range(1, 5) for _ in range(n)]
        assert [level.degeneracy for level in levels] == expected

    def test_levels_strictly_ascending_with_consistent_labels(self):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            levels = enumerate_levels(ratio, 30)
            energies = [level.energy for level in levels]
            assert all(a < b for a, b in zip(energies, energies[1:]))
            for level in levels:
                assert level.degeneracy == level.label.N + 1
                assert energy_of_irrep(level.label, ratio) == level.energy

    def test_large_ratio_lists_only_pairs_that_can_be_kept(self):
        # only p q <= count can be among the lowest `count` labels, so a large
        # m costs nothing here (listing all m n sublabels took ~50 MB)
        m, n = 100003, 2
        tracemalloc.start()
        try:
            levels = enumerate_levels(FrequencyRatio(m, n), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert levels == [
            Level(Fraction(2 * p - 1, 2 * m) + Fraction(1, 4), IrrepLabel(0, p, 1), 1)
            for p in (1, 2, 3)
        ]

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            enumerate_levels(FrequencyRatio(1, 2), 0)

    def test_multiset_of_energies_matches_label_enumeration(self):
        # both sides built here, independently of enumerate_levels internals
        for (m, n), count in itertools.product(coprime_pairs(5), (50, 400)):
            ratio = FrequencyRatio(m, n)
            levels = enumerate_levels(ratio, count)
            top = levels[-1].energy

            cartesian = Counter()
            n_x = 0
            while energy_of_cartesian(CartesianState(n_x, 0), ratio) <= top:
                n_y = 0
                while (e := energy_of_cartesian(CartesianState(n_x, n_y), ratio)) <= top:
                    cartesian[e] += 1
                    n_y += 1
                n_x += 1

            labelled = Counter()
            for big_n in range(int(top) + 1):
                for p in range(1, m + 1):
                    for q in range(1, n + 1):
                        e = energy_of_irrep(IrrepLabel(big_n, p, q), ratio)
                        if e <= top:
                            labelled[e] += big_n + 1

            assert cartesian == labelled
            assert {level.energy: level.degeneracy for level in levels} == {
                e: c for e, c in cartesian.items() if e <= top
            }
