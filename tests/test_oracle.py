import dataclasses
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deformed_u2 import (
    CartesianState,
    FrequencyRatio,
    IrrepLabel,
    StructureFunction,
    build_irrep,
    energy_of_cartesian,
    irrep_members,
    oracle_compare,
)
from deformed_u2.oracle import _oracle_reports, _within_one_ulp
from deformed_u2.representation import _BANDS, IrrepStack, _build_stack

CHECKS = {"s0": True, "s_plus": True, "s_minus": True, "h": True}


def coprime_pairs(limit):
    return [
        (m, n)
        for m in range(1, limit + 1)
        for n in range(1, limit + 1)
        if gcd(m, n) == 1
    ]


def labels_of(ratio, n_max):
    return [
        IrrepLabel(big_n, p, q)
        for big_n in range(n_max + 1)
        for p in range(1, ratio.m + 1)
        for q in range(1, ratio.n + 1)
    ]


def failed(rep):
    """The generators whose oracle check fails on an irrep, or on the first irrep of a stack."""
    report = _oracle_reports(rep)[0] if isinstance(rep, IrrepStack) else oracle_compare(rep)
    return {name for name, ok in report.exact_checks.items() if not ok}


# S- reads S+'s band, so no case below injects into S-; the explicit ids keep the numbers
# the cases had while S- had a band of its own
OFFSETS = {"s0": 0, "s_plus": -1, "h": 0}


def with_entry(rep, name, index, value):
    """`rep` with the entry `index` of the generator `name` set to `value`, on its band; an
    index past `rep`'s pattern sets the zero padding of `rep` alone in a wider stack."""
    row, column = index
    assert column - row == OFFSETS[name]
    key, position = f"{name}_band", min(row, column)
    if position < len(getattr(rep, key)):
        band = getattr(rep, key).copy()
        band[position] = value
        return dataclasses.replace(rep, **{key: band})
    stack = IrrepStack.of(rep)
    bands = {k: np.pad(getattr(stack, k), ((0, 0), (0, position + 1))) for k in _BANDS}
    bands[key][0, position] = value
    return dataclasses.replace(stack, **bands)


class TestConstruction:
    def test_isotropic_hamiltonian_diagonal(self):
        # at 1:1, H = U + W = n_x + n_y + 1 on every member of every irrep
        ratio = FrequencyRatio(1, 1)
        for label in labels_of(ratio, 6):
            rep = build_irrep(label, ratio)
            assert all(rep.energy == s.n_x + s.n_y + 1 for s in irrep_members(label, ratio))
            assert oracle_compare(rep).exact_checks == CHECKS
            assert failed(dataclasses.replace(rep, energy=rep.energy + 1)) == {"h"}

    def test_level_multiplicity_11_4(self):
        # the E = 11/4 eigenspace of the 1:2 oscillator holds three states
        ratio = FrequencyRatio(1, 2)
        states = [
            CartesianState(n_x, n_y)
            for n_x in range(12) for n_y in range(12)
            if energy_of_cartesian(CartesianState(n_x, n_y), ratio) == Fraction(11, 4)
        ]
        label = IrrepLabel(2, 1, 1)
        assert sorted(irrep_members(label, ratio), key=lambda s: s.n_x) == states
        assert len(states) == 3
        rep = build_irrep(label, ratio)
        assert rep.energy == Fraction(11, 4)
        assert oracle_compare(rep).passed

    def test_ladder_coefficient_2_3(self):
        # <2,0| S+ |0,3> has weight^2 (1*2/2^2) * (3*2*1/3^3) = 1/9, exactly
        ratio = FrequencyRatio(2, 3)
        label = IrrepLabel(1, 1, 1)
        assert irrep_members(label, ratio) == (CartesianState(0, 3), CartesianState(2, 0))
        rep = build_irrep(label, ratio)
        assert rep.phi == (0, Fraction(1, 9), 0)
        assert rep.numerators == (0, 12, 0)  # over m^m n^n = 108
        assert oracle_compare(rep).passed
        # Phi(1) off by +-1/108, the smallest change the table can hold
        for numerator in (11, 13):
            assert failed(dataclasses.replace(rep, numerators=(0, numerator, 0))) == {
                "s_plus", "s_minus"
            }


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
        report = oracle_compare(build_irrep(label, ratio))
        assert report.residuals == {}
        assert report.exact_checks == CHECKS
        assert report.passed

    def test_isotropic_ladder_entry(self):
        # Phi(x) = x(N+1-x) at N=1 gives sqrt(Phi(1)) = 1
        ratio = FrequencyRatio(1, 1)
        rep = build_irrep(IrrepLabel(1, 1, 1), ratio)
        assert rep.s_plus[1, 0] == 1.0
        assert oracle_compare(rep).passed

    def test_2_3_agreement(self):
        ratio = FrequencyRatio(2, 3)
        assert oracle_compare(build_irrep(IrrepLabel(2, 2, 1), ratio)).exact_checks == CHECKS

    def test_sweep_agreement(self):
        for m, n in coprime_pairs(4):
            ratio = FrequencyRatio(m, n)
            for label in labels_of(ratio, 6):
                assert oracle_compare(build_irrep(label, ratio)).passed, (label, ratio)

    @pytest.mark.parametrize("m,n,n_max", [(4, 7, 20), (5, 7, 15), (2, 7, 25)],
                             ids=lambda v: str(v))
    def test_passes_where_entries_outgrow_an_absolute_gate(self, m, n, n_max):
        # sqrt(Phi) reaches ~2^20 here, where 1 ulp is above the old 1e-10 gate
        ratio = FrequencyRatio(m, n)
        for label in labels_of(ratio, n_max):
            assert oracle_compare(build_irrep(label, ratio)).passed, (label, ratio)

    def test_never_reads_the_structure_function(self, monkeypatch):
        ratio = FrequencyRatio(3, 5)
        reps = [build_irrep(label, ratio) for label in labels_of(ratio, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle read the structure function")

        monkeypatch.setattr(StructureFunction, "__init__", refuse)
        monkeypatch.setattr(StructureFunction, "__call__", refuse)
        assert all(oracle_compare(rep).passed for rep in reps)


class TestMutations:
    REP = build_irrep(IrrepLabel(4, 2, 3), FrequencyRatio(2, 3))

    def test_splus_entry_two_ulp_away(self):
        for k in range(self.REP.label.N):
            entry = self.REP.s_plus[k + 1, k]
            for direction in (math.inf, -math.inf):
                moved = np.nextafter(np.nextafter(entry, direction), direction)
                assert failed(with_entry(self.REP, "s_plus", (k + 1, k), moved)) == {"s_plus"}

    @pytest.mark.parametrize("name,index", [
        pytest.param("s_plus", (5, 4), id="s_plus-index0"),
        pytest.param("s_plus", (7, 6), id="s_plus-index1"),
        pytest.param("s0", (5, 5), id="s0-index4"),
        pytest.param("h", (8, 8), id="h-index5"),
    ])
    def test_nonzero_off_pattern_entry(self, name, index):
        # REP is N = 4, so these entries lie past its pattern, on a stack's padding
        for value in (1e-300, -1.0, 5e-324):
            assert failed(with_entry(self.REP, name, index, value)) == {name}

    @pytest.mark.parametrize("name,index", [
        pytest.param("s0", (3, 3), id="s0-index0"),
        pytest.param("s_plus", (1, 0), id="s_plus-index1"),
        pytest.param("h", (1, 1), id="h-index3"),
    ])
    def test_off_pattern_entry_in_a_stack_fails_only_its_irrep(self, name, index):
        # the 8th of the 30 irreps in the N <= 3 stack of 3:5 has N = 0, so its rows are all
        # padding past its first entry
        ratio = FrequencyRatio(3, 5)
        labels = [IrrepLabel(big_n, p, q) for big_n in (0, 3) for p in range(1, 4)
                  for q in range(1, 6)]
        stack = _build_stack([StructureFunction(label, ratio) for label in labels])
        assert stack.irreps[7].label.N == 0 and stack.s0_band.shape == (30, 4)
        getattr(stack, f"{name}_band")[7, min(index)] = 1e-300
        checks = [report.exact_checks for report in _oracle_reports(stack)]
        assert checks == [{**CHECKS, name: False} if i == 7 else CHECKS for i in range(30)]

    def test_wrong_phi_entry(self):
        # +-1 moves Phi(k) by 1/D, the smallest representable change; -D by -1
        denominator = 2**2 * 3**3
        for k in range(len(self.REP.numerators)):
            for delta in (1, -1, -denominator):
                numerators = list(self.REP.numerators)
                numerators[k] += delta
                assert failed(dataclasses.replace(self.REP, numerators=tuple(numerators))), k

    def test_wrong_u_or_diagonal(self):
        assert failed(dataclasses.replace(self.REP, u=self.REP.u + Fraction(1, 10**9))) == {"s0"}
        s0 = self.REP.s0[2, 2]
        assert failed(with_entry(self.REP, "s0", (2, 2), np.nextafter(s0, math.inf))) == {"s0"}
        h = self.REP.h[0, 0]
        assert failed(with_entry(self.REP, "h", (0, 0), np.nextafter(h, -math.inf))) == {"h"}

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name,index", [
        pytest.param("s_plus", (2, 1), id="s_plus-index0"),
        pytest.param("s0", (3, 3), id="s0-index2"),
        pytest.param("h", (0, 0), id="h-index3"),
        pytest.param("s_plus", (6, 5), id="s_plus-index4"),
        pytest.param("s0", (7, 7), id="s0-index5"),
    ])
    def test_nan_or_inf_entry(self, name, index, value):
        assert failed(with_entry(self.REP, name, index, value)) == {name}

    def test_one_ulp_certificate(self):
        assert _within_one_ulp(math.sqrt(2.0), 2, 1)
        assert _within_one_ulp(1 / 3, 1, 9)
        assert _within_one_ulp(5e-324, 1, 10**648)
        assert not _within_one_ulp(np.nextafter(np.nextafter(1 / 3, 1), 1), 1, 9)
        assert not _within_one_ulp(-1.0, 1, 1)
        assert not _within_one_ulp(math.sqrt(2.0), 3, 1)
        for value in (math.nan, math.inf, -math.inf):
            assert not _within_one_ulp(value, 1, 1)


def within_one_ulp_over_ratios(s, num, den):
    """The 1-ulp test over the common denominator of s and ulp(s), from `as_integer_ratio`."""
    if not math.isfinite(s):
        return False
    (s_num, s_den), (u_num, u_den) = s.as_integer_ratio(), math.ulp(s).as_integer_ratio()
    d = max(s_den, u_den)
    s_d, ulp_d = s_num * (d // s_den), u_num * (d // u_den)
    return (s_d - ulp_d) ** 2 * den < num * d * d < (s_d + ulp_d) ** 2 * den


SMALLEST_NORMAL = 2.0**-1022
ULP_ARGUMENTS = st.one_of(
    st.floats(min_value=SMALLEST_NORMAL, allow_infinity=False),  # positive normals
    st.floats(min_value=0.0, max_value=SMALLEST_NORMAL, exclude_max=True),  # 0 and subnormals
    st.floats(min_value=2.0**53, allow_infinity=False),
    st.floats(),  # negative values, NaN and inf among them
)


class TestOneUlpKernel:
    @settings(deadline=None)
    @given(s=ULP_ARGUMENTS, den=st.integers(1, 2**80), shift=st.integers(-3, 3))
    def test_equals_the_ratio_form_near_the_square(self, s, den, shift):
        # num / den within a few 1/den of s^2, so both outcomes occur
        num = math.floor(Fraction(s) ** 2 * den) + shift if math.isfinite(s) else 1
        assert _within_one_ulp(s, num, den) == within_one_ulp_over_ratios(s, num, den)

    @settings(deadline=None)
    @given(s=ULP_ARGUMENTS, side=st.sampled_from([-1, 1]), scale=st.integers(1, 2**40),
           shift=st.integers(-1, 1))
    def test_equals_the_ratio_form_at_the_interval_ends(self, s, side, scale, shift):
        # num / den at exactly (s -+ ulp)^2, the open ends, and one 1/den either side
        if math.isfinite(s):
            end = (Fraction(s) + side * Fraction(math.ulp(s))) ** 2
            num, den = end.numerator * scale + shift, end.denominator * scale
        else:
            num, den = shift, scale
        assert _within_one_ulp(s, num, den) == within_one_ulp_over_ratios(s, num, den)
        if math.isfinite(s) and s > 0 and shift == 0:
            assert not _within_one_ulp(s, num, den)
