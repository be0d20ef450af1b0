import dataclasses
import math
from fractions import Fraction

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
from deformed_u2 import oracle, representation, structure
from deformed_u2.oracle import _oracle_reports, _within_one_ulp
from deformed_u2.representation import _BANDS, IrrepStack, _build_stack
from deformed_u2.suite import run_suite
from irrep_columns import columns_of, coprime_pairs, labels_of, stack_labels

CHECKS = {"s0": True, "s_plus": True, "s_minus": True, "h": True}


def failed(rep):
    """The generators whose oracle check fails on an irrep, or on the first irrep of a stack."""
    if isinstance(rep, IrrepStack):
        return {name for name, column in _oracle_reports(rep)[1].items() if not column[0]}
    return {name for name, ok in oracle_compare(rep).exact_checks.items() if not ok}


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

    def test_decides_every_check_without_the_ladder_table(self, monkeypatch):
        # the Fock weights read m and n alone, so with F's factor table and the Phi tables built
        # from it out of reach, a prebuilt stack is still checked, and a moved P_1 still fails
        ratio = FrequencyRatio(3, 5)
        stack = _build_stack(ratio, *columns_of(labels_of(ratio, 3)))
        *rest, (p_0, p_1, *tail) = stack.numerators  # the last irrep has N = 3
        moved = dataclasses.replace(stack, numerators=(*rest, (p_0, p_1 + 1, *tail)))

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle read F's factor table")

        for module in (structure, representation):
            monkeypatch.setattr(module, "_phi_numerators", refuse)
        monkeypatch.setattr(structure, "_ladder_factors", refuse)
        irreps = len(stack.big_n)
        assert _oracle_reports(stack) == ({}, {name: [True] * irreps for name in CHECKS})
        failing = {name: [i for i, ok in enumerate(column) if not ok]
                   for name, column in _oracle_reports(moved)[1].items()}
        assert failing == {"s0": [], "s_plus": [irreps - 1], "s_minus": [irreps - 1], "h": []}


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
        stack = _build_stack(ratio, *columns_of(labels))
        assert stack_labels(stack)[7].N == 0 and stack.s0_band.shape == (30, 4)
        getattr(stack, f"{name}_band")[7, min(index)] = 1e-300
        columns = _oracle_reports(stack)[1]
        checks = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert checks == [{**CHECKS, name: False} if i == 7 else CHECKS for i in range(30)]

    def test_wrong_phi_entry(self):
        # +-1 moves Phi(k) by 1/D, the smallest representable change; -D by -1.  The lowers
        # read P_0..P_N and the raises P_1..P_{N+1}, so only the two ends fail one check
        denominator, last = 2**2 * 3**3, len(self.REP.numerators) - 1
        for k in range(last + 1):
            expected = {name for name, reads in (("s_minus", k < last), ("s_plus", k > 0)) if reads}
            for delta in (1, -1, -denominator):
                numerators = list(self.REP.numerators)
                numerators[k] += delta
                replaced = dataclasses.replace(self.REP, numerators=tuple(numerators))
                assert failed(replaced) == expected, (k, delta)

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


def list_reference(stack):
    """The oracle's checks on `stack` in plain Python lists, one irrep at a time: the reference
    for the stacked kernel, whose S0 and H checks run on int64 tables and the stack's arrays."""
    m, n = stack.ratio.m, stack.ratio.n
    den, s0_den, h_den = m**m * n**n, 4 * m * n, 2 * m * n
    s0_rows, s_plus_rows, h_rows = (getattr(stack, key).tolist() for key in _BANDS)
    columns = {"s0": [], "s_plus": [], "s_minus": [], "h": []}
    for i, (label, phi) in enumerate(zip(stack_labels(stack), stack.numerators)):
        big_n, p, q = label.N, label.p, label.q
        dim = big_n + 1
        members = list(zip(range(p - 1, p + big_n * m, m), range(big_n * n + q - 1, q - 2, -n)))
        raises = [math.perm(x + m, m) * math.perm(y, n) for x, y in members]
        lowers = [math.perm(x, m) * math.perm(y + n, n) for x, y in members]
        s0_num = [n * (2 * x + 1) - m * (2 * y + 1) for x, y in members]
        h_num = [n * (2 * x + 1) + m * (2 * y + 1) for x, y in members]
        scaled_u, energy_key = Fraction(stack.scaled_u[i]), Fraction(stack.energy_keys[i])
        u, u_rest = divmod(scaled_u.numerator, scaled_u.denominator)
        energy, energy_rest = divmod(energy_key.numerator, energy_key.denominator)
        columns["s0"].append(
            not u_rest and s0_num == list(range(u, u + dim * s0_den, s0_den))
            and s0_rows[i][:dim] == [v / s0_den for v in s0_num] and not any(s0_rows[i][dim:]))
        columns["s_plus"].append(
            raises == list(phi[1:]) and not any(s_plus_rows[i][big_n:])
            and all(_within_one_ulp(s, w, den) for s, w in zip(s_plus_rows[i], raises[:-1])))
        columns["s_minus"].append(lowers == list(phi[:-1]))
        columns["h"].append(
            not energy_rest and h_num == [energy] * dim
            and h_rows[i][:dim] == [v / h_den for v in h_num] and not any(h_rows[i][dim:]))
    return columns


# a move of a band entry: a value, or steps of one ulp up or down
ENTRY_VALUES = st.sampled_from([math.nan, math.inf, -0.0, 0.0, 1e-300, -1.0, "up", "down",
                                "up2", "down2"])
# at 1:720 Phi(N) of (N, 1, q) is subnormal for q = 1 and N = 1..3 (about 1.4e-311 to
# 4.1e-311) and for q = 2 and N = 1, 2 (9.9e-309, 2.0e-308), and normal otherwise, up to 7e284
SUBNORMAL_RATIO = (1, 720)


def subnormal_labels(n_max):
    """The labels (N, 1, q), q <= 3, of each N <= min(n_max, 3) of SUBNORMAL_RATIO; at N = 4
    Phi(1) is beyond float range."""
    return [IrrepLabel(big_n, 1, q) for big_n in range(min(n_max, 3) + 1) for q in (1, 2, 3)]


class TestStackedKernel:
    @settings(deadline=None, max_examples=150)
    @given(ratio=st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 5), SUBNORMAL_RATIO]),
           n_max=st.integers(0, 4), data=st.data())
    def test_equals_the_list_reference(self, ratio, n_max, data):
        # NaN, inf, -0.0, subnormal quotients and one- and two-ulp moves on real entries and
        # on the padding, and u or E off
        labels = subnormal_labels(n_max) if ratio == SUBNORMAL_RATIO else None
        ratio = FrequencyRatio(*ratio)
        stack = _build_stack(ratio, *columns_of(labels or labels_of(ratio, n_max)))
        for _ in range(data.draw(st.integers(0, 6))):
            band = getattr(stack, data.draw(st.sampled_from(_BANDS)))
            if band.shape[-1]:
                i = data.draw(st.integers(0, band.shape[0] - 1))
                j = data.draw(st.integers(0, band.shape[1] - 1))
                value = data.draw(ENTRY_VALUES)
                if isinstance(value, str):
                    for _ in range(2 if value.endswith("2") else 1):
                        band[i, j] = np.nextafter(
                            band[i, j], math.inf if value.startswith("up") else -math.inf)
                else:
                    band[i, j] = value
        moved = data.draw(st.sets(st.integers(0, len(stack.big_n) - 1), max_size=2))
        # u or E moved by `off`: their columns 4mn u and 2mn E by 4mn off and 2mn off
        field, scale = data.draw(st.sampled_from([("scaled_u", 4), ("energy_keys", 2)]))
        off = data.draw(st.sampled_from([Fraction(1), Fraction(1, 10**9), Fraction(-1, 3)]))
        stack = dataclasses.replace(stack, **{field: tuple(
            value + off * scale * ratio.m * ratio.n if i in moved else value
            for i, value in enumerate(getattr(stack, field)))})
        assert _oracle_reports(stack) == ({}, list_reference(stack))

    def test_a_subnormal_quotient_takes_the_exact_test(self, monkeypatch):
        # sqrt of a subnormal P_1 / D is not proven by the lemma: only those entries are
        # decided in ints, and the kernel's columns are the reference's
        calls = count_exact_tests(monkeypatch)
        ratio = FrequencyRatio(*SUBNORMAL_RATIO)
        stack = _build_stack(ratio, *columns_of(subnormal_labels(3)))
        weights = [w for label in stack_labels(stack) for w in fock_weights(label, ratio)[:label.N]]
        subnormal = [w for w in weights if w / m_m_n_n(ratio) < 2.0**-1022]
        assert subnormal
        assert _oracle_reports(stack) == ({}, list_reference(stack))
        assert len(calls) == len(subnormal)

    def test_a_subnormal_quotient_still_builds_an_entry_within_one_ulp(self):
        # Phi(1) of (1, 1, 1) is 1.4e-311: its S+ entry is the root of P_1 4^j / D, scaled back
        ratio = FrequencyRatio(*SUBNORMAL_RATIO)
        assert oracle_compare(build_irrep(IrrepLabel(1, 1, 1), ratio)).passed
        checks = _oracle_reports(_build_stack(ratio, *columns_of(subnormal_labels(3))))[1]
        assert all(all(column) for column in checks.values())


def count_exact_tests(monkeypatch):
    """The arguments of every `_within_one_ulp` call the oracle makes, as a list."""
    calls = []

    def counting(s, num, den):
        calls.append((s, num, den))
        return _within_one_ulp(s, num, den)

    monkeypatch.setattr(oracle, "_within_one_ulp", counting)
    return calls


def m_m_n_n(ratio):
    return ratio.m**ratio.m * ratio.n**ratio.n


def fock_weights(label, ratio):
    """The raise weights of the irrep's members, times m^m n^n, read off the Fock states."""
    m, n = ratio.m, ratio.n
    return [math.perm(s.n_x + m, m) * math.perm(s.n_y, n) for s in irrep_members(label, ratio)]


# perfbench's verify rounds, verify_deep then verify_wide: (m, n, N_max)
BENCHMARK_SWEEPS = [(1, 1, 26), (1, 2, 18), (2, 1, 18), (1, 3, 16),
                    (3, 5, 8), (4, 7, 5), (5, 7, 4), (2, 7, 6)]


class TestProvenRoute:
    @settings(deadline=None, max_examples=400)
    @given(w=st.integers(1, 2**1100), den=st.integers(1, 2**1100))
    def test_the_lemma_on_any_quotient(self, w, den):
        self.check_lemma(w, den)

    @settings(deadline=None, max_examples=400)
    @given(e=st.integers(-1022, 1023), steps=st.integers(-4, 4), scale=st.integers(1, 2**64),
           shift=st.integers(-3, 3))
    def test_the_lemma_near_powers_of_two_and_four(self, e, steps, scale, shift):
        # w / D within a few ulps of 2^e (of 4^(e/2) for even e), where the binades of the
        # quotient and of its root change
        near = Fraction(2) ** e * (1 + Fraction(steps, 2**53))
        w, den = near.numerator * scale + shift, near.denominator * scale
        if w > 0:
            self.check_lemma(w, den)

    @staticmethod
    def check_lemma(w, den):
        """A correctly rounded root of a finite, normal, correctly rounded w / D is within
        1 ulp of sqrt(w / D), as `_within_one_ulp` decides in ints."""
        try:
            t = w / den
        except OverflowError:
            return
        if t >= 2.0**-1022:
            assert _within_one_ulp(math.sqrt(t), w, den), (w, den)

    def test_the_benchmark_sweeps_make_no_exact_test(self, monkeypatch):
        calls = count_exact_tests(monkeypatch)
        for m, n, n_max in BENCHMARK_SWEEPS:
            report = run_suite(FrequencyRatio(m, n), n_max)
            assert report.residuals["exact_check_failures"] == 0.0, (m, n)
        assert calls == []

    @pytest.mark.parametrize("m,n,n_max", BENCHMARK_SWEEPS[4:])
    def test_each_moved_entry_makes_one_exact_test(self, monkeypatch, m, n, n_max):
        calls = count_exact_tests(monkeypatch)
        ratio = FrequencyRatio(m, n)
        stack = _build_stack(ratio, *columns_of(labels_of(ratio, n_max)))
        rows, columns = np.nonzero(stack.s_plus_band)  # the real entries, in row order
        poisoned = [(2, math.nan), (7, math.inf), (11, "up2"), (len(rows) - 1, "down2")]
        for index, value in poisoned:
            i, j = rows[index], columns[index]
            if value in ("up2", "down2"):
                direction = math.inf if value == "up2" else -math.inf
                value = np.nextafter(np.nextafter(stack.s_plus_band[i, j], direction), direction)
            stack.s_plus_band[i, j] = value
        reports = _oracle_reports(stack)
        assert reports == ({}, list_reference(stack))
        assert [s.hex() for s, _, _ in calls] == [  # in row order, NaN included
            float(stack.s_plus_band[rows[k], columns[k]]).hex() for k, _ in poisoned]
        failing = [i for i, ok in enumerate(reports[1]["s_plus"]) if not ok]
        assert failing == sorted({rows[k] for k, _ in poisoned})
