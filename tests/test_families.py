import gc
import itertools
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainweight import (
    Antichain,
    CustomPairwise,
    ErdosWindow,
    FamilyMask,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    chain_weight,
    count_chains_family,
    count_chains_levels,
    family_satisfies,
    forbidden_pair,
    level_conflicts,
    max_chains_family,
    max_family,
    optimal_levels_for_chains,
    size_bound,
)
from chainweight.conditions import _full_chain_indicators
from chainweight import families
from chainweight.families import (
    COLUMN_PASS_MAX_STEP,
    _count_chains_array,
    _count_chains_packed,
    _count_packed,
    _full_lattice_chains,
    _lattice_chain_bound,
    _masks,
    _subset_sum_inplace,
)
from test_chaincount import ALL_KINDS, conditions_on


def named_conditions(n):
    conds = [Antichain()]
    conds += [ErdosWindow(k) for k in range(1, n + 1)]
    conds += [KatonaGap(k) for k in range(1, n + 1)]
    conds += [RatioLambda(r) for r in (Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(5, 2))]
    conds += [IntegerRatio(c) for c in (2, 3)]
    return conds


def naive_satisfies(family, cond):
    # Independent oracle: test every member pair directly.
    members = list(family.members())
    for t, s in itertools.permutations(members, 2):
        if t != s and (t & s) == t:
            if forbidden_pair(cond, t.bit_count(), s.bit_count()):
                return False
    return True


def naive_chain_count(family, ell):
    members = list(family.members())

    def extend(last, depth):
        if depth == ell:
            return 1
        return sum(
            extend(m, depth + 1)
            for m in members
            if m != last and (m & last) == last
        )

    return sum(extend(m, 1) for m in members)


# Reference implementations: the bit-peeling, submask-scan, numpy-transform
# and pure-int code that families.py ran in earlier versions.  The packed-int
# paths are checked against them.

REFERENCE_SCAN_MAX_N = 12


def reference_members(family):
    bits = family.bits
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits &= bits - 1


def reference_from_levels(n, levels):
    wanted = set(levels)
    bits = 0
    for mask in range(1 << n):
        if mask.bit_count() in wanted:
            bits |= 1 << mask
    return FamilyMask(n, bits)


def reference_indicator(family):
    # Linear in 2^n, unlike peeling one member at a time off a 2^n-bit int.
    size = 1 << family.n
    packed = np.frombuffer(family.bits.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little").astype(bool)


def reference_popcounts(n):
    sizes = np.zeros(1 << n, dtype=np.int64)
    size = 1
    while size < (1 << n):
        sizes[size : 2 * size] = sizes[:size] + 1
        size *= 2
    return sizes


def reference_subset_sum(arr, n):
    # One row-slice add per pass, whatever the row length.
    for b in range(n):
        step = 1 << b
        view = arr.reshape(-1, 2 * step)
        view[:, step:] += view[:, :step]


def reference_family_satisfies(family, cond):
    n = family.n
    conflicts = level_conflicts(cond, n)
    if n <= REFERENCE_SCAN_MAX_N:
        for s in reference_members(family):
            below = conflicts[s.bit_count()]
            t = (s - 1) & s
            while True:
                if family.contains(t) and below >> t.bit_count() & 1:
                    return False
                if t == 0:
                    break
                t = (t - 1) & s
        return True
    indicator = reference_indicator(family)
    sizes = reference_popcounts(n)
    present = sorted({int(v) for v in sizes[indicator]}) if family.bits else []
    for a in present:
        targets = [b for b in present if b > a and conflicts[a] >> b & 1]
        if not targets:
            continue
        counts = np.where(indicator & (sizes == a), 1, 0).astype(np.int64)
        reference_subset_sum(counts, n)
        for b in targets:
            if np.any(counts[indicator & (sizes == b)] > 0):
                return False
    return True


def reference_count_chains_family(family, ell):
    if ell == 1:
        return family.size()
    if (ell + 1) ** family.n < 2**62:
        return reference_count_chains_vector(family, ell)
    return reference_count_chains_bigint(family, ell)


def reference_count_chains_vector(family, ell):
    n = family.n
    indicator = np.zeros(1 << n, dtype=np.int64)
    for s in reference_members(family):
        indicator[s] = 1
    current = indicator.copy()
    for _ in range(ell - 1):
        acc = current.copy()
        reference_subset_sum(acc, n)
        current = (acc - current) * indicator
    return int(current.sum())


def reference_count_chains_bigint(family, ell):
    n = family.n
    indicator = [0] * (1 << n)
    for s in reference_members(family):
        indicator[s] = 1
    current = list(indicator)
    for _ in range(ell - 1):
        acc = list(current)
        for b in range(n):
            step = 1 << b
            for s in range(1 << n):
                if s & step:
                    acc[s] += acc[s ^ step]
        current = [
            (acc[s] - current[s]) if indicator[s] else 0 for s in range(1 << n)
        ]
    return sum(current)


def reference_compatibility(cond, n):
    # The optimisers' graph build before the level masks: a 3^n submask loop
    # into conflict adjacency bitsets, then their complements.
    conflicts = level_conflicts(cond, n)
    adjacency = [0] * (1 << n)
    for s in range(1 << n):
        below = conflicts[s.bit_count()]
        t = (s - 1) & s
        while True:
            if below >> t.bit_count() & 1:
                adjacency[s] |= 1 << t
                adjacency[t] |= 1 << s
            if t == 0:
                break
            t = (t - 1) & s
    universe = (1 << (1 << n)) - 1
    compatible = [universe & ~adj & ~(1 << v) for v, adj in enumerate(adjacency)]
    return compatible, universe


@st.composite
def families_up_to(draw, max_n, min_n=0):
    # Dense (density 1/2), sparse (1/32) or level-union families; the levels
    # come back too, for the from_levels check.
    n = draw(st.integers(min_n, max_n))
    kind = draw(st.sampled_from(("dense", "sparse", "levels")))
    if kind == "levels":
        levels = draw(st.sets(st.integers(0, n)))
        return reference_from_levels(n, levels), levels
    rng = draw(st.randoms(use_true_random=False))
    bits = rng.getrandbits(1 << n)
    if kind == "sparse":
        for _ in range(4):
            bits &= rng.getrandbits(1 << n)
    return FamilyMask(n, bits), None


def test_family_mask_basics():
    fam = FamilyMask.from_members(3, [0b011, 0b101])
    assert fam.size() == 2
    assert fam.contains(0b011)
    assert not fam.contains(0b111)
    assert sorted(fam.members()) == [0b011, 0b101]
    assert FamilyMask.empty(3).size() == 0
    assert FamilyMask.full(3).size() == 8
    assert repr(fam) == "FamilyMask(n=3, bits=0x28)"
    # From n = 14 on, bits has more decimal digits than int's str() allows.
    full14 = FamilyMask.full(14)
    assert repr(full14) == "FamilyMask(n=14, bits=0x" + "f" * 4096 + ")"
    assert eval(repr(full14)) == full14


def test_family_mask_validation():
    with pytest.raises(ValueError):
        FamilyMask(2, 1 << 4)
    with pytest.raises(ValueError):
        FamilyMask(2, -1)
    with pytest.raises(ValueError):
        FamilyMask(25, 0)
    with pytest.raises(ValueError):
        FamilyMask.from_members(2, [4])
    with pytest.raises(ValueError):
        FamilyMask.from_levels(3, [4])


def test_family_mask_from_members_checks_n_first():
    # n is checked before any member is shifted: the shift fails on a
    # negative n and builds an integer of up to 2^n bits on a large one.
    for n, members in ((-1, [0]), (40, [2**39])):
        with pytest.raises(ValueError, match=rf"^FamilyMask needs 0 <= n <= 20, got n={n}$"):
            FamilyMask.from_members(n, members)


def test_family_mask_from_levels():
    fam = FamilyMask.from_levels(4, [0, 2])
    assert fam.size() == 1 + 6
    assert all(m.bit_count() in (0, 2) for m in fam.members())
    assert all(type(m) is int for m in fam.members())


@given(n=st.integers(0, 8), data=st.data())
def test_family_mask_hex_roundtrip(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    fam = FamilyMask(n, bits)
    again = FamilyMask.from_hex(n, fam.to_hex())
    assert again == fam
    assert len(fam.to_hex()) == max(1, (1 << n) // 4)


@pytest.mark.parametrize("text", ["f_f", "+ff", " ff", "-0", "0xff", "ff\n", "", "\u0661"])
def test_family_mask_from_hex_takes_hex_digits_only(text):
    # int(text, 16) would read the first six as 255 or 0, and "\u0661" as 1.
    with pytest.raises(ValueError, match="hex digits"):
        FamilyMask.from_hex(4, text)
    assert FamilyMask.from_hex(4, "00fF").bits == 0xFF


def test_family_satisfies_examples():
    all_pairs_of_4 = FamilyMask.from_levels(4, [2])
    assert family_satisfies(all_pairs_of_4, Antichain()) is True
    empty_and_singleton = FamilyMask.from_members(1, [0b0, 0b1])
    assert family_satisfies(empty_and_singleton, RatioLambda(Fraction(3, 2))) is False
    assert family_satisfies(FamilyMask.from_levels(6, [1, 4]), KatonaGap(3)) is True


def test_family_satisfies_matches_naive():
    for n in (3, 4):
        for cond in named_conditions(3):
            for bits in range(0, 1 << (1 << n), 7 if n == 4 else 1):
                fam = FamilyMask(n, bits)
                assert family_satisfies(fam, cond) == naive_satisfies(fam, cond)


def test_family_satisfies_vector_path_matches_scan():
    # Above n=12 the reference takes its transform path instead of the scan.
    rng_cases = [
        (13, KatonaGap(3), [0, 3, 6, 9, 12]),
        (13, KatonaGap(3), [0, 3, 6, 9, 11]),
        (13, Antichain(), [6]),
        (13, Antichain(), [6, 7]),
        (13, ErdosWindow(2), [5, 6, 7]),
        (13, ErdosWindow(2), [5, 8]),
    ]
    for n, cond, levels in rng_cases:
        fam = FamilyMask.from_levels(n, levels)
        expected = all(
            not forbidden_pair(cond, a, b)
            for a, b in itertools.combinations(sorted(levels), 2)
        )
        assert family_satisfies(fam, cond) == expected
        assert reference_family_satisfies(fam, cond) == expected
        assert n > REFERENCE_SCAN_MAX_N


def test_count_chains_family_examples():
    assert count_chains_family(FamilyMask.from_levels(6, [0, 3, 6]), 2) == 41
    assert count_chains_family(FamilyMask.from_levels(6, [1, 4]), 2) == 60
    for n in range(5):
        for bits in range(0, 1 << (1 << n), 5 if n == 4 else 1):
            fam = FamilyMask(n, bits)
            assert count_chains_family(fam, 1) == fam.size()


def test_count_chains_family_matches_naive():
    for n in (3, 4):
        for bits in range(0, 1 << (1 << n), 11 if n == 4 else 1):
            fam = FamilyMask(n, bits)
            for ell in (2, 3, 4):
                assert count_chains_family(fam, ell) == naive_chain_count(fam, ell)


def test_count_chains_family_bigint_path_matches_vector():
    for n in (3, 5, 6):
        for levels in ([0, 2, 4], list(range(n + 1)), [1, n]):
            fam = FamilyMask.from_levels(n, [h for h in levels if h <= n])
            for ell in (2, 3, 5):
                expected = reference_count_chains_vector(fam, ell)
                assert reference_count_chains_bigint(fam, ell) == expected
                assert count_chains_family(fam, ell) == expected
    # Counts past the reference's loose int64 guard, end to end.
    full = FamilyMask.full(6)
    assert (1290 + 1) ** 6 >= 2**62
    assert count_chains_family(full, 1290) == 0
    assert count_chains_family(full, 7) == naive_chain_count(full, 7)


@settings(max_examples=80, deadline=None)
@given(case=families_up_to(14), data=st.data())
def test_family_oracles_match_reference(case, data):
    family, levels = case
    n = family.n
    cond = data.draw(conditions_on(n))
    assert family_satisfies(family, cond) == reference_family_satisfies(family, cond)
    for ell in range(1, 7):
        assert count_chains_family(family, ell) == reference_count_chains_family(family, ell)
    assert list(family.members()) == list(reference_members(family))
    if levels is not None:
        assert FamilyMask.from_levels(n, levels) == family
    assert FamilyMask.from_hex(n, family.to_hex()) == family


def test_count_chains_family_packed_path_n19():
    # 11-chains of the full lattice at n = 19 overflow int64, so the count
    # runs on packed lanes of 9 bytes.
    n, ell = 19, 11
    assert _count_packed(n, ell)
    expected = count_chains_levels(n, range(n + 1), ell)
    assert expected > 2**63
    assert count_chains_family(FamilyMask.full(n), ell) == expected


def step_widths(monkeypatch, family, ell):
    # (count, the dtype of each array transform step) for count_chains_family.
    widths = []
    transform = families._subset_sum_inplace

    def recording(arr, n):
        widths.append(arr.dtype.name)
        transform(arr, n)

    with monkeypatch.context() as patch:
        patch.setattr(families, "_subset_sum_inplace", recording)
        return count_chains_family(family, ell), widths


def expected_width(total):
    # The width rule: the step's input total bounds every entry of the step.
    return "uint16" if total < 2**16 else "uint32" if total < 2**32 else "int64"


def test_int64_guard_matches_full_lattice_counts():
    # The path chooser against the full lattice's chain counts: packed lanes
    # at n <= 10 and once the ell-chain count may pass 2^63, else the array
    # count, whose sums are int64.
    for n in range(0, 21):
        full = [count_chains_levels(n, range(n + 1), j) for j in range(1, n + 4)]
        assert [_full_lattice_chains(n, j) for j in range(1, n + 4)] == full
        for ell in range(1, n + 4):
            bound = max(full[:ell])
            assert _lattice_chain_bound(n, ell) == bound
            assert _count_packed(n, ell) == (n <= 10 or bound >= 2**63)
    assert all(_lattice_chain_bound(n, ell) < 2**63 for n in range(19) for ell in range(1, 30))
    assert not any(_count_packed(n, ell) for n in range(11, 19) for ell in range(1, 30))
    assert [_count_packed(19, ell) for ell in (10, 11)] == [False, True]
    assert [_count_packed(20, ell) for ell in (8, 9)] == [False, True]


def test_step_widths_follow_the_running_total(monkeypatch):
    # Each step runs in uint16 while the chains it extends number below
    # 2^16, uint32 below 2^32 and int64 above.  At n = 16 the full family's
    # 2^16 members need uint32; one member fewer runs its first step in
    # uint16 and its second, past 2^16 2-chains, in uint32.
    n = 16
    full = FamilyMask.full(n)
    count, widths = step_widths(monkeypatch, full, 3)
    assert (count, widths) == (_full_lattice_chains(n, 3), ["uint32", "uint32"])
    for missing in (0, 1 << 7 | 1 << 3, (1 << n) - 1):
        family = FamilyMask(n, full.bits ^ 1 << missing)
        assert family.size() == 2**16 - 1
        expected = _count_chains_packed(family, 3)
        assert count_chains_family(family, 2) > 2**16
        assert step_widths(monkeypatch, family, 3) == (expected, ["uint16", "uint32"])


def test_step_widths_narrow_with_the_total(monkeypatch):
    # The 9-sets of [20] without element 0, an antichain of C(19, 9) =
    # 92,378 sets, plus the chain {0} < {0, 1} < {0, 1, 2}: the first step
    # runs in uint32, the next, over 3 2-chains, in uint16.
    n = 20
    low, level = _masks(n)
    family = FamilyMask(n, level[9] & low[0] | 1 << 0b1 | 1 << 0b11 | 1 << 0b111)
    assert family.size() == comb(19, 9) + 3 > 2**16
    assert step_widths(monkeypatch, family, 3) == (1, ["uint32", "uint16"])
    assert step_widths(monkeypatch, family, 4) == (0, ["uint32", "uint16", "uint16"])


def test_count_chains_family_full_lattice_across_widths(monkeypatch):
    # The full family holds the most chains of any family at its n, so a
    # step sized too narrow anywhere in n = 11..20 would show here; each step
    # takes the width of the full lattice's count of the chains it extends.
    for n in range(11, 21):
        full = FamilyMask.full(n)
        for ell in range(2, 6):
            count, widths = step_widths(monkeypatch, full, ell)
            assert count == _full_lattice_chains(n, ell), (n, ell)
            assert widths == [expected_width(_full_lattice_chains(n, j)) for j in range(1, ell)]
    # At n = 20 its 2^20 sets and 3^20 - 2^20 2-chains fit uint32; its
    # 3-chains, about 1.09e12, need int64.
    assert 2**31 < _full_lattice_chains(20, 2) < 2**32 < _full_lattice_chains(20, 3)
    assert widths == ["uint32", "uint32", "int64", "int64"]


def test_array_count_matches_packed_across_step_widths():
    # At ell = 4 and n = 15..16, seeded dense and sparse families, whose
    # steps run in uint16 and uint32 (int64 needs 2^32 chains: see the full
    # lattice above).
    import random

    rng = random.Random(1516)
    for n in (15, 16):
        for density_rounds in (0, 3, 8):
            bits = rng.getrandbits(1 << n)
            for _ in range(density_rounds):
                bits &= rng.getrandbits(1 << n)
            family = FamilyMask(n, bits)
            expected = _count_chains_packed(family, 4)
            assert count_chains_family(family, 4) == expected
            assert _count_chains_array(family, 4) == expected


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 14), width=st.sampled_from(["int64", "uint32", "uint16"]), data=st.data())
def test_subset_sum_matches_reference(n, width, data):
    # n = 14 has passes on both sides of COLUMN_PASS_MAX_STEP.  Every output
    # entry is a sum of at most 2^n inputs, so inputs below 2^-n of the
    # width's range never wrap; int64 inputs are signed.
    assert 1 <= COLUMN_PASS_MAX_STEP <= 1 << 13
    rng = data.draw(st.randoms(use_true_random=False))
    if width == "int64":
        low, high = -(2**40), 2**40
    else:
        low, high = 0, np.iinfo(width).max >> n
    values = np.array([rng.randint(low, high) for _ in range(1 << n)], dtype=width)
    expected = values.astype(np.int64)
    reference_subset_sum(expected, n)
    got = values.copy()
    _subset_sum_inplace(got, n)
    assert got.dtype == width
    assert np.array_equal(got.astype(np.int64), expected)


def test_count_chains_family_is_zero_past_n_plus_one(monkeypatch):
    # A chain of distinct subsets of [n] has at most n + 1 members, so longer
    # chains are counted as 0 before either transform runs.
    def no_transform(family, ell, *bound):
        raise AssertionError(f"transform ran at n={family.n}, ell={ell}")

    monkeypatch.setattr(families, "_count_chains_packed", no_transform)
    monkeypatch.setattr(families, "_count_chains_array", no_transform)
    for n in range(7):
        for ell in range(n + 2, n + 6):
            assert count_chains_levels(n, range(n + 1), ell) == 0
            assert count_chains_family(FamilyMask.full(n), ell) == 0
    with pytest.raises(AssertionError, match="n=6, ell=7"):
        count_chains_family(FamilyMask.full(6), 7)


@settings(max_examples=60, deadline=None)
@given(case=families_up_to(13, min_n=6), data=st.data())
def test_packed_count_matches_int64_count(case, data):
    # Both private paths on the same family, across the n = 10/11 cut; the
    # array count's steps take the widths its totals allow, its sums int64.
    family, _ = case
    n = family.n
    ell = data.draw(st.integers(2, n + 1))
    bound = _lattice_chain_bound(n, ell)
    assert bound < 2**63
    expected = count_chains_family(family, ell)
    assert _count_chains_packed(family, ell) == expected
    assert _count_chains_array(family, ell) == expected
    if n <= 8 and ell <= 4:
        assert expected == reference_count_chains_family(family, ell)


def test_mask_table_matches_bit_tests():
    for n in range(13):
        low, level = _masks(n)
        assert len(low) == n and len(level) == n + 1
        for b, mask in enumerate(low):
            assert mask >> (1 << n) == 0
            assert all(bool(mask >> s & 1) == (not s >> b & 1) for s in range(1 << n))
        for a, mask in enumerate(level):
            assert mask >> (1 << n) == 0
            assert all(bool(mask >> s & 1) == (s.bit_count() == a) for s in range(1 << n))


def test_mask_tables_are_kept_per_n():
    # A caller alternating n = 12 and 17 builds each table once.
    families._masks.cache_clear()
    for _ in range(3):
        for n in (12, 17):
            family = FamilyMask.from_levels(n, (2, 5))
            assert family_satisfies(family, Antichain()) is False
            assert family_satisfies(family, KatonaGap(3)) is True
    info = families._masks.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.maxsize == families.SATISFIES_MAX_N + 1


def numpy_from_levels(n, levels):
    indicator = np.isin(reference_popcounts(n), list(levels))
    return FamilyMask(n, int.from_bytes(np.packbits(indicator, bitorder="little").tobytes(), "little"))


def test_family_satisfies_matches_reference_large_n():
    # Seeded level unions and sparse families at n = 14..20, where the
    # reference takes its numpy transform path.
    import random

    rng = random.Random(2020)
    for n in range(14, 21):
        cases = []
        for _ in range(2 if n < 18 else 1):
            levels = sorted(rng.sample(range(n + 1), rng.randint(2, 4)))
            family = FamilyMask.from_levels(n, levels)
            assert family == numpy_from_levels(n, levels)
            cases.append(family)
        bits = rng.getrandbits(1 << n)
        for _ in range(4):
            bits &= rng.getrandbits(1 << n)
        cases.append(FamilyMask(n, bits))
        for family in cases:
            for cond in (Antichain(), KatonaGap(rng.randint(2, 8)), ErdosWindow(rng.randint(1, 4)),
                         RatioLambda(Fraction(3, 2))):
                assert family_satisfies(family, cond) == reference_family_satisfies(family, cond), (
                    n, cond,
                )


def test_level_commands_do_not_import_numpy():
    code = (
        "import sys, chainweight\n"
        "from chainweight.cli import main\n"
        "chainweight.size_bound(12, chainweight.KatonaGap(3))\n"
        "chainweight.optimal_levels_for_chains(12, chainweight.KatonaGap(3), 2)\n"
        "fam = chainweight.FamilyMask.from_levels(6, (1, 4))\n"
        "for argv in (['bound', '--n', '6', '--condition', 'katona:k=3'],\n"
        "             ['verify', '--n', '5', '--condition', 'antichain'],\n"
        "             ['reproduce'],\n"
        "             ['verify', '--n', '6', '--condition', 'katona:k=3',\n"
        "              '--family', fam.to_hex(), '--ell', '2']):\n"
        "    assert main(argv) == 0\n"
        "big = chainweight.FamilyMask.from_levels(20, (3, 10, 17))\n"
        "assert chainweight.family_satisfies(big, chainweight.KatonaGap(7))\n"
        "assert not chainweight.family_satisfies(big, chainweight.Antichain())\n"
        "assert 'numpy' not in sys.modules\n"
        "chainweight.count_chains_family(chainweight.FamilyMask.full(12), 2)\n"
        "assert 'numpy' in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_count_chains_levels_equals_family_oracle():
    for n in range(0, 10):
        for t in range(0, n + 2):
            for levels in itertools.combinations(range(n + 1), t):
                fam = FamilyMask.from_levels(n, levels)
                for ell in range(1, 5):
                    assert count_chains_levels(n, levels, ell) == count_chains_family(
                        fam, ell
                    )


def test_count_chains_family_is_the_full_chain_count():
    # The paper's count through the n! full chains: an ell-chain of sizes
    # a_1 < ... < a_ell lies on a_1! (a_2 - a_1)! ... (n - a_ell)! of them,
    # which is n! / chain_weight(n, sizes), so n! * count_chains_family(F, ell)
    # is the sum over full chains C and over the ell-subsets S of F & C of
    # chain_weight(n, sizes(S)).  Chains meeting F in the same sizes are
    # summed once, with their multiplicity.
    rng = random.Random(2022)
    for n in range(7):
        chains = _full_chain_indicators(n)
        for _ in range(30):
            density = rng.random()
            fam = FamilyMask(n, sum(1 << m for m in range(1 << n) if rng.random() < density))
            meets = Counter(
                tuple(m.bit_count() for m in range(1 << n) if (fam.bits & chain) >> m & 1)
                for chain in chains
            )
            for ell in range(1, n + 3):
                total = sum(
                    times * sum(chain_weight(n, sizes) for sizes in itertools.combinations(met, ell))
                    for met, times in meets.items()
                )
                assert total == factorial(n) * count_chains_family(fam, ell), (n, fam.bits, ell)


def test_max_family_examples():
    assert max_family(4, Antichain())[0] == 6
    assert max_family(6, KatonaGap(3))[0] == 22
    assert max_family(1, Antichain())[0] == 1


def test_max_family_witness_is_valid():
    for n in range(1, 7):
        for cond in named_conditions(min(n, 4)):
            size, witness = max_family(n, cond)
            assert witness.size() == size
            assert family_satisfies(witness, cond)


def exhaustive_max_family(n, cond):
    # Independent oracle: scan all families of subsets of [n].
    best = 0
    for bits in range(1 << (1 << n)):
        fam = FamilyMask(n, bits)
        if fam.size() > best and naive_satisfies(fam, cond):
            best = fam.size()
    return best


def test_max_family_matches_exhaustive_tiny():
    for n in (2, 3):
        for cond in named_conditions(n):
            assert max_family(n, cond)[0] == exhaustive_max_family(n, cond)
    custom = CustomPairwise(3, frozenset({(0, 2), (1, 3), (1, 2)}))
    assert max_family(3, custom)[0] == exhaustive_max_family(3, custom)


def _pair_indicator_masks(n, pairs):
    out = []
    for s in range(1, 1 << n):
        t = (s - 1) & s
        while True:
            if (t.bit_count(), s.bit_count()) in pairs:
                out.append((1 << t) | (1 << s))
            if t == 0:
                break
            t = (t - 1) & s
    return out


def test_max_family_random_tables_exhaustive_n4():
    import random

    rng = random.Random(97531)
    n = 4
    all_pairs = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    for _ in range(6):
        pairs = frozenset(
            p for p in all_pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))
        )
        cond = CustomPairwise(n, pairs)
        pms = _pair_indicator_masks(n, pairs)
        best = 0
        for bits in range(1 << (1 << n)):
            if bits.bit_count() > best and all(bits & pm != pm for pm in pms):
                best = bits.bit_count()
        size, witness = max_family(n, cond)
        assert size == best, (pairs, size, best)
        assert witness.size() == size
        assert family_satisfies(witness, cond)


def test_max_chains_family_random_tables_exhaustive_n3():
    import random

    rng = random.Random(86420)
    n = 3
    all_pairs = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)]
    for _ in range(10):
        pairs = frozenset(
            p for p in all_pairs if rng.random() < rng.choice((0.2, 0.5, 0.8))
        )
        cond = CustomPairwise(n, pairs)
        pms = _pair_indicator_masks(n, pairs)
        for ell in (1, 2, 3):
            best = 0
            for bits in range(1 << (1 << n)):
                if all(bits & pm != pm for pm in pms):
                    best = max(best, count_chains_family(FamilyMask(n, bits), ell))
            got, _ = max_chains_family(n, cond, ell)
            assert got == best, (pairs, ell, got, best)


def test_max_family_equals_size_bound():
    for n in range(1, 8):
        for cond in named_conditions(n):
            assert max_family(n, cond)[0] == size_bound(n, cond).value, (n, cond)


def test_max_family_cap():
    with pytest.raises(ValueError):
        max_family(8, Antichain())
    size, _ = max_family(8, Antichain(), accept_exponential=True)
    assert size == 70


def reference_max_family(n, cond):
    # max_family before the level branches: the greedy seed, then one branch
    # per set in reversed colour order from the root down.
    compatible, universe = families._compatibility(level_conflicts(cond, n), n)
    incumbent = reference_greedy_family(compatible, n)
    best = [incumbent.bit_count(), incumbent]
    reference_expand_clique(compatible, best, 0, 0, universe)
    return best[0], FamilyMask(n, best[1])


def reference_greedy_family(compatible, n):
    # The greedy seed as three passes over explicitly sorted vertex orders.
    vertex_count = len(compatible)
    orders = [
        sorted(range(vertex_count), key=lambda v: (abs(2 * v.bit_count() - n), v)),
        sorted(range(vertex_count), key=lambda v: (-compatible[v].bit_count(), v)),
        list(range(vertex_count)),
    ]
    best = 0
    for order in orders:
        chosen = 0
        allowed = (1 << vertex_count) - 1
        for v in order:
            if allowed >> v & 1:
                chosen |= 1 << v
                allowed &= compatible[v]
        if chosen.bit_count() > best.bit_count():
            best = chosen
    return best


def reference_expand_clique(compatible, best, size, bits, candidates):
    if candidates == 0:
        if size > best[0]:
            best[:] = size, bits
        return
    colored = []
    pool = candidates
    color = 0
    while pool:
        color += 1
        members = pool
        while members:
            v = (members & -members).bit_length() - 1
            colored.append((v, color))
            pool &= ~(1 << v)
            members &= ~(1 << v) & ~compatible[v]
    for v, bound in reversed(colored):
        if size + bound <= best[0]:
            return
        reference_expand_clique(compatible, best, size + 1, bits | 1 << v, candidates & compatible[v])
        candidates &= ~(1 << v)


# Custom tables stop at n = 7: at n = 8 a few dense tables in a hundred take
# the reference search seconds to minutes (neither search has a budget yet).
@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 8))
def test_max_family_matches_reference_search(data, n):
    kinds = ALL_KINDS if n <= 7 else tuple(k for k in ALL_KINDS if k != "custom")
    cond = data.draw(conditions_on(n, kinds))
    size, witness = max_family(n, cond, accept_exponential=True)
    expected, reference_witness = reference_max_family(n, cond)
    assert size == expected == witness.size()
    assert family_satisfies(witness, cond)
    # Both searches replace the incumbent only by a strictly larger family,
    # so an optimal greedy seed is the witness of both.
    if greedy_seed(n, cond).bit_count() == size:
        assert witness == reference_witness


def greedy_seed(n, cond):
    compatible, _ = families._compatibility(level_conflicts(cond, n), n)
    return reference_greedy_family(compatible, n)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 10))
def test_greedy_seed_matches_reference(data, n):
    # The seed peels each group of levels instead of scanning sorted vertex
    # orders; a vertex's degree depends only on its level, so the passes meet
    # the vertices in the same order and choose the same ones.
    cond = data.draw(conditions_on(n))
    compatible, _ = families._compatibility(level_conflicts(cond, n), n)
    assert families._greedy_family(compatible, n) == reference_greedy_family(compatible, n)


def test_max_family_witness_below_a_short_seed():
    # Greedy finds 57 here and the optimum is 63, so the incumbent must
    # improve; the two searches meet different optima first.
    pairs = {(0, 3), (0, 5), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (6, 7)}
    cond = CustomPairwise(7, frozenset(pairs))
    assert greedy_seed(7, cond).bit_count() == 57
    size, witness = max_family(7, cond)
    expected, reference_witness = reference_max_family(7, cond)
    assert size == expected == witness.size() == 63
    assert family_satisfies(witness, cond) and family_satisfies(reference_witness, cond)


def test_max_family_matches_reference_search_on_bench_conditions():
    # The eight conditions that bench/workloads.py draws for max_family, at
    # its largest n.
    for cond in (
        Antichain(), ErdosWindow(1), ErdosWindow(2), KatonaGap(2), KatonaGap(3),
        KatonaGap(4), RatioLambda(Fraction(3, 2)), IntegerRatio(2),
    ):
        size, witness = max_family(9, cond, accept_exponential=True)
        assert (size, witness) == reference_max_family(9, cond), cond
        assert family_satisfies(witness, cond)


def test_max_family_level_branches_reach_n_10_and_11():
    # Set by set, n = 10 KatonaGap(3) took about a minute to close the gap
    # between the greedy seed (342, optimal) and the root colouring bound.
    size, witness = max_family(10, KatonaGap(3), accept_exponential=True)
    assert size == 342 == size_bound(10, KatonaGap(3)).value
    assert family_satisfies(witness, KatonaGap(3))
    assert max_family(11, KatonaGap(4), accept_exponential=True)[0] == 528


def test_max_chains_family_examples():
    count, witness = max_chains_family(3, Antichain(), 2)
    assert count == 0
    count, witness = max_chains_family(4, ErdosWindow(1), 2)
    assert count == optimal_levels_for_chains(4, ErdosWindow(1), 2).count
    count, witness = max_chains_family(3, KatonaGap(2), 2)
    assert count == optimal_levels_for_chains(3, KatonaGap(2), 2).count


def test_max_chains_family_matches_level_optimizer():
    for n in range(1, 5):
        for cond in named_conditions(min(n, 3)):
            for ell in (1, 2, 3):
                brute, witness = max_chains_family(n, cond, ell)
                level = optimal_levels_for_chains(n, cond, ell)
                assert brute == level.count, (n, cond, ell)
                assert family_satisfies(witness, cond)
                assert count_chains_family(witness, ell) == brute


def test_family_optimisers_leave_no_cyclic_garbage():
    # The clique search and the maximal-family enumeration are freed when
    # they finish, not left for the cycle collector to find.
    gc.collect()
    gc.disable()
    try:
        max_family(7, KatonaGap(3))
        assert gc.collect() == 0
        max_chains_family(4, KatonaGap(2), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_max_chains_family_cap():
    with pytest.raises(ValueError):
        max_chains_family(5, Antichain(), 2)


def test_max_chains_family_past_n_plus_one_skips_the_search(monkeypatch):
    # No family of subsets of [n] has a chain of n + 2 sets, so the answer is
    # (0, empty family) without enumerating; every refusal still comes first.
    def no_search(*args):
        raise AssertionError("maximal families enumerated")

    monkeypatch.setattr(families, "_maximal_families", no_search)
    for n in range(0, 7):
        for ell in (n + 2, n + 5):
            assert max_chains_family(n, KatonaGap(2), ell, accept_exponential=True) == (
                0, FamilyMask(n, 0),
            )
    assert max_chains_family(3, Antichain(), 5) == (0, FamilyMask.empty(3))
    with pytest.raises(AssertionError, match="enumerated"):
        max_chains_family(3, Antichain(), 4)
    with pytest.raises(ValueError, match="n <= 20"):
        max_chains_family(21, Antichain(), 30, accept_exponential=True)
    with pytest.raises(ValueError, match="accept_exponential"):
        max_chains_family(6, Antichain(), 8)
    with pytest.raises(ValueError, match="positive integer"):
        max_chains_family(3, Antichain(), 0)
    with pytest.raises(ValueError, match="n=17 needs about 4 GiB"):
        max_chains_family(17, Antichain(), 19, accept_exponential=True)
    with pytest.raises(ValueError, match="table range"):
        max_chains_family(4, CustomPairwise(3, frozenset({(0, 2)})), 6)


def test_exponential_optimisers_stop_at_the_family_cap():
    # Checked before the 2^n adjacency bitsets are built, so n = 25 fails at
    # once instead of exhausting memory.
    with pytest.raises(ValueError, match="n <= 20"):
        max_family(25, Antichain(), accept_exponential=True)
    with pytest.raises(ValueError, match="n <= 20"):
        max_chains_family(25, Antichain(), 2, accept_exponential=True)
    with pytest.raises(ValueError, match="n <= 20"):
        max_family(-1, Antichain())


def test_exponential_optimisers_refuse_oversized_adjacency(monkeypatch):
    # n = 17 would need about 4 GiB of adjacency bitsets; the estimate is
    # refused before the build, whose first call this test makes fail loudly.
    def no_build(cond, n):
        raise AssertionError(f"adjacency built at n={n}")

    monkeypatch.setattr(families, "level_conflicts", no_build)
    with pytest.raises(ValueError, match="n=17 needs about 4 GiB"):
        max_family(17, Antichain(), accept_exponential=True)
    with pytest.raises(ValueError, match="n=17 needs about 4 GiB"):
        max_chains_family(17, KatonaGap(2), 2, accept_exponential=True)
    with pytest.raises(AssertionError, match="n=16"):
        max_family(16, Antichain(), accept_exponential=True)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 9))
def test_compatibility_matches_reference(data, n):
    cond = data.draw(conditions_on(n))
    assert families._compatibility(level_conflicts(cond, n), n) == reference_compatibility(cond, n)


def test_family_satisfies_agrees_with_chain_definition():
    # F satisfies the condition exactly when every chain intersection does.
    for n in (2, 3):
        chains = _full_chain_indicators(n)
        for cond in (Antichain(), KatonaGap(2), ErdosWindow(1), IntegerRatio(2)):
            for bits in range(1 << (1 << n)):
                fam = FamilyMask(n, bits)
                whole = family_satisfies(fam, cond)
                per_chain = all(
                    family_satisfies(FamilyMask(n, bits & chain), cond)
                    for chain in chains
                )
                assert whole == per_chain
    # Sampled check at n=4.
    n = 4
    chains = _full_chain_indicators(n)
    for cond in (Antichain(), KatonaGap(3)):
        for bits in range(0, 1 << (1 << n), 97):
            fam = FamilyMask(n, bits)
            whole = family_satisfies(fam, cond)
            per_chain = all(
                family_satisfies(FamilyMask(n, bits & chain), cond)
                for chain in chains
            )
            assert whole == per_chain


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: FamilyMask(3, True), "bits"),
        (lambda: FamilyMask(3.0, 0), "n"),
        (lambda: FamilyMask.from_levels(True, [0]), "n"),
        (lambda: count_chains_family(FamilyMask(3, 1), True), "ell"),
        (lambda: max_family(True, Antichain()), "n"),
        (lambda: max_chains_family(3, Antichain(), 2.0), "ell"),
    ],
)
def test_family_functions_reject_non_integer_arguments(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()
