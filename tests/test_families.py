import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chainweight import (
    Antichain,
    CustomPairwise,
    ErdosWindow,
    FamilyMask,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    count_chains_family,
    count_chains_levels,
    family_satisfies,
    forbidden_pair,
    max_chains_family,
    max_family,
    optimal_levels_for_chains,
    size_bound,
)
from chainweight.conditions import _full_chain_indicators


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


def test_family_mask_from_levels():
    fam = FamilyMask.from_levels(4, [0, 2])
    assert fam.size() == 1 + 6
    assert all(m.bit_count() in (0, 2) for m in fam.members())


@given(n=st.integers(0, 8), data=st.data())
def test_family_mask_hex_roundtrip(n, data):
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    fam = FamilyMask(n, bits)
    again = FamilyMask.from_hex(n, fam.to_hex())
    assert again == fam
    assert len(fam.to_hex()) == max(1, (1 << n) // 4)


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
    # Same computation through the transform path used above n=12.
    import chainweight.families as families

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
        assert n > families._SUBMASK_SCAN_MAX_N


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
    from chainweight.families import _count_chains_bigint, _count_chains_vector

    for n in (3, 5, 6):
        for levels in ([0, 2, 4], list(range(n + 1)), [1, n]):
            fam = FamilyMask.from_levels(n, [h for h in levels if h <= n])
            for ell in (2, 3, 5):
                assert _count_chains_bigint(fam, ell) == _count_chains_vector(fam, ell)
    # Counts that overflow the int64 guard take the big-int route end to end.
    full = FamilyMask.full(6)
    assert (1290 + 1) ** 6 >= 2**62
    assert count_chains_family(full, 1290) == 0
    assert count_chains_family(full, 7) == naive_chain_count(full, 7)


def test_count_chains_levels_equals_family_oracle():
    for n in range(0, 10):
        for t in range(0, n + 2):
            for levels in itertools.combinations(range(n + 1), t):
                fam = FamilyMask.from_levels(n, levels)
                for ell in range(1, 5):
                    assert count_chains_levels(n, levels, ell) == count_chains_family(
                        fam, ell
                    )


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


def test_max_chains_family_cap():
    with pytest.raises(ValueError):
        max_chains_family(5, Antichain(), 2)


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
