import json
from fractions import Fraction
from itertools import combinations

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
    allowed_levels,
    family_satisfies,
    forbidden_pair,
    is_chain_dependent,
    level_conflicts,
    load_custom_condition,
)

RATIOS = [Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(5, 2)]


def named_conditions(n):
    conds = [Antichain()]
    conds += [ErdosWindow(k) for k in range(1, n + 1)]
    conds += [KatonaGap(k) for k in range(1, n + 1)]
    conds += [RatioLambda(r) for r in RATIOS]
    conds += [IntegerRatio(c) for c in (2, 3)]
    return conds


def reference_forbidden_pair(cond, a, b):
    # Every condition's forbidden pairs written out in one place, apart from
    # the types' own `forbids`: the oracle that forbidden_pair is checked against.
    if isinstance(cond, Antichain):
        return True
    if isinstance(cond, ErdosWindow):
        return b - a > cond.k
    if isinstance(cond, KatonaGap):
        return b - a < cond.k
    if isinstance(cond, RatioLambda):
        return cond.ratio.numerator * a <= cond.ratio.denominator * b
    if isinstance(cond, IntegerRatio):
        return cond.c * a <= b
    if isinstance(cond, CustomPairwise):
        return (a, b) in cond.forbidden
    raise TypeError(f"not a condition: {cond!r}")


REFERENCE_N = 60
nested_sizes = st.tuples(st.integers(0, REFERENCE_N), st.integers(0, REFERENCE_N)).filter(
    lambda pair: pair[0] < pair[1]
)
any_condition = st.one_of(
    st.just(Antichain()),
    st.builds(ErdosWindow, st.integers(1, REFERENCE_N + 1)),
    st.builds(KatonaGap, st.integers(1, REFERENCE_N + 1)),
    st.builds(
        lambda p, q: RatioLambda(Fraction(q + p, q)), st.integers(1, 40), st.integers(1, 40)
    ),
    st.builds(IntegerRatio, st.integers(2, REFERENCE_N + 1)),
    st.builds(
        lambda pairs: CustomPairwise(REFERENCE_N, frozenset(pairs)),
        st.sets(nested_sizes, max_size=80),
    ),
)


@settings(max_examples=200)
@given(cond=any_condition)
def test_forbidden_pair_matches_reference_ladder(cond):
    for a, b in combinations(range(REFERENCE_N + 1), 2):
        assert forbidden_pair(cond, a, b) is reference_forbidden_pair(cond, a, b)


def test_forbidden_pair_examples():
    assert forbidden_pair(KatonaGap(3), 3, 5) is True
    assert forbidden_pair(RatioLambda(Fraction(3, 2)), 4, 6) is True
    assert forbidden_pair(ErdosWindow(2), 1, 3) is False
    assert forbidden_pair(RatioLambda(Fraction(3, 2)), 0, 1) is True


def test_forbidden_pair_rejects_non_nested_sizes():
    for cond in (Antichain(), KatonaGap(2)):
        with pytest.raises(ValueError):
            forbidden_pair(cond, 3, 3)
        with pytest.raises(ValueError):
            forbidden_pair(cond, 5, 2)
        with pytest.raises(ValueError):
            forbidden_pair(cond, -1, 2)


def test_ratio_boundary_is_inclusive():
    # ratio * a == b is already forbidden; the allowed window is half open.
    assert forbidden_pair(RatioLambda(Fraction(2)), 3, 6) is True
    assert forbidden_pair(RatioLambda(Fraction(2)), 3, 5) is False


def test_zero_size_under_ratio_conflicts_with_everything():
    for b in range(1, 20):
        assert forbidden_pair(RatioLambda(Fraction(3, 2)), 0, b) is True
        assert forbidden_pair(IntegerRatio(2), 0, b) is True


def test_allowed_levels_examples():
    assert allowed_levels(KatonaGap(3), {0, 3, 6}) is True
    assert allowed_levels(Antichain(), {2, 5}) is False
    assert allowed_levels(RatioLambda(Fraction(3, 2)), {3, 4}) is True


def test_allowed_levels_trivial_cases():
    for cond in named_conditions(4):
        assert allowed_levels(cond, ()) is True
        assert allowed_levels(cond, (2,)) is True


def test_condition_parameter_validation():
    with pytest.raises(ValueError):
        ErdosWindow(0)
    with pytest.raises(ValueError):
        KatonaGap(-1)
    with pytest.raises(ValueError):
        RatioLambda(Fraction(1))
    with pytest.raises(ValueError):
        RatioLambda(Fraction(2, 3))
    with pytest.raises(ValueError):
        IntegerRatio(1)
    with pytest.raises(ValueError):
        CustomPairwise(3, frozenset({(2, 2)}))
    with pytest.raises(ValueError):
        CustomPairwise(3, frozenset({(1, 4)}))


@settings(max_examples=300)
@given(
    data=st.data(),
    n=st.integers(1, 50),
)
def test_forbidden_pair_consistent_with_allowed_levels(data, n):
    cond = data.draw(st.sampled_from(named_conditions(min(n, 6))))
    levels = data.draw(st.sets(st.integers(0, n), max_size=6))
    expected = not any(
        forbidden_pair(cond, a, b) for a, b in combinations(sorted(levels), 2)
    )
    assert allowed_levels(cond, levels) == expected


def test_integer_ratio_agrees_with_whole_ratio():
    for c in range(2, 7):
        whole = RatioLambda(Fraction(c))
        integral = IntegerRatio(c)
        for a in range(0, 50):
            for b in range(a + 1, 51):
                assert forbidden_pair(whole, a, b) == forbidden_pair(integral, a, b)


def test_level_conflicts_matches_pairwise_predicate():
    for cond in named_conditions(5):
        masks = level_conflicts(cond, 10)
        for a in range(11):
            for b in range(a + 1, 11):
                bit = bool(masks[a] >> b & 1)
                assert bit == forbidden_pair(cond, a, b)
                assert bool(masks[b] >> a & 1) == bit


def test_level_conflicts_rejects_small_custom_table():
    cond = CustomPairwise(3, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        level_conflicts(cond, 5)
    with pytest.raises(ValueError, match="size 4 exceeds the table range n=3"):
        level_conflicts(cond, 4)


def test_custom_level_conflicts_match_the_pairwise_loop():
    # Custom tables compile straight from their pairs; the pairwise loop over
    # forbidden_pair is the reference, also for n below the table's n.
    import random

    rng = random.Random(4242)
    for table_n in (0, 1, 2, 5, 9, 17, 40):
        for density in (0.0, 0.1, 0.5, 1.0):
            pairs = frozenset(
                (a, b) for a, b in combinations(range(table_n + 1), 2) if rng.random() < density
            )
            cond = CustomPairwise(table_n, pairs)
            for n in sorted({0, table_n // 3, table_n - 1, table_n} - {-1}):
                expected = [0] * (n + 1)
                for a, b in combinations(range(n + 1), 2):
                    if forbidden_pair(cond, a, b):
                        expected[a] |= 1 << b
                        expected[b] |= 1 << a
                assert level_conflicts(cond, n) == tuple(expected), (table_n, density, n)


def fast_pairwise_predicate(cond, n):
    # Equivalent inlined form of "no forbidden nested pair" used to keep the
    # exhaustive n=4 sweep quick; agreement with family_satisfies is asserted
    # separately below.
    pair_masks = []
    for s in range(1, 1 << n):
        t = (s - 1) & s
        while True:
            if forbidden_pair(cond, t.bit_count(), s.bit_count()):
                pair_masks.append((1 << t) | (1 << s))
            if t == 0:
                break
            t = (t - 1) & s
    def predicate(family):
        bits = family.bits
        return all(bits & pm != pm for pm in pair_masks)
    return predicate


def test_fast_predicate_agrees_with_family_satisfies():
    n = 3
    for cond in named_conditions(n):
        pred = fast_pairwise_predicate(cond, n)
        for bits in range(1 << (1 << n)):
            fam = FamilyMask(n, bits)
            assert pred(fam) == family_satisfies(fam, cond)


def test_named_variants_chain_dependent_n3():
    for cond in named_conditions(3):
        assert is_chain_dependent(3, fast_pairwise_predicate(cond, 3))


def test_named_variants_chain_dependent_n4():
    for cond in [
        Antichain(),
        ErdosWindow(1),
        ErdosWindow(2),
        KatonaGap(2),
        KatonaGap(3),
        RatioLambda(Fraction(3, 2)),
        IntegerRatio(2),
    ]:
        assert is_chain_dependent(4, fast_pairwise_predicate(cond, 4))


def test_size_cap_predicate_is_not_chain_dependent():
    # Three pairwise-incomparable sets meet every chain in at most one set,
    # so the per-chain size cap holds while the family breaks it.
    assert is_chain_dependent(3, lambda fam: fam.size() <= 2) is False


def test_constant_predicate_is_chain_dependent():
    assert is_chain_dependent(2, lambda fam: True) is True


def test_chain_dependence_rejects_large_n():
    with pytest.raises(ValueError):
        is_chain_dependent(5, lambda fam: True)


def test_load_custom_condition_roundtrip(tmp_path):
    doc = {"n": 4, "forbidden": [[0, 2], [1, 3], [0, 2]]}
    path = tmp_path / "cond.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cond = load_custom_condition(path)
    assert cond.n == 4
    assert cond.forbidden == frozenset({(0, 2), (1, 3)})
    assert forbidden_pair(cond, 0, 2) is True
    assert forbidden_pair(cond, 0, 1) is False


def test_load_custom_condition_rejects_bad_documents(tmp_path):
    cases = [
        {"n": 3, "forbidden": [[1, 1]]},
        {"n": 3, "forbidden": [[2, 1]]},
        {"n": 3, "forbidden": [[0, 4]]},
        {"n": 3, "forbidden": [[0]]},
        {"forbidden": []},
        {"n": 3},
        [],
        # JSON booleans are not integers, although bool subclasses int.
        {"n": True, "forbidden": [[False, True]]},
        {"n": 3, "forbidden": [[False, True]]},
        {"n": "3", "forbidden": []},
        {"n": 3, "forbidden": [[[0], [1]]]},
    ]
    for i, doc in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError):
            load_custom_condition(path)


def test_custom_condition_is_chain_dependent():
    cond = CustomPairwise(3, frozenset({(0, 2), (1, 3)}))
    assert is_chain_dependent(3, fast_pairwise_predicate(cond, 3))


def test_named_conflicts_are_cached_apart_from_custom_tables():
    # A named condition's compile stays cached while many custom tables pass
    # through their own small cache, and cache_info counts both.
    named = level_conflicts(KatonaGap(7), 31)
    for n in range(1, 21):
        level_conflicts(CustomPairwise(n, frozenset({(0, 1)})), n)
    after = level_conflicts.cache_info()
    assert level_conflicts(KatonaGap(7), 31) is named
    assert level_conflicts.cache_info().misses == after.misses
    assert after.currsize <= after.maxsize == 256 + 8


def test_level_conflicts_cache_clear_empties_both_caches():
    level_conflicts(KatonaGap(2), 5)
    level_conflicts(CustomPairwise(4, frozenset({(0, 1)})), 4)
    level_conflicts.cache_clear()
    assert level_conflicts.cache_info().currsize == 0
    level_conflicts(KatonaGap(2), 5)
    info = level_conflicts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)
