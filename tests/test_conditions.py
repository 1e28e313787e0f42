import gc
import json
import re
import weakref
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
    best_ratio_window,
    count_chains_family,
    count_chains_levels,
    erdos_bound,
    family_satisfies,
    forbidden_pair,
    integer_ratio_levels,
    is_chain_dependent,
    katona_bound,
    level_conflicts,
    load_custom_condition,
    max_chains_family,
    max_family,
    optimal_levels_for_chains,
    residue_class_weights,
    size_bound,
    sperner_bound,
    window_chain_count,
)
from chainweight.conditions import level_shape

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
    for kind in (ErdosWindow, KatonaGap, IntegerRatio):
        for bad in (2.5, 1.5, True, Fraction(3), "3", None):
            with pytest.raises(ValueError, match="integer"):
                kind(bad)
    with pytest.raises(ValueError, match="k must be a positive integer, got 0"):
        KatonaGap(0)
    with pytest.raises(ValueError, match="c must be an integer >= 2, got 1"):
        IntegerRatio(1)
    with pytest.raises(ValueError):
        KatonaGap(-1)
    for bad in (1.1, 1.5, 2.0, True, "3/2", None):
        with pytest.raises(ValueError, match="integer or a Fraction"):
            RatioLambda(bad)
    assert RatioLambda(3).ratio == Fraction(3)
    assert RatioLambda(Fraction(11, 10)).ratio == Fraction(11, 10)
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


def reference_conflicts(cond, n):
    # The pairwise compile, from the reference ladder rather than `forbids`.
    masks = [0] * (n + 1)
    for a, b in combinations(range(n + 1), 2):
        if reference_forbidden_pair(cond, a, b):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return tuple(masks)


def check_shape(cond, n):
    assert level_conflicts(cond, n) == reference_conflicts(cond, n), (cond, n)
    kind, shape = level_shape(cond, n)
    if isinstance(cond, KatonaGap):
        assert (kind, shape) == ("gap", cond.k)
        return
    assert kind == "window" and len(shape) == n + 1
    assert all(lo <= hi for lo, hi in zip(shape, shape[1:])), (cond, n, shape)
    for a, top in enumerate(shape):
        # tops[a] + 1 is a's first conflict above it, if it is a level.
        assert a <= top <= n
        assert not any(reference_forbidden_pair(cond, a, b) for b in range(a + 1, top + 1))
        assert top == n or reference_forbidden_pair(cond, a, top + 1), (cond, n, a)


def edge_conditions(n):
    # Gaps and windows at and past n, and ratios just above 1.
    conds = [Antichain()]
    for k in (n, n + 1, n + 5, 10**9):
        conds += [ErdosWindow(max(k, 1)), KatonaGap(max(k, 1)), IntegerRatio(max(k, 2))]
    conds += [RatioLambda(Fraction(q + 1, q)) for q in (1, 2, 3, 50, 399, 400)]
    return conds + [RatioLambda(Fraction(1001, 1000))]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 300])
def test_shape_built_conflicts_at_the_edges(n):
    for cond in edge_conditions(n):
        check_shape(cond, n)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 300))
def test_shape_built_conflicts_match_the_pairwise_compile(data, n):
    k = st.one_of(st.integers(1, n + 6), st.sampled_from([n + 1, n + 5, 10**9]))
    cond = data.draw(
        st.one_of(
            st.just(Antichain()),
            st.builds(ErdosWindow, k),
            st.builds(KatonaGap, k),
            st.builds(lambda q: RatioLambda(Fraction(q + 1, q)), st.integers(1, 400)),
            st.builds(
                lambda p, q: RatioLambda(Fraction(q + p, q)), st.integers(1, 40), st.integers(1, 40)
            ),
            st.just(RatioLambda(Fraction(1001, 1000))),
            st.builds(IntegerRatio, k.filter(lambda c: c >= 2)),
        )
    )
    check_shape(cond, n)


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
    # A named condition's compile stays cached; custom tables are compiled on
    # every call and never touch the cache.
    named = level_conflicts(KatonaGap(7), 31)
    before = level_conflicts.cache_info()
    for n in range(1, 21):
        table = CustomPairwise(n, frozenset({(0, 1)}))
        first = level_conflicts(table, n)
        assert level_conflicts(table, n) == first
    assert level_conflicts.cache_info() == before
    assert level_conflicts(KatonaGap(7), 31) is named
    assert before.currsize <= before.maxsize == 256


def test_custom_tables_are_freed_after_use():
    table = CustomPairwise(5, frozenset({(0, 2), (1, 3), (2, 5), (0, 5)}))
    ref = weakref.ref(table)
    level_conflicts(table, 5)
    level_conflicts(table, 3)
    size_bound(5, table)
    optimal_levels_for_chains(5, table, 2)
    max_family(5, table)
    del table
    gc.collect()
    assert ref() is None


def test_level_conflicts_cache_clear_empties_both_caches():
    level_conflicts(KatonaGap(2), 5)
    level_conflicts(CustomPairwise(4, frozenset({(0, 1)})), 4)
    level_conflicts.cache_clear()
    assert level_conflicts.cache_info().currsize == 0
    level_conflicts(KatonaGap(2), 5)
    info = level_conflicts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: size_bound(-1, Antichain()), "n must be nonnegative, got -1"),
        (lambda: sperner_bound(-1), "n must be nonnegative, got -1"),
        (lambda: erdos_bound(-1, 2), "n must be nonnegative, got -1"),
        (lambda: erdos_bound(6, 0), "k must be a positive integer, got 0"),
        (lambda: katona_bound(-2, 2), "n must be nonnegative, got -2"),
        (lambda: katona_bound(6, -1), "k must be a positive integer, got -1"),
        (lambda: residue_class_weights(-1, 3), "n must be nonnegative, got -1"),
        (lambda: residue_class_weights(6, 1), "k must be an integer >= 2, got 1"),
        (lambda: best_ratio_window(0, Fraction(3, 2)), "n must be a positive integer, got 0"),
        (lambda: integer_ratio_levels(-1, 2), "n must be nonnegative, got -1"),
        (lambda: integer_ratio_levels(6, 1), "c must be an integer >= 2, got 1"),
        (lambda: count_chains_levels(-3, (), 2), "n must be nonnegative, got -3"),
        (lambda: count_chains_levels(6, (1, 3), 0), "ell must be a positive integer, got 0"),
        (lambda: optimal_levels_for_chains(-1, KatonaGap(2), 2), "n must be nonnegative, got -1"),
        (lambda: optimal_levels_for_chains(6, Antichain(), 0), "ell must be a positive integer, got 0"),
        (lambda: window_chain_count(6, -1, 1, 0), "k must be nonnegative, got -1"),
        (lambda: count_chains_family(FamilyMask(2, 1), 0), "ell must be a positive integer, got 0"),
        (lambda: max_chains_family(3, Antichain(), -1), "ell must be a positive integer, got -1"),
        (lambda: level_conflicts(Antichain(), -1), "n must be nonnegative, got -1"),
    ],
)
def test_lower_bounds_share_one_wording(call, message):
    # Each integer argument's lower bound is checked with its type, in one
    # helper, which words it as condition parameters are worded.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: level_conflicts(Antichain(), True), "n"),
        (lambda: FamilyMask.from_levels(3, [True]), "level"),
        (lambda: FamilyMask.from_levels(3, [1, 2.0]), "level"),
        (lambda: FamilyMask.from_members(3, [True]), "member"),
        (lambda: FamilyMask.from_members(3, [0, 1.0]), "member"),
        (lambda: count_chains_levels(4, [True, 3], 2), "level"),
        (lambda: count_chains_levels(4, [1.0, 3], 2), "level"),
        (lambda: allowed_levels(KatonaGap(2), (0, "3")), "level"),
        (lambda: allowed_levels(Antichain(), [False]), "level"),
    ],
)
def test_level_and_member_items_must_be_ints(call, name):
    # A bool item would stand for level or subset 0 or 1, and a float one
    # fails deep inside; the items are refused by name, as sizes are.
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_level_items_keep_their_range_messages():
    with pytest.raises(ValueError, match=r"levels must be nonnegative, got \(-1, 3\)"):
        count_chains_levels(6, (3, -1), 2)
    with pytest.raises(ValueError, match=r"levels must be distinct, got \(3, 3\)"):
        allowed_levels(KatonaGap(2), (3, 3))
    with pytest.raises(ValueError, match=r"levels must lie in \[0, 3\]"):
        FamilyMask.from_levels(3, [4])
    with pytest.raises(ValueError, match="subset mask 8 out of range for n=3"):
        FamilyMask.from_members(3, [8])
    assert FamilyMask.from_levels(3, [1, 1]) == FamilyMask.from_levels(3, [1])
