import gc
import math
import random
from fractions import Fraction
from itertools import accumulate, combinations
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from chainweight import (
    Antichain,
    BoundResult,
    CustomPairwise,
    ErdosWindow,
    IntegerRatio,
    KatonaGap,
    RatioLambda,
    SearchBudgetExceeded,
    allowed_levels,
    best_ratio_window,
    binomial_row,
    erdos_bound,
    forbidden_pair,
    integer_ratio_levels,
    katona_bound,
    level_conflicts,
    optimal_levels_for_chains,
    ratio_window_weight,
    residue_class_weights,
    size_bound,
    sperner_bound,
)
from chainweight import levelbounds
from chainweight.levelbounds import _clique_cover_bound
from test_binom import full_recurrence_row
from test_chaincount import shallow_recursion_limit

RATIOS = [Fraction(3, 2), Fraction(5, 3), Fraction(2), Fraction(5, 2)]

TEN_NAMED = (
    Antichain(),
    ErdosWindow(1),
    ErdosWindow(3),
    KatonaGap(2),
    KatonaGap(3),
    KatonaGap(5),
    RatioLambda(Fraction(3, 2)),
    RatioLambda(Fraction(5, 2)),
    IntegerRatio(2),
    IntegerRatio(3),
)


def named_conditions(n):
    conds = [Antichain()]
    conds += [ErdosWindow(k) for k in range(1, n + 1)]
    conds += [KatonaGap(k) for k in range(1, n + 1)]
    conds += [RatioLambda(r) for r in RATIOS]
    conds += [IntegerRatio(c) for c in (2, 3)]
    return conds


def exhaustive_level_optimum(n, cond):
    # Independent oracle: scan every subset of {0..n} with math.comb weights.
    best_value = -1
    best_witness = None
    for t in range(n + 2):
        for levels in combinations(range(n + 1), t):
            if any(forbidden_pair(cond, a, b) for a, b in combinations(levels, 2)):
                continue
            value = sum(math.comb(n, h) for h in levels)
            if value > best_value or (value == best_value and levels < best_witness):
                best_value = value
                best_witness = levels
    return best_value, best_witness


def reference_branch_and_bound(n, cond):
    # Reference oracle: the single-phase search size_bound used before.  It
    # branches on levels in ascending order with the include branch first,
    # so the first maximizer reached is the lexicographically smallest one
    # (weights are positive, hence no maximizer is a subset of another).
    conflicts = level_conflicts(cond, n)
    w = binomial_row(n)
    best_value = -1
    best_witness = ()

    def dfs(avail, weight, chosen):
        nonlocal best_value, best_witness
        if weight + _clique_cover_bound(conflicts, w, avail) <= best_value:
            return
        if avail == 0:
            best_value = weight
            best_witness = tuple(chosen)
            return
        h = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << h)
        chosen.append(h)
        dfs(rest & ~conflicts[h], weight + w[h], chosen)
        chosen.pop()
        dfs(rest, weight, chosen)

    dfs((1 << (n + 1)) - 1, 0, [])
    return best_value, best_witness


def reference_two_phase_branch_and_bound(n, cond):
    # Reference oracle: the two-phase search size_bound used before the
    # tie-broken weights.  Phase 1 finds the optimum with the levels
    # relabelled heaviest first; phase 2 walks the levels upwards and takes
    # level h iff the compatible levels above it still complete the optimum.
    conflicts = level_conflicts(cond, n)
    row = binomial_row(n)
    order = sorted(range(n + 1), key=lambda h: (-row[h], h))
    pos = [0] * (n + 1)
    for i, h in enumerate(order):
        pos[h] = i
    w = [row[h] for h in order]
    digits = itemgetter(*[n - h for h in reversed(order)])
    masks = [int("".join(digits(format(conflicts[h], f"0{n + 1}b"))), 2) for h in order]

    def best(avail, floor):
        # Largest weight of an allowed subset of avail if it exceeds floor,
        # else floor.
        top = floor

        def dfs(avail, weight):
            nonlocal top
            if weight + _clique_cover_bound(masks, w, avail) <= top:
                return
            if avail == 0:
                top = weight
                return
            low = avail & -avail
            i = low.bit_length() - 1
            rest = avail ^ low
            dfs(rest & ~masks[i], weight + w[i])
            dfs(rest, weight)

        dfs(avail, 0)
        return top

    avail = (1 << (n + 1)) - 1
    value = need = best(avail, -1)
    witness = []
    for h in range(n + 1):
        if need == 0:
            break
        if not avail >> pos[h] & 1:
            continue
        avail ^= 1 << pos[h]
        rest = avail & ~masks[pos[h]]
        if best(rest, need - row[h] - 1) >= need - row[h]:
            witness.append(h)
            need -= row[h]
            avail = rest
    return BoundResult(value, tuple(witness), "branch-and-bound")


def as_custom(cond, n):
    pairs = frozenset(
        (a, b)
        for a in range(n + 1)
        for b in range(a + 1, n + 1)
        if forbidden_pair(cond, a, b)
    )
    return CustomPairwise(n, pairs)


def test_size_bound_examples():
    assert size_bound(4, Antichain()) == size_bound(4, Antichain())
    r = size_bound(4, Antichain())
    assert (r.value, r.witness) == (6, (2,))
    r = size_bound(6, ErdosWindow(1))
    assert (r.value, r.witness) == (35, (2, 3))
    r = size_bound(6, KatonaGap(3))
    assert (r.value, r.witness) == (22, (0, 3, 6))


def test_size_bound_matches_exhaustive_oracle():
    for n in range(0, 9):
        for cond in named_conditions(min(n, 5) or 1):
            value, witness = exhaustive_level_optimum(n, cond)
            result = size_bound(n, cond)
            assert result.value == value, (n, cond)
            assert result.witness == witness, (n, cond)
            assert allowed_levels(cond, result.witness)
            assert sum(math.comb(n, h) for h in result.witness) == result.value


def test_size_bound_custom_branch_and_bound_matches_dp():
    # The same condition compiled to a table must give the same optimum and
    # witness through the branch-and-bound route.  The large tables guard
    # the search's speed: reference_branch_and_bound takes about 20 s on
    # KatonaGap(2) at n = 60, and this whole test under a second.
    cases = [(n, cond) for n in (5, 9, 14) for cond in named_conditions(5)]
    cases += [(n, cond) for n in (40, 60, 100, 120) for cond in TEN_NAMED]
    for n, cond in cases:
        direct = size_bound(n, cond)
        tabled = size_bound(n, as_custom(cond, n))
        assert tabled.method == "branch-and-bound"
        assert (tabled.value, tabled.witness) == (direct.value, direct.witness), (n, cond)


def test_size_bound_custom_oracle_small():
    cond = CustomPairwise(6, frozenset({(0, 1), (2, 4), (3, 6), (1, 5)}))
    value, witness = exhaustive_level_optimum(6, cond)
    result = size_bound(6, cond)
    assert (result.value, result.witness) == (value, witness)


def test_size_bound_random_custom_tables():
    import random

    rng = random.Random(424242)
    for _ in range(40):
        n = rng.randint(0, 10)
        pairs = frozenset(
            (a, b)
            for a in range(n + 1)
            for b in range(a + 1, n + 1)
            if rng.random() < rng.choice((0.15, 0.4, 0.8))
        )
        cond = CustomPairwise(n, pairs)
        value, witness = exhaustive_level_optimum(n, cond)
        result = size_bound(n, cond)
        assert (result.value, result.witness) == (value, witness), (n, pairs)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_size_bound_custom_matches_reference_search(n, density, seed):
    rng = random.Random(seed)
    pairs = frozenset(
        (a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < density
    )
    cond = CustomPairwise(n, pairs)
    result = size_bound(n, cond)
    assert (result.value, result.witness) == reference_branch_and_bound(n, cond)


def random_table(n, density, seed):
    rng = random.Random(seed)
    return CustomPairwise(
        n,
        frozenset(
            (a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < density
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 30), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_size_bound_custom_matches_two_phase_search(n, density, seed):
    cond = random_table(n, density, seed)
    assert size_bound(n, cond) == reference_two_phase_branch_and_bound(n, cond)


@settings(max_examples=40, deadline=None)
@given(st.integers(40, 120), st.floats(0.05, 0.5), st.integers(0, 2**32 - 1))
def test_size_bound_large_custom_matches_two_phase_search(n, density, seed):
    # The bench's custom band and sparser: the sparse tables at n = 120 are
    # the slowest searches.
    cond = random_table(n, density, seed)
    assert size_bound(n, cond) == reference_two_phase_branch_and_bound(n, cond)


def test_custom_search_leaves_no_cyclic_garbage():
    # The branch and bound's search is freed when it returns, not left for
    # the cycle collector to find.
    rng = random.Random(60)
    n = 60
    cond = CustomPairwise(
        n, frozenset((a, b) for a in range(n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.3)
    )
    gc.collect()
    gc.disable()
    try:
        size_bound(n, cond)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_custom_search_runs_under_a_shallow_recursion_limit():
    # One forbidden pair at n = 400: the heaviest-first search includes
    # level after level, 400 nodes deep, and so does the ell = 1 chain search.
    n = 400
    cond = CustomPairwise(n, frozenset({(0, 1)}))
    with shallow_recursion_limit():
        result = size_bound(n, cond)
        chains = optimal_levels_for_chains(n, cond, 1)
    assert result == BoundResult(2**n - 1, tuple(range(1, n + 1)), "branch-and-bound")
    assert (chains.count, chains.levels) == (result.value, result.witness)


def test_size_bound_degenerate_n0():
    for cond in named_conditions(1):
        result = size_bound(0, cond)
        assert (result.value, result.witness) == (1, (0,))


def test_sperner_bound_examples():
    assert sperner_bound(4) == 6
    assert sperner_bound(1) == 1
    assert sperner_bound(5) == 10


def test_erdos_bound_examples():
    assert erdos_bound(6, 1) == 35 == math.comb(6, 2) + math.comb(6, 3)
    assert erdos_bound(5, 2) == 25 == 5 + 10 + 10
    for n in range(0, 12):
        for k in range(n, n + 4):
            if k >= 1:
                assert erdos_bound(n, k) == 2**n


def test_katona_bound_examples():
    assert katona_bound(6, 3) == 22
    for n in range(0, 16):
        assert katona_bound(n, 1) == 2**n
    for n in range(1, 31):
        assert katona_bound(n, 2) == 2 ** (n - 1)


def test_residue_class_weights_examples():
    values = dict(residue_class_weights(6, 3))
    assert values == {
        Fraction(-1): 21,
        Fraction(0): 22,
        Fraction(1): 21,
    }
    for n in range(1, 31):
        classes = residue_class_weights(n, 2)
        assert all(weight == 2 ** (n - 1) for _, weight in classes)


def test_residue_class_weights_odd_n_middle_tie():
    values = dict(residue_class_weights(7, 3))
    assert set(values) == {Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)}
    assert values[Fraction(-1, 2)] == values[Fraction(1, 2)] == 43
    assert values[Fraction(3, 2)] == 42


def test_residue_classes_partition_and_sum():
    for n in range(0, 20):
        for k in range(2, 8):
            classes = residue_class_weights(n, k)
            assert len(classes) == k
            assert sum(weight for _, weight in classes) == 2**n
            offsets = [offset for offset, _ in classes]
            assert all(-Fraction(k, 2) < o <= Fraction(k, 2) for o in offsets)


def test_centered_residue_class_dominates():
    # For n >= k, weights strictly decrease as the class offset moves away
    # from n/2; mirrored offsets always tie.
    for n in range(2, 41):
        for k in range(3, 11):
            classes = residue_class_weights(n, k)
            for (off_a, val_a), (off_b, val_b) in combinations(classes, 2):
                if abs(off_a) == abs(off_b):
                    assert val_a == val_b, (n, k, off_a, off_b)
                elif n >= k and abs(off_a) < abs(off_b):
                    assert val_a > val_b, (n, k, off_a, off_b)


def test_gap_optimum_structure():
    # Every maximal-weight gap set starts below k, steps by exactly k, and
    # ends above n - k; checked by enumerating all optimal sets.
    for n in range(1, 21):
        for k in range(1, 6):
            best_value = -1
            optima = []
            for levels in _maximal_gap_sets(n, k):
                value = sum(math.comb(n, h) for h in levels)
                if value > best_value:
                    best_value = value
                    optima = [levels]
                elif value == best_value:
                    optima.append(levels)
            assert best_value == size_bound(n, KatonaGap(k)).value
            assert best_value == katona_bound(n, k)
            for levels in optima:
                assert levels[0] < k
                assert all(b - a == k for a, b in zip(levels, levels[1:]))
                assert levels[-1] > n - k


def _maximal_gap_sets(n, k):
    # All inclusion-maximal subsets of {0..n} with consecutive gaps >= k:
    # start within k of 0, step in [k, 2k-1], end within k of n.  Optimal
    # sets are maximal because weights are positive.
    out = []

    def extend(prefix):
        last = prefix[-1]
        if last > n - k:
            out.append(tuple(prefix))
            return
        for step in range(k, 2 * k):
            if last + step <= n:
                prefix.append(last + step)
                extend(prefix)
                prefix.pop()

    for start in range(min(k, n + 1)):
        extend([start])
    return out


def test_ratio_window_weight_examples():
    assert ratio_window_weight(6, 3, Fraction(3, 2)) == 35
    assert ratio_window_weight(6, 4, Fraction(3, 2)) == 21
    # A window that holds a single term reduces to one binomial.
    assert ratio_window_weight(10, 3, Fraction(4, 3)) == math.comb(10, 3)


def test_best_ratio_window_examples():
    assert best_ratio_window(6, Fraction(3, 2)) == (35, 3)
    assert best_ratio_window(9, Fraction(2)) == (372, 4)
    for n in range(1, 12):
        assert best_ratio_window(n, Fraction(n + 1)) == (2**n - 1, 1)


def test_best_ratio_window_matches_exhaustive():
    for n in range(1, 25):
        for ratio in RATIOS:
            value, k = best_ratio_window(n, ratio)
            per_k = [ratio_window_weight(n, kk, ratio) for kk in range(1, n + 1)]
            assert value == max(per_k)
            assert k == 1 + per_k.index(max(per_k))


# Reference oracles: the scans size_bound and the closed forms ran before
# they read half rows, shared one integer ratio scan and summed the Erdős
# window by its recurrence.  Each reads the full-recurrence row.


def reference_ratio_window_top(k, ratio):
    return (ratio.numerator * k - 1) // ratio.denominator


def reference_best_ratio_window(n, ratio):
    prefix = list(accumulate(full_recurrence_row(n), initial=0))
    best_value = -1
    best_k = 0
    for k in range(1, n + 1):
        value = prefix[min(reference_ratio_window_top(k, ratio), n) + 1] - prefix[k]
        if value > best_value:
            best_value = value
            best_k = k
    return best_value, best_k


def reference_ratio_levels(n, ratio):
    prefix = list(accumulate(full_recurrence_row(n), initial=0))
    best_value = 1
    best_witness = (0,)
    for k in range(1, n + 1):
        top = min(reference_ratio_window_top(k, ratio), n)
        value = prefix[top + 1] - prefix[k]
        if value > best_value:
            best_value = value
            best_witness = tuple(range(k, top + 1))
    return BoundResult(best_value, best_witness, "dp")


def reference_gap_levels(n, k):
    w = full_recurrence_row(n)
    best = [0] * (n + 1)
    suffix_max = [0] * (n + 2)
    for h in range(n, -1, -1):
        tail = suffix_max[h + k] if h + k <= n else 0
        best[h] = w[h] + tail
        suffix_max[h] = max(best[h], suffix_max[h + 1])
    value = max(best)
    levels = []
    target = value
    h = 0
    while True:
        while best[h] != target:
            h += 1
        levels.append(h)
        target -= w[h]
        if target == 0:
            break
        h += k
    return BoundResult(value, tuple(levels), "dp")


def reference_erdos_bound(n, k):
    return sum(full_recurrence_row(n)[max((n - k) // 2, 0) : (n + k) // 2 + 1])


RATIO_CONDITIONS = [RatioLambda(r) for r in RATIOS] + [IntegerRatio(c) for c in (2, 3, 4)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 700))
@example(n=699)
@example(n=700)
def test_ratio_scan_matches_reference(n):
    for cond in RATIO_CONDITIONS:
        assert size_bound(n, cond) == reference_ratio_levels(n, cond.ratio), cond
        if n >= 1:
            assert best_ratio_window(n, cond.ratio) == reference_best_ratio_window(n, cond.ratio)


def test_ratio_scan_keeps_level_zero_ties():
    # {0} weighs 1; at n = 0 there is no window and at n = 1 the only window
    # {1} ties it, so {0} stands.
    for cond in RATIO_CONDITIONS:
        assert size_bound(0, cond) == BoundResult(1, (0,), "dp")
        assert size_bound(1, cond) == BoundResult(1, (0,), "dp")
        assert best_ratio_window(1, cond.ratio) == (1, 1)
        assert size_bound(2, cond).witness[0] == 1


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 700))
@example(n=699)
@example(n=700)
def test_gap_dp_matches_reference(n):
    for k in range(1, 9):
        assert size_bound(n, KatonaGap(k)) == reference_gap_levels(n, k), k


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 700), data=st.data())
def test_erdos_bound_matches_reference(n, data):
    ks = {1, n + 1, n + 2}
    ks.update(data.draw(st.lists(st.integers(1, n + 2), max_size=6)))
    for k in sorted(ks):
        value = reference_erdos_bound(n, k)
        assert erdos_bound(n, k) == value, k
        # The best window is the middle one erdos_bound sums.
        window = tuple(range(max((n - k) // 2, 0), min((n + k) // 2, n) + 1))
        assert size_bound(n, ErdosWindow(k)) == BoundResult(value, window, "dp"), k


def test_integer_ratio_levels_examples():
    assert integer_ratio_levels(9, 2) == (4, 5, 6, 7)
    assert integer_ratio_levels(6, 2) == (3, 4, 5)
    assert integer_ratio_levels(2, 2) == (1,)


def test_integer_ratio_levels_window_attains_optimum():
    for n in range(1, 41):
        for c in (2, 3):
            levels = integer_ratio_levels(n, c)
            value, _ = best_ratio_window(n, Fraction(c))
            window_min = n // (c + 1) + 1
            assert levels == tuple(
                range(window_min, min(c * window_min - 1, n) + 1)
            )
            assert ratio_window_weight(n, window_min, Fraction(c)) == value
            assert sum(math.comb(n, h) for h in levels) == value


def test_closed_forms_agree_with_size_bound():
    # Large rows too: n = 3000 guards the linear-time ratio window scan.
    for n in [*range(0, 31), 511, 512, 1000]:
        assert size_bound(n, Antichain()).value == sperner_bound(n)
        for k in range(1, n + 1):
            assert size_bound(n, ErdosWindow(k)).value == erdos_bound(n, k)
            assert size_bound(n, KatonaGap(k)).value == katona_bound(n, k)
        if n >= 1:
            for ratio in RATIOS:
                assert size_bound(n, RatioLambda(ratio)).value == best_ratio_window(n, ratio)[0]
            for c in (2, 3):
                assert (
                    size_bound(n, IntegerRatio(c)).value
                    == best_ratio_window(n, Fraction(c))[0]
                )
    ratio = Fraction(3, 2)
    assert size_bound(3000, RatioLambda(ratio)).value == best_ratio_window(3000, ratio)[0]


def test_bound_monotone_in_ratio():
    grid = sorted(
        {Fraction(p, q) for p in range(2, 8) for q in range(1, 5) if Fraction(p, q) > 1}
    )
    for n in range(1, 31, 3):
        values = [best_ratio_window(n, r)[0] for r in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_complement_symmetry_for_difference_conditions():
    conds = [Antichain()] + [ErdosWindow(k) for k in (1, 2, 3)] + [
        KatonaGap(k) for k in (2, 3, 4)
    ]
    for n in range(1, 16):
        for cond in conds:
            result = size_bound(n, cond)
            mirrored = tuple(sorted(n - h for h in result.witness))
            assert allowed_levels(cond, mirrored)
            assert sum(math.comb(n, h) for h in mirrored) == result.value


def test_preconditions_rejected():
    with pytest.raises(ValueError):
        sperner_bound(-1)
    with pytest.raises(ValueError):
        erdos_bound(5, 0)
    with pytest.raises(ValueError):
        katona_bound(5, 0)
    with pytest.raises(ValueError):
        residue_class_weights(5, 1)
    with pytest.raises(ValueError):
        ratio_window_weight(5, 0, Fraction(3, 2))
    with pytest.raises(ValueError):
        ratio_window_weight(5, 6, Fraction(3, 2))
    with pytest.raises(ValueError):
        ratio_window_weight(5, 2, Fraction(1))
    with pytest.raises(ValueError):
        best_ratio_window(0, Fraction(3, 2))
    with pytest.raises(ValueError):
        integer_ratio_levels(5, 1)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: size_bound(True, Antichain()), "n"),
        (lambda: size_bound(6.0, CustomPairwise(6, [(0, 1)])), "n"),
        (lambda: sperner_bound(True), "n"),
        (lambda: erdos_bound(6, 2.0), "k"),
        (lambda: katona_bound(6, 2.0), "k"),
        (lambda: katona_bound(False, 2), "n"),
        (lambda: residue_class_weights(6, True), "k"),
        (lambda: ratio_window_weight(6.0, 2, Fraction(3, 2)), "n"),
        (lambda: ratio_window_weight(6, True, Fraction(3, 2)), "k"),
        (lambda: best_ratio_window(True, Fraction(3, 2)), "n"),
        (lambda: integer_ratio_levels(6, 2.0), "c"),
    ],
)
def test_bound_functions_reject_non_integer_arguments(call, name):
    # A bool would count as 0 or 1 and a float fails deep inside, so both
    # are refused by name before any work.
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_custom_search_stops_at_the_root_bound(monkeypatch):
    # One forbidden pair: the clique cover is exact, so the search is its
    # first dive, the root and one include per witness level, and it stops
    # at that leaf.  It spends levelbounds.DEFAULT_NODE_BUDGET, read at each
    # call, and past it raises as the chain search does.
    n = 200
    cond = CustomPairwise(n, [(0, 1)])
    monkeypatch.setattr(levelbounds, "DEFAULT_NODE_BUDGET", n + 1)
    result = size_bound(n, cond)
    assert (result.value, result.witness) == (2**n - 1, tuple(range(1, n + 1)))
    monkeypatch.setattr(levelbounds, "DEFAULT_NODE_BUDGET", n)
    with pytest.raises(SearchBudgetExceeded):
        size_bound(n, cond)
    monkeypatch.setattr(levelbounds, "DEFAULT_NODE_BUDGET", 5)
    with pytest.raises(SearchBudgetExceeded):
        size_bound(40, random_table(40, 0.3, 0))


class _MasksTaken(Exception):
    pass


def heaviest_first_masks(n, cond, monkeypatch):
    # The conflict masks size_bound hands its search, taken before it runs.
    taken = []

    def take(n, conflicts, *args):
        taken.append(conflicts)
        raise _MasksTaken

    monkeypatch.setattr(levelbounds, "_search_levels", take)
    with pytest.raises(_MasksTaken):
        size_bound(n, cond)
    return taken[0]


def reference_table_masks(n, cond):
    # The table's masks in level order, as level_conflicts compiled them
    # before it shared size_bound's pass.
    conflicts = [0] * (n + 1)
    for a, b in cond.forbidden:
        if b <= n:
            conflicts[a] |= 1 << b
            conflicts[b] |= 1 << a
    return conflicts


def reference_heaviest_first_masks(n, cond):
    # The level-order masks permuted into the heaviest-first labels through
    # each mask's binary digits, as the custom size_bound compiled them before.
    conflicts = reference_table_masks(n, cond)
    weight = [c << (n + 1) | 1 << (n - h) for h, c in enumerate(binomial_row(n))]
    order = sorted(range(n + 1), key=weight.__getitem__, reverse=True)
    digits = itemgetter(*[n - h for h in reversed(order)])
    return [int("".join(digits(format(conflicts[h], f"0{n + 1}b"))), 2) for h in order]


def test_custom_masks_compile_straight_into_search_order(monkeypatch):
    rng = random.Random(2029)
    for _ in range(150):
        table_n = rng.randint(0, 120)
        cond = random_table(table_n, rng.choice((0.02, 0.05, 0.1, 0.3, 0.6)), rng.getrandbits(32))
        for n in {table_n, rng.randint(0, table_n), table_n // 2}:
            expected = reference_heaviest_first_masks(n, cond)
            assert heaviest_first_masks(n, cond, monkeypatch) == expected, (table_n, n)
            assert level_conflicts(cond, n) == tuple(reference_table_masks(n, cond)), (table_n, n)
        message = f"^size {table_n + 1} exceeds the table range n={table_n}$"
        with pytest.raises(ValueError, match=message):
            size_bound(table_n + 1, cond)
        with pytest.raises(ValueError, match=message):
            level_conflicts(cond, table_n + 1)


@pytest.mark.parametrize("n", [0, 1, 40, 513, 800])
def test_optimizer_and_closed_form_share_one_row(n, monkeypatch):
    # size_bound and the closed form checked against it at the same n, as
    # the bound command runs them, build one binomial row between them.
    from chainweight import binom

    built = []

    def counted(m):
        built.append(m)
        return binomial_row(m)

    monkeypatch.setattr(binom, "binomial_row", counted)
    monkeypatch.setattr(levelbounds, "binomial_row", counted, raising=False)
    pairs = [
        (KatonaGap(3), lambda: katona_bound(n, 3)),
        (RatioLambda(Fraction(3, 2)), lambda: best_ratio_window(n, Fraction(3, 2)) if n else None),
        (IntegerRatio(2), lambda: best_ratio_window(n, Fraction(2)) if n else None),
    ]
    for cond, closed_form in pairs:
        binom._row.cache_clear()
        built.clear()
        size_bound(n, cond)
        closed_form()
        assert built == [n], cond
    binom._row.cache_clear()
