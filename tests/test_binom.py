import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from chainweight import binomial, binomial_row, chain_weight


def factorial_binomial(n, k):
    # Independent oracle: the factorial formula.
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def multinomial_weight(n, sizes):
    # Independent oracle: n! / ((n - s_t)! (s_t - s_{t-1})! ... s_1!).
    denom = math.factorial(n - sizes[-1]) * math.factorial(sizes[0])
    for lo, hi in zip(sizes, sizes[1:]):
        denom *= math.factorial(hi - lo)
    return math.factorial(n) // denom


def test_binomial_examples():
    assert binomial(6, 0) == 1
    assert binomial(6, 7) == 0
    assert binomial(6, 3) == 20 == factorial_binomial(6, 3)
    assert binomial(9, 4) == 126 == factorial_binomial(9, 4)


def test_binomial_negative_k_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(0, -3) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
        binomial_row(-1)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: binomial(True, 1), "n"),
        (lambda: binomial(3.0, 1), "n"),
        (lambda: binomial(3, False), "k"),
        (lambda: binomial(3, 1.0), "k"),
        (lambda: binomial_row(True), "n"),
        (lambda: binomial_row(2.0), "n"),
        (lambda: chain_weight(True, [0, 1]), "n"),
        (lambda: chain_weight(3.0, [0, 1]), "n"),
        (lambda: chain_weight(3, [True, 3]), "size"),
        (lambda: chain_weight(3, [0, 1.0]), "size"),
    ],
)
def test_binom_functions_refuse_bools_and_floats_by_name(call, name):
    # A bool would count as 0 or 1, and a float failed inside math.comb
    # without naming the argument.
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        call()


def test_binomial_large_inputs_are_exact():
    assert binomial(10_000, 2) == 10_000 * 9_999 // 2
    assert binomial(10_000, 5_000) == math.comb(10_000, 5_000)


def full_recurrence_row(n):
    # Reference oracle: the recurrence C(n, k+1) = C(n, k)(n-k)/(k+1) run
    # over the whole row, as binomial_row did before it mirrored its half.
    row = [1] * (n + 1)
    for k in range(n):
        row[k + 1] = row[k] * (n - k) // (k + 1)
    return row


@given(n=st.integers(0, 600))
def test_binomial_row_matches_comb(n):
    assert binomial_row(n) == [math.comb(n, k) for k in range(n + 1)]


@given(n=st.integers(0, 700))
def test_binomial_row_matches_full_recurrence(n):
    row = binomial_row(n)
    assert row == full_recurrence_row(n)
    # A fresh list each call: changing one leaves the next intact.
    row[0] = -1
    assert binomial_row(n)[0] == 1


@given(n=st.integers(0, 200), k=st.integers(-5, 205))
def test_binomial_symmetry(n, k):
    if 0 <= k <= n:
        assert binomial(n, k) == binomial(n, n - k)


@given(n=st.integers(1, 200), k=st.integers(1, 199))
def test_binomial_pascal(n, k):
    if k <= n - 1:
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(n=st.integers(0, 120), k=st.integers(0, 120))
def test_binomial_matches_factorial_formula(n, k):
    assert binomial(n, k) == factorial_binomial(n, k)


def test_chain_weight_examples():
    assert chain_weight(6, [1, 4]) == 60
    assert chain_weight(6, [3]) == 20
    assert chain_weight(6, [0, 3]) == 20 == binomial(6, 3) * binomial(3, 0)


def test_chain_weight_single_size_is_binomial():
    for n in range(9):
        for s in range(n + 1):
            assert chain_weight(n, [s]) == binomial(n, s)


def test_chain_weight_rejects_bad_sizes():
    with pytest.raises(ValueError):
        chain_weight(6, [])
    with pytest.raises(ValueError):
        chain_weight(6, [3, 3])
    with pytest.raises(ValueError):
        chain_weight(6, [4, 2])
    with pytest.raises(ValueError):
        chain_weight(6, [1, 7])
    with pytest.raises(ValueError):
        chain_weight(6, [-1, 2])


def test_chain_weight_equals_multinomial_exhaustive():
    # Both factorizations count the same chains; cross-check every size list.
    for n in range(13):
        for t in range(1, n + 2):
            for sizes in combinations(range(n + 1), t):
                assert chain_weight(n, sizes) == multinomial_weight(n, sizes)


def test_row_memo_matches_binomial_row_interleaved():
    # The memo levelbounds reads holds the last two rows as tuples; any order
    # of calls must give the row binomial_row builds.
    from chainweight.binom import _row

    rng = random.Random(29)
    ns = [*range(1001), *(rng.randint(0, 1000) for _ in range(1000))]
    rng.shuffle(ns)
    for n in ns:
        row = _row(n)
        assert type(row) is tuple and row == tuple(binomial_row(n)), n
        assert _row.cache_info().currsize <= 2
    assert _row.cache_parameters() == {"maxsize": 2, "typed": True}


def test_binomial_row_is_a_fresh_list():
    row = binomial_row(10)
    row[5] = 0
    row.append(7)
    again = binomial_row(10)
    assert type(again) is list and again == [math.comb(10, k) for k in range(11)]
