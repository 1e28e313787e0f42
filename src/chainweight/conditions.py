"""Pairwise size conditions on nested set families.

Every condition here is determined by which (smaller size, larger size)
pairs are forbidden for a strictly nested pair A < B.  Such conditions are
chain-dependent: a family violates the condition exactly when some full
chain's intersection with it does, which `is_chain_dependent` can verify
exhaustively at tiny n.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Union


def _is_int(value) -> bool:
    # JSON true/false load as bool, which subclasses int.
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Antichain:
    """Forbids every nested pair: at most one set per full chain."""

    def forbids(self, a: int, b: int) -> bool:
        return True


@dataclass(frozen=True)
class ErdosWindow:
    """Forbids nested pairs whose sizes differ by more than k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")

    def forbids(self, a: int, b: int) -> bool:
        return b - a > self.k


@dataclass(frozen=True)
class KatonaGap:
    """Forbids nested pairs whose sizes differ by less than k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")

    def forbids(self, a: int, b: int) -> bool:
        return b - a < self.k


@dataclass(frozen=True)
class RatioLambda:
    """Forbids nested pairs with ratio * |A| <= |B|, for an exact ratio > 1."""

    ratio: Fraction

    def __post_init__(self) -> None:
        ratio = Fraction(self.ratio)
        if ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {ratio}")
        object.__setattr__(self, "ratio", ratio)

    def forbids(self, a: int, b: int) -> bool:
        # ratio * a <= b, compared exactly as p*a <= q*b for ratio = p/q.
        return self.ratio.numerator * a <= self.ratio.denominator * b


@dataclass(frozen=True)
class IntegerRatio:
    """Forbids nested pairs with c * |A| <= |B| for an integer c >= 2."""

    c: int

    def __post_init__(self) -> None:
        if self.c < 2:
            raise ValueError(f"c must be an integer >= 2, got {self.c}")

    @cached_property  # forbids reads it twice per pair of a conflict compile
    def ratio(self) -> Fraction:
        return Fraction(self.c)

    forbids = RatioLambda.forbids


@dataclass(frozen=True)
class CustomPairwise:
    """Explicit table of forbidden size pairs (a, b) with 0 <= a < b <= n."""

    n: int
    forbidden: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        pairs = [tuple(pair) for pair in self.forbidden]
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"forbidden entries must be pairs, got {pair!r}")
            a, b = pair
            if not (_is_int(a) and _is_int(b)):
                raise ValueError(f"forbidden pair must hold integers, got {pair!r}")
            if not 0 <= a < b <= self.n:
                raise ValueError(
                    f"forbidden pair must satisfy 0 <= a < b <= {self.n}, got {pair!r}"
                )
        object.__setattr__(self, "forbidden", frozenset(pairs))

    def forbids(self, a: int, b: int) -> bool:
        if b > self.n:
            raise ValueError(f"size {b} exceeds the table range n={self.n}")
        return (a, b) in self.forbidden


Condition = Union[Antichain, ErdosWindow, KatonaGap, RatioLambda, IntegerRatio, CustomPairwise]


def forbidden_pair(cond: Condition, a: int, b: int) -> bool:
    """True iff a set of size a strictly inside a set of size b violates cond."""
    if a < 0:
        raise ValueError(f"sizes must be nonnegative, got a={a}")
    if a >= b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    return cond.forbids(a, b)


def normalize_levels(levels: Iterable[int]) -> tuple[int, ...]:
    """Sorted tuple of distinct nonnegative levels; rejects malformed input."""
    out = tuple(sorted(levels))
    if out and out[0] < 0:
        raise ValueError(f"levels must be nonnegative, got {out}")
    for lo, hi in zip(out, out[1:]):
        if lo == hi:
            raise ValueError(f"levels must be distinct, got {out}")
    return out


def allowed_levels(cond: Condition, levels: Iterable[int]) -> bool:
    """True iff no pair of the given levels is forbidden under cond."""
    hs = normalize_levels(levels)
    return not any(
        forbidden_pair(cond, a, b) for a, b in itertools.combinations(hs, 2)
    )


def level_conflicts(cond: Condition, n: int) -> tuple[int, ...]:
    """Per-level conflict bitmasks: bit b of entry a is set iff {a, b} is forbidden.

    Compiled once per (cond, n); the optimizers query pairs in inner loops.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if isinstance(cond, CustomPairwise):
        return _custom_conflicts(cond, n)
    return _named_conflicts(cond, n)


# level_conflicts keeps the lru_cache interface it had over a single cache:
# cache_info() counts both caches as one (the benchmark's trace reads it to
# count compiles) and cache_clear() empties both.
def _cache_info() -> tuple[int, int, int, int]:
    named, custom = _named_conflicts.cache_info(), _custom_conflicts.cache_info()
    return type(named)(*map(add, named, custom))


def _cache_clear() -> None:
    _named_conflicts.cache_clear()
    _custom_conflicts.cache_clear()


level_conflicts.cache_info = _cache_info  # type: ignore[attr-defined]
level_conflicts.cache_clear = _cache_clear  # type: ignore[attr-defined]


# Named conditions recur across calls (a few hundred (cond, n) keys cover a
# long run of mixed queries), and an entry holds only n + 1 ints of at most
# n + 1 bits: by sys.getsizeof, 256 entries take at most 2.5 MB while
# n <= 200 and 26 MB at n = 1000.
@lru_cache(maxsize=256)
def _named_conflicts(cond: Condition, n: int) -> tuple[int, ...]:
    masks = [0] * (n + 1)
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            if forbidden_pair(cond, a, b):
                masks[a] |= 1 << b
                masks[b] |= 1 << a
    return tuple(masks)


# Custom tables are almost never asked twice, and each key pins the table's
# pair set (up to n^2 / 2 pairs), so only a few are kept.
@lru_cache(maxsize=8)
def _custom_conflicts(cond: CustomPairwise, n: int) -> tuple[int, ...]:
    # Straight from the table: the pairs were checked when it was built.
    if n > cond.n:
        raise ValueError(f"size {cond.n + 1} exceeds the table range n={cond.n}")
    masks = [0] * (n + 1)
    for a, b in cond.forbidden:
        if b <= n:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return tuple(masks)


def load_custom_condition(source: str | Path) -> CustomPairwise:
    """Read a CustomPairwise table from a JSON file {"n": int, "forbidden": [[a, b], ...]}.

    Duplicate pairs collapse; pairs outside 0 <= a < b <= n are rejected.
    """
    data = json.loads(Path(source).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("custom condition document must be a JSON object")
    if "n" not in data or "forbidden" not in data:
        raise ValueError('custom condition document needs keys "n" and "forbidden"')
    raw = data["forbidden"]
    if not isinstance(raw, list):
        raise ValueError('"forbidden" must be a list of [a, b] pairs')
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f"forbidden entries must be [a, b] pairs, got {entry!r}")
    return CustomPairwise(n=data["n"], forbidden=raw)


def _full_chain_indicators(n: int) -> list[int]:
    # One indicator int per full chain: bit m is set iff subset mask m lies on it.
    chains = []
    for perm in itertools.permutations(range(n)):
        bits = 1  # the empty set, mask 0
        mask = 0
        for element in perm:
            mask |= 1 << element
            bits |= 1 << mask
        chains.append(bits)
    return chains


def is_chain_dependent(n: int, predicate: Callable[["FamilyMask"], bool]) -> bool:
    """Exhaustively test whether a family predicate is chain-dependent on 2^[n].

    Checks, for every family F, that predicate(F) holds exactly when
    predicate(F intersect C) holds for all n! full chains C.  Enumerates all
    2^(2^n) families, so n <= 4 is enforced.
    """
    if not 0 <= n <= 4:
        raise ValueError(f"exhaustive family enumeration needs 0 <= n <= 4, got {n}")
    from .families import FamilyMask

    chains = _full_chain_indicators(n)
    for fam_bits in range(1 << (1 << n)):
        whole = bool(predicate(FamilyMask(n, fam_bits)))
        per_chain = all(
            bool(predicate(FamilyMask(n, fam_bits & chain))) for chain in chains
        )
        if whole != per_chain:
            return False
    return True
