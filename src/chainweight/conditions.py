"""Pairwise size conditions on nested set families.

Every condition here is determined by which (smaller size, larger size)
pairs are forbidden for a strictly nested pair A < B.  Such conditions are
chain-dependent: a family violates the condition exactly when some full
chain's intersection with it does, which `is_chain_dependent` can verify
exhaustively at tiny n.  Each type defines its pairs once: KatonaGap (sizes
closer than k) and custom tables by `forbids`, the window conditions by a
nondecreasing `top`, past which every size conflicts with a.  `level_shape`
gives these runs of levels, and `level_conflicts` builds its masks from them.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Union

from .record import Record


def _is_int(value) -> bool:
    # JSON true/false load as bool, which subclasses int.
    return isinstance(value, int) and not isinstance(value, bool)


def _at_least(least: int) -> str:
    # The one wording of a lower bound, for arguments and condition parameters.
    if least == 0:
        return "nonnegative"
    return "a positive integer" if least == 1 else f"an integer >= {least}"


def _require_ints(**args: tuple[object, int | None]) -> None:
    # Each argument comes by name as (value, least); least None sets no bound.
    # Sizes are ints: a bool would count as 0 or 1, and a float fails deep inside.
    for name, (value, least) in args.items():
        if not _is_int(value):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if least is not None and value < least:
            raise ValueError(f"{name} must be {_at_least(least)}, got {value!r}")


def _check_param(name: str, value, least: int) -> None:
    # Parameters come from files and the command line: a ValueError, exit 1.
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be {_at_least(least)}, got {value!r}")


class _Window(Record):
    """A condition that forbids a < b exactly when b > top(a), top nondecreasing."""

    def forbids(self, a: int, b: int) -> bool:
        return b > self.top(a)


class Antichain(_Window):
    """Forbids every nested pair: at most one set per full chain."""

    def top(self, a: int) -> int:
        return a


class ErdosWindow(_Window):
    """Forbids nested pairs whose sizes differ by more than k."""

    _fields = ("k",)

    def __init__(self, k: int) -> None:
        _check_param("k", k, 1)
        self.__dict__["k"] = k

    def top(self, a: int) -> int:
        return a + self.k


class KatonaGap(Record):
    """Forbids nested pairs whose sizes differ by less than k."""

    _fields = ("k",)

    def __init__(self, k: int) -> None:
        _check_param("k", k, 1)
        self.__dict__["k"] = k

    def forbids(self, a: int, b: int) -> bool:
        return b - a < self.k


class RatioLambda(_Window):
    """Forbids nested pairs with ratio * |A| <= |B|, for an exact ratio > 1."""

    _fields = ("ratio",)

    def __init__(self, ratio: Fraction) -> None:
        if not (_is_int(ratio) or isinstance(ratio, Fraction)):  # a float is inexact
            raise ValueError(f"ratio must be an integer or a Fraction, got {ratio!r}")
        ratio = Fraction(ratio)
        if ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {ratio}")
        self.__dict__["ratio"] = ratio

    def top(self, a: int) -> int:
        # For ratio = p/q, b is allowed iff q*b < p*a, that is iff b <= (p*a - 1) // q.
        return (self.ratio.numerator * a - 1) // self.ratio.denominator


class IntegerRatio(_Window):
    """Forbids nested pairs with c * |A| <= |B| for an integer c >= 2."""

    _fields = ("c",)

    def __init__(self, c: int) -> None:
        _check_param("c", c, 2)
        self.__dict__["c"] = c
        self.__dict__["ratio"] = Fraction(c)  # not a field: top reads it twice per level

    top = RatioLambda.top


class CustomPairwise(Record):
    """Explicit table of forbidden size pairs (a, b) with 0 <= a < b <= n."""

    _fields = ("n", "forbidden")

    def __init__(self, n: int, forbidden: Iterable[tuple[int, int]]) -> None:
        if not _is_int(n) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        pairs = [tuple(pair) for pair in forbidden]
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError(f"forbidden entries must be pairs, got {pair!r}")
            a, b = pair
            if not (_is_int(a) and _is_int(b)):
                raise ValueError(f"forbidden pair must hold integers, got {pair!r}")
            if not 0 <= a < b <= n:
                raise ValueError(
                    f"forbidden pair must satisfy 0 <= a < b <= {n}, got {pair!r}"
                )
        self.__dict__["n"] = n
        self.__dict__["forbidden"] = frozenset(pairs)

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
    """Sorted tuple of distinct nonnegative int levels; rejects malformed input."""
    out = tuple(levels)
    for h in out:
        _require_ints(level=(h, None))
    out = tuple(sorted(out))
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


def level_shape(cond: Condition, n: int) -> tuple[str, object]:
    """("gap", k), ("window", top(a) clipped to [a, n] per level a) or ("table", masks)."""
    if isinstance(cond, _Window):
        return "window", tuple(min(max(cond.top(a), a), n) for a in range(n + 1))
    if isinstance(cond, KatonaGap):
        return "gap", cond.k
    if isinstance(cond, CustomPairwise):
        return "table", level_conflicts(cond, n)
    raise TypeError(f"not a condition: {cond!r}")


def level_conflicts(cond: Condition, n: int) -> tuple[int, ...]:
    """Per-level conflict bitmasks: bit b of entry a is set iff {a, b} is forbidden.

    Built from level_shape and cached per (cond, n) for the named conditions;
    the optimizers query pairs in inner loops.  Custom tables are rarely asked
    twice, so each call compiles one straight from its checked pairs.
    """
    _require_ints(n=(n, 0))
    if not isinstance(cond, CustomPairwise):
        return _named_conflicts(cond, n)
    if n > cond.n:
        raise ValueError(f"size {cond.n + 1} exceeds the table range n={cond.n}")
    masks = [0] * (n + 1)
    for a, b in cond.forbidden:
        if b <= n:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
    return tuple(masks)


# Named conditions recur across calls (a few hundred (cond, n) keys cover a
# long run of mixed queries), and an entry holds only n + 1 ints of at most
# n + 1 bits: by sys.getsizeof, 256 entries take at most 2.5 MB while
# n <= 200 and 26 MB at n = 1000.
@lru_cache(maxsize=256)
def _named_conflicts(cond: Condition, n: int) -> tuple[int, ...]:
    kind, shape = level_shape(cond, n)
    if kind == "gap":  # the run (a - k, a + k) without a, clipped to [0, n] for any k
        return tuple(
            ((1 << min(a + shape, n + 1)) - (1 << max(a - shape + 1, 0))) ^ (1 << a)
            for a in range(n + 1)
        )
    # The levels above tops[a], and the levels b < a with tops[b] < a: a
    # prefix, since tops never decreases.
    return tuple(
        ((1 << (n + 1)) - (2 << top)) | ((1 << bisect_left(shape, a)) - 1)
        for a, top in enumerate(shape)
    )


# The benchmark's trace counts compiles through level_conflicts.cache_info().
level_conflicts.cache_info = _named_conflicts.cache_info  # type: ignore[attr-defined]
level_conflicts.cache_clear = _named_conflicts.cache_clear  # type: ignore[attr-defined]


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
